//! End-to-end benchmark of the clock-tree synthesis stack.
//!
//! ```text
//! cts-perfbench --workload <scale_synth|gsrc_verify|serve_mixed> \
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, measures for about
//! `--seconds`, checks every output it produces, prints a report, and ends
//! with one JSON line: the gated end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run first repeats the
//! untraced measurement so the tracing overhead of every end-to-end
//! metric is printed as a difference. A failed output check is printed,
//! fails its operation and lands in `error_rate`; only a broken benchmark
//! exits non-zero.

mod check;
mod gsrc;
mod layers;
mod openloop;
mod report;
mod scale;
mod serve;
mod stats;

use layers::Counts;
use report::{Metrics, Tally};
use std::path::PathBuf;
use std::time::Instant;

/// Timed set-up samples per run, after one untimed set-up; `setup_s` is
/// their median.
const SETUP_SAMPLES: usize = 21;

/// Set-up time one sample adds up before it is divided by its number of
/// set-ups. A set-up takes about a millisecond, so a sample spans dozens
/// of them and one slow set-up moves it little.
const SETUP_SAMPLE_S: f64 = 0.06;

/// Run-wide settings and the on-disk state of the checkout.
pub struct Bench {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tech: cts::Technology,
    /// `$CARGO_TARGET_DIR/perfbench`: the cached library copy and the
    /// records compared across runs.
    state_dir: PathBuf,
    /// [`build_id`] of this executable; keys the cross-run records.
    build_id: u64,
}

/// Everything a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics with tracing off.
    pub e2e: Metrics,
    /// The same metrics measured again with tracing on (traced runs).
    pub e2e_traced: Option<Metrics>,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Deterministic work counts (traced runs).
    pub counts: Counts,
    /// Quality figures that must repeat exactly for a given seed, as
    /// `(name, exact rendering)`.
    pub repeatable: Vec<(&'static str, String)>,
}

impl Bench {
    fn lib_path(&self) -> PathBuf {
        self.state_dir.join("ctslib_fast.txt")
    }

    /// Untimed warm-up: gets the library the program uses now from
    /// `fast_library` (characterized once per checkout, about ten seconds,
    /// then read from its own fingerprinted cache) and rewrites the exact
    /// text copy that every timed set-up loads whenever the two differ.
    fn warm_up(&self) -> Result<(), String> {
        std::fs::create_dir_all(&self.state_dir).map_err(|e| e.to_string())?;
        let path = self.lib_path();
        let text = cts::timing::save_library_string(cts::timing::fast_library());
        if std::fs::read_to_string(&path).is_ok_and(|copy| copy == text) {
            return Ok(());
        }
        println!("library copy missing or stale; rewritten from fast_library");
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| format!("caching the library at {}: {e}", path.display()))
    }

    /// Loads the cached library (the timed part of every set-up).
    pub fn load_library(&self) -> cts::DelaySlewLibrary {
        cts::timing::load_library_file(self.lib_path())
            .unwrap_or_else(|e| fail(&format!("library cache unreadable: {e}")))
    }

    /// Runs `setup` once untimed, then takes [`SETUP_SAMPLES`] samples of
    /// at least [`SETUP_SAMPLE_S`] of set-up time each, a sample being its
    /// time over its number of set-ups. Each product is torn down with
    /// `discard`, untimed, before the next set-up starts. Returns the last
    /// product and the median sample.
    pub fn timed_setup<T>(
        &self,
        mut setup: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) -> (T, f64) {
        let mut kept = setup();
        let mut samples = Vec::with_capacity(SETUP_SAMPLES);
        let mut setups = 0;
        for _ in 0..SETUP_SAMPLES {
            let (mut spent, mut n) = (0.0, 0);
            while spent < SETUP_SAMPLE_S {
                discard(kept);
                let t = Instant::now();
                kept = setup();
                spent += t.elapsed().as_secs_f64();
                n += 1;
            }
            samples.push(spent / n as f64);
            setups += n;
        }
        let median = stats::median(&samples).expect("at least one sample");
        let spread = stats::relative_spread(&samples).unwrap_or(0.0);
        println!(
            "set-up: {setups} timed in {SETUP_SAMPLES} samples, median {median:.6} s, \
             quartile spread {:.1}% of the median",
            100.0 * spread
        );
        (kept, median)
    }

    /// Compares `lines` with the record a previous run of the same build,
    /// workload, seed and length left under `kind`, then stores them. A
    /// mismatch fails the `op` operation. Records are filed by a hash of
    /// the running executable, so a rebuilt program (one that changes
    /// trees on purpose, say) starts its own record instead of failing
    /// against another build's.
    fn compare_with_previous(&self, kind: &str, op: &str, lines: &[String], tally: &mut Tally) {
        let dir = self.state_dir.join(kind);
        let path = dir.join(format!(
            "{}-seed{}-{}s-build{:016x}.txt",
            self.workload, self.seed, self.seconds, self.build_id
        ));
        let now = lines.join("\n");
        if let Ok(before) = std::fs::read_to_string(&path) {
            tally.check(op, before == now, || {
                let diff: Vec<String> = before
                    .lines()
                    .zip(now.lines())
                    .filter(|(a, b)| a != b)
                    .map(|(a, b)| format!("was `{a}`, now `{b}`"))
                    .collect();
                format!(
                    "{kind} differ from the previous run of this build and seed: {}",
                    diff.join("; ")
                )
            });
            println!("{kind}: compared with the previous run of this build, seed and length");
        } else {
            println!("{kind}: first run of this build, seed and length in this checkout; recorded");
        }
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(&path, now);
    }
}

/// FNV-1a hash of the running executable: the identity of the build.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    }))
}

/// Synthesis options of every workload: the defaults with one thread per
/// synthesis, since the batch and the service parallelize over instances
/// (and `scale_synth` measures the single-thread path).
pub fn options() -> cts::CtsOptions {
    cts::CtsOptions {
        threads: 1,
        ..cts::CtsOptions::default()
    }
}

/// Reports a broken benchmark and exits non-zero without a result line.
pub fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Bench {
    let usage = "usage: cts-perfbench --workload <scale_synth|gsrc_verify|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| fail(usage));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => fail(usage),
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    Bench {
        workload: workload.unwrap_or_else(|| fail(usage)),
        seed: seed.unwrap_or_else(|| fail(usage)),
        seconds: seconds.unwrap_or_else(|| fail(usage)),
        trace: trace.unwrap_or_else(|| fail(usage)),
        tech: cts::Technology::nominal_45nm(),
        state_dir: target.join("perfbench"),
        build_id: build_id().unwrap_or_else(|e| fail(&e)),
    }
}

fn main() {
    let bench = parse_args();
    let run: fn(&Bench) -> Outcome = match bench.workload.as_str() {
        "scale_synth" => scale::run,
        "gsrc_verify" => gsrc::run,
        "serve_mixed" => serve::run,
        other => fail(&format!("unknown workload `{other}`")),
    };
    if let Err(e) = bench.warm_up() {
        fail(&e);
    }
    println!(
        "== perfbench {} seed={} seconds={} trace={} ==",
        bench.workload, bench.seed, bench.seconds, bench.trace as u8
    );
    let mut out = run(&bench);

    let repeatable: Vec<String> = out
        .repeatable
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    if !repeatable.is_empty() {
        bench.compare_with_previous("quality", "quality repeats", &repeatable, &mut out.tally);
    }
    let error_rate = out.tally.error_rate();
    out.e2e.set(
        "error_rate",
        error_rate,
        format!(
            "{} of {} operations",
            out.tally.failed(),
            out.tally.attempted()
        ),
    );
    report::print_e2e("end-to-end (tracing off):", &out.e2e);
    if let Some(traced) = out.e2e_traced.as_mut() {
        traced.set("error_rate", error_rate, "shared tally");
        report::print_e2e("end-to-end (tracing on, recorder installed):", traced);
        report::print_overhead(&out.e2e, traced);
        report::print_layers(&bench.workload, &out.layers);
        println!("deterministic counts (must repeat exactly for this seed):");
        for (k, v) in &out.counts.0 {
            println!("  {k:<32} {v}");
        }
        let lines: Vec<String> = out
            .counts
            .0
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        bench.compare_with_previous("counts", "counts repeat", &lines, &mut out.tally);
    }
    println!(
        "checks: {} operations, {} failed",
        out.tally.attempted(),
        out.tally.failed()
    );
    let metrics = if bench.trace { &out.layers } else { &out.e2e };
    println!("{}", report::json_line(&out.tally, bench.trace, metrics));
}
