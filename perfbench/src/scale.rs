//! `scale_synth`: one seeded `generate_scale` instance through
//! `Synthesizer::synthesize_unverified` on one thread, repeated while the
//! next repetition still fits the run. No SPICE, service or wire work, so
//! kernel and incremental-timing changes show here and nowhere else.
//!
//! "Verification" on this workload is the analytic engine: each tree is
//! re-timed with `TimingEngine::evaluate` and must reproduce the
//! synthesis report bit for bit; quality figures are engine estimates.

use crate::check::{result_bytes, tree_reaches_each_sink_once};
use crate::layers::{self, ObsWindow, SynthProbe};
use crate::report::{self, Metrics, Quality, Tally};
use crate::{options, Bench, Outcome};
use cts::core::{MergeScratch, SynthesisPipeline};
use cts::spice::units::{NS, PS};
use cts::{ClockTree, DelaySlewLibrary, Instance, Synthesizer, TimingEngine, TreeNodeId};
use std::time::Instant;

/// Sinks in the scale instance.
pub const SINKS: usize = 2000;
/// Latency limit of one synthesis (ms).
const LIMIT_MS: f64 = 60_000.0;
/// Matched pairs replayed through merge and maze per level when traced.
const PAIRS_PER_LEVEL: usize = 24;

/// One synthesized tree with the figures every pass reports.
struct Synthesized {
    tree: ClockTree,
    source: TreeNodeId,
    bytes: String,
    quality: Quality,
}

fn quality_of(
    tree: &ClockTree,
    source: TreeNodeId,
    report: &cts::TimingReport,
    limit: f64,
) -> Quality {
    Quality {
        skew_ps: report.skew() / PS,
        worst_slew_ps: report.worst_slew / PS,
        latency_ns: report.latency / NS,
        buffers: tree.buffer_count_under(source) as f64,
        wirelength_mm: tree.wirelength_under(source) / 1000.0,
        slew_violations: usize::from(report.worst_slew > limit),
        est_skew_err_ps: None,
        basis: "engine estimate",
    }
}

/// Synthesis plus engine re-timing with its checks; returns the tree and
/// the two stage times.
fn checked(
    op: &str,
    lib: &DelaySlewLibrary,
    inst: &Instance,
    tally: &mut Tally,
    synth: impl FnOnce() -> Result<(ClockTree, TreeNodeId, Option<cts::TimingReport>, String), String>,
) -> Option<(Synthesized, f64, f64)> {
    tally.attempt(op);
    let t = Instant::now();
    let (tree, source, report, bytes) = match synth() {
        Ok(x) => x,
        Err(e) => {
            tally.fail(op, format!("synthesis failed: {e}"));
            return None;
        }
    };
    let synth_s = t.elapsed().as_secs_f64();
    let o = options();
    let t = Instant::now();
    let retimed = TimingEngine::new(lib).evaluate(&tree, source, o.source_slew);
    let verify_s = t.elapsed().as_secs_f64();
    if let Some(report) = report {
        tally.check(op, retimed == report, || {
            "engine re-timing differs from the synthesis report".into()
        });
    }
    if let Err(e) = tree_reaches_each_sink_once(&tree, source, inst.sinks().len()) {
        tally.fail(op, e);
    }
    let quality = quality_of(&tree, source, &retimed, o.slew_limit);
    Some((
        Synthesized {
            tree,
            source,
            bytes,
            quality,
        },
        synth_s,
        verify_s,
    ))
}

fn set_pass(m: &mut Metrics, sinks: usize, synth_s: &[f64], verify_s: &[f64], q: &Quality) {
    let n = synth_s.len();
    let total_synth: f64 = synth_s.iter().sum();
    let total: f64 = total_synth + verify_s.iter().sum::<f64>();
    let note = format!("{n} synthesis of {sinks} sinks");
    m.set(
        "synth_sinks_per_s",
        (n * sinks) as f64 / total_synth,
        note.clone(),
    );
    m.set(
        "verified_sinks_per_s",
        (n * sinks) as f64 / total,
        "synthesis + engine re-timing (no SPICE on this workload)",
    );
    let lat: Vec<f64> = synth_s
        .iter()
        .zip(verify_s)
        .map(|(s, v)| (s + v) * 1e3)
        .collect();
    let good = lat.iter().filter(|&&l| l <= LIMIT_MS).count();
    report::set_requests(m, &lat, good, total, LIMIT_MS);
    q.set(m);
    m.set("peak_rss_mb", report::peak_rss_mb(), "VmHWM");
}

pub fn run(b: &Bench) -> Outcome {
    let mut out = Outcome::default();
    let ((lib, inst), setup_s) = b.timed_setup(
        || {
            (
                b.load_library(),
                cts::benchmarks::generate_scale(SINKS, b.seed),
            )
        },
        drop,
    );
    let o = options();
    let synth = Synthesizer::new(&lib, o.clone());

    // Untraced pass: repeat while the next repetition fits the run.
    let start = Instant::now();
    let (mut synth_s, mut verify_s) = (Vec::new(), Vec::new());
    let mut first: Option<Synthesized> = None;
    loop {
        let op = format!("synthesis#{}", synth_s.len());
        let Some((s, ts, tv)) = checked(&op, &lib, &inst, &mut out.tally, || {
            synth
                .synthesize_unverified(&inst)
                .map(|r| {
                    let bytes = result_bytes(&r);
                    (r.tree, r.source, Some(r.report), bytes)
                })
                .map_err(|e| e.to_string())
        }) else {
            break;
        };
        synth_s.push(ts);
        verify_s.push(tv);
        match &first {
            Some(f) => out.tally.check(&op, f.bytes == s.bytes, || {
                "a repeated synthesis of the same instance differs".into()
            }),
            None => first = Some(s),
        }
        if start.elapsed().as_secs_f64() + ts + tv > b.seconds {
            break;
        }
    }
    let Some(first) = first else {
        crate::fail("no synthesis completed");
    };
    out.e2e.set(
        "setup_s",
        setup_s,
        "median of the timed set-ups: library load + instance generation",
    );
    set_pass(&mut out.e2e, SINKS, &synth_s, &verify_s, &first.quality);
    out.repeatable = first.quality.repeatable();

    if b.trace {
        traced_pass(b, &lib, &inst, &first, setup_s, &mut out);
    }
    out
}

/// The traced pass: one observed synthesis with the recorder installed
/// and the layer probes replaying each level from its snapshot.
fn traced_pass(
    b: &Bench,
    lib: &DelaySlewLibrary,
    inst: &Instance,
    untraced: &Synthesized,
    setup_s: f64,
    out: &mut Outcome,
) {
    let o = options();
    let mut probe = SynthProbe::new(lib, &o, inst, PAIRS_PER_LEVEL, b.seed);
    let mut obs = ObsWindow::install();
    obs.exclude(|| probe.replay_level(&SynthProbe::initial_forest(inst), 1));
    let mut callback_s = 0.0;
    let mut pipeline_out = None;
    let op = "traced synthesis";
    let traced = checked(op, lib, inst, &mut out.tally, || {
        let pipeline = SynthesisPipeline::new(lib, &o).map_err(|e| e.to_string())?;
        probe.start();
        let r = pipeline
            .run_observed(inst, &mut MergeScratch::new(), &mut |snap| {
                callback_s += obs.exclude(|| probe.on_snapshot(snap));
            })
            .map_err(|e| e.to_string())?;
        let bytes = String::new();
        pipeline_out = Some((r.topology_seconds, r.merge_seconds));
        Ok((r.tree, r.source, None, bytes))
    });
    let (events, dropped) = obs.finish();
    let (topology_s, merge_s) = pipeline_out.unwrap_or((0.0, 0.0));
    for e in probe.finish(topology_s, merge_s, &mut out.layers, &mut out.counts) {
        out.tally.fail("layer replay", e);
    }
    out.layers.set(
        "obs.events",
        events as f64,
        "program spans kept; probe replays excluded",
    );
    out.layers.set(
        "obs.dropped",
        dropped as f64,
        "collected at every level boundary",
    );

    let mut traced_m = Metrics::default();
    traced_m.set("setup_s", setup_s, "shared with the untraced pass");
    if let Some((s, ts, tv)) = traced {
        out.tally.check(
            op,
            s.tree == untraced.tree && s.source == untraced.source,
            || "tracing changed the synthesized tree".into(),
        );
        out.tally.check(op, s.quality == untraced.quality, || {
            "tracing changed the quality figures".into()
        });
        set_pass(&mut traced_m, SINKS, &[ts - callback_s], &[tv], &s.quality);
    }
    out.e2e_traced = Some(traced_m);

    layers::timing_probe(lib, b.seed, &mut out.layers, &mut out.counts);
    if let Err(e) = layers::spice_probe(&b.tech, &mut out.layers, &mut out.counts) {
        out.tally.fail("spice probe", e);
    }
}
