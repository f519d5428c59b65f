//! `gsrc_verify`: the paper's GSRC r1–r3 (Table 5.1 quick mode) through
//! `BatchRunner` on two shards with SPICE verification overlapped. The
//! instances are the paper's and do not depend on the seed; the seed
//! picks which instance is re-synthesized serially for the byte-identity
//! check. Quality figures are SPICE-verified, so the known r2/r3 slew
//! excess shows in `slew_violations` and `worst_slew_ps`.
//!
//! A traced run re-verifies every finished tree twice through one fresh
//! `Verifier` (cold, then warm from its stage cache) for the verify-layer
//! figures.

use crate::check::{result_bytes, tree_reaches_each_sink_once};
use crate::layers::{self, Mix, ObsWindow, SynthProbe};
use crate::report::{self, Metrics, Quality, Tally};
use crate::{options, Bench, Outcome};
use cts::spice::units::{NS, PS};
use cts::{
    BatchItem, BatchOptions, BatchRunner, DelaySlewLibrary, Instance, Synthesizer, Verifier,
    VerifyOptions,
};
use std::time::Instant;

/// GSRC instances in the quick suite.
const INSTANCES: usize = 3;
/// Shards of the batch.
const SHARDS: usize = 2;
/// Latency limit of one instance's synthesis + verification (ms).
const LIMIT_MS: f64 = 30_000.0;
/// Matched pairs replayed through merge and maze per level when traced.
const PAIRS_PER_LEVEL: usize = 16;

fn suite() -> Vec<Instance> {
    let mut s = cts::benchmarks::gsrc_suite();
    s.truncate(INSTANCES);
    s
}

/// One batch run with its per-item checks.
fn batch_pass(
    runner: &BatchRunner<'_>,
    suite: &[Instance],
    op: &str,
    tally: &mut Tally,
) -> Option<(Vec<BatchItem>, f64)> {
    tally.attempt(op);
    let t = Instant::now();
    let items = match runner.run(suite) {
        Ok(out) => out.items,
        Err(e) => {
            tally.fail(op, format!("batch failed: {e}"));
            return None;
        }
    };
    let wall = t.elapsed().as_secs_f64();
    for (item, inst) in items.iter().zip(suite) {
        let op = format!("{op}/{}", item.name);
        tally.attempt(&op);
        if let Err(e) =
            tree_reaches_each_sink_once(&item.result.tree, item.result.source, inst.sinks().len())
        {
            tally.fail(&op, e);
        }
        tally.check(&op, item.verified.is_some(), || {
            "no SPICE verification".into()
        });
    }
    tally.check(op, items.len() == suite.len(), || "items missing".into());
    Some((items, wall))
}

fn quality_of(items: &[BatchItem], limit: f64) -> Quality {
    let fold = |f: &dyn Fn(&BatchItem) -> f64| items.iter().map(f).fold(0.0, f64::max);
    Quality {
        skew_ps: fold(&|i| i.skew()) / PS,
        worst_slew_ps: fold(&|i| i.worst_slew()) / PS,
        latency_ns: fold(&|i| i.max_latency()) / NS,
        buffers: items.iter().map(|i| i.result.buffers as f64).sum(),
        wirelength_mm: items.iter().map(|i| i.result.wirelength_um).sum::<f64>() / 1000.0,
        slew_violations: items.iter().filter(|i| i.worst_slew() > limit).count(),
        est_skew_err_ps: Some(fold(&|i| (i.result.report.skew() - i.skew()).abs()) / PS),
        basis: "SPICE-verified; worst of r1-r3 (sums for buffers/wire)",
    }
}

fn set_pass(m: &mut Metrics, items: &[BatchItem], walls: &[f64], limit: f64) -> Quality {
    let synth: f64 = items.iter().map(|i| i.synth_seconds).sum();
    let wall: f64 = walls.iter().sum();
    let per_batch_sinks: usize = items.iter().map(|i| i.sinks).sum();
    m.set(
        "synth_sinks_per_s",
        per_batch_sinks as f64 / synth,
        "sum of instance synthesis stages (overlapped with verification)",
    );
    m.set(
        "verified_sinks_per_s",
        (per_batch_sinks * walls.len()) as f64 / wall,
        format!("batch wall time over {} batch(es)", walls.len()),
    );
    let lat: Vec<f64> = items
        .iter()
        .map(|i| (i.synth_seconds + i.verify_seconds) * 1e3)
        .collect();
    let good = lat.iter().filter(|&&l| l <= LIMIT_MS).count();
    report::set_requests(m, &lat, good, walls[walls.len() - 1], LIMIT_MS);
    let q = quality_of(items, limit);
    q.set(m);
    m.set("peak_rss_mb", report::peak_rss_mb(), "VmHWM");
    q
}

pub fn run(b: &Bench) -> Outcome {
    let mut out = Outcome::default();
    let ((lib, suite), setup_s) = b.timed_setup(|| (b.load_library(), suite()), drop);
    let o = options();
    let runner = BatchRunner::new(
        &lib,
        &b.tech,
        o.clone(),
        BatchOptions {
            shards: SHARDS,
            overlap_verify: true,
            verify: true,
            verify_options: VerifyOptions::default(),
        },
    );

    let start = Instant::now();
    let mut walls = Vec::new();
    let mut last: Option<Vec<BatchItem>> = None;
    loop {
        let op = format!("batch#{}", walls.len());
        let Some((items, wall)) = batch_pass(&runner, &suite, &op, &mut out.tally) else {
            break;
        };
        if let Some(prev) = &last {
            let same = prev.iter().zip(&items).all(|(a, b)| {
                result_bytes(&a.result) == result_bytes(&b.result) && a.verified == b.verified
            });
            out.tally
                .check(&op, same, || "a repeated batch differs".into());
        }
        walls.push(wall);
        last = Some(items);
        if start.elapsed().as_secs_f64() + wall > b.seconds {
            break;
        }
    }
    let Some(items) = last else {
        crate::fail("no batch completed");
    };
    out.e2e.set(
        "setup_s",
        setup_s,
        "median of the timed set-ups: library load + GSRC suite generation",
    );
    let q = set_pass(&mut out.e2e, &items, &walls, o.slew_limit);
    out.repeatable = q.repeatable();

    let sample = Mix::new(b.seed).below(suite.len());
    if b.trace {
        traced_pass(b, &lib, &runner, &suite, &items, sample, setup_s, &mut out);
    } else {
        let op = format!("serial identity/{}", suite[sample].name());
        out.tally.attempt(&op);
        match Synthesizer::new(&lib, o).synthesize_unverified(&suite[sample]) {
            Ok(r) => out.tally.check(
                &op,
                result_bytes(&r) == result_bytes(&items[sample].result),
                || "batch result differs from a serial Synthesizer run".into(),
            ),
            Err(e) => out.tally.fail(&op, e.to_string()),
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn traced_pass(
    b: &Bench,
    lib: &DelaySlewLibrary,
    runner: &BatchRunner<'_>,
    suite: &[Instance],
    untraced: &[BatchItem],
    sample: usize,
    setup_s: f64,
    out: &mut Outcome,
) {
    let o = options();
    let obs = ObsWindow::install();
    let traced = batch_pass(runner, suite, "traced batch", &mut out.tally);
    let (events, dropped) = obs.finish();
    out.layers.set(
        "obs.events",
        events as f64,
        "program spans of the traced batch",
    );
    out.layers.set(
        "obs.dropped",
        dropped as f64,
        "collected once, after the batch",
    );

    let mut traced_m = Metrics::default();
    traced_m.set("setup_s", setup_s, "shared with the untraced pass");
    let items = match traced {
        Some((items, wall)) => {
            let q = set_pass(&mut traced_m, &items, &[wall], o.slew_limit);
            out.tally.check(
                "traced batch",
                q == quality_of(untraced, o.slew_limit),
                || "tracing changed the verified quality".into(),
            );
            let synth: f64 = items.iter().map(|i| i.synth_seconds).sum();
            let verify: f64 = items.iter().map(|i| i.verify_seconds).sum();
            out.layers.set("batch.synth_s", synth, "sum over items");
            out.layers.set("batch.verify_s", verify, "sum over items");
            out.layers.set("batch.wall_s", wall, "");
            out.layers.set(
                "batch.overlap_ratio",
                wall / (synth + verify),
                "wall / (synth + verify)",
            );
            items
        }
        None => untraced.to_vec(),
    };
    out.e2e_traced = Some(traced_m);

    // Verify layer: every tree cold, then warm, through one fresh verifier.
    let tech = &b.tech;
    let vopts = VerifyOptions::default();
    let mut verifier = Verifier::new();
    let (mut cold_s, mut warm_s) = (0.0, 0.0);
    for item in &items {
        let op = format!("re-verify/{}", item.name);
        out.tally.attempt(&op);
        let t = Instant::now();
        let cold = verifier.verify(&item.result.tree, item.result.source, tech, &vopts);
        cold_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let warm = verifier.verify(&item.result.tree, item.result.source, tech, &vopts);
        warm_s += t.elapsed().as_secs_f64();
        match (cold, warm) {
            (Ok(c), Ok(w)) => {
                out.tally
                    .check(&op, Some(&c) == item.verified.as_ref(), || {
                        "cold re-verification differs from the batch's".into()
                    });
                out.tally.check(&op, c == w, || {
                    "warm re-verification differs from cold".into()
                });
            }
            (c, w) => out.tally.fail(
                &op,
                format!("verification failed: {:?} / {:?}", c.err(), w.err()),
            ),
        }
    }
    let st = verifier.stats();
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    out.layers
        .set("verify.cold_s", cold_s, "fresh Verifier, every tree");
    out.layers
        .set("verify.warm_s", warm_s, "same Verifier, same trees");
    out.layers
        .set("verify.stages_simulated", st.stages_simulated as f64, "");
    out.layers
        .set("verify.stages_reused", st.stages_reused as f64, "");
    out.layers.set(
        "verify.reuse_ratio",
        ratio(st.stages_reused, st.stages_simulated),
        "reused / all stages",
    );
    out.layers.set(
        "verify.symbolic_hit_ratio",
        ratio(st.symbolic_hits, st.symbolic_misses),
        "solve-plan hits / simulations",
    );
    out.counts
        .add("verify.stages_simulated", st.stages_simulated);
    out.counts.add("verify.stages_reused", st.stages_reused);

    // Serial identity check of the sampled instance, observed level by
    // level for the synthesis layers.
    let inst = &suite[sample];
    let op = format!("serial identity/{}", inst.name());
    out.tally.attempt(&op);
    let synth = Synthesizer::new(lib, o.clone());
    let mut probe = SynthProbe::new(lib, &o, inst, PAIRS_PER_LEVEL, b.seed);
    probe.replay_level(&SynthProbe::initial_forest(inst), 1);
    probe.start();
    let result = synth.synthesize_unverified_observed(
        inst,
        &mut cts::core::MergeScratch::new(),
        &mut |snap| {
            probe.on_snapshot(snap);
        },
    );
    match result {
        Ok(r) => {
            out.tally.check(
                &op,
                result_bytes(&r) == result_bytes(&items[sample].result),
                || "batch result differs from a serial Synthesizer run".into(),
            );
            for e in probe.finish(
                r.topology_seconds,
                r.merge_seconds,
                &mut out.layers,
                &mut out.counts,
            ) {
                out.tally.fail("layer replay", e);
            }
        }
        Err(e) => out.tally.fail(&op, e.to_string()),
    }

    layers::timing_probe(lib, b.seed, &mut out.layers, &mut out.counts);
    if let Err(e) = layers::spice_probe(tech, &mut out.layers, &mut out.counts) {
        out.tally.fail("spice probe", e);
    }
}
