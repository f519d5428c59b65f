//! Metric definitions, the failure tally, and the printed report.
//!
//! Every workload prints all fifteen end-to-end metrics in a table. The
//! final JSON line carries the gated subset (the `end_to_end` list of
//! `BENCHMARK.json`) when tracing is off, and every per-layer metric when
//! it is on.

use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One end-to-end metric.
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Carried in the JSON line and gated by a bound. Metrics that are
    /// legitimately zero (error and violation counts) or that repeat
    /// exactly on fixed inputs while carrying a time unit are printed and
    /// checked, not gated.
    pub gated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, gated: bool) -> E2eDef {
    E2eDef {
        name,
        unit,
        better,
        gated,
    }
}

pub const E2E: &[E2eDef] = &[
    e2e("setup_s", "s", "lower", true),
    e2e("peak_rss_mb", "MB", "lower", true),
    e2e("synth_sinks_per_s", "sinks/s", "higher", true),
    e2e("verified_sinks_per_s", "sinks/s", "higher", true),
    e2e("req_p50_ms", "ms", "lower", true),
    e2e("req_p99_ms", "ms", "lower", true),
    e2e("goodput_rps", "1/s", "higher", true),
    e2e("error_rate", "ratio", "lower", false),
    e2e("skew_ps", "ps", "lower", false),
    e2e("worst_slew_ps", "ps", "lower", false),
    e2e("latency_ns", "ns", "lower", false),
    e2e("buffers", "count", "lower", true),
    e2e("wirelength_mm", "mm", "lower", true),
    e2e("slew_violations", "count", "lower", false),
    e2e("est_skew_err_ps", "ps", "lower", false),
];

/// One layer: its per-layer metrics and what they are predicted to move.
pub struct LayerDef {
    pub layer: &'static str,
    pub metrics: &'static [(&'static str, &'static str)],
    pub moves: &'static str,
    pub stays: &'static str,
}

pub const LAYERS: &[LayerDef] = &[
    LayerDef {
        layer: "cts-timing",
        metrics: &[("timing.single_wire_ns", "ns"), ("timing.branch_ns", "ns")],
        moves: "synth_sinks_per_s on scale_synth",
        stays: "req_p99_ms on serve_mixed (barely)",
    },
    LayerDef {
        layer: "core::topology",
        metrics: &[("topology.match_s", "s"), ("topology.match_calls", "count")],
        moves: "nothing measurable: ~0.1 s of a scale synthesis",
        stays: "synth_sinks_per_s on scale_synth",
    },
    LayerDef {
        layer: "core::engine",
        metrics: &[
            ("engine.eval_subtree_s", "s"),
            ("engine.eval_subtree_calls", "count"),
            ("engine.sinks_visited", "count"),
        ],
        moves: "synth_sinks_per_s on scale_synth",
        stays: "req_p50_ms on serve_mixed",
    },
    LayerDef {
        layer: "core::merge / core::maze",
        metrics: &[
            ("merge.pair_s", "s"),
            ("merge.pair_p99_ms", "ms"),
            ("merge.pair_calls", "count"),
            ("merge.buffers_inserted", "count"),
            ("maze.route_s", "s"),
            ("maze.route_calls", "count"),
            ("maze.route_p99_ms", "ms"),
        ],
        moves: "synth_sinks_per_s on scale_synth",
        stays: "every metric on serve_mixed",
    },
    LayerDef {
        layer: "core::pipeline",
        metrics: &[
            ("pipeline.levels", "count"),
            ("pipeline.level_s", "s"),
            ("pipeline.level_max_s", "s"),
            ("pipeline.refine_s", "s"),
            ("pipeline.topology_s", "s"),
            ("pipeline.merge_s", "s"),
        ],
        moves: "synth_sinks_per_s on scale_synth (refine ~0 on gsrc_verify)",
        stays: "req_p50_ms on serve_mixed",
    },
    LayerDef {
        layer: "cts-spice",
        metrics: &[("spice.stage_sim_ms", "ms")],
        moves: "verified_sinks_per_s on gsrc_verify; req_p99_ms on serve_mixed",
        stays: "synth_sinks_per_s on scale_synth",
    },
    LayerDef {
        layer: "core::verify",
        metrics: &[
            ("verify.cold_s", "s"),
            ("verify.warm_s", "s"),
            ("verify.stages_simulated", "count"),
            ("verify.stages_reused", "count"),
            ("verify.reuse_ratio", "ratio"),
            ("verify.symbolic_hit_ratio", "ratio"),
        ],
        moves: "verified_sinks_per_s on gsrc_verify",
        stays: "synth_sinks_per_s on scale_synth",
    },
    LayerDef {
        layer: "core::batch",
        metrics: &[
            ("batch.synth_s", "s"),
            ("batch.verify_s", "s"),
            ("batch.wall_s", "s"),
            ("batch.overlap_ratio", "ratio"),
        ],
        moves: "verified_sinks_per_s on gsrc_verify",
        stays: "scale_synth and serve_mixed",
    },
    LayerDef {
        layer: "core::service",
        metrics: &[
            ("service.queue_wait_p50_ms", "ms"),
            ("service.queue_wait_p99_ms", "ms"),
            ("service.synth_p50_ms", "ms"),
            ("service.verify_p50_ms", "ms"),
            ("service.queue_depth_high_water", "count"),
            ("service.failed", "count"),
            ("service.refused", "count"),
        ],
        moves: "req_p99_ms and goodput_rps on serve_mixed",
        stays: "scale_synth and gsrc_verify",
    },
    LayerDef {
        layer: "cts-net",
        metrics: &[
            ("net.submit_ack_p50_us", "us"),
            ("net.submit_ack_p99_us", "us"),
            ("net.fetch_tree_default_ms", "ms"),
            ("net.fetch_tree_default_bytes", "bytes"),
            ("net.fetch_tree_levels_ms", "ms"),
            ("net.fetch_tree_levels_bytes", "bytes"),
            ("net.stats_rtt_us", "us"),
        ],
        moves: "req_p50_ms on serve_mixed",
        stays: "scale_synth and gsrc_verify (no wire work)",
    },
    LayerDef {
        layer: "core::sweep",
        metrics: &[("sweep.pareto_ms", "ms"), ("sweep.points", "count")],
        moves: "goodput_rps on serve_mixed",
        stays: "scale_synth and gsrc_verify",
    },
    LayerDef {
        layer: "load generator",
        metrics: &[("load.lag_p99_ms", "ms")],
        moves: "req_p99_ms on serve_mixed when the generator itself falls behind",
        stays: "scale_synth and gsrc_verify",
    },
    LayerDef {
        layer: "cts-obs",
        metrics: &[("obs.events", "count"), ("obs.dropped", "count")],
        moves: "nothing: the in-program span baseline (events kept vs dropped)",
        stays: "every end-to-end metric",
    },
];

/// A measured value plus how it was derived (percentile, sample count).
#[derive(Debug, Clone)]
pub struct Measured {
    pub value: f64,
    pub note: String,
}

/// Named values of one pass.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(
            name,
            Measured {
                value,
                note: note.into(),
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.0.get(name)
    }
}

/// Tree quality of one pass: SPICE-verified where the workload verifies,
/// engine-estimated otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    pub skew_ps: f64,
    pub worst_slew_ps: f64,
    pub latency_ns: f64,
    pub buffers: f64,
    pub wirelength_mm: f64,
    pub slew_violations: usize,
    pub est_skew_err_ps: Option<f64>,
    /// How the figures were folded, for the printed report.
    pub basis: &'static str,
}

impl Quality {
    pub fn set(&self, m: &mut Metrics) {
        m.set("skew_ps", self.skew_ps, self.basis);
        m.set("worst_slew_ps", self.worst_slew_ps, self.basis);
        m.set("latency_ns", self.latency_ns, self.basis);
        m.set("buffers", self.buffers, self.basis);
        m.set("wirelength_mm", self.wirelength_mm, self.basis);
        m.set(
            "slew_violations",
            self.slew_violations as f64,
            "over the 100 ps limit",
        );
        if let Some(e) = self.est_skew_err_ps {
            m.set("est_skew_err_ps", e, "max |engine - SPICE| skew");
        }
    }

    /// Exact renderings that must repeat for a seed.
    pub fn repeatable(&self) -> Vec<(&'static str, String)> {
        vec![
            ("skew_ps", format!("{:?}", self.skew_ps)),
            ("worst_slew_ps", format!("{:?}", self.worst_slew_ps)),
            ("latency_ns", format!("{:?}", self.latency_ns)),
            ("buffers", format!("{:?}", self.buffers)),
            ("wirelength_mm", format!("{:?}", self.wirelength_mm)),
            ("slew_violations", self.slew_violations.to_string()),
            ("est_skew_err_ps", format!("{:?}", self.est_skew_err_ps)),
        ]
    }
}

/// Sets the request-level metrics: `req_p50_ms`, `req_p99_ms` (the tail
/// by [`stats::tail`]) and `goodput_rps` (completions within the limit per
/// second of `span_s`).
pub fn set_requests(
    m: &mut Metrics,
    latencies_ms: &[f64],
    good: usize,
    span_s: f64,
    limit_ms: f64,
) {
    let n = latencies_ms.len();
    m.set(
        "req_p50_ms",
        stats::median(latencies_ms).unwrap_or(0.0),
        format!("p50 of n={n}"),
    );
    let tail = stats::tail(latencies_ms);
    m.set(
        "req_p99_ms",
        tail.map_or(0.0, |t| t.value),
        tail.map_or(String::from("no samples"), |t| t.describe()),
    );
    m.set(
        "goodput_rps",
        good as f64 / span_s,
        format!("{good} within {limit_ms} ms over {span_s:.3} s"),
    );
}

/// Operations attempted and the ones that failed, with the reason for
/// each failure. A failed output check fails the operation it checked;
/// it is printed when it happens and never skipped.
#[derive(Debug, Default)]
pub struct Tally {
    ops: BTreeSet<String>,
    failed: BTreeMap<String, Vec<String>>,
}

impl Tally {
    pub fn attempt(&mut self, op: impl Into<String>) {
        self.ops.insert(op.into());
    }

    pub fn fail(&mut self, op: &str, why: impl Into<String>) {
        let why = why.into();
        println!("CHECK FAILED [{op}]: {why}");
        self.ops.insert(op.to_string());
        self.failed.entry(op.to_string()).or_default().push(why);
    }

    pub fn check(&mut self, op: &str, ok: bool, why: impl FnOnce() -> String) {
        self.attempt(op);
        if !ok {
            self.fail(op, why());
        }
    }

    pub fn has_failed(&self, op: &str) -> bool {
        self.failed.contains_key(op)
    }

    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    pub fn failed(&self) -> usize {
        self.failed.len()
    }

    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// Peak resident set of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn unit_of(name: &str) -> &'static str {
    E2E.iter()
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .or_else(|| {
            LAYERS
                .iter()
                .flat_map(|l| l.metrics.iter())
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
        })
        .unwrap_or("")
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints the end-to-end table of one pass.
pub fn print_e2e(title: &str, m: &Metrics) {
    println!("{title}");
    for d in E2E {
        match m.get(d.name) {
            Some(v) => println!(
                "  {:<22} {:>14} {:<8} ({} is better{}){}",
                d.name,
                fmt_value(v.value),
                d.unit,
                d.better,
                if d.gated { ", gated" } else { "" },
                if v.note.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", v.note)
                }
            ),
            None => println!(
                "  {:<22} {:>14} {:<8} (not defined on this workload)",
                d.name, "n/a", d.unit
            ),
        }
    }
}

/// Prints traced-minus-untraced differences of every end-to-end metric.
pub fn print_overhead(untraced: &Metrics, traced: &Metrics) {
    println!("tracing overhead (traced minus untraced, same seed, same process):");
    for d in E2E {
        if let (Some(u), Some(t)) = (untraced.get(d.name), traced.get(d.name)) {
            let rel = if u.value != 0.0 {
                format!("{:+.2}%", 100.0 * (t.value - u.value) / u.value.abs())
            } else {
                String::from("n/a")
            };
            println!(
                "  {:<22} {:>14} {:<8} ({rel})",
                d.name,
                fmt_value(t.value - u.value),
                d.unit
            );
        }
    }
}

/// Prints the per-layer table with each layer's prediction.
pub fn print_layers(workload: &str, m: &Metrics) {
    println!("per-layer metrics (traced run; benchmark-side spans around public calls):");
    for l in LAYERS {
        println!(
            "  [{}] predicted to move: {}; should not move: {}",
            l.layer, l.moves, l.stays
        );
        for (name, unit) in l.metrics {
            match m.get(name) {
                Some(v) => println!(
                    "    {:<32} {:>14} {:<6}{}",
                    name,
                    fmt_value(v.value),
                    unit,
                    if v.note.is_empty() {
                        String::new()
                    } else {
                        format!("  [{}]", v.note)
                    }
                ),
                None => println!(
                    "    {:<32} {:>14} {:<6}  [layer not exercised by {workload}]",
                    name, "0", unit
                ),
            }
        }
    }
}

/// The final JSON line.
pub fn json_line(tally: &Tally, trace: bool, m: &Metrics) -> String {
    let names: Vec<&str> = if trace {
        LAYERS
            .iter()
            .flat_map(|l| l.metrics.iter().map(|(n, _)| *n))
            .collect()
    } else {
        E2E.iter().filter(|d| d.gated).map(|d| d.name).collect()
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed() == 0,
        tally.attempted().max(1),
        tally.failed()
    );
    for (i, name) in names.iter().enumerate() {
        let value = m.get(name).map_or(0.0, |v| v.value);
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_checks_fail_their_operation_once() {
        let mut t = Tally::default();
        t.attempt("a");
        t.attempt("b");
        t.check("b", false, || "first".into());
        t.check("b", false, || "second".into());
        t.check("c", true, || unreachable!());
        assert_eq!(t.attempted(), 3);
        assert_eq!(t.failed(), 1);
        assert!((t.error_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_line_carries_gated_metrics_in_order() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "");
        m.set("skew_ps", 3.0, "");
        let line = json_line(&Tally::default(), false, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!line.contains("skew_ps"));
        assert!(line.contains("\"wirelength_mm\": {\"value\": 0.0, \"unit\": \"mm\"}"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = cts::net::Json::parse(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let gated: Vec<(String, String)> = E2E
            .iter()
            .filter(|d| d.gated)
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), gated);
        let layers: Vec<(String, String)> = LAYERS
            .iter()
            .flat_map(|l| l.metrics.iter())
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn layer_metric_names_are_unique() {
        let mut seen = BTreeSet::new();
        for l in LAYERS {
            for (n, _) in l.metrics {
                assert!(seen.insert(*n), "duplicate {n}");
            }
        }
        for d in E2E {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
    }
}
