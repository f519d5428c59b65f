//! Per-layer probes for the traced run. Every number here comes from the
//! benchmark's own timers and counters around calls into a layer's public
//! functions; the program itself is not instrumented for them.
//!
//! * [`timing_probe`] and [`spice_probe`] time fixed, seeded batches of
//!   library queries and stage simulations.
//! * [`SynthProbe`] watches a synthesis through its level observer and,
//!   at every level, replays the exact matching inputs (engine timing of
//!   every active root, then topology matching) plus merge-routing and
//!   maze routing of a seeded sample of the matched pairs, on copies of
//!   the level's forest.

use crate::report::Metrics;
use crate::stats;
use cts::core::maze::{MazeRouter, MazeScratch, MergeSide};
use cts::core::topology::{find_matching, MatchCandidate};
use cts::core::{balance::Balancer, LevelSnapshot, MergeRouting, MergeScratch};
use cts::geom::Point;
use cts::obs::Recorder;
use cts::spice::stages::{single_wire_stage, SingleWireConfig};
use cts::spice::units::{NS, PS};
use cts::spice::SimOptions;
use cts::timing::{BufferId, DelaySlewLibrary, Load};
use cts::{ClockTree, CtsOptions, Instance, Technology, TimingEngine};
use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the benchmark's own seeded stream for probe inputs and
/// samples (independent of the program's generators).
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Deterministic work counts, printed apart from timings and compared
/// across traced runs of the same seed.
#[derive(Debug, Default, Clone)]
pub struct Counts(pub Vec<(&'static str, u64)>);

impl Counts {
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.0.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.0.push((name, n)),
        }
    }
}

const TIMING_QUERIES: usize = 4096;

/// One `branch` query: drive, loads, input slew, arm lengths.
type BranchQuery = (BufferId, (Load, Load), f64, (f64, f64));
const TIMING_PASSES: usize = 40;

/// ns per `DelaySlewLibrary::single_wire` / `branch` call over a seeded
/// grid of in-domain inputs.
pub fn timing_probe(lib: &DelaySlewLibrary, seed: u64, m: &mut Metrics, counts: &mut Counts) {
    let mut rng = Mix::new(seed ^ 0x7131);
    let nb = lib.buffers().len();
    let singles: Vec<(BufferId, Load, f64, f64)> = (0..TIMING_QUERIES)
        .map(|_| {
            let (drive, load) = (
                BufferId(rng.below(nb)),
                Load::Buffer(BufferId(rng.below(nb))),
            );
            let ((s_lo, s_hi), (l_lo, l_hi)) = lib.single_domain(drive, load);
            (drive, load, rng.range(s_lo, s_hi), rng.range(l_lo, l_hi))
        })
        .collect();
    let (b_lo, b_hi) = lib.branch_length_domain();
    let branches: Vec<BranchQuery> = (0..TIMING_QUERIES)
        .map(|i| {
            let (drive, load, slew, _) = singles[i];
            let other = Load::Buffer(BufferId(rng.below(nb)));
            (
                drive,
                (load, other),
                slew,
                (rng.range(b_lo, b_hi), rng.range(b_lo, b_hi)),
            )
        })
        .collect();

    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..TIMING_PASSES {
        for &(d, l, s, len) in &singles {
            acc += lib.single_wire(d, l, s, len).wire_delay;
        }
    }
    let single_ns = t.elapsed().as_secs_f64() * 1e9 / (TIMING_PASSES * TIMING_QUERIES) as f64;
    let t = Instant::now();
    for _ in 0..TIMING_PASSES {
        for &(d, loads, s, lens) in &branches {
            acc += lib.branch(d, loads, s, lens).left_delay;
        }
    }
    let branch_ns = t.elapsed().as_secs_f64() * 1e9 / (TIMING_PASSES * TIMING_QUERIES) as f64;
    black_box(acc);
    let calls = (TIMING_PASSES * TIMING_QUERIES) as u64;
    m.set(
        "timing.single_wire_ns",
        single_ns,
        format!("mean of {calls} calls"),
    );
    m.set(
        "timing.branch_ns",
        branch_ns,
        format!("mean of {calls} calls"),
    );
    counts.add("timing.calls", 2 * calls);
}

/// Median ms per `cts::spice::simulate` of buffered single-wire stages —
/// the circuit shape verification simulates — at verification's timestep
/// and window.
pub fn spice_probe(tech: &Technology, m: &mut Metrics, counts: &mut Counts) -> Result<(), String> {
    let buffers = tech.buffer_library();
    let opts = SimOptions {
        dt: 0.5 * PS,
        ..SimOptions::default_for(3.0 * NS)
    };
    let mut samples = Vec::new();
    for drive in &buffers {
        for l_um in [150.0, 450.0, 900.0] {
            let stage = single_wire_stage(
                tech,
                &SingleWireConfig {
                    input_buf: &buffers[0],
                    l_input_um: 100.0,
                    drive,
                    l_um,
                    load: &buffers[buffers.len() - 1],
                    wire: tech.wire(),
                    ramp_slew: 80.0 * PS,
                    rising: true,
                },
            );
            let t = Instant::now();
            let res = cts::spice::simulate(&stage.circuit, &opts).map_err(|e| e.to_string())?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            black_box(res);
        }
    }
    let med = stats::median(&samples).unwrap_or(0.0);
    m.set(
        "spice.stage_sim_ms",
        med,
        format!("median of n={}", samples.len()),
    );
    counts.add("spice.stage_sims", samples.len() as u64);
    Ok(())
}

/// Accumulated layer time, call count and per-call samples.
#[derive(Default)]
struct Acc {
    seconds: f64,
    calls: u64,
    samples_ms: Vec<f64>,
}

impl Acc {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        self.seconds += dt;
        self.calls += 1;
        self.samples_ms.push(dt * 1e3);
        out
    }
}

/// Level-observer probe of one synthesis. Feed it the initial sink
/// forest with [`SynthProbe::replay_level`], then every
/// [`LevelSnapshot`] through [`SynthProbe::on_snapshot`], then call
/// [`SynthProbe::finish`] when the synthesis returns.
pub struct SynthProbe<'a> {
    lib: &'a DelaySlewLibrary,
    options: &'a CtsOptions,
    centroid: Point,
    /// Matched pairs replayed through merge/maze per level (all when
    /// fewer).
    pairs_per_level: usize,
    seed: u64,
    merge_scratch: MergeScratch,
    maze_scratch: MazeScratch,
    engine: Acc,
    sinks_visited: u64,
    matching: Acc,
    merge: Acc,
    buffers_inserted: u64,
    maze: Acc,
    levels: Vec<f64>,
    last_exit: Instant,
    /// Errors raised by a replayed call (a replay must not fail where the
    /// synthesis itself succeeded).
    pub errors: Vec<String>,
}

impl<'a> SynthProbe<'a> {
    pub fn new(
        lib: &'a DelaySlewLibrary,
        options: &'a CtsOptions,
        instance: &Instance,
        pairs_per_level: usize,
        seed: u64,
    ) -> SynthProbe<'a> {
        SynthProbe {
            lib,
            options,
            centroid: instance.sink_centroid(),
            pairs_per_level,
            seed,
            merge_scratch: MergeScratch::new(),
            maze_scratch: MazeScratch::default(),
            engine: Acc::default(),
            sinks_visited: 0,
            matching: Acc::default(),
            merge: Acc::default(),
            buffers_inserted: 0,
            maze: Acc::default(),
            levels: Vec::new(),
            last_exit: Instant::now(),
            errors: Vec::new(),
        }
    }

    /// The sink-only forest the first level matches.
    pub fn initial_forest(instance: &Instance) -> ClockTree {
        let mut tree = ClockTree::new();
        for (i, s) in instance.sinks().iter().enumerate() {
            tree.add_sink(i, s);
        }
        tree
    }

    /// Marks the start of the observed synthesis.
    pub fn start(&mut self) {
        self.last_exit = Instant::now();
    }

    /// Level callback: books the level's time (up to this call), replays
    /// the next level's inputs on the snapshot, and returns the seconds
    /// spent inside the callback.
    pub fn on_snapshot(&mut self, snap: LevelSnapshot) -> f64 {
        let enter = Instant::now();
        self.levels
            .push(enter.duration_since(self.last_exit).as_secs_f64());
        match ClockTree::from_nodes(snap.nodes) {
            Ok(tree) if snap.roots > 1 => self.replay_level(&tree, snap.levels_done + 1),
            Ok(_) => {}
            Err(e) => self
                .errors
                .push(format!("level {} snapshot: {e}", snap.levels_done)),
        }
        self.last_exit = Instant::now();
        self.last_exit.duration_since(enter).as_secs_f64()
    }

    /// Replays level `level`'s matching inputs and a sample of its merges
    /// on `forest` (whose parentless nodes, in id order, are the level's
    /// active roots).
    pub fn replay_level(&mut self, forest: &ClockTree, level: usize) {
        let o = self.options;
        let roots = forest.roots();
        let engine = TimingEngine::new(self.lib);
        let mut candidates = Vec::with_capacity(roots.len());
        for &root in &roots {
            let rep = self
                .engine
                .time(|| engine.evaluate_subtree(forest, root, o.virtual_driver, o.slew_target));
            self.sinks_visited += rep.sink_arrivals.len() as u64;
            candidates.push(MatchCandidate {
                location: forest.node(root).location,
                delay: rep.latency,
            });
        }
        let centroid = self.centroid;
        let matching = match self
            .matching
            .time(|| find_matching(&candidates, centroid, o.cost_alpha, o.cost_beta))
        {
            Ok(m) => m,
            Err(e) => {
                self.errors.push(format!("level {level} matching: {e}"));
                return;
            }
        };

        let pairs = &matching.pairs;
        let take = pairs.len().min(self.pairs_per_level);
        if take == 0 {
            return;
        }
        let stride = pairs.len() / take;
        let offset = Mix::new(self.seed ^ level as u64).below(stride);
        let mr = MergeRouting::new(self.lib, o);
        let balancer = Balancer::new(self.lib, o);
        let router = MazeRouter::new(self.lib, o);
        for k in 0..take {
            let (i, j) = pairs[offset + k * stride];
            let (a, b) = (roots[i], roots[j]);
            let side = |r| MergeSide {
                root_point: forest.node(r).location,
                root_load: balancer.load_of(forest, r),
                subtree_delay: mr.subtree_delay(forest, r),
                unbuffered_depth_um: mr.effective_pending_um(forest, r),
            };
            let (sa, sb) = (side(a), side(b));
            let scratch = &mut self.maze_scratch;
            if let Err(e) = self.maze.time(|| router.route_with(scratch, &sa, &sb)) {
                self.errors
                    .push(format!("level {level} route {a}-{b}: {e}"));
            }

            let (mut copy, map) = forest.extract_forest(&[a, b]);
            let (la, lb) = (ClockTree::local_id(&map, a), ClockTree::local_id(&map, b));
            let scratch = &mut self.merge_scratch;
            match self
                .merge
                .time(|| mr.merge_pair_with(scratch, &mut copy, la, lb))
            {
                Ok(out) => self.buffers_inserted += out.buffers_inserted as u64,
                Err(e) => self
                    .errors
                    .push(format!("level {level} merge {a}-{b}: {e}")),
            }
        }
    }

    /// Books the refine phase (last level callback to return) and writes
    /// the per-layer metrics. `topology_s`/`merge_s` come from the
    /// synthesis output.
    pub fn finish(
        self,
        topology_s: f64,
        merge_s: f64,
        m: &mut Metrics,
        counts: &mut Counts,
    ) -> Vec<String> {
        let refine = self.last_exit.elapsed().as_secs_f64();
        let level_sum: f64 = self.levels.iter().sum();
        let level_max = self.levels.iter().copied().fold(0.0, f64::max);
        let levels = self.levels.len();
        m.set("pipeline.levels", levels as f64, "");
        m.set(
            "pipeline.level_s",
            level_sum,
            format!("sum over {levels} levels, callbacks excluded"),
        );
        m.set("pipeline.level_max_s", level_max, "");
        m.set("pipeline.refine_s", refine, "last level callback to return");
        m.set(
            "pipeline.topology_s",
            topology_s,
            "from the synthesis output",
        );
        m.set("pipeline.merge_s", merge_s, "from the synthesis output");

        m.set("topology.match_s", self.matching.seconds, "");
        m.set("topology.match_calls", self.matching.calls as f64, "");
        m.set("engine.eval_subtree_s", self.engine.seconds, "");
        m.set("engine.eval_subtree_calls", self.engine.calls as f64, "");
        m.set("engine.sinks_visited", self.sinks_visited as f64, "");
        let tail = |a: &Acc| stats::tail(&a.samples_ms);
        let pair_tail = tail(&self.merge);
        m.set(
            "merge.pair_s",
            self.merge.seconds,
            format!("sampled, ≤{} pairs per level", self.pairs_per_level),
        );
        m.set(
            "merge.pair_p99_ms",
            pair_tail.map_or(0.0, |t| t.value),
            pair_tail.map_or(String::new(), |t| t.describe()),
        );
        m.set("merge.pair_calls", self.merge.calls as f64, "");
        m.set("merge.buffers_inserted", self.buffers_inserted as f64, "");
        let route_tail = tail(&self.maze);
        m.set(
            "maze.route_s",
            self.maze.seconds,
            "same sampled pairs, pre-balance sides",
        );
        m.set("maze.route_calls", self.maze.calls as f64, "");
        m.set(
            "maze.route_p99_ms",
            route_tail.map_or(0.0, |t| t.value),
            route_tail.map_or(String::new(), |t| t.describe()),
        );

        counts.add("pipeline.levels", levels as u64);
        counts.add("topology.match_calls", self.matching.calls);
        counts.add("engine.eval_subtree_calls", self.engine.calls);
        counts.add("engine.sinks_visited", self.sinks_visited);
        counts.add("merge.pair_calls", self.merge.calls);
        counts.add("merge.buffers_inserted", self.buffers_inserted);
        counts.add("maze.route_calls", self.maze.calls);
        self.errors
    }
}

/// A recorder installed for one traced pass, with the span events that
/// the benchmark's own replays cause subtracted out.
pub struct ObsWindow {
    rec: Recorder,
    excluded_events: usize,
    excluded_dropped: u64,
}

impl ObsWindow {
    pub fn install() -> ObsWindow {
        ObsWindow {
            rec: Recorder::install(),
            excluded_events: 0,
            excluded_dropped: 0,
        }
    }

    fn totals(&self) -> (usize, u64) {
        self.rec.collect();
        (self.rec.events().len(), self.rec.dropped())
    }

    /// Drains the rings; for long passes call between units of work.
    pub fn collect(&self) {
        self.rec.collect();
    }

    /// Runs `f` (benchmark-side work) and books the spans it caused as
    /// excluded.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (e0, d0) = self.totals();
        let out = f();
        let (e1, d1) = self.totals();
        self.excluded_events += e1 - e0;
        self.excluded_dropped += d1 - d0;
        out
    }

    /// Uninstalls the recorder; returns (events kept, events dropped).
    pub fn finish(self) -> (usize, u64) {
        let (e, d) = self.totals();
        Recorder::uninstall();
        (e - self.excluded_events, d - self.excluded_dropped)
    }
}
