//! Heap-allocation guards, counted by a per-thread counting allocator.
//!
//! * The delay-library queries the maze router issues at every wavefront
//!   step (`PolyFit::eval`, `single_wire` and its single-quantity forms,
//!   `branch`) must not touch the heap: one allocation per fit evaluation
//!   was hundreds of millions of allocations per large synthesis. The
//!   fit sections the router evaluates instead allocate once, when built.
//! * A serial synthesis must keep its transient heap peak within a fixed
//!   multiple of the result it returns: the serial level merge grafts
//!   each pair's forest as soon as it is merged instead of holding every
//!   forest of a level, and merges the top level on the arena itself.
//!
//! Counters are thread-local, so the test harness's other threads do not
//! disturb a measurement; each measured closure runs entirely on the
//! calling thread.

use cts::benchmarks::generate_scale;
use cts::timing::fit::PolyFit;
use cts::timing::{fast_library, BufferId, Load};
use cts::{CtsOptions, Synthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + size as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn on_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - size as i64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What one closure did to this thread's heap.
struct HeapUse {
    /// Allocation calls (including reallocations).
    allocs: u64,
    /// Highest live-byte level above the starting level.
    peak: i64,
    /// Live bytes still held at the end, above the starting level.
    retained: i64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    let start = LIVE.with(Cell::get);
    let allocs = ALLOCS.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let use_ = HeapUse {
        allocs: ALLOCS.with(Cell::get) - allocs,
        peak: PEAK.with(Cell::get) - start,
        retained: LIVE.with(Cell::get) - start,
    };
    (out, use_)
}

#[test]
fn fit_eval_does_not_allocate() {
    // Every dimensionality, and orders past the power table (order 4 runs
    // the `powi` fallback).
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut fits = Vec::new();
    for dims in 1..=3usize {
        for order in 0..=4u32 {
            let pts: Vec<Vec<f64>> = (0..60)
                .map(|_| (0..dims).map(|_| 4.0 * unit()).collect())
                .collect();
            let vals: Vec<f64> = pts.iter().map(|p| p.iter().sum::<f64>().sin()).collect();
            fits.push(PolyFit::fit(dims, order, &pts, &vals).expect("well-posed fit"));
        }
    }
    let queries: Vec<[f64; 3]> = (0..50)
        .map(|i| {
            let v = i as f64 * 0.2 - 3.0; // inside and outside the domain
            [v, 2.0 * v, 0.5 * v]
        })
        .collect();
    let (acc, heap) = measure(|| {
        let mut acc = 0.0;
        for fit in &fits {
            for q in &queries {
                acc += fit.eval(&q[..fit.dims()]);
            }
        }
        acc
    });
    assert!(acc.is_finite());
    assert_eq!(heap.allocs, 0, "PolyFit::eval allocated");
}

#[test]
fn library_queries_do_not_allocate() {
    let lib = fast_library();
    let loads: Vec<Load> = lib
        .buffer_ids()
        .map(Load::Buffer)
        .chain([Load::Sink { cap: 25e-15 }])
        .collect();
    let (acc, heap) = measure(|| {
        let mut acc = 0.0;
        for drive in lib.buffer_ids() {
            for &load in &loads {
                for i in 0..20 {
                    let slew = 20e-12 + i as f64 * 5e-12;
                    let len = 50.0 + i as f64 * 150.0;
                    let t = lib.single_wire(drive, load, slew, len);
                    acc += t.buffer_delay + t.wire_delay + t.output_slew;
                    acc += lib.single_wire_delay(drive, load, slew, len);
                    acc += lib.single_wire_slew(drive, load, slew, len);
                    let (b, w) = lib.single_wire_delays(drive, load, slew, len);
                    acc += b + w;
                    let br =
                        lib.branch(drive, (load, Load::Buffer(BufferId(0))), slew, (len, 400.0));
                    acc += br.buffer_delay + br.left_delay + br.right_slew;
                }
            }
        }
        acc
    });
    assert!(acc.is_finite());
    assert_eq!(heap.allocs, 0, "delay-library queries allocated");
}

#[test]
fn fit_sections_allocate_only_at_construction() {
    // The maze router builds one wire-delay section per load type when it
    // is created and evaluates it at every wavefront step: building costs
    // one allocation (the term list), evaluating none.
    let lib = fast_library();
    let loads: Vec<Load> = lib
        .buffer_ids()
        .map(Load::Buffer)
        .chain([Load::Sink { cap: 25e-15 }])
        .collect();
    let (sections, built) = measure(|| {
        let mut sections = Vec::with_capacity(lib.buffer_ids().count() * loads.len() * 4);
        for drive in lib.buffer_ids() {
            for &load in &loads {
                for i in 0..4 {
                    sections.push(lib.wire_delay_section(drive, load, 20e-12 + i as f64 * 25e-12));
                }
            }
        }
        sections
    });
    assert_eq!(
        built.allocs,
        1 + sections.len() as u64,
        "one allocation per section (plus the holding vector)"
    );
    let (acc, heap) = measure(|| {
        let mut acc = 0.0;
        for section in &sections {
            for i in 0..50 {
                acc += section.eval(i as f64 * 60.0 - 100.0);
            }
        }
        acc
    });
    assert!(acc.is_finite());
    assert_eq!(heap.allocs, 0, "section evaluation allocated");

    // Sections of bare fits too, every order through the `powi` fallback.
    for order in 0..=4u32 {
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64, (i / 7) as f64 * 1.5])
            .collect();
        let vals: Vec<f64> = pts.iter().map(|p| (p[0] - p[1]).sin()).collect();
        let fit = PolyFit::fit(2, order, &pts, &vals).expect("well-posed fit");
        let (section, built) = measure(|| fit.section(2.5));
        assert_eq!(built.allocs, 1, "order {order}: section construction");
        let (acc, heap) = measure(|| {
            (0..40)
                .map(|i| section.eval(i as f64 * 0.3 - 2.0))
                .sum::<f64>()
        });
        assert!(acc.is_finite());
        assert_eq!(
            heap.allocs, 0,
            "order {order}: section evaluation allocated"
        );
    }
}

/// Upper bound on a serial synthesis's transient heap peak, as a multiple
/// of the heap its result keeps. Measured on the 2000-sink instance below:
/// 1.81x with the streamed serial graft and in-place top merge, 2.40x when
/// every forest of a level was collected before grafting.
const MAX_PEAK_OVER_RESULT: f64 = 2.0;

#[test]
fn serial_synthesis_heap_peak_stays_near_its_result() {
    let lib = fast_library();
    let inst = generate_scale(2000, 1);
    let synth = |threads: usize| {
        let options = CtsOptions::builder()
            .threads(threads)
            .build()
            .expect("valid");
        Synthesizer::new(lib, options)
            .synthesize_unverified(&inst)
            .expect("synthesis")
    };
    // First-use state (lazily built statics) stays out of the measurement.
    drop(synth(1));
    let (serial, heap) = measure(|| synth(1));
    let ratio = heap.peak as f64 / heap.retained as f64;
    assert!(heap.retained > 0);
    assert!(
        ratio <= MAX_PEAK_OVER_RESULT,
        "heap peak {} B is {ratio:.2}x the {} B result (bound {MAX_PEAK_OVER_RESULT}x)",
        heap.peak,
        heap.retained
    );
    // The streamed serial graft and the parallel collect-then-graft path
    // build the same tree, byte for byte.
    let parallel = synth(2);
    assert_eq!(format!("{:?}", serial.tree), format!("{:?}", parallel.tree));
    assert_eq!(serial.source, parallel.source);
    assert_eq!(serial.level_stats, parallel.level_stats);
}
