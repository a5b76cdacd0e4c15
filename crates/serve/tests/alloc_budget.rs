//! Allocation budget of a cold query: a counting global allocator tallies
//! the allocations and bytes the calling thread asks for, and the tests
//! pin ceilings for one cold 48-query batch on a 1-thread service (whose
//! pool runs every task inline, so the calling thread does all the work)
//! and for one query of each Table-2 application.
//!
//! Each count is taken warm: the service, or the thread's evaluation
//! scratch, has already answered a batch or query of the same shape with
//! other knob factors, so the count is what every later batch or query of
//! a campaign pays. A `realloc` counts as one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use exa_apps::query::evaluate_query;
use exa_serve::{CacheStatus, CampaignService, ServeConfig};

struct Counting;

thread_local! {
    /// `(allocations, bytes)` the current thread asked for.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = TALLY.try_with(|t| {
        let (n, b) = t.get();
        t.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the tally touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged, see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged, see the impl.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged, see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged, see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` the current thread asks for while `f` runs.
fn tally<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (n0, b0) = TALLY.with(Cell::get);
    let out = f();
    let (n1, b1) = TALLY.with(Cell::get);
    (out, (n1 - n0, b1 - b0))
}

/// Each Table-2 app's budget for one query on Frontier at 1 024 nodes:
/// `(app, allocations, bytes)`. Measured: GAMESS 13 / 346, LSMS 13 / 320,
/// GESTS 64 / 2 211, ExaSky 20 / 647, CoMet 13 / 359, NuCCOR 12 / 348,
/// Pele 51 / 7 325, COAST 29 / 523. With a fresh collector per query
/// GESTS took 136 / 62 104 and Pele 66 / 9 034.
const QUERY_BUDGETS: [(&str, u64, u64); 8] = [
    ("GAMESS", 15, 400),
    ("LSMS", 15, 400),
    ("GESTS", 70, 2_600),
    ("ExaSky", 22, 750),
    ("CoMet", 15, 400),
    ("NuCCOR", 14, 400),
    ("Pele", 56, 8_200),
    ("COAST", 32, 600),
];

/// One cold batch's budget. Measured: 1 342 allocations, 122 740 bytes,
/// of which the 48 evaluations take 1 293 and 71 796. With a fresh
/// collector per query, owned knob copies, a knob `Vec` per query and a
/// RED tally rebuilt per batch the same batch took 2 441 allocations and
/// 532 974 bytes (the evaluations 2 169 and 469 842).
const BATCH_BUDGET: (u64, u64) = (1_450, 140_000);

const NEEDLES: [&str; 4] = ["comm", "kernel", "transform", "io"];

/// One cold batch, shaped like the `serve_cold` benchmark's: every
/// Table-2 app on Frontier and Summit at 0, 1024 and 128 nodes, each with
/// one knob whose factor `round` makes new.
fn cold_batch(round: u64) -> Vec<String> {
    let mut out = Vec::new();
    for (app, ..) in QUERY_BUDGETS {
        for machine in ["Frontier", "Summit"] {
            for nodes in [0, 1024, 128] {
                let k = out.len() as u64;
                let needle = NEEDLES[k as usize % NEEDLES.len()];
                let factor = 1.0 + (round * 64 + k + 1) as f64 / (1u64 << 24) as f64;
                out.push(format!(
                    "app={app} machine={machine} nodes={nodes} knob:{needle}={factor}"
                ));
            }
        }
    }
    out
}

#[test]
fn a_cold_batch_keeps_its_allocation_budget() {
    // Traced like the benchmark: one query in 4 096.
    let mut svc = CampaignService::new(ServeConfig {
        threads: 1,
        trace_sample: 4096,
        ..ServeConfig::default()
    });
    svc.run_batch(&cold_batch(0));
    let batch = cold_batch(1);
    let (outcomes, (allocs, bytes)) = tally(|| svc.run_batch(&batch));
    assert_eq!(outcomes.len(), 48);
    assert!(outcomes.iter().all(|o| o.status == CacheStatus::Miss));
    let (max_allocs, max_bytes) = BATCH_BUDGET;
    assert!(
        allocs <= max_allocs && bytes <= max_bytes,
        "a cold batch took {allocs} allocations and {bytes} bytes, \
         over its budget of {max_allocs} and {max_bytes}"
    );
}

#[test]
fn each_table2_query_keeps_its_allocation_budget() {
    for (app, max_allocs, max_bytes) in QUERY_BUDGETS {
        evaluate_query(app, "Frontier", 1024, &[("transform", 1.25)], "").expect("valid query");
        let (answer, (allocs, bytes)) =
            tally(|| evaluate_query(app, "Frontier", 1024, &[("transform", 1.5)], ""));
        assert!(answer.is_some_and(|a| a.spans > 0), "{app}");
        assert!(
            allocs <= max_allocs && bytes <= max_bytes,
            "{app}: a query took {allocs} allocations and {bytes} bytes, \
             over its budget of {max_allocs} and {max_bytes}"
        );
    }
}
