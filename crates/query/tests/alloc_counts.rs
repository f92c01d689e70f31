//! Allocation gates: how many heap allocations, and how many bytes, one
//! plan costs through `PlanExecutor::execute`.
//!
//! Counts of work do not drift with the host the way timings do, so these
//! ceilings hold on any machine.  A counting global allocator tallies
//! every `alloc`, `alloc_zeroed` and `realloc` of the calling thread
//! (a `realloc` counts as one allocation of its new size); test threads
//! run in parallel, so each measures only its own work.
//!
//! The shape is the `query_plan` bench's quick mode: 16 tenants of 20,000
//! keys, sketched with m = 5,000 and s = 500 (2,000 sample points each).
//! Each plan runs once to warm up before the counted run.  The ceilings
//! are the measured counts; a change that lowers a count lowers its
//! ceiling.  Run with `--nocapture` to print the counts.

use opaq_core::{IncrementalOpaq, OpaqConfig};
use opaq_query::{PlanExecutor, QueryPlan};
use opaq_serve::{DatasetId, QueryRequest, SketchCatalog, TenantId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// `(allocations, bytes)` requested by this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread's slot is gone while the thread tears down.
    let _ = COUNTS.try_with(|c| {
        let (allocs, total) = c.get();
        c.set((allocs + 1, total + bytes as u64));
    });
}

// SAFETY: every method passes its caller's arguments unchanged to `System`,
// so `System`'s guarantees are the allocator's.  Counting only updates a
// thread-local `Cell` with a `const` initialiser and no destructor, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations and bytes this thread requests while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = COUNTS.with(Cell::get);
    let out = f();
    let (allocs_after, bytes_after) = COUNTS.with(Cell::get);
    (out, allocs_after - allocs, bytes_after - bytes)
}

const TENANTS: u64 = 16;
const KEYS_PER_TENANT: u64 = 20_000;

/// `query_plan`'s quick catalog: `tenant-0` … `tenant-15`, each holding one
/// `events` sketch of uniform keys below 2³¹ (splitmix64, seeded per
/// tenant).
fn catalog() -> Arc<SketchCatalog> {
    let config = OpaqConfig::builder()
        .run_length(5_000)
        .sample_size(500)
        .build()
        .unwrap();
    let catalog = Arc::new(SketchCatalog::unbounded());
    for tenant in 0..TENANTS {
        let mut state = 42 + tenant;
        let keys: Vec<u64> = (0..KEYS_PER_TENANT)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) >> 33
            })
            .collect();
        let mut inc = IncrementalOpaq::new(config).unwrap();
        inc.add_run(keys).unwrap();
        catalog
            .publish(
                &TenantId::new(format!("tenant-{tenant}")),
                &DatasetId::new("events"),
                inc.into_sketch().unwrap(),
            )
            .unwrap();
    }
    catalog
}

/// Run `plan` once to warm up, then return the counted run's
/// `(allocations, bytes)`.
fn plan_cost(executor: &PlanExecutor, plan: &QueryPlan, label: &str) -> (u64, u64) {
    executor.execute(plan).unwrap();
    let (response, allocs, bytes) = counted(|| executor.execute(plan).unwrap());
    assert!(!response.sources.is_empty());
    println!("{label}: {allocs} allocations, {bytes} bytes");
    (allocs, bytes)
}

#[test]
fn point_plan_allocations_stay_under_their_ceiling() {
    let executor = PlanExecutor::new(catalog());
    let plan = QueryPlan::single(
        TenantId::new("tenant-0"),
        DatasetId::new("events"),
        QueryRequest::Quantile { phi: 0.5 },
    );
    let (allocs, bytes) = plan_cost(&executor, &plan, "point plan");
    assert!(allocs <= 4, "{allocs} allocations");
    assert!(bytes <= 150, "{bytes} bytes");
}

#[test]
fn coalesce_plan_allocations_stay_under_their_ceiling() {
    let executor = PlanExecutor::new(catalog());
    let plan = QueryPlan::parse("fetch tenant-*/events | coalesce | quantile 0.5,0.99").unwrap();
    let (allocs, bytes) = plan_cost(&executor, &plan, "16-source coalesce plan");
    assert!(allocs <= 289, "{allocs} allocations");
    assert!(bytes <= 2_058_786, "{bytes} bytes");
}
