//! The heap a campaign holds per cell. A paper-scale sweep keeps each
//! cell's journal entry and report row; its specs are shared between
//! cells and its outcomes are dropped as their rows are made.
//!
//! This binary installs a counting global allocator, so it holds only
//! these tests: another test's allocations would count against the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use melody::campaign::{run_campaign, CampaignSpec, Shard};
use melody::exec::CellPolicy;
use melody::journal::Journal;

/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` has reached since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes. Both counters are
/// statistics that publish no other data, so relaxed ordering suffices.
struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters besides, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Restarts the peak at the bytes live now and returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// A fast-tier sweep of every workload over two platforms and four
/// devices: 2 × 4 × 265 = 2,120 cells.
fn sweep() -> CampaignSpec {
    serde_json::from_str(
        r#"{
            "name": "memory",
            "platforms": ["spr2s", "emr2s"],
            "devices": ["local", "cxl-a", "cxl-b", "cxl-c"],
            "scale": "full",
            "fidelity": "fast",
            "mem_refs": 20000
        }"#,
    )
    .expect("valid campaign spec")
}

#[test]
fn a_sweep_holds_at_most_8_kib_per_cell() {
    let spec = sweep();
    let mut journal = Journal::in_memory();
    let start = reset_peak();
    let run = run_campaign(
        &spec,
        Shard::full(),
        &mut journal,
        None,
        &CellPolicy::default(),
    )
    .expect("campaign");
    let peak = PEAK.load(Ordering::Relaxed) - start;
    let cells = run.report.rows.len();
    assert_eq!(cells, 2_120);
    assert!(run.report.errors.is_empty(), "{:?}", run.report.errors);
    let per_cell = peak / cells;
    assert!(
        per_cell <= 8 * 1024,
        "peak heap {peak} B over {cells} cells is {per_cell} B per cell"
    );
}

#[test]
fn cells_share_their_specs() {
    let spec = CampaignSpec {
        platforms: vec!["emr2s".into()],
        devices: vec!["cxl-a".into()],
        workloads: vec!["605.mcf".into(), "541.leela".into()],
        ..sweep()
    };
    let cells = spec.expand().expect("expand");
    let [a, b] = &cells[..] else {
        panic!("two cells, got {}", cells.len());
    };
    assert!(Arc::ptr_eq(&a.platform, &b.platform));
    assert!(Arc::ptr_eq(&a.local, &b.local));
    assert!(Arc::ptr_eq(&a.target, &b.target));
}
