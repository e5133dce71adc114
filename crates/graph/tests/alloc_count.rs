//! Allocation-count regression tests for the interners.
//!
//! The legacy `TransactionInterner` used to call `key.to_string()` twice
//! per miss (once for the map key, once for the id→key vector). These
//! tests pin the fixed behavior — one shared allocation per distinct key —
//! and the arena interner's amortized-doubling profile, using a counting
//! `#[global_allocator]`. They live in their own integration-test binary
//! so the allocator swap cannot perturb any other test.

use ensemfdet_graph::{ArenaInterner, TransactionInterner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocation calls and bytes requested by this thread. Counting per
    /// thread keeps tests running in parallel, and the test harness, out of
    /// each other's counts. Const-initialized and drop-free, so reading it
    /// never allocates.
    static COUNTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn record(bytes: usize) {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = COUNTS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns (allocation calls, bytes requested) by the calling
/// thread during it.
fn counted<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let (calls0, bytes0) = COUNTS.with(Cell::get);
    let out = f();
    let (calls1, bytes1) = COUNTS.with(Cell::get);
    (calls1 - calls0, bytes1 - bytes0, out)
}

#[test]
fn legacy_interner_allocates_each_key_once() {
    const N: usize = 4096;
    // Pre-build the key strings so only interner-internal allocation is
    // measured.
    let keys: Vec<String> = (0..N).map(|i| format!("PIN-{i:08}")).collect();

    let mut interner = TransactionInterner::new();
    let (calls, _bytes, ()) = counted(|| {
        for k in &keys {
            interner.user(k);
        }
    });

    // One Arc<str> allocation per distinct key, plus amortized HashMap and
    // Vec growth (O(log N) doublings each, but rehashing is what it is).
    // The old double-`to_string()` code performed ≥ 2N string allocations
    // alone, so a 1.5N ceiling cleanly separates fixed from broken.
    assert!(
        calls <= N * 3 / 2,
        "legacy interner made {calls} allocations for {N} distinct keys \
         (double-allocation regression?)"
    );

    // Hits must not allocate at all.
    let (hit_calls, _, ()) = counted(|| {
        for k in &keys {
            interner.user(k);
        }
    });
    assert_eq!(hit_calls, 0, "interner hits allocated");
}

#[test]
fn arena_interner_allocates_amortized_not_per_key() {
    const N: usize = 4096;
    let keys: Vec<String> = (0..N).map(|i| format!("PIN-{i:08}")).collect();

    let mut arena = ArenaInterner::new();
    let (calls, _bytes, ()) = counted(|| {
        for k in &keys {
            arena.intern(k);
        }
    });

    // Arena + span vector + probe table each double O(log N) times; no
    // per-key allocation at all. Allow generous slack — the point is the
    // asymptotic gap to the one-alloc-per-key legacy path.
    assert!(
        calls < N / 4,
        "arena interner made {calls} allocations for {N} keys — \
         expected amortized doubling only"
    );
    assert_eq!(arena.len(), N);

    let (hit_calls, _, ()) = counted(|| {
        for k in &keys {
            arena.intern(k);
        }
    });
    assert_eq!(hit_calls, 0, "arena hits allocated");

    let (find_calls, _, found) = counted(|| arena.find(&keys[N / 2]));
    assert_eq!(found, Some((N / 2) as u32));
    assert_eq!(find_calls, 0, "borrow-keyed find allocated");
}
