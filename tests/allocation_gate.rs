//! Allocation-regression gate for the steady-state hot path.
//!
//! The dense-ID refactor made steady-state quanta (after warm-up, with a
//! stable keyword population) run out of recycled buffers: the quantum
//! record reuses the evicted record's storage, the window index pools its
//! sub-sketches and entries, and the AKG works out of the detector's
//! `ScratchArena`.  This test pins that property with a counting global
//! allocator: one steady-state quantum in the default (serial,
//! incremental-index) configuration must stay under a small constant
//! number of heap allocations — independent of Δ, window length and
//! keyword population.  If scratch reuse rots (say, a hot-path `Vec` is
//! rebuilt from scratch again, which costs O(Δ) allocations per quantum),
//! this fails loudly.
//!
//! The binary contains exactly one test so no concurrent test thread can
//! pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dengraph_core::{DetectorBuilder, DetectorConfig, Parallelism};
use dengraph_stream::{Message, Quantum, UserId};
use dengraph_text::KeywordId;

/// Counts `alloc`/`realloc` calls while armed; delegates to the system
/// allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A steady-state quantum: three disjoint correlated bursts from a fixed
/// user population (so window refcounts oscillate without growing), plus
/// fresh long-tail filler (below σ, so it never materializes index
/// entries — exactly the real-stream shape).
fn steady_quantum(q: u64, quantum_size: usize) -> Quantum {
    let mut messages = Vec::with_capacity(quantum_size);
    for group in 0..3u32 {
        let keywords: Vec<KeywordId> = (0..3).map(|i| KeywordId(group * 10 + i)).collect();
        for u in 0..4u64 {
            messages.push(Message::new(
                UserId(100 * group as u64 + u),
                q * 1_000 + u,
                keywords.clone(),
            ));
        }
    }
    let mut filler = 1_000_000 + q * 1_000;
    while messages.len() < quantum_size {
        messages.push(Message::new(
            UserId(filler),
            q * 1_000 + filler,
            vec![KeywordId(1_000 + (filler % 50_000) as u32)],
        ));
        filler += 1;
    }
    Quantum { index: q, messages }
}

#[test]
fn steady_state_quanta_allocate_a_small_constant() {
    let config = DetectorConfig {
        quantum_size: 48,
        high_state_threshold: 3,
        window_quanta: 8,
        parallelism: Parallelism::Serial,
        ..DetectorConfig::nominal()
    };
    let mut session = DetectorBuilder::from_config(config)
        .build()
        .expect("gate config is valid");

    // Pre-build every quantum so message construction never counts.
    let quanta: Vec<Quantum> = (0..40).map(|q| steady_quantum(q, 48)).collect();
    let (warmup, measured) = quanta.split_at(24);

    // Warm-up: fill the window, materialize the bursty keywords, grow
    // every scratch buffer and pool to its steady-state capacity.
    for quantum in warmup {
        let summary = session.process_quantum(quantum);
        assert!(
            !summary.events.is_empty(),
            "the bursty groups must form reportable clusters"
        );
    }

    let mut worst = 0u64;
    for quantum in measured {
        ALLOCATIONS.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let summary = session.process_quantum(quantum);
        ARMED.store(false, Ordering::Relaxed);
        let count = ALLOCATIONS.load(Ordering::Relaxed);
        worst = worst.max(count);
        assert_eq!(summary.quantum, quantum.index);
        assert!(!summary.events.is_empty());
    }

    eprintln!("worst steady-state quantum: {worst} allocations");
    // Budget: the per-quantum constant — the returned summary's vectors,
    // the reported events (3 × keyword list), the correlation cache's
    // per-quantum columns, the scoring fan-out's result vector and the
    // tracker's (amortised) history growth.  Measured ≈ 30 in release and
    // ≈ 57 in debug on the current implementation (the gap predates the
    // batch sketch kernels, which keep their lane buffers in the
    // `ScratchArena` and merge through a stack buffer — zero steady-state
    // allocations in either profile).  The persistent AKG component index
    // is maintained in lock step inside this loop and contributes nothing
    // steady-state: slot interning, union-by-size and the epoch-stamped
    // visit/scratch buffers of its deletion repair all reuse retained
    // storage once warm (its introduction left both profiles' counts
    // unchanged).  The budget leaves headroom for allocator jitter while
    // any O(Δ) regression (Δ = 48 here, so ≥ ~100 extra allocations)
    // fails.
    let budget = if cfg!(debug_assertions) { 64 } else { 48 };
    assert!(
        worst <= budget,
        "steady-state quantum performed {worst} heap allocations \
         (budget {budget}) — scratch/pool reuse has regressed"
    );
}
