//! Allocation-regression gate for the dense report path.
//!
//! `tests/allocation_gate.rs` pins a steady quantum with three small
//! clusters, where the report path is too small to show.  This binary
//! drives the opposite shape: many keyword families bursting every
//! quantum, so stage 3 scores a large set 1 through the shared-minimum
//! join and stage 5 ranks and reports dozens of live clusters.  Ranking
//! works out of reused scratch columns, so a steady quantum must allocate
//! at most a small constant plus a small multiple of the events it
//! reports (each event owns its keyword vector).  A per-node or per-edge
//! allocation in ranking, or a per-pair one in the join, fails it.
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

const FAMILIES: u32 = 40;
const FAMILY_KEYWORDS: u32 = 4;
const FAMILY_USERS: u64 = 4;
const QUANTUM_SIZE: usize = 200;

/// A steady dense quantum: every family's users post all of its keywords
/// (each family is a 4-clique of perfectly correlated bursty keywords,
/// hence one live cluster), plus fresh long-tail filler below σ.
fn dense_quantum(q: u64) -> Quantum {
    let mut messages = Vec::with_capacity(QUANTUM_SIZE);
    for family in 0..FAMILIES {
        let keywords: Vec<KeywordId> = (0..FAMILY_KEYWORDS)
            .map(|i| KeywordId(family * 10 + i))
            .collect();
        for u in 0..FAMILY_USERS {
            messages.push(Message::new(
                UserId(100 * family as u64 + u),
                q * 1_000 + u,
                keywords.clone(),
            ));
        }
    }
    let mut filler = 1_000_000 + q * 1_000;
    while messages.len() < QUANTUM_SIZE {
        messages.push(Message::new(
            UserId(filler),
            q * 1_000 + filler,
            vec![KeywordId(10_000 + (filler % 50_000) as u32)],
        ));
        filler += 1;
    }
    Quantum { index: q, messages }
}

#[test]
fn dense_report_quanta_allocate_a_constant_plus_per_event() {
    let config = DetectorConfig {
        quantum_size: QUANTUM_SIZE,
        high_state_threshold: 3,
        window_quanta: 8,
        parallelism: Parallelism::Serial,
        ..DetectorConfig::nominal()
    };
    let mut session = DetectorBuilder::from_config(config)
        .build()
        .expect("gate config is valid");

    let quanta: Vec<Quantum> = (0..48).map(dense_quantum).collect();
    let (warmup, measured) = quanta.split_at(24);
    for quantum in warmup {
        session.process_quantum(quantum);
    }

    let (per_event, constant) = budget();
    let mut worst: Option<(u64, usize)> = None;
    for quantum in measured {
        ALLOCATIONS.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let summary = session.process_quantum(quantum);
        ARMED.store(false, Ordering::Relaxed);
        let count = ALLOCATIONS.load(Ordering::Relaxed);
        let events = summary.events.len();
        assert_eq!(
            events, FAMILIES as usize,
            "every family must be reported as one event"
        );
        assert!(summary.akg_stats.pairs_evaluated > 0);
        let excess = |(c, e): (u64, usize)| c as i64 - (per_event * e as u64) as i64;
        if worst.is_none_or(|w| excess((count, events)) > excess(w)) {
            worst = Some((count, events));
        }
    }

    let (count, events) = worst.expect("measured quanta");
    eprintln!("worst dense quantum: {count} allocations for {events} events");
    let budget = constant + per_event * events as u64;
    assert!(
        count <= budget,
        "dense quantum performed {count} heap allocations for {events} events \
         (budget {budget}) — ranking/report scratch reuse has regressed"
    );
}

/// `(per reported event, constant)` allocation budget of one quantum.
///
/// Release: each event costs its keyword vector plus the tracker's
/// amortised history growth, which lands on every record in the same
/// quantum because all families were first reported together (measured
/// 52 / 93 / 174 allocations for 20 / 40 / 80 events: slope 2, constant
/// about 12).  The constant is `allocation_gate.rs`'s.
///
/// Debug builds also run the cluster registry's invariant check after
/// every quantum, which allocates per live cluster (measured 494 / 986 /
/// 1956 for 20 / 40 / 80 events: slope about 24.4).  Either way one
/// extra allocation per cluster node or edge breaks the budget.
fn budget() -> (u64, u64) {
    if cfg!(debug_assertions) {
        (25, 64)
    } else {
        (2, 48)
    }
}
