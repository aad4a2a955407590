//! Per-quantum tracing from outside the program.
//!
//! A [`Tracer`] records one span per quantum around the closing
//! `push_message` call and splits it with deltas of the detector's public
//! cumulative stage timers; what the seven stages do not cover is the
//! session tail (journal append plus sink dispatch).  It also takes the
//! quantum's allocation counts and work counters, and runs the P3 oracle
//! after every quantum, outside the timed span.  Spans stay in memory
//! until the run ends.

use std::time::{Duration, Instant};

use dengraph_core::{DetectorSession, QuantumSummary};

use crate::workload::p3_holds;

/// Reads the process-wide allocation counters: `(allocations, bytes)`.
pub type AllocCounter = fn() -> (u64, u64);

/// Hooks a replay pass calls around each quantum.  The untraced run uses
/// [`NoProbe`], whose empty hooks compile away.
pub trait Probe {
    /// A pass is about to start on `session`.
    fn pass_start(&mut self, _session: &DetectorSession) {}

    /// The quantum's first message is about to be pushed.
    fn quantum_start(&mut self) {}

    /// The quantum's last `push_message` returned after `span`.
    fn quantum_end(
        &mut self,
        _session: &DetectorSession,
        _summary: &QuantumSummary,
        _span: Duration,
    ) {
    }

    /// Wall time the probe spent in its own checks since the last call,
    /// which the pass leaves out of its timed total.
    fn take_excluded(&mut self) -> Duration {
        Duration::ZERO
    }
}

/// The untraced probe: does nothing.
pub struct NoProbe;

impl Probe for NoProbe {}

/// The cumulative stage timers as milliseconds, pipeline order.
fn stage_ms(session: &DetectorSession) -> [f64; 7] {
    session
        .detector()
        .stage_times()
        .as_millis()
        .map(|(_, ms)| ms)
}

/// One traced quantum.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Duration of the closing `push_message`, milliseconds.
    pub span_ms: f64,
    /// Time in each of the seven stages, milliseconds, in the order of
    /// `StageTimes::as_millis`.
    pub stage_ms: [f64; 7],
    /// Allocations over all of the quantum's `push_message` calls.
    pub alloc_count: u64,
    /// Bytes allocated over the same calls.
    pub alloc_bytes: u64,
    /// AKG candidate pairs scored.
    pub pairs_evaluated: u64,
    /// AKG edges added.
    pub edges_added: u64,
    /// Cluster operations: edge additions + edge deletions + node removals.
    pub cluster_ops: u64,
    /// Events reported.
    pub events: u64,
    /// Live clusters after the quantum.
    pub live_clusters: u64,
}

impl Span {
    /// The session tail: span time the seven stages do not cover.
    pub fn tail_ms(&self) -> f64 {
        (self.span_ms - self.stage_ms.iter().sum::<f64>()).max(0.0)
    }
}

/// The traced probe.
pub struct Tracer {
    alloc: AllocCounter,
    alloc_start: (u64, u64),
    stages_before: [f64; 7],
    excluded: Duration,
    /// Every traced quantum, in order.
    pub spans: Vec<Span>,
    /// Traced quanta after which the P3 oracle failed.
    pub oracle_failures: u64,
}

impl Tracer {
    /// A tracer reading allocations through `alloc`.
    pub fn new(alloc: AllocCounter) -> Self {
        Self {
            alloc,
            alloc_start: (0, 0),
            stages_before: [0.0; 7],
            excluded: Duration::ZERO,
            spans: Vec::new(),
            oracle_failures: 0,
        }
    }
}

impl Probe for Tracer {
    fn pass_start(&mut self, session: &DetectorSession) {
        self.stages_before = stage_ms(session);
    }

    fn quantum_start(&mut self) {
        self.alloc_start = (self.alloc)();
    }

    fn quantum_end(&mut self, session: &DetectorSession, summary: &QuantumSummary, span: Duration) {
        // Counters first, before this method allocates anything itself.
        let (count, bytes) = (self.alloc)();
        let stages = stage_ms(session);
        let mut stage_delta = [0.0; 7];
        for (i, delta) in stage_delta.iter_mut().enumerate() {
            *delta = stages[i] - self.stages_before[i];
        }
        self.stages_before = stages;
        let maintenance = &summary.maintenance_stats;
        self.spans.push(Span {
            span_ms: span.as_secs_f64() * 1e3,
            stage_ms: stage_delta,
            alloc_count: count - self.alloc_start.0,
            alloc_bytes: bytes - self.alloc_start.1,
            pairs_evaluated: summary.akg_stats.pairs_evaluated as u64,
            edges_added: summary.akg_stats.edges_added as u64,
            cluster_ops: (maintenance.edge_additions
                + maintenance.edge_deletions
                + maintenance.node_removals) as u64,
            events: summary.events.len() as u64,
            live_clusters: summary.live_clusters as u64,
        });

        let oracle_start = Instant::now();
        if !p3_holds(session) {
            self.oracle_failures += 1;
        }
        self.excluded += oracle_start.elapsed();
    }

    fn take_excluded(&mut self) -> Duration {
        std::mem::take(&mut self.excluded)
    }
}
