//! Reusable per-quantum scratch buffers.
//!
//! Every quantum of the hot path used to allocate its working vectors
//! fresh — candidate keyword lists, candidate pairs, the delta log, the
//! `(keyword, user)` staging buffer for window aggregation, the
//! ranking-support node list.  The [`ScratchArena`] is owned by the
//! detector and threaded through the pipeline stages instead, so
//! steady-state quanta reuse the previous quantum's capacity and perform
//! (near) zero heap allocation (`tests/allocation_gate.rs` pins this).
//!
//! Scratch contents are **never** semantically meaningful across quanta:
//! every user clears its buffer before filling it, so a freshly restored
//! detector (whose arena starts empty) is bit-identical to one that has
//! been running — the arena is excluded from checkpoints for exactly that
//! reason.

use dengraph_graph::NodeId;
use dengraph_minhash::{JoinScratch, SketchLanes};
use dengraph_stream::UserId;
use dengraph_text::KeywordId;

use crate::akg::GraphDelta;
use crate::keyword_state::{PairSortScratch, RecordStorage};
use crate::ranking::RankScratch;

/// Reusable buffers for one detector's per-quantum pipeline.
#[derive(Debug, Default)]
pub(crate) struct ScratchArena {
    /// `(keyword, user)` staging for quantum aggregation (stage 1).
    pub pairs: Vec<(KeywordId, UserId)>,
    /// Packed key column + ping-pong buffer for the radix pair sort
    /// (stage 1).
    pub pair_sort: PairSortScratch,
    /// Batch-kernel hash/survivor lanes for the window sub-sketch builds
    /// (stage 1).
    pub lanes: SketchLanes,
    /// Backing storage recycled from the most recently evicted
    /// [`QuantumRecord`](crate::keyword_state::QuantumRecord).
    pub record_storage: Option<RecordStorage>,
    /// The AKG delta log of the current quantum (stage 2 → stage 3).
    pub deltas: Vec<GraphDelta>,
    /// Stale / lazy-demotion candidate nodes (stage 2).
    pub nodes: Vec<NodeId>,
    /// Set 1 of Section 3.2.1: this quantum's bursty keywords, sorted.
    pub set1: Vec<KeywordId>,
    /// Set 2 of Section 3.2.1: AKG keywords occurring this quantum, sorted.
    pub set2: Vec<KeywordId>,
    /// Candidate pairs among set-1 keywords: those sharing a sketch
    /// minimum.
    pub bursty_pairs: Vec<(KeywordId, KeywordId)>,
    /// Entry column and sort buffer of the shared-minimum join.
    pub join: JoinScratch,
    /// The join's output: packed `(i << 32) | j` indices into `set1`.
    pub join_pairs: Vec<u64>,
    /// Candidate pairs along existing AKG edges.
    pub edge_pairs: Vec<(KeywordId, KeywordId)>,
    /// Both candidate sets concatenated for the single scoring fan-out.
    pub all_pairs: Vec<(KeywordId, KeywordId)>,
    /// Set 1 plus every set-2 pair endpoint, sorted + deduped — the key
    /// column of the correlation cache.
    pub involved: Vec<KeywordId>,
    /// Sorted node column for ranking each live cluster (stage 5).
    pub rank: RankScratch,
}
