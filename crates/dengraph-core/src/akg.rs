//! Active-CKG (AKG) maintenance — Section 3 of the paper.
//!
//! The AKG is the small, slowly changing subgraph of the CKG on which
//! clusters are actually discovered.  Per quantum the maintainer
//!
//! 1. removes *stale* keywords (not seen in any quantum of the window),
//! 2. promotes keywords that are *bursty* this quantum (≥ σ distinct users)
//!    into the high state and hence into the AKG,
//! 3. computes edge correlations for exactly the two candidate sets of
//!    Section 3.2.1 — (1) pairwise among this quantum's bursty keywords and
//!    (2) between AKG keywords occurring this quantum and their existing
//!    neighbours — adding, re-weighting or removing edges against the
//!    threshold τ.  Set 1 is not scored as a Cartesian product: a pair
//!    whose window sketches share no minimum has correlation 0 < τ and
//!    cannot gain an edge, so only the pairs a self-join of the sketches on
//!    their minima returns are scored (see "Shared-minimum join" below),
//!    and
//! 4. lazily demotes AKG keywords that lost all their edges and are no
//!    longer bursty (the hysteresis rule keeps cluster members alive even
//!    when their frequency dips).
//!
//! Every change is reported as a [`GraphDelta`] so the cluster maintainer
//! (Section 5) can update clusters locally.
//!
//! ## Two-phase edge recomputation
//!
//! Edge-correlation work is split into a read-only **score** phase — build
//! one window sketch (or exact user set) per candidate keyword, then score
//! every candidate pair against the window — and a serial **apply** phase
//! that mutates the graph in canonical (sorted) order.  The score phase
//! carries almost all of the cost and is embarrassingly parallel, so it
//! fans out over shards per [`DetectorConfig::parallelism`]; because
//! results are collected in input order and applied canonically, the
//! parallel path is bit-identical to the serial one.
//!
//! ## Shared-minimum join
//!
//! The paper admits an edge only when the two keywords' min-hash sketches
//! share a minimum, and the cache scores every other pair 0.  So instead
//! of materialising the `|set1|²/2` bursty pairs, the score phase runs a
//! self-join on the sketch minimum ([`shared_minimum_pairs`]): one
//! `(minimum, slot)` entry per minimum, sorted, each run of equal minima
//! yielding the slot pairs inside it.  The result is exactly the Cartesian
//! pairs that pass [`MinHashSketch::shares_minimum`], in the same
//! lexicographic order, so the apply phase emits the same deltas in the
//! same order — a dropped pair would have scored 0, and a set-1 pair below
//! τ is a no-op.  Two cases keep the full product: the
//! `exact_edge_correlation` ablation (exact Jaccard can be non-zero without
//! a shared minimum) and τ = 0 (a zero score would admit an edge).  Set 2
//! is always scored in full, because its existing edges can be removed.
//!
//! One divergence from Section 3.2.1 is carried as-is: an existing edge
//! between two keywords that are both bursty is never removed when its
//! correlation falls below τ, because set 2 skips set-1 pairs and the
//! set-1 apply loop ignores scores below τ.

use dengraph_graph::fxhash::FxHashSet;
use dengraph_graph::{ComponentIndex, DynamicGraph, NodeId};
use dengraph_minhash::kernel::shared_minimum_pairs;
use dengraph_minhash::MinHashSketch;
use dengraph_parallel::par_map;
use dengraph_stream::UserId;
use dengraph_text::KeywordId;

use crate::config::DetectorConfig;
use crate::keyword_state::{KeywordState, KeywordStateMachine, QuantumRecord, WindowState};
use crate::scratch::ScratchArena;

/// Converts a keyword id into the graph-node id used by the AKG.
#[inline]
pub fn node_of(keyword: KeywordId) -> NodeId {
    NodeId(keyword.0)
}

/// Converts a graph-node id back into a keyword id.
#[inline]
pub fn keyword_of(node: NodeId) -> KeywordId {
    KeywordId(node.0)
}

/// One structural change applied to the AKG during a quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphDelta {
    /// A keyword entered the AKG.
    NodeAdded { node: NodeId },
    /// A new edge was admitted (correlation ≥ τ).
    EdgeAdded { a: NodeId, b: NodeId, weight: f64 },
    /// An existing edge's correlation was re-estimated and stays ≥ τ.
    EdgeWeightUpdated { a: NodeId, b: NodeId, weight: f64 },
    /// An existing edge's correlation dropped below τ.
    EdgeRemoved { a: NodeId, b: NodeId },
    /// A keyword left the AKG (stale or lazily demoted); all its incident
    /// edges are reported as [`GraphDelta::EdgeRemoved`] first.
    NodeRemoved { node: NodeId },
}

impl GraphDelta {
    /// Serialises the delta to a [`dengraph_json::Value`] (used by the
    /// JSON form of checkpoint-journal delta records).
    pub fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        match *self {
            GraphDelta::NodeAdded { node } => {
                Value::obj([("op", Value::str("node+")), ("node", Value::from(node.0))])
            }
            GraphDelta::EdgeAdded { a, b, weight } => Value::obj([
                ("op", Value::str("edge+")),
                ("a", Value::from(a.0)),
                ("b", Value::from(b.0)),
                ("weight", Value::from(weight)),
            ]),
            GraphDelta::EdgeWeightUpdated { a, b, weight } => Value::obj([
                ("op", Value::str("edge=")),
                ("a", Value::from(a.0)),
                ("b", Value::from(b.0)),
                ("weight", Value::from(weight)),
            ]),
            GraphDelta::EdgeRemoved { a, b } => Value::obj([
                ("op", Value::str("edge-")),
                ("a", Value::from(a.0)),
                ("b", Value::from(b.0)),
            ]),
            GraphDelta::NodeRemoved { node } => {
                Value::obj([("op", Value::str("node-")), ("node", Value::from(node.0))])
            }
        }
    }

    /// Reconstructs a delta serialised by [`Self::to_json`].
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        let node = |v: &dengraph_json::Value| -> dengraph_json::Result<NodeId> {
            Ok(NodeId(v.get("node")?.as_u32()?))
        };
        let ends = |v: &dengraph_json::Value| -> dengraph_json::Result<(NodeId, NodeId)> {
            Ok((NodeId(v.get("a")?.as_u32()?), NodeId(v.get("b")?.as_u32()?)))
        };
        Ok(match value.get("op")?.as_str()? {
            "node+" => GraphDelta::NodeAdded { node: node(value)? },
            "edge+" => {
                let (a, b) = ends(value)?;
                GraphDelta::EdgeAdded {
                    a,
                    b,
                    weight: value.get("weight")?.as_f64()?,
                }
            }
            "edge=" => {
                let (a, b) = ends(value)?;
                GraphDelta::EdgeWeightUpdated {
                    a,
                    b,
                    weight: value.get("weight")?.as_f64()?,
                }
            }
            "edge-" => {
                let (a, b) = ends(value)?;
                GraphDelta::EdgeRemoved { a, b }
            }
            "node-" => GraphDelta::NodeRemoved { node: node(value)? },
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown graph delta op '{other}'"),
                    offset: 0,
                })
            }
        })
    }

    /// Appends the compact binary encoding (one tag byte plus operands).
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        match *self {
            GraphDelta::NodeAdded { node } => {
                w.byte(0);
                w.u32(node.0);
            }
            GraphDelta::EdgeAdded { a, b, weight } => {
                w.byte(1);
                w.u32(a.0);
                w.u32(b.0);
                w.f64(weight);
            }
            GraphDelta::EdgeWeightUpdated { a, b, weight } => {
                w.byte(2);
                w.u32(a.0);
                w.u32(b.0);
                w.f64(weight);
            }
            GraphDelta::EdgeRemoved { a, b } => {
                w.byte(3);
                w.u32(a.0);
                w.u32(b.0);
            }
            GraphDelta::NodeRemoved { node } => {
                w.byte(4);
                w.u32(node.0);
            }
        }
    }

    /// Reconstructs a delta encoded by [`Self::to_bin`].
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(match r.byte()? {
            0 => GraphDelta::NodeAdded {
                node: NodeId(r.u32()?),
            },
            1 => GraphDelta::EdgeAdded {
                a: NodeId(r.u32()?),
                b: NodeId(r.u32()?),
                weight: r.f64()?,
            },
            2 => GraphDelta::EdgeWeightUpdated {
                a: NodeId(r.u32()?),
                b: NodeId(r.u32()?),
                weight: r.f64()?,
            },
            3 => GraphDelta::EdgeRemoved {
                a: NodeId(r.u32()?),
                b: NodeId(r.u32()?),
            },
            4 => GraphDelta::NodeRemoved {
                node: NodeId(r.u32()?),
            },
            other => {
                return Err(dengraph_json::JsonError {
                    message: format!("unknown graph delta tag {other}"),
                    offset: r.pos(),
                })
            }
        })
    }
}

/// Per-quantum summary statistics of the AKG maintenance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AkgQuantumStats {
    /// Keywords that were bursty this quantum.
    pub bursty_keywords: usize,
    /// Candidate pairs whose correlation was actually scored: the set-1
    /// pairs sharing a sketch minimum (every set-1 pair under
    /// `exact_edge_correlation` or τ = 0) plus every set-2 edge pair.
    pub pairs_evaluated: usize,
    /// Edges added this quantum.
    pub edges_added: usize,
    /// Edges removed this quantum.
    pub edges_removed: usize,
    /// Nodes added this quantum.
    pub nodes_added: usize,
    /// Nodes removed this quantum.
    pub nodes_removed: usize,
}

impl AkgQuantumStats {
    /// Serialises the statistics to a [`dengraph_json::Value`].
    pub fn to_json(&self) -> dengraph_json::Value {
        use dengraph_json::Value;
        Value::obj([
            ("bursty_keywords", Value::from(self.bursty_keywords)),
            ("pairs_evaluated", Value::from(self.pairs_evaluated)),
            ("edges_added", Value::from(self.edges_added)),
            ("edges_removed", Value::from(self.edges_removed)),
            ("nodes_added", Value::from(self.nodes_added)),
            ("nodes_removed", Value::from(self.nodes_removed)),
        ])
    }

    /// Reconstructs statistics serialised by [`Self::to_json`].
    pub fn from_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Ok(Self {
            bursty_keywords: value.get("bursty_keywords")?.as_usize()?,
            pairs_evaluated: value.get("pairs_evaluated")?.as_usize()?,
            edges_added: value.get("edges_added")?.as_usize()?,
            edges_removed: value.get("edges_removed")?.as_usize()?,
            nodes_added: value.get("nodes_added")?.as_usize()?,
            nodes_removed: value.get("nodes_removed")?.as_usize()?,
        })
    }

    /// Appends the compact binary encoding (six varints).
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        w.usize(self.bursty_keywords);
        w.usize(self.pairs_evaluated);
        w.usize(self.edges_added);
        w.usize(self.edges_removed);
        w.usize(self.nodes_added);
        w.usize(self.nodes_removed);
    }

    /// Reconstructs statistics encoded by [`Self::to_bin`].
    pub fn from_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Ok(Self {
            bursty_keywords: r.usize()?,
            pairs_evaluated: r.usize()?,
            edges_added: r.usize()?,
            edges_removed: r.usize()?,
            nodes_added: r.usize()?,
            nodes_removed: r.usize()?,
        })
    }
}

impl dengraph_json::Encode for AkgQuantumStats {
    fn encode_json(&self) -> dengraph_json::Value {
        self.to_json()
    }
    fn encode_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.to_bin(w)
    }
}

impl dengraph_json::Decode for AkgQuantumStats {
    fn decode_json(value: &dengraph_json::Value) -> dengraph_json::Result<Self> {
        Self::from_json(value)
    }
    fn decode_bin(r: &mut dengraph_json::BinReader<'_>) -> dengraph_json::Result<Self> {
        Self::from_bin(r)
    }
}

/// Per-quantum cache of the window state each candidate keyword needs for
/// edge scoring: one min-hash sketch per keyword, or the exact window user
/// set when the config asks for exact Jaccard.
///
/// Each sketch entry **borrows** the window index's cached per-keyword
/// sketch — zero copies.  The keyword → slot mapping is a binary search
/// over the sorted `involved` column instead of a hash map.  Both
/// construction and lookup are pure reads, so the score phase can run on
/// any number of threads with identical results.
enum CacheData<'w> {
    /// Borrowed cached window sketches.  `None` marks a keyword with no
    /// index entry, scored as an empty sketch.  That matches the record
    /// walk only because every involved keyword is either bursty this
    /// quantum (so materialized) or an AKG node, and every AKG node has a
    /// live index entry — an invariant
    /// [`EventDetector::validate_invariants`](crate::detector::EventDetector::validate_invariants)
    /// checks.
    Borrowed(Vec<Option<&'w MinHashSketch>>),
    /// Exact window user sets (the `exact_edge_correlation` ablation).
    Exact(Vec<FxHashSet<UserId>>),
}

struct CorrelationCache<'a> {
    /// Sorted, deduped keywords; slot `i` of `data` belongs to
    /// `involved[i]`.
    involved: &'a [KeywordId],
    data: CacheData<'a>,
    /// Stand-in for keywords absent from the window (same sketch the old
    /// clone-based path materialised for them).
    empty: MinHashSketch,
}

impl<'a> CorrelationCache<'a> {
    /// Builds the cache over `involved` (sorted + deduped by the caller).
    fn build(config: &DetectorConfig, window: &'a WindowState, involved: &'a [KeywordId]) -> Self {
        let data = if config.exact_edge_correlation {
            CacheData::Exact(window.window_user_sets(involved, config.parallelism))
        } else {
            CacheData::Borrowed(
                involved
                    .iter()
                    .map(|&k| window.window_sketch_ref(k))
                    .collect(),
            )
        };
        Self {
            involved,
            data,
            empty: MinHashSketch::new(window.sketch_size()),
        }
    }

    /// Ascending minima of a cached keyword's window sketch (empty for a
    /// keyword absent from the window), or `None` for the exact cache.
    fn minima(&self, keyword: KeywordId) -> Option<&[u64]> {
        let slot = self.slot(keyword);
        match &self.data {
            CacheData::Borrowed(sketches) => Some(sketches[slot].unwrap_or(&self.empty).minima()),
            CacheData::Exact(_) => None,
        }
    }

    #[inline]
    fn slot(&self, keyword: KeywordId) -> usize {
        self.involved
            .binary_search(&keyword)
            .expect("candidate keyword missing from correlation cache")
    }

    /// Edge correlation of a cached pair; identical semantics to
    /// [`WindowState::estimated_edge_correlation`] /
    /// [`WindowState::exact_edge_correlation`].
    fn correlation(&self, a: KeywordId, b: KeywordId) -> f64 {
        let (ia, ib) = (self.slot(a), self.slot(b));
        let estimate = |sa: &MinHashSketch, sb: &MinHashSketch| {
            if !sa.shares_minimum(sb) {
                return 0.0;
            }
            sa.estimate_jaccard(sb)
        };
        match &self.data {
            CacheData::Borrowed(sketches) => estimate(
                sketches[ia].unwrap_or(&self.empty),
                sketches[ib].unwrap_or(&self.empty),
            ),
            CacheData::Exact(sets) => dengraph_minhash::exact_jaccard(&sets[ia], &sets[ib]),
        }
    }
}

/// Maintains the AKG across quanta.
#[derive(Debug)]
pub struct AkgMaintainer {
    config: DetectorConfig,
    graph: DynamicGraph,
    /// Persistent connected-component index over `graph`, maintained in
    /// lock step with every mutation below so the stage-3 shard partition
    /// never re-walks the AKG's edges.
    components: ComponentIndex,
    states: KeywordStateMachine,
    last_stats: AkgQuantumStats,
    /// Cumulative wall-clock of the read-only score phase (candidate
    /// collection + correlation-cache build + pair scoring), diagnostics
    /// only — never serialised.
    score_ns: u64,
    /// Cumulative wall-clock of the mutation phases (stale removal,
    /// admission, edge apply, lazy demotion), diagnostics only.  Excludes
    /// component-index maintenance, which is attributed to `component_ns`.
    apply_ns: u64,
    /// Cumulative wall-clock of component-index maintenance, diagnostics
    /// only.
    component_ns: u64,
}

impl AkgMaintainer {
    /// Creates an empty AKG maintainer.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            config,
            graph: DynamicGraph::new(),
            components: ComponentIndex::new(),
            states: KeywordStateMachine::new(),
            last_stats: AkgQuantumStats::default(),
            score_ns: 0,
            apply_ns: 0,
            component_ns: 0,
        }
    }

    /// The current AKG.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// The persistent connected-component index over the AKG, always in
    /// lock step with [`Self::graph`].
    pub fn components(&self) -> &ComponentIndex {
        &self.components
    }

    /// Statistics of the most recently processed quantum.
    pub fn last_stats(&self) -> AkgQuantumStats {
        self.last_stats
    }

    /// Cumulative `(score_ns, apply_ns, component_ns)` wall-clock split of
    /// the per-quantum maintenance: the read-only scoring phase, the
    /// serial graph-mutation phases, and the component-index maintenance
    /// carved out of the latter.
    pub fn stage_ns(&self) -> (u64, u64, u64) {
        (self.score_ns, self.apply_ns, self.component_ns)
    }

    /// Current state of a keyword.
    pub fn keyword_state(&self, keyword: KeywordId) -> KeywordState {
        self.states.state(keyword)
    }

    /// Serialises the maintainer's state (graph, component index, keyword
    /// automaton, last stats).  The configuration is *not* included — it
    /// is shared detector state and travels once at the checkpoint's top
    /// level.  The component index travels in its canonical encoding, so
    /// an incrementally maintained index and its restored twin serialise
    /// byte-identically.
    pub fn to_json(&self) -> dengraph_json::Value {
        dengraph_json::Value::obj([
            ("graph", self.graph.to_json()),
            ("components", self.components.to_json()),
            ("states", self.states.to_json()),
            ("last_stats", self.last_stats.to_json()),
        ])
    }

    /// Reconstructs a maintainer serialised by [`Self::to_json`] under the
    /// given configuration.
    pub fn from_json(
        config: DetectorConfig,
        value: &dengraph_json::Value,
    ) -> dengraph_json::Result<Self> {
        Ok(Self {
            config,
            graph: DynamicGraph::from_json(value.get("graph")?)?,
            components: ComponentIndex::from_json(value.get("components")?)?,
            states: KeywordStateMachine::from_json(value.get("states")?)?,
            last_stats: AkgQuantumStats::from_json(value.get("last_stats")?)?,
            score_ns: 0,
            apply_ns: 0,
            component_ns: 0,
        })
    }

    /// Appends the compact binary encoding (graph, keyword automaton,
    /// last stats) — the binary twin of [`Self::to_json`].
    pub fn to_bin(&self, w: &mut dengraph_json::BinWriter) {
        self.graph.to_bin(w);
        self.components.to_bin(w);
        self.states.to_bin(w);
        self.last_stats.to_bin(w);
    }

    /// Reconstructs a maintainer encoded by [`Self::to_bin`] under the
    /// given configuration.
    pub fn from_bin(
        config: DetectorConfig,
        r: &mut dengraph_json::BinReader<'_>,
    ) -> dengraph_json::Result<Self> {
        Ok(Self {
            config,
            graph: DynamicGraph::from_bin(r)?,
            components: ComponentIndex::from_bin(r)?,
            states: KeywordStateMachine::from_bin(r)?,
            last_stats: AkgQuantumStats::from_bin(r)?,
            score_ns: 0,
            apply_ns: 0,
            component_ns: 0,
        })
    }

    /// Re-applies one quantum's worth of logged deltas to the graph and
    /// the keyword automaton — the redo half of incremental
    /// checkpointing.  Promotions and demotions mirror the original run
    /// exactly: a node enters the AKG iff its keyword just turned bursty
    /// (promoted), and leaves it iff it was demoted, so replaying the
    /// node deltas reproduces the automaton bit-for-bit without
    /// re-scoring a single correlation.
    pub(crate) fn replay_deltas(&mut self, deltas: &[GraphDelta], stats: AkgQuantumStats) {
        for delta in deltas {
            match *delta {
                GraphDelta::NodeAdded { node } => {
                    self.graph.add_node(node);
                    self.components.add_node(node);
                    // Saturated observe is exactly "force High".
                    self.states.observe(keyword_of(node), 1, 1);
                }
                GraphDelta::NodeRemoved { node } => {
                    self.graph.remove_node(node);
                    self.components.remove_node(&self.graph, node);
                    self.states.demote(keyword_of(node));
                }
                GraphDelta::EdgeAdded { a, b, weight } => {
                    self.graph.add_edge(a, b, weight);
                    self.components.add_edge(a, b);
                }
                GraphDelta::EdgeWeightUpdated { a, b, weight } => {
                    self.graph.add_edge(a, b, weight);
                }
                GraphDelta::EdgeRemoved { a, b } => {
                    self.graph.remove_edge(a, b);
                    self.components.remove_edge(&self.graph, a, b);
                }
            }
        }
        self.last_stats = stats;
    }

    /// Processes one quantum.  `window` must already contain `record` as its
    /// most recent entry.  `cluster_members` answers "is this keyword
    /// currently part of any cluster?" — the hysteresis rule keeps such
    /// keywords in the AKG even when they stop being bursty.
    pub fn process_quantum<F>(
        &mut self,
        record: &QuantumRecord,
        window: &WindowState,
        cluster_members: F,
    ) -> Vec<GraphDelta>
    where
        F: Fn(KeywordId) -> bool,
    {
        let mut scratch = ScratchArena::default();
        self.process_quantum_into(record, window, cluster_members, &mut scratch);
        std::mem::take(&mut scratch.deltas)
    }

    /// Scratch-reusing variant of [`Self::process_quantum`]: the delta log
    /// lands in `scratch.deltas` and every working vector reuses the
    /// arena's capacity, so steady-state quanta allocate nothing here.
    pub(crate) fn process_quantum_into<F>(
        &mut self,
        record: &QuantumRecord,
        window: &WindowState,
        cluster_members: F,
        scratch: &mut ScratchArena,
    ) where
        F: Fn(KeywordId) -> bool,
    {
        let ScratchArena {
            ref mut deltas,
            ref mut nodes,
            ref mut set1,
            ref mut set2,
            ref mut bursty_pairs,
            ref mut edge_pairs,
            ref mut all_pairs,
            ref mut involved,
            ref mut join,
            ref mut join_pairs,
            ..
        } = *scratch;
        deltas.clear();
        let mut stats = AkgQuantumStats::default();
        let sigma = self.config.high_state_threshold;
        let tau = self.config.edge_correlation_threshold;
        let parallelism = self.config.parallelism;
        // Index maintenance runs inside the apply-timed segments below;
        // its growth is carved back out at the end so `apply_ns` and
        // `component_ns` stay disjoint attributions.
        let component_ns_at_entry = self.component_ns;
        let apply_start = std::time::Instant::now();

        // --- 1. stale removal -------------------------------------------------
        // Sorted so the delta order is canonical regardless of the
        // adjacency map's internal iteration order.
        nodes.clear();
        nodes.extend(
            self.graph
                .nodes()
                .filter(|&n| window.is_stale(keyword_of(n))),
        );
        nodes.sort_unstable();
        // (Index loop: `nodes` and `deltas` are sibling scratch buffers,
        // so an iterator over one would pin the borrow across the push
        // into the other.)
        #[allow(clippy::needless_range_loop)]
        for i in 0..nodes.len() {
            self.remove_node(nodes[i], deltas, &mut stats);
        }

        // --- 2. burstiness / node admission -----------------------------------
        // `record.iter()` is ascending by keyword id, so the admission
        // order is canonical without a sort.
        set1.clear();
        // set(2): keywords already in the AKG that occur in this quantum.
        set2.clear();
        for (keyword, users) in record.iter() {
            let count = users.len();
            let already_in_akg = self.graph.contains_node(node_of(keyword));
            self.states.observe(keyword, count, sigma);
            if count >= sigma as usize {
                set1.push(keyword);
                if !already_in_akg {
                    self.graph.add_node(node_of(keyword));
                    let t = std::time::Instant::now();
                    self.components.add_node(node_of(keyword));
                    self.component_ns += t.elapsed().as_nanos() as u64;
                    deltas.push(GraphDelta::NodeAdded {
                        node: node_of(keyword),
                    });
                    stats.nodes_added += 1;
                }
            }
            if already_in_akg {
                set2.push(keyword);
            }
        }
        stats.bursty_keywords = set1.len();

        self.apply_ns += apply_start.elapsed().as_nanos() as u64;
        let score_start = std::time::Instant::now();

        // --- 3. candidate collection (read-only) ------------------------------
        // The two candidate sets of Section 3.2.1: (1) pairwise among this
        // quantum's bursty keywords and (2) existing edges of AKG keywords
        // seen this quantum (skipping pairs already covered by set 1).
        // Collected before any edge mutation so the score phase can run on
        // an immutable snapshot.  `set1` is sorted, so membership is a
        // binary search.
        edge_pairs.clear();
        for &keyword in set2.iter() {
            let keyword_bursty = set1.binary_search(&keyword).is_ok();
            for other in self.graph.neighbors(node_of(keyword)) {
                let other_kw = keyword_of(other);
                if keyword_bursty && set1.binary_search(&other_kw).is_ok() {
                    continue;
                }
                let pair = if keyword <= other_kw {
                    (keyword, other_kw)
                } else {
                    (other_kw, keyword)
                };
                edge_pairs.push(pair);
            }
        }
        // An edge between two set-2 keywords is reachable from both ends;
        // canonicalise + dedup so each pair is evaluated exactly once.
        edge_pairs.sort_unstable();
        edge_pairs.dedup();
        involved.clear();
        involved.extend_from_slice(set1);
        involved.extend(edge_pairs.iter().flat_map(|&(a, b)| [a, b]));
        involved.sort_unstable();
        involved.dedup();
        let cache = CorrelationCache::build(&self.config, window, involved);

        // Set 1 through the shared-minimum join (module docs): exactly the
        // Cartesian pairs that can score above 0, in the same order.
        bursty_pairs.clear();
        if self.config.exact_edge_correlation || tau <= 0.0 {
            for i in 0..set1.len() {
                for j in (i + 1)..set1.len() {
                    bursty_pairs.push((set1[i], set1[j]));
                }
            }
        } else {
            let columns = set1.iter().map(|&k| cache.minima(k).unwrap_or_default());
            shared_minimum_pairs(columns, join, join_pairs);
            bursty_pairs.extend(join_pairs.iter().map(|&key| {
                (
                    set1[(key >> 32) as usize],
                    set1[(key & 0xFFFF_FFFF) as usize],
                )
            }));
        }
        stats.pairs_evaluated = bursty_pairs.len() + edge_pairs.len();

        // --- 3a. score phase (parallel, read-only) ----------------------------
        // Both candidate sets are scored in a single fan-out (one fork-join
        // per quantum); the scores vector is split back afterwards.
        all_pairs.clear();
        all_pairs.extend(bursty_pairs.iter().copied());
        all_pairs.extend(edge_pairs.iter().copied());
        let all_scores = par_map(parallelism, all_pairs, |&(a, b)| cache.correlation(a, b));
        let (bursty_scores, edge_scores) = all_scores.split_at(bursty_pairs.len());
        self.score_ns += score_start.elapsed().as_nanos() as u64;
        let apply_start = std::time::Instant::now();

        // --- 3b. apply phase (serial, canonical order) ------------------------
        for (&(a, b), &ec) in bursty_pairs.iter().zip(bursty_scores) {
            let (na, nb) = (node_of(a), node_of(b));
            if ec >= tau {
                if self.graph.contains_edge(na, nb) {
                    self.graph.set_edge_weight(na, nb, ec);
                    deltas.push(GraphDelta::EdgeWeightUpdated {
                        a: na,
                        b: nb,
                        weight: ec,
                    });
                } else {
                    self.graph.add_edge(na, nb, ec);
                    let t = std::time::Instant::now();
                    self.components.add_edge(na, nb);
                    self.component_ns += t.elapsed().as_nanos() as u64;
                    deltas.push(GraphDelta::EdgeAdded {
                        a: na,
                        b: nb,
                        weight: ec,
                    });
                    stats.edges_added += 1;
                }
            }
        }
        for (&(a, b), &ec) in edge_pairs.iter().zip(edge_scores) {
            let (na, nb) = (node_of(a), node_of(b));
            if ec >= tau {
                self.graph.set_edge_weight(na, nb, ec);
                deltas.push(GraphDelta::EdgeWeightUpdated {
                    a: na,
                    b: nb,
                    weight: ec,
                });
            } else {
                self.graph.remove_edge(na, nb);
                let t = std::time::Instant::now();
                self.components.remove_edge(&self.graph, na, nb);
                self.component_ns += t.elapsed().as_nanos() as u64;
                deltas.push(GraphDelta::EdgeRemoved { a: na, b: nb });
                stats.edges_removed += 1;
            }
        }

        // --- 4. lazy demotion --------------------------------------------------
        nodes.clear();
        nodes.extend(self.graph.nodes().filter(|&n| self.graph.degree(n) == 0));
        nodes.sort_unstable();
        #[allow(clippy::needless_range_loop)]
        for i in 0..nodes.len() {
            let node = nodes[i];
            let keyword = keyword_of(node);
            if set1.binary_search(&keyword).is_ok() {
                continue;
            }
            let keep = self.config.hysteresis && cluster_members(keyword);
            if !keep {
                self.remove_node(node, deltas, &mut stats);
            }
        }

        self.apply_ns += apply_start.elapsed().as_nanos() as u64;
        self.apply_ns = self
            .apply_ns
            .saturating_sub(self.component_ns - component_ns_at_entry);
        self.last_stats = stats;
    }

    /// Removes a node (and its incident edges) from the AKG, recording the
    /// corresponding deltas and re-fragmenting the component index.
    fn remove_node(
        &mut self,
        node: NodeId,
        deltas: &mut Vec<GraphDelta>,
        stats: &mut AkgQuantumStats,
    ) {
        let removed_edges = self.graph.remove_node(node);
        let t = std::time::Instant::now();
        self.components.remove_node(&self.graph, node);
        self.component_ns += t.elapsed().as_nanos() as u64;
        for (edge, _) in removed_edges {
            deltas.push(GraphDelta::EdgeRemoved {
                a: edge.0,
                b: edge.1,
            });
            stats.edges_removed += 1;
        }
        deltas.push(GraphDelta::NodeRemoved { node });
        stats.nodes_removed += 1;
        self.states.demote(keyword_of(node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dengraph_minhash::UserHasher;
    use dengraph_stream::{Message, UserId};

    fn config() -> DetectorConfig {
        DetectorConfig {
            high_state_threshold: 3,
            edge_correlation_threshold: 0.3,
            window_quanta: 3,
            ..Default::default()
        }
    }

    fn k(i: u32) -> KeywordId {
        KeywordId(i)
    }

    fn msg(user: u64, kws: &[u32]) -> Message {
        Message::new(UserId(user), 0, kws.iter().map(|&i| KeywordId(i)).collect())
    }

    /// Pushes a quantum of messages through a window + maintainer pair.
    fn step(
        akg: &mut AkgMaintainer,
        window: &mut WindowState,
        index: u64,
        messages: &[Message],
    ) -> Vec<GraphDelta> {
        let record = QuantumRecord::from_messages(index, messages);
        window.push(record.clone());
        akg.process_quantum(&record, window, |_| false)
    }

    fn window_for(cfg: &DetectorConfig) -> WindowState {
        WindowState::new(cfg.window_quanta, cfg.sketch_size(), UserHasher::new(1))
    }

    /// Messages where three users all mention keywords 1 and 2 together.
    fn correlated_burst() -> Vec<Message> {
        vec![
            msg(1, &[1, 2]),
            msg(2, &[1, 2]),
            msg(3, &[1, 2]),
            msg(4, &[50]),
            msg(5, &[51]),
        ]
    }

    #[test]
    fn bursty_correlated_keywords_get_nodes_and_an_edge() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        let deltas = step(&mut akg, &mut window, 0, &correlated_burst());
        assert!(akg.graph().contains_node(node_of(k(1))));
        assert!(akg.graph().contains_node(node_of(k(2))));
        assert!(akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
        assert!(deltas
            .iter()
            .any(|d| matches!(d, GraphDelta::EdgeAdded { .. })));
        // Non-bursty keywords stay out of the AKG.
        assert!(!akg.graph().contains_node(node_of(k(50))));
        assert_eq!(akg.keyword_state(k(1)), KeywordState::High);
        assert_eq!(akg.keyword_state(k(50)), KeywordState::Low);
    }

    #[test]
    fn uncorrelated_bursty_keywords_get_no_edge() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        // Keywords 1 and 2 are each bursty but never used by the same user.
        let messages = vec![
            msg(1, &[1]),
            msg(2, &[1]),
            msg(3, &[1]),
            msg(4, &[2]),
            msg(5, &[2]),
            msg(6, &[2]),
        ];
        step(&mut akg, &mut window, 0, &messages);
        assert!(akg.graph().contains_node(node_of(k(1))));
        assert!(akg.graph().contains_node(node_of(k(2))));
        assert!(!akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
    }

    #[test]
    fn stale_keywords_are_removed_after_the_window_passes() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        step(&mut akg, &mut window, 0, &correlated_burst());
        assert!(akg.graph().contains_node(node_of(k(1))));
        // Three quanta of unrelated traffic push the burst out of the window.
        for q in 1..=3 {
            step(&mut akg, &mut window, q, &[msg(9, &[90]), msg(10, &[91])]);
        }
        assert!(!akg.graph().contains_node(node_of(k(1))));
        assert!(!akg.graph().contains_node(node_of(k(2))));
        assert_eq!(akg.keyword_state(k(1)), KeywordState::Low);
    }

    #[test]
    fn edge_is_dropped_when_correlation_decays() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        step(&mut akg, &mut window, 0, &correlated_burst());
        assert!(akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
        // Subsequent quanta: keyword 1 is used by many users *without*
        // keyword 2, so the window Jaccard drops below tau; keyword 1 keeps
        // occurring so set(2) refreshes the edge.
        for q in 1..=2 {
            let messages: Vec<Message> = (0..12).map(|u| msg(100 + u + q * 50, &[1])).collect();
            step(&mut akg, &mut window, q, &messages);
        }
        assert!(!akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
    }

    #[test]
    fn isolated_non_bursty_nodes_are_lazily_demoted() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        // Keyword 1 bursts alone (no correlated partner): node added, no edges.
        let messages = vec![msg(1, &[1]), msg(2, &[1]), msg(3, &[1])];
        step(&mut akg, &mut window, 0, &messages);
        assert!(akg.graph().contains_node(node_of(k(1))));
        // Next quantum it appears once (not bursty): with no cluster
        // membership, the lazy update removes it.
        step(&mut akg, &mut window, 1, &[msg(4, &[1])]);
        assert!(!akg.graph().contains_node(node_of(k(1))));
    }

    #[test]
    fn cluster_membership_keeps_nodes_via_hysteresis() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        let messages = vec![msg(1, &[1]), msg(2, &[1]), msg(3, &[1])];
        let record = QuantumRecord::from_messages(0, &messages);
        window.push(record.clone());
        akg.process_quantum(&record, &window, |_| false);
        assert!(akg.graph().contains_node(node_of(k(1))));
        // Keyword 1 stops being bursty but is claimed by a cluster.
        let record = QuantumRecord::from_messages(1, &[msg(4, &[1])]);
        window.push(record.clone());
        akg.process_quantum(&record, &window, |kw| kw == k(1));
        assert!(
            akg.graph().contains_node(node_of(k(1))),
            "cluster membership must keep the node"
        );
    }

    #[test]
    fn stats_reflect_the_quantum() {
        let cfg = config();
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        step(&mut akg, &mut window, 0, &correlated_burst());
        let stats = akg.last_stats();
        assert_eq!(stats.bursty_keywords, 2);
        assert_eq!(stats.nodes_added, 2);
        assert_eq!(stats.edges_added, 1);
        assert!(stats.pairs_evaluated >= 1);
    }

    /// `bursty` keywords each used by three users of their own.
    fn disjoint_bursts(bursty: &[u32], first_user: u64) -> Vec<Message> {
        let mut messages = Vec::new();
        for (i, &kw) in bursty.iter().enumerate() {
            for u in 0..3 {
                messages.push(msg(first_user + 10 * i as u64 + u, &[kw]));
            }
        }
        messages
    }

    #[test]
    fn only_exact_correlation_scores_the_full_bursty_product() {
        for exact in [false, true] {
            let cfg = DetectorConfig {
                exact_edge_correlation: exact,
                ..config()
            };
            let mut akg = AkgMaintainer::new(cfg.clone());
            let mut window = window_for(&cfg);
            // Quantum 0: the correlated pair (1, 2) plus five bursty
            // keywords with disjoint users, so only (1, 2) shares a
            // sketch minimum.
            let mut messages = correlated_burst();
            messages.extend(disjoint_bursts(&[10, 11, 12, 13, 14], 1_000));
            step(&mut akg, &mut window, 0, &messages);
            let stats = akg.last_stats();
            assert_eq!(stats.bursty_keywords, 7);
            assert_eq!(stats.pairs_evaluated, if exact { 7 * 6 / 2 } else { 1 });
            assert!(akg.graph().contains_edge(node_of(k(1)), node_of(k(2))));
            // Quantum 1: keyword 1 recurs below σ (set 2, one edge pair)
            // next to four fresh disjoint bursts.
            let mut messages = vec![msg(1, &[1])];
            messages.extend(disjoint_bursts(&[20, 21, 22, 23], 2_000));
            step(&mut akg, &mut window, 1, &messages);
            let stats = akg.last_stats();
            assert_eq!(stats.bursty_keywords, 4);
            assert_eq!(stats.pairs_evaluated, if exact { 4 * 3 / 2 + 1 } else { 1 });
        }
        // τ = 0 admits zero-score pairs, so the join must not prune.
        let cfg = DetectorConfig {
            edge_correlation_threshold: 0.0,
            ..config()
        };
        let mut akg = AkgMaintainer::new(cfg.clone());
        let mut window = window_for(&cfg);
        let mut messages = correlated_burst();
        messages.extend(disjoint_bursts(&[10, 11, 12, 13, 14], 1_000));
        step(&mut akg, &mut window, 0, &messages);
        assert_eq!(akg.last_stats().pairs_evaluated, 7 * 6 / 2);
        assert_eq!(akg.graph().edge_count(), 7 * 6 / 2);
    }

    #[test]
    fn exact_and_minhash_agree_on_strong_correlation() {
        for exact in [false, true] {
            let cfg = DetectorConfig {
                exact_edge_correlation: exact,
                ..config()
            };
            let mut akg = AkgMaintainer::new(cfg.clone());
            let mut window = window_for(&cfg);
            step(&mut akg, &mut window, 0, &correlated_burst());
            assert!(
                akg.graph().contains_edge(node_of(k(1)), node_of(k(2))),
                "edge must exist with exact_edge_correlation={exact}"
            );
        }
    }

    #[test]
    fn node_conversion_round_trips() {
        assert_eq!(keyword_of(node_of(k(17))), k(17));
    }
}
