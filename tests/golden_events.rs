//! Golden digests of the detector's output.
//!
//! Every other equivalence suite compares one mode of the code with
//! another (serial vs parallel, indexed vs record walk, restored vs
//! uninterrupted), so a change that shifts both sides alike passes all of
//! them.  This suite pins the output itself: for one seeded trace of each
//! stream profile it hashes, with a dependency-free 64-bit FNV-1a,
//!
//! * `events` — the binary encoding of every reported [`DetectedEvent`],
//!   in report order, quantum by quantum;
//! * `quanta` — each quantum's AKG node/edge counts, edge additions and
//!   removals and live-cluster count (deliberately *not*
//!   `pairs_evaluated`, a work counter that pruning may lower);
//! * `clusters` — the final live clusters as `(id, sorted node set)`,
//!   sorted by id;
//! * `records` — the binary encoding of every [`EventRecord`] the tracker
//!   holds at the end, in first-appearance order;
//! * `checkpoint` — the session's binary checkpoint after the run, which
//!   pins the wire format of every persisted structure.
//!
//! A digest changes only on purpose.  When a change alters the output
//! deliberately, update the constant from the failure message and say why
//! in the change log.

use dengraph_core::{
    DetectedEvent, DetectorBuilder, DetectorConfig, EventRecord, QuantumSummary, WireFormat,
};
use dengraph_json::BinWriter;
use dengraph_stream::generator::profiles::{
    dense_profile, es_profile, ground_truth_profile, tw_profile, ProfileScale,
};
use dengraph_stream::{StreamGenerator, StreamProfile};

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The five digests of one run, in the order `events, quanta, clusters,
/// records, checkpoint`.
#[derive(Debug, PartialEq, Eq)]
struct Digests([u64; 5]);

fn digest_events(summaries: &[QuantumSummary]) -> u64 {
    let mut h = Fnv1a::new();
    let mut w = BinWriter::new();
    for event in summaries.iter().flat_map(|s| s.events.iter()) {
        DetectedEvent::to_bin(event, &mut w);
    }
    h.write(w.as_slice());
    h.0
}

fn digest_quanta(summaries: &[QuantumSummary]) -> u64 {
    let mut h = Fnv1a::new();
    let mut w = BinWriter::new();
    for s in summaries {
        w.u64(s.quantum);
        w.usize(s.akg_nodes);
        w.usize(s.akg_edges);
        w.usize(s.akg_stats.edges_added);
        w.usize(s.akg_stats.edges_removed);
        w.usize(s.live_clusters);
    }
    h.write(w.as_slice());
    h.0
}

fn run(profile: StreamProfile, config: DetectorConfig) -> Digests {
    let trace = StreamGenerator::new(profile).generate();
    let mut session = DetectorBuilder::from_config(config)
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    let summaries = session.run(&trace.messages);
    assert!(
        summaries.iter().any(|s| !s.events.is_empty()),
        "a golden trace must report events"
    );

    let mut clusters: Vec<_> = session.clusters().clusters().collect();
    clusters.sort_by_key(|c| c.id);
    let mut w = BinWriter::new();
    for c in clusters {
        w.u64(c.id.0);
        w.delta_u32s(c.sorted_nodes().into_iter().map(|n| n.0));
    }
    let mut cluster_hash = Fnv1a::new();
    cluster_hash.write(w.as_slice());

    let mut w = BinWriter::new();
    for record in session.event_records() {
        EventRecord::to_bin(record, &mut w);
    }
    let mut record_hash = Fnv1a::new();
    record_hash.write(w.as_slice());

    let mut checkpoint_hash = Fnv1a::new();
    checkpoint_hash.write(&session.checkpoint_bytes(WireFormat::Binary));

    Digests([
        digest_events(&summaries),
        digest_quanta(&summaries),
        cluster_hash.0,
        record_hash.0,
        checkpoint_hash.0,
    ])
}

fn assert_golden(label: &str, actual: Digests, expected: [u64; 5]) {
    assert_eq!(
        actual,
        Digests(expected),
        "{label}: golden digests changed (events, quanta, clusters, records, checkpoint); \
         actual = [{:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}]",
        actual.0[0],
        actual.0[1],
        actual.0[2],
        actual.0[3],
        actual.0[4],
    );
}

#[test]
fn tw_profile_output_is_pinned() {
    let actual = run(
        tw_profile(41, ProfileScale::Medium),
        DetectorConfig::nominal(),
    );
    assert_golden(
        "tw",
        actual,
        [
            0x11b3a56d05eec761,
            0xc52b26360b3d9090,
            0x753541493ca40031,
            0xd1996b260161b785,
            0xaaec9efee0f20fc2,
        ],
    );
}

#[test]
fn es_profile_output_is_pinned() {
    let actual = run(
        es_profile(42, ProfileScale::Medium),
        DetectorConfig::nominal(),
    );
    assert_golden(
        "es",
        actual,
        [
            0x38af9a6497a1400b,
            0x4aa3907e67a66b33,
            0x24d76877de4d5f3b,
            0xfa2a4eac6d2768dd,
            0xb95ce476ff276ab6,
        ],
    );
}

#[test]
fn dense_profile_output_is_pinned() {
    let actual = run(
        dense_profile(43, ProfileScale::Medium),
        DetectorConfig::nominal(),
    );
    assert_golden(
        "dense",
        actual,
        [
            0x780e8efa493e265f,
            0x9c045d451cc7308c,
            0x55ae901a6087508d,
            0xe8c83750f9008381,
            0x91d0050dfc2dc66b,
        ],
    );
}

#[test]
fn ground_truth_profile_output_is_pinned() {
    let actual = run(
        ground_truth_profile(44, ProfileScale::Medium),
        DetectorConfig::nominal(),
    );
    assert_golden(
        "ground_truth",
        actual,
        [
            0x6e56418b83eb047c,
            0xd508308acfae2c16,
            0x3afdb8872027e95d,
            0x39671a40b3a09268,
            0x1fbdfed9995e5943,
        ],
    );
}
