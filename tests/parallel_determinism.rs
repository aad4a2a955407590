//! The parallel pipeline's contract: for any trace, configuration and
//! thread count, the sharded pipeline emits **identical** `QuantumSummary`
//! events to the serial path.  Determinism comes from construction — every
//! parallel phase is read-only and collected in input order, and every
//! mutation phase applies in canonical order — and this test is the gate
//! that keeps it that way.

use dengraph_core::{DetectorBuilder, DetectorConfig, Parallelism, QuantumSummary};
use dengraph_stream::generator::profiles::{dense_profile, es_profile, tw_profile, ProfileScale};
use dengraph_stream::{StreamGenerator, Trace};

fn run(trace: &Trace, config: &DetectorConfig) -> Vec<QuantumSummary> {
    let mut detector = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    let summaries = detector.run(&trace.messages);
    // Under `--features invariants` every quantum boundary already
    // deep-checked; this end-state pass also covers default builds.
    detector
        .validate_invariants()
        .expect("structural invariants must hold after the full trace");
    summaries
}

/// Byte-level comparison of everything a summary reports.  `Debug` output
/// covers every field, including the full f64 rank values (Rust's float
/// formatting is shortest-round-trip, so two ranks print identically iff
/// they are bit-identical).
fn canonical(summaries: &[QuantumSummary]) -> String {
    format!("{summaries:#?}")
}

fn assert_parallel_matches_serial(trace: &Trace, base: DetectorConfig, label: &str) {
    let serial = run(trace, &base.clone().with_parallelism(Parallelism::Serial));
    for threads in [2usize, 4, 8] {
        let parallel = run(
            trace,
            &base.clone().with_parallelism(Parallelism::Threads(threads)),
        );
        assert_eq!(
            canonical(&serial),
            canonical(&parallel),
            "{label}: {threads}-thread run diverged from serial"
        );
    }
}

#[test]
fn tw_profile_is_deterministic_across_thread_counts() {
    let trace = StreamGenerator::new(tw_profile(31, ProfileScale::Small)).generate();
    assert_parallel_matches_serial(
        &trace,
        DetectorConfig::nominal().with_window_quanta(20),
        "tw",
    );
}

#[test]
fn es_profile_is_deterministic_across_thread_counts() {
    let trace = StreamGenerator::new(es_profile(32, ProfileScale::Small)).generate();
    assert_parallel_matches_serial(
        &trace,
        DetectorConfig::nominal().with_window_quanta(20),
        "es",
    );
}

#[test]
fn exact_edge_correlation_path_is_deterministic() {
    let trace = StreamGenerator::new(tw_profile(33, ProfileScale::Small)).generate();
    let config = DetectorConfig {
        exact_edge_correlation: true,
        ..DetectorConfig::nominal().with_window_quanta(20)
    };
    assert_parallel_matches_serial(&trace, config, "exact-ec");
}

#[test]
fn non_nominal_thresholds_are_deterministic() {
    let trace = StreamGenerator::new(es_profile(34, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal()
        .with_quantum_size(120)
        .with_edge_correlation_threshold(0.1)
        .with_high_state_threshold(3)
        .with_window_quanta(12);
    assert_parallel_matches_serial(&trace, config, "thresholds");
}

/// Stage-3 focus: every quantum carries several simultaneous correlated
/// bursts in *disjoint* keyword families, so cluster maintenance sees
/// multi-component delta batches and the sharded path actually fans out.
/// The full cluster state (ids included) must match the serial run
/// exactly, quantum by quantum.
#[test]
fn multi_component_cluster_maintenance_is_deterministic() {
    use dengraph_stream::{Message, UserId};
    use dengraph_text::KeywordId;

    let quantum_size = 60usize;
    let mut messages: Vec<Message> = Vec::new();
    for q in 0..40u64 {
        let mut batch: Vec<Message> = Vec::new();
        // Six families; family f is active on quanta where (q + f) % 3 != 0,
        // so clusters keep forming, pausing and dissolving independently.
        for family in 0..6u32 {
            if (q + family as u64).is_multiple_of(3) {
                continue;
            }
            let base_kw = family * 50;
            let rotate = (q % 4) as u32;
            let keywords: Vec<KeywordId> = (0..4)
                .map(|i| KeywordId(base_kw + ((i + rotate) % 6)))
                .collect();
            for u in 0..5u64 {
                batch.push(Message::new(
                    UserId(1_000 * family as u64 + 10 * q + u),
                    q * 1_000 + u,
                    keywords.clone(),
                ));
            }
        }
        // Filler chatter: unique users, unique keywords, never bursty.
        let mut filler = 500_000 + q * 1_000;
        while batch.len() < quantum_size {
            batch.push(Message::new(
                UserId(filler),
                q * 1_000 + filler,
                vec![KeywordId(10_000 + filler as u32)],
            ));
            filler += 1;
        }
        messages.extend(batch);
    }

    let config = DetectorConfig::nominal()
        .with_quantum_size(quantum_size)
        .with_high_state_threshold(4)
        .with_window_quanta(6);
    let run = |parallelism: Parallelism| {
        let mut session =
            DetectorBuilder::from_config(config.clone().with_parallelism(parallelism))
                .build()
                .expect("valid config");
        let summaries = session.run(&messages);
        session
            .validate_invariants()
            .expect("structural invariants must hold after multi-component maintenance");
        let mut clusters: Vec<String> = session
            .clusters()
            .clusters()
            .map(|c| format!("{:?}|{:?}|{:?}", c.id, c.sorted_nodes(), c.born_quantum))
            .collect();
        clusters.sort();
        (canonical(&summaries), clusters)
    };
    let serial = run(Parallelism::Serial);
    assert!(
        !serial.1.is_empty(),
        "fixture must end with live clusters to compare"
    );
    for threads in [2usize, 4, 8] {
        let parallel = run(Parallelism::Threads(threads));
        assert_eq!(
            serial.0, parallel.0,
            "stage-3 sharded run diverged from serial at {threads} threads"
        );
        assert_eq!(
            serial.1, parallel.1,
            "final cluster state diverged at {threads} threads"
        );
    }
}

/// The stage-3 partition comes from the persistent incremental component
/// index (plus its transient delta overlay).  On the dense pulsing trace,
/// whose mortal families are periodically torn out of the AKG by stale
/// removal, the index must match a from-scratch recompute of the AKG's
/// components after every quantum
/// ([`ComponentIndex::validate_against`](dengraph_graph::ComponentIndex::validate_against),
/// run by `validate_invariants`), and the sharded run must agree with the
/// serial one bit-for-bit.  Those teardown quanta split persistent
/// components, so this is the gate that the deletion-repair overlay keeps
/// the indexed partition sound; cluster ids are compared, not just cluster
/// contents.
#[test]
fn incremental_index_partition_matches_rebuild_partition_on_dense_trace() {
    let trace = StreamGenerator::new(dense_profile(36, ProfileScale::Small)).generate();
    let base = DetectorConfig::nominal().with_window_quanta(24);
    let run = |parallelism: Parallelism| {
        let mut session = DetectorBuilder::from_config(base.clone().with_parallelism(parallelism))
            .interner(trace.interner.clone())
            .build()
            .expect("valid config");
        let mut summaries = Vec::new();
        for chunk in trace.messages.chunks(base.quantum_size) {
            summaries.extend(session.run(chunk));
            session
                .validate_invariants()
                .expect("structural invariants must hold after every dense-trace quantum");
        }
        let mut clusters: Vec<String> = session
            .clusters()
            .clusters()
            .map(|c| format!("{:?}|{:?}|{:?}", c.id, c.sorted_nodes(), c.born_quantum))
            .collect();
        clusters.sort();
        (canonical(&summaries), clusters)
    };
    let reference = run(Parallelism::Serial);
    assert!(
        !reference.1.is_empty(),
        "the dense trace must end with live clusters to compare"
    );
    let parallel = run(Parallelism::Threads(4));
    assert_eq!(
        reference.0, parallel.0,
        "dense-trace summaries diverged from serial"
    );
    assert_eq!(
        reference.1, parallel.1,
        "dense-trace cluster state (ids included) diverged"
    );
}

#[test]
fn event_records_match_between_serial_and_parallel() {
    let trace = StreamGenerator::new(tw_profile(35, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(20);
    let mut serial = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    serial.run(&trace.messages);
    let mut parallel =
        DetectorBuilder::from_config(config.with_parallelism(Parallelism::Threads(4)))
            .interner(trace.interner.clone())
            .build()
            .expect("valid config");
    parallel.run(&trace.messages);
    assert_eq!(
        format!("{:#?}", serial.event_records()),
        format!("{:#?}", parallel.event_records()),
        "long-term event records diverged"
    );
}
