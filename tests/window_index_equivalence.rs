//! The incremental window index's contract: refcounted window user
//! multisets and merged per-quantum sub-sketches serve **bit-identical**
//! reads to the record walk (all `w` quanta per read), the single
//! from-scratch reference.  Identity is checked at two levels: the raw
//! window reads (sketches, user sets, counts, recency) through
//! `WindowState` itself under seeded ChaCha8 workloads, against a window
//! that materializes nothing; and the detector, whose
//! `validate_invariants` recomputes every index entry with the record walk
//! after every quantum, for any trace, window length and parallelism
//! profile.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use dengraph_core::keyword_state::{QuantumRecord, WindowState};
use dengraph_core::{DetectorBuilder, DetectorConfig, Parallelism, QuantumSummary};
use dengraph_minhash::UserHasher;
use dengraph_stream::generator::profiles::{es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, Trace, UserId};
use dengraph_text::KeywordId;

/// Runs `trace` one quantum at a time, checking the window index against
/// the record walk (and every other invariant) after each quantum.
/// Returns the summaries and the final long-term event records.
fn run(trace: &Trace, config: &DetectorConfig) -> (Vec<QuantumSummary>, String) {
    let mut detector = DetectorBuilder::from_config(config.clone())
        .interner(trace.interner.clone())
        .build()
        .expect("valid config");
    let mut summaries = Vec::new();
    for chunk in trace.messages.chunks(config.quantum_size) {
        summaries.extend(detector.run(chunk));
        if let Err(e) = detector.validate_invariants() {
            panic!(
                "{}: invariant violated after quantum {}: {e}",
                trace.profile_name,
                summaries.len()
            );
        }
    }
    let records = format!("{:#?}", detector.event_records());
    (summaries, records)
}

/// Byte-level comparison of everything a summary reports (Debug output
/// covers every field; float formatting is shortest-round-trip, so two
/// ranks print identically iff they are bit-identical).
fn canonical(summaries: &[QuantumSummary]) -> String {
    format!("{summaries:#?}")
}

#[test]
fn incremental_matches_rebuild_across_window_sizes_and_parallelism() {
    let traces = [
        StreamGenerator::new(tw_profile(41, ProfileScale::Small)).generate(),
        StreamGenerator::new(es_profile(42, ProfileScale::Small)).generate(),
    ];
    for trace in &traces {
        for window_quanta in [4usize, 12, 20] {
            let base = DetectorConfig::nominal().with_window_quanta(window_quanta);
            let (serial, _) = run(trace, &base);
            let (parallel, _) = run(trace, &base.with_parallelism(Parallelism::Threads(4)));
            assert_eq!(
                canonical(&serial),
                canonical(&parallel),
                "{}: Threads(4) diverged from Serial at w={window_quanta}",
                trace.profile_name
            );
        }
    }
}

#[test]
fn exact_edge_correlation_ablation_matches_across_modes() {
    let trace = StreamGenerator::new(tw_profile(43, ProfileScale::Small)).generate();
    let base = DetectorConfig {
        exact_edge_correlation: true,
        ..DetectorConfig::nominal().with_window_quanta(12)
    };
    let (serial, _) = run(&trace, &base);
    let (parallel, _) = run(&trace, &base.with_parallelism(Parallelism::Threads(4)));
    assert_eq!(canonical(&serial), canonical(&parallel));
}

#[test]
fn long_term_event_records_match_across_modes() {
    let trace = StreamGenerator::new(es_profile(44, ProfileScale::Small)).generate();
    let config = DetectorConfig::nominal().with_window_quanta(12);
    let (_, serial) = run(&trace, &config);
    let (_, parallel) = run(&trace, &config.with_parallelism(Parallelism::Threads(4)));
    assert_eq!(
        serial, parallel,
        "long-term event records diverged between Serial and Threads(4)"
    );
}

/// Raw window reads under random workloads: an indexed window and a
/// record-walk window (materialization threshold `usize::MAX`, so no
/// keyword is ever indexed) fed the same seeded ChaCha8 record stream,
/// every per-keyword read compared after every slide.  This pins the
/// *sketch* identity directly (the detector-level tests only observe
/// sketches through admitted edges).
#[test]
fn window_reads_are_bit_identical_under_random_workloads() {
    for case in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x71D0_0000 + case);
        let capacity = rng.gen_range(1..8usize);
        let sketch_size = rng.gen_range(2..20usize);
        let mut walk = WindowState::new(capacity, sketch_size, UserHasher::new(0xBEEF))
            .with_materialize_threshold(usize::MAX);
        let mut incremental = WindowState::new(capacity, sketch_size, UserHasher::new(0xBEEF));
        let quanta = rng.gen_range(5..20u64);
        for q in 0..quanta {
            // Occasionally an entirely empty quantum: pure slide.
            let message_count = if rng.gen_range(0..5u32) == 0 {
                0
            } else {
                rng.gen_range(1..40usize)
            };
            let messages: Vec<Message> = (0..message_count)
                .map(|m| {
                    let user = UserId(rng.gen_range(0..15u64));
                    let keywords: Vec<KeywordId> = (0..rng.gen_range(1..4u32))
                        .map(|_| KeywordId(rng.gen_range(0..10u32)))
                        .collect();
                    Message::new(user, q * 1000 + m as u64, keywords)
                })
                .collect();
            let record = QuantumRecord::from_messages(q, &messages);
            walk.push(record.clone());
            incremental.push(record);
            incremental
                .validate_invariants()
                .unwrap_or_else(|e| panic!("case {case}: quantum {q}: {e}"));

            assert_eq!(
                {
                    let mut k: Vec<KeywordId> = walk.keywords_in_window().into_iter().collect();
                    k.sort_unstable();
                    k
                },
                {
                    let mut k: Vec<KeywordId> =
                        incremental.keywords_in_window().into_iter().collect();
                    k.sort_unstable();
                    k
                },
                "case {case}: keyword sets diverged at quantum {q}"
            );
            // Probe every keyword in the universe, including absent ones.
            for kw in (0..10u32).map(KeywordId) {
                assert!(walk.window_sketch_ref(kw).is_none());
                assert_eq!(
                    walk.window_sketch(kw),
                    incremental.window_sketch(kw),
                    "case {case}: sketch diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(
                    walk.window_user_set(kw),
                    incremental.window_user_set(kw),
                    "case {case}: user set diverged for {kw:?} at quantum {q}"
                );
                assert_eq!(
                    walk.window_user_count(kw),
                    incremental.window_user_count(kw)
                );
                assert_eq!(walk.last_seen(kw), incremental.last_seen(kw));
                assert_eq!(walk.is_stale(kw), incremental.is_stale(kw));
            }
            // And the pairwise correlations the AKG consumes.
            for a in (0..10u32).map(KeywordId) {
                for b in (a.0 + 1..10u32).map(KeywordId) {
                    assert!(
                        walk.estimated_edge_correlation(a, b)
                            == incremental.estimated_edge_correlation(a, b),
                        "case {case}: estimated EC diverged for ({a:?},{b:?})"
                    );
                    assert!(
                        walk.exact_edge_correlation(a, b)
                            == incremental.exact_edge_correlation(a, b),
                        "case {case}: exact EC diverged for ({a:?},{b:?})"
                    );
                }
            }
        }
    }
}
