//! Sliding-window behaviour: quantum batching, stale removal, hysteresis
//! and the effect of the window length — the Section 3.1 mechanics observed
//! through the public API.

use dengraph_core::{DetectorBuilder, DetectorConfig, DetectorSession};
use dengraph_stream::{Message, Quantum, UserId};
use dengraph_text::KeywordId;

fn config(window: usize) -> DetectorConfig {
    DetectorConfig::nominal()
        .with_quantum_size(20)
        .with_high_state_threshold(3)
        .with_edge_correlation_threshold(0.3)
        .with_window_quanta(window)
}

fn k(i: u32) -> KeywordId {
    KeywordId(i)
}

/// A quantum where `users` distinct users post the keyword set, padded with
/// unique one-off chatter up to the quantum size.
fn quantum(
    cfg: &DetectorConfig,
    users: u64,
    user_base: u64,
    keywords: &[u32],
    salt: u64,
) -> Vec<Message> {
    let mut msgs = Vec::new();
    for u in 0..users {
        msgs.push(Message::new(
            UserId(user_base + u),
            salt * 1000 + u,
            keywords.iter().map(|&i| k(i)).collect(),
        ));
    }
    let mut filler = 0u64;
    while msgs.len() < cfg.quantum_size {
        let id = 1_000_000 + salt * 10_000 + filler;
        msgs.push(Message::new(
            UserId(id),
            id,
            vec![k(100_000 + (id % 50_000) as u32)],
        ));
        filler += 1;
    }
    msgs
}

fn feed(detector: &mut DetectorSession, msgs: Vec<Message>) {
    for m in msgs {
        detector.push_message(m);
    }
}

#[test]
fn event_survives_while_inside_the_window_and_expires_after() {
    let cfg = config(3);
    let mut det = DetectorBuilder::from_config(cfg.clone())
        .build()
        .expect("valid config");
    feed(&mut det, quantum(&cfg, 6, 100, &[1, 2, 3], 0));
    assert_eq!(det.clusters().cluster_count(), 1);

    // One quiet quantum: the keywords are still inside the window, the
    // cluster keeps existing (hysteresis keeps the nodes in the AKG).
    feed(&mut det, quantum(&cfg, 0, 0, &[], 1));
    assert_eq!(
        det.clusters().cluster_count(),
        1,
        "cluster must survive inside the window"
    );

    // Enough quiet quanta to push the burst outside the window: everything
    // is cleaned up.
    for salt in 2..6 {
        feed(&mut det, quantum(&cfg, 0, 0, &[], salt));
    }
    assert_eq!(det.clusters().cluster_count(), 0);
    assert_eq!(
        det.akg().node_count(),
        0,
        "stale keywords must leave the AKG"
    );
}

#[test]
fn longer_windows_keep_events_alive_longer() {
    let count_after_gap = |window: usize, quiet_quanta: u64| -> usize {
        let cfg = config(window);
        let mut det = DetectorBuilder::from_config(cfg.clone())
            .build()
            .expect("valid config");
        feed(&mut det, quantum(&cfg, 6, 100, &[1, 2, 3], 0));
        for salt in 1..=quiet_quanta {
            feed(&mut det, quantum(&cfg, 0, 0, &[], salt));
        }
        det.clusters().cluster_count()
    };
    assert_eq!(count_after_gap(2, 3), 0, "short window expires the event");
    assert_eq!(count_after_gap(8, 3), 1, "long window keeps the event");
}

#[test]
fn keyword_reappearing_within_the_window_refreshes_the_event() {
    let cfg = config(4);
    let mut det = DetectorBuilder::from_config(cfg.clone())
        .build()
        .expect("valid config");
    feed(&mut det, quantum(&cfg, 6, 100, &[1, 2, 3], 0));
    feed(&mut det, quantum(&cfg, 0, 0, &[], 1));
    // The same story flares up again two quanta later with fresh users.
    feed(&mut det, quantum(&cfg, 6, 500, &[1, 2, 3], 2));
    assert_eq!(det.clusters().cluster_count(), 1);
    let records = det.event_records();
    assert_eq!(
        records.len(),
        1,
        "the re-burst must map onto the same event record"
    );
    assert!(records[0].last_seen >= 2);
}

#[test]
fn quantum_size_controls_burstiness_sensitivity() {
    // 4 users mention the keywords spread over 40 messages.  With Δ=20 the
    // mentions split across two quanta (2 users each — below σ=3) and no
    // event forms; with Δ=40 they land in one quantum and the event forms.
    let build_messages = || -> Vec<Message> {
        let mut msgs: Vec<Message> = Vec::new();
        for i in 0..40u64 {
            if i % 10 == 0 {
                let user = 100 + i / 10;
                msgs.push(Message::new(UserId(user), i, vec![k(1), k(2), k(3)]));
            } else {
                msgs.push(Message::new(
                    UserId(10_000 + i),
                    i,
                    vec![k(1000 + i as u32)],
                ));
            }
        }
        msgs
    };
    let small = DetectorConfig {
        quantum_size: 20,
        ..config(5)
    };
    let large = DetectorConfig {
        quantum_size: 40,
        ..config(5)
    };
    let mut det_small = DetectorBuilder::from_config(small)
        .build()
        .expect("valid config");
    let mut det_large = DetectorBuilder::from_config(large)
        .build()
        .expect("valid config");
    det_small.run(&build_messages());
    det_large.run(&build_messages());
    assert_eq!(
        det_small.event_records().len(),
        0,
        "split across quanta: below the burstiness threshold"
    );
    assert_eq!(
        det_large.event_records().len(),
        1,
        "single quantum: bursty enough to form the event"
    );
}

/// A fully empty quantum fed through `process_quantum` must still slide
/// the window and advance stale accounting.
#[test]
fn empty_quantum_slides_the_window_and_advances_stale_accounting() {
    let cfg = config(3);
    let mut det = DetectorBuilder::from_config(cfg.clone())
        .build()
        .expect("valid config");
    feed(&mut det, quantum(&cfg, 6, 100, &[1, 2, 3], 0));
    assert_eq!(det.clusters().cluster_count(), 1);

    // Empty quanta (zero messages, not filler) until the burst falls out
    // of the window.
    for i in 1..=(cfg.window_quanta as u64) {
        let summary = det.process_quantum(&Quantum {
            index: i,
            messages: Vec::new(),
        });
        assert_eq!(summary.messages, 0);
        // While the burst is still inside the window the cluster keeps
        // being reported; once it slides out, nothing is.
        if i >= cfg.window_quanta as u64 {
            assert!(summary.events.is_empty(), "quantum {i}");
        }
    }
    assert_eq!(
        det.quanta_processed(),
        1 + cfg.window_quanta as u64,
        "every empty quantum must count"
    );
    assert_eq!(
        det.clusters().cluster_count(),
        0,
        "stale keywords must dissolve the cluster"
    );
    assert_eq!(
        det.akg().node_count(),
        0,
        "stale keywords must leave the AKG"
    );
}

/// A stream that *starts* with empty quanta must not disturb later
/// detection.
#[test]
fn leading_empty_quanta_are_harmless() {
    let cfg = config(3);
    let mut det = DetectorBuilder::from_config(cfg.clone())
        .build()
        .expect("valid config");
    for i in 0..4u64 {
        let summary = det.process_quantum(&Quantum {
            index: i,
            messages: Vec::new(),
        });
        assert!(summary.events.is_empty());
        assert_eq!(summary.akg_nodes, 0);
    }
    feed(&mut det, quantum(&cfg, 6, 100, &[1, 2, 3], 9));
    assert_eq!(det.clusters().cluster_count(), 1);
    assert_eq!(det.event_records().len(), 1);
}

#[test]
fn partial_final_quantum_is_processed_by_flush() {
    let cfg = config(3);
    let mut det = DetectorBuilder::from_config(cfg.clone())
        .build()
        .expect("valid config");
    // Only half a quantum of event messages, then end of stream.
    for u in 0..6u64 {
        det.push_message(Message::new(UserId(u), u, vec![k(1), k(2), k(3)]));
    }
    assert_eq!(det.quanta_processed(), 0);
    let summary = det.flush().expect("flush must process the partial quantum");
    assert_eq!(summary.events.len(), 1);
    assert_eq!(det.total_messages(), 6);
}
