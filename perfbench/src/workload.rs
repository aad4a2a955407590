//! Workloads, set-up and the closed-loop replay pass.

use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dengraph_core::evaluation::matching::match_records;
use dengraph_core::evaluation::precision_recall::precision_recall;
use dengraph_core::{
    DetectorBuilder, DetectorConfig, DetectorSession, DurableJournalConfig, EventSink, FsyncPolicy,
    Parallelism, QuantumNotifications, WireFormat,
};
use dengraph_graph::{scp_clusters_global, NodeId};
use dengraph_stream::generator::profiles::{dense_profile, es_profile, tw_profile, ProfileScale};
use dengraph_stream::{Message, StreamGenerator, StreamProfile, Trace};

use crate::probe::Probe;

/// One benchmark workload: a generated trace and how it is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Time-Window chatter trace (`tw_profile`, Large): sparse
    /// AKG, about half of quantum time in the window stage.
    Tw,
    /// The dense-AKG stress trace (`dense_profile`, Medium): ~1.4k resident
    /// AKG nodes, ~250 reported events per quantum; AKG scoring, report and
    /// cluster maintenance dominate.
    Dense,
    /// The Event-Specific trace (`es_profile`, Large) with every measured
    /// pass appending to the file-backed WAL.
    Durable,
}

impl Workload {
    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "tw" => Some(Self::Tw),
            "dense" => Some(Self::Dense),
            "durable" => Some(Self::Durable),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Tw => "tw",
            Self::Dense => "dense",
            Self::Durable => "durable",
        }
    }

    fn profile(self, seed: u64) -> StreamProfile {
        match self {
            Self::Tw => tw_profile(seed, ProfileScale::Large),
            Self::Dense => dense_profile(seed, ProfileScale::Medium),
            Self::Durable => es_profile(seed, ProfileScale::Large),
        }
    }

    /// Whether measured passes append to the file-backed WAL.
    pub fn journals(self) -> bool {
        self == Self::Durable
    }
}

/// The journal settings of every journaled pass: the default
/// `DurableJournalConfig` (Delta every 64 quanta, binary, 8 MiB segments)
/// without fsync, which would measure the disk rather than the program.
pub fn wal_config() -> DurableJournalConfig {
    DurableJournalConfig {
        fsync: FsyncPolicy::Never,
        ..DurableJournalConfig::default()
    }
}

/// A workload after load generation and set-up: the warm detector state
/// every measured pass starts from.
pub struct Prepared {
    /// The detector configuration: nominal (Table 2), serial.
    pub config: DetectorConfig,
    /// The generating profile's name.
    pub profile_name: String,
    /// The trace's messages, cut to whole quanta; each set-up feeds them once.
    trace: Vec<Message>,
    /// Copies of the trace one pass replays back to back.
    pub replays: usize,
    /// Timestamp shift between two copies: past the trace's last message.
    shift: u64,
    /// Binary checkpoint of the session after the first set-up.
    warm: Vec<u8>,
    /// Wall time of each set-up (session build plus warm-up pass), seconds.
    pub setup_s: Vec<f64>,
    /// Recall of the warm-up pass's event records against the trace's
    /// ground truth.
    pub recall: f64,
    /// Precision of the warm-up pass's event records.
    pub precision: f64,
}

impl Prepared {
    /// Generates the workload's trace from `seed` (untimed load generation),
    /// lays out a pass of at least `min_quanta` quanta, and sets up once:
    /// build a session and feed it the trace.  That warm session is kept as
    /// a checkpoint.
    pub fn new(workload: Workload, seed: u64, min_quanta: usize) -> Self {
        let config = DetectorConfig::nominal().with_parallelism(Parallelism::Serial);
        let generated: Trace = StreamGenerator::new(workload.profile(seed)).generate();
        let mut trace = generated.messages;
        // Whole quanta only, so every pass starts and ends on a quantum
        // boundary.
        trace.truncate(trace.len() / config.quantum_size * config.quantum_size);
        let replays = min_quanta.div_ceil((trace.len() / config.quantum_size).max(1));
        let shift = trace.last().map_or(0, |m| m.time + 1);

        let (session, setup_s) = set_up(&config, &trace);
        let matches = match_records(&session.event_records(), &generated.ground_truth);
        let scores = precision_recall(&matches, &generated.ground_truth);
        Self {
            profile_name: generated.profile_name,
            trace,
            replays,
            shift,
            warm: session.checkpoint_bytes(WireFormat::Binary),
            setup_s: vec![setup_s],
            recall: scores.recall,
            precision: scores.precision,
            config,
        }
    }

    /// Sets up once more and records its time; the session is dropped.
    pub fn time_setup(&mut self) {
        let (session, seconds) = set_up(&self.config, &self.trace);
        self.setup_s.push(seconds);
        drop(session);
    }

    /// Messages in one pass.
    pub fn messages_per_pass(&self) -> usize {
        self.trace.len() * self.replays
    }

    /// Quanta in one pass.
    pub fn quanta_per_pass(&self) -> usize {
        self.messages_per_pass() / self.config.quantum_size
    }

    /// Replays one pass, closed loop, from the warm state.
    ///
    /// Restoring the warm checkpoint and opening the journal (in `journal`,
    /// a directory that is emptied first) are untimed.  The pass's time
    /// covers the loop that hands over each message as a fresh copy of the
    /// trace's, timestamp shifted, and pushes it.  The latency of each
    /// quantum runs from handing over its last message until `push_message`
    /// returns, by which time its events have reached the attached sink.
    pub fn run_pass<P: Probe>(&self, journal: Option<&Path>, probe: &mut P) -> Pass {
        let mut session =
            DetectorSession::restore_bytes(&self.warm).expect("the warm checkpoint restores");
        let digest = Rc::new(Cell::new(FNV_OFFSET));
        session.attach_sink(Box::new(DigestSink(Rc::clone(&digest))));
        if let Some(dir) = journal {
            let _ = std::fs::remove_dir_all(dir);
            session
                .enable_durable_journal(dir, wal_config())
                .expect("the journal directory is writable");
        }
        let delta = self.config.quantum_size;
        let mut latencies = Vec::with_capacity(self.quanta_per_pass());
        let mut quantum_ns = Vec::with_capacity(self.quanta_per_pass());
        probe.pass_start(&session);

        let start = Instant::now();
        let copies = (1..=self.replays as u64).flat_map(|copy| {
            self.trace.iter().map(move |m| Message {
                time: m.time + copy * self.shift,
                ..m.clone()
            })
        });
        let mut opened = start;
        for (i, message) in copies.enumerate() {
            let slot = i % delta;
            if slot == 0 {
                probe.quantum_start();
                opened = Instant::now();
            }
            if slot + 1 < delta {
                session.push_message(message);
                continue;
            }
            let sent = Instant::now();
            let summary = session.push_message(message);
            let span = sent.elapsed();
            latencies.push(span.as_nanos() as u64);
            quantum_ns.push(opened.elapsed().as_nanos() as u64);
            let summary = summary.expect("a quantum's last message closes it");
            probe.quantum_end(&session, &summary, span);
        }
        let elapsed = start.elapsed().saturating_sub(probe.take_excluded());

        let sound = p3_holds(&session) && session.journal_io_error().is_none();
        Pass {
            rate: self.messages_per_pass() as f64 / elapsed.as_secs_f64().max(1e-9),
            elapsed,
            latencies,
            quantum_ns,
            digest: digest.get(),
            sound,
            session,
        }
    }
}

/// Builds a session and feeds it `messages` once; returns it with the
/// wall time taken, in seconds.
fn set_up(config: &DetectorConfig, messages: &[Message]) -> (DetectorSession, f64) {
    let start = Instant::now();
    let mut session = DetectorBuilder::from_config(config.clone())
        .build()
        .expect("the nominal configuration is valid");
    session.run(messages);
    (session, start.elapsed().as_secs_f64())
}

/// The outcome of one replay pass.
pub struct Pass {
    /// Messages per second over the pass.
    pub rate: f64,
    /// Timed wall time of the pass.
    pub elapsed: Duration,
    /// Latency of each quantum, in order, nanoseconds.
    pub latencies: Vec<u64>,
    /// Time of each quantum, from handing over its first message until its
    /// last `push_message` returned, in order, nanoseconds.
    pub quantum_ns: Vec<u64>,
    /// Digest of every quantum and event the sink received.
    pub digest: u64,
    /// P3 held on the final state and the journal (if any) saw no I/O error.
    pub sound: bool,
    /// The session as the pass left it.
    pub session: DetectorSession,
}

/// Paper property P3: the maintained clusters equal the global SCP
/// decomposition of the current AKG, compared as sorted node sets.
pub fn p3_holds(session: &DetectorSession) -> bool {
    let mut maintained: Vec<Vec<NodeId>> = session
        .clusters()
        .clusters()
        .map(|c| c.sorted_nodes())
        .collect();
    maintained.sort_unstable();
    let mut oracle: Vec<Vec<NodeId>> = scp_clusters_global(session.akg())
        .into_iter()
        .map(|c| c.nodes)
        .collect();
    oracle.sort_unstable();
    maintained == oracle
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// A sink that folds every quantum and event it receives into a digest.
/// Every pass starts from the same warm state, so every pass must produce
/// the same digest.
struct DigestSink(Rc<Cell<u64>>);

impl EventSink for DigestSink {
    fn on_quantum_batch(&mut self, batch: &QuantumNotifications<'_>) {
        let mut hash = fnv(self.0.get(), batch.summary.quantum);
        for event in &batch.summary.events {
            hash = fnv(hash, event.cluster_id.0);
            hash = fnv(hash, event.rank.to_bits());
            hash = fnv(hash, event.keywords.len() as u64);
        }
        for record in batch.records {
            hash = fnv(hash, record.reported_quanta() as u64);
        }
        self.0.set(hash);
    }
}
