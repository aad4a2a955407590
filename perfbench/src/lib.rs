//! The repository benchmark for the dengraph event detector.
//!
//! One process, one thread.  Each workload replays a generated trace through
//! a [`DetectorSession`] under `DetectorConfig::nominal()` (Table 2:
//! Δ=160, σ=4, τ=0.20, w=30) with `Parallelism::Serial`, **closed loop**:
//! the next message is handed over only after the previous `push_message`
//! returned, the way one consumer drains a bounded channel.
//!
//! A run has three phases:
//!
//! 1. **Load generation** (untimed): the workload's trace from `--seed`, cut
//!    to whole quanta.  A pass replays enough copies of it back to back to
//!    make at least [`MIN_QUANTA`] quanta, each copy's timestamps shifted
//!    past the previous one's.
//! 2. **Set-up** (`setup_s`): build a session and feed it the trace once,
//!    which fills the window and builds the resident AKG and clusters.  The
//!    warm state is kept as a binary checkpoint.  The untraced run sets up
//!    [`SETUP_REPEATS`] times, spread over the run, and reports the median.
//! 3. **Measurement**: passes until `--seconds` of pass time have been
//!    measured (and at least [`MIN_PASSES`]).  Every pass restores the warm
//!    checkpoint first (untimed), so all passes do identical work and the run
//!    length changes only the sample count.  Each quantum position's time
//!    and latency are taken as their medians over the passes.  `msgs_per_s`
//!    is a pass's messages over the sum of those quantum times;
//!    `latency_p50_ms` and `latency_p99_ms` are percentiles over the
//!    positions' latencies.  After every pass, the journal directory is recovered with
//!    `DetectorSession::restore_from_dir` (`recovery_ms`, median).  On
//!    `durable` every pass writes that journal; the other workloads write it
//!    in one extra journaled pass before measuring.
//!
//! The other end-to-end metrics: `peak_rss_mb` is the process's `VmHWM`;
//! `event_recall` and `event_precision` score the first set-up's event
//! records against the trace's ground truth (`evaluation::match_records`,
//! `precision_recall`); `wal_bytes_per_msg` is the journal directory's size
//! over the messages journaled into it.
//!
//! `--trace 0` prints the end-to-end metrics.  `--trace 1` (the
//! `perfbench-traced` binary, with a counting global allocator) prints the
//! per-layer metrics: it alternates traced and plain passes, records one
//! span per quantum, runs the P3 oracle after every traced quantum and
//! times the minhash kernels and the checkpoint codec.
//!
//! Correctness checks, counted as operations attempted and failed: P3 (the
//! maintained clusters equal `scp_clusters_global` of the AKG) on the final
//! state of every pass and after every traced quantum; every pass emits the
//! same events as the first; the journal sees no I/O error; every recovery
//! matches the live session's `quanta_processed` and binary checkpoint.
//!
//! Usage (from the repository root; `perfbench/run.py` builds and calls
//! this):
//!
//! ```text
//! perfbench --workload tw|dense|durable --seed N --seconds S --trace 0
//! perfbench-traced --workload tw|dense|durable --seed N --seconds S --trace 1
//! ```

mod probe;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dengraph_core::{DetectorSession, StageTimes, WireFormat};

pub use probe::AllocCounter;
use probe::{NoProbe, Span, Tracer};
use workload::{Pass, Prepared, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest quanta in a pass, so that the latency p99 has at least ten
/// samples beyond it.
pub const MIN_QUANTA: usize = 1000;

/// Fewest passes in an untraced run, so that each quantum position's
/// median latency rests on several samples.
pub const MIN_PASSES: usize = 3;

/// Where runs keep their journal directories, relative to the working
/// directory (the repository root); each run removes what it wrote.
const SCRATCH_DIR: &str = ".perfbench_tmp";

/// Timed rounds per kernel microbenchmark; the median is reported.
const KERNEL_ROUNDS: usize = 1001;

/// Elements per kernel call, the shape `bench_smoke` uses.
const KERNEL_ELEMS: usize = 4096;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
    })
}

/// Entry point of both binaries.  `alloc` is `Some` only in the traced
/// binary, whose global allocator counts.
pub fn main_with(alloc: Option<AllocCounter>) -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.traced != alloc.is_some() {
        eprintln!("perfbench: --trace 1 runs in perfbench-traced, --trace 0 in perfbench");
        return ExitCode::from(2);
    }
    let report = run(&args, alloc);
    println!("{}", report.provenance);
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Operations attempted and failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

struct Report {
    provenance: String,
    checks: Checks,
    metrics: Vec<Metric>,
}

impl Report {
    fn result_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0 && finite,
            self.checks.attempted.max(1),
            self.checks.failed,
        )
    }
}

fn run(args: &Args, alloc: Option<AllocCounter>) -> Report {
    let workload = args.workload;
    let mut prepared = Prepared::new(workload, args.seed, MIN_QUANTA);
    let quanta = prepared.quanta_per_pass() as u64;
    let run_dir = Path::new(SCRATCH_DIR).join(format!("run-{}", std::process::id()));
    let journal_dir = run_dir.join("wal");
    let measured_journal = workload.journals().then_some(journal_dir.as_path());

    let mut checks = Checks::default();
    let mut first_digest = None;
    let mut check_pass = |pass: &Pass, oracle_failures: u64, checks: &mut Checks| {
        let digest_ok = *first_digest.get_or_insert(pass.digest) == pass.digest;
        let failed = if pass.sound && digest_ok {
            oracle_failures
        } else {
            quanta
        };
        checks.record(quanta, failed);
    };

    // Workloads whose measured passes do not journal write one journaled
    // pass first, untimed, for the recovery and WAL metrics.
    let mut recovery = Recovery::default();
    if measured_journal.is_none() {
        let pass = prepared.run_pass(Some(&journal_dir), &mut NoProbe);
        check_pass(&pass, 0, &mut checks);
        recovery.expect(&pass.session);
    }

    let mut latencies = Vec::new();
    let mut quantum_times = Vec::new();
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut tracer = alloc.map(Tracer::new);
    let min_passes = if tracer.is_some() { 2 } else { MIN_PASSES };
    let deadline = Duration::from_secs(args.seconds);
    let mut measured = Duration::ZERO;
    let mut passes = 0usize;
    // The last pass's session, for the end-of-run gauges.  It is dropped
    // before the next pass, so one session is live at a time.
    let mut last = None;
    while passes < min_passes || measured < deadline {
        drop(last.take());
        let mut pass = match tracer.as_mut() {
            Some(tracer) if passes.is_multiple_of(2) => {
                let failures_before = tracer.oracle_failures;
                let pass = prepared.run_pass(measured_journal, tracer);
                traced_rates.push(pass.rate);
                check_pass(&pass, tracer.oracle_failures - failures_before, &mut checks);
                pass
            }
            _ => {
                let pass = prepared.run_pass(measured_journal, &mut NoProbe);
                plain_rates.push(pass.rate);
                check_pass(&pass, 0, &mut checks);
                pass
            }
        };
        measured += pass.elapsed;
        passes += 1;
        if tracer.is_none() {
            latencies.push(std::mem::take(&mut pass.latencies));
            quantum_times.push(std::mem::take(&mut pass.quantum_ns));
        }
        if recovery.expected.is_none() {
            recovery.expect(&pass.session);
        }
        last = Some(pass.session);
        // One recovery per pass and set-ups spread over the run, so that one
        // burst of load on the host moves few of the samples.
        recovery.recover(&journal_dir, &mut checks);
        let setups = prepared.setup_s.len();
        if tracer.is_none()
            && setups < SETUP_REPEATS
            && measured.as_secs_f64() * SETUP_REPEATS as f64
                >= deadline.as_secs_f64() * setups as f64
        {
            prepared.time_setup();
        }
    }
    while tracer.is_none() && prepared.setup_s.len() < SETUP_REPEATS {
        prepared.time_setup();
    }
    let last = last.expect("at least one pass ran");
    let wal_bytes = dir_bytes(&journal_dir);

    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    match &tracer {
        None => {
            let mut positions = position_medians_ms(&latencies);
            let pass_ms: f64 = position_medians_ms(&quantum_times).iter().sum();
            push(
                "msgs_per_s",
                prepared.messages_per_pass() as f64 / (pass_ms / 1e3),
                "msgs/s",
            );
            push("latency_p50_ms", percentile(&mut positions, 50.0), "ms");
            push("latency_p99_ms", percentile(&mut positions, 99.0), "ms");
            push("setup_s", median(&mut prepared.setup_s.clone()), "s");
            push("peak_rss_mb", peak_rss_mb(), "MB");
            push("event_recall", prepared.recall, "ratio");
            push("event_precision", prepared.precision, "ratio");
            push("recovery_ms", median(&mut recovery.ms.clone()), "ms");
            push(
                "wal_bytes_per_msg",
                wal_bytes as f64 / prepared.messages_per_pass() as f64,
                "B/msg",
            );
        }
        Some(tracer) => {
            per_layer_metrics(&tracer.spans, &mut push);
            let kernels = kernel_ns();
            push("minhash.hash_batch_ns", kernels[0], "ns");
            push("minhash.minima_fold_ns", kernels[1], "ns");
            push("minhash.radix_pairs_ns", kernels[2], "ns");
            let session = &last;
            push("akg.nodes", session.akg().node_count() as f64, "count");
            push("akg.edges", session.akg().edge_count() as f64, "count");
            push(
                "tracker.records",
                session.event_records().len() as f64,
                "count",
            );
            push("wal.bytes", wal_bytes as f64, "B");
            push("wal.frames", recovery.frames as f64, "count");
            push(
                "recovery.deltas_replayed",
                recovery.deltas_replayed as f64,
                "count",
            );
            let codec = checkpoint_codec(session, &mut checks);
            push("checkpoint.bytes", codec.bytes as f64, "B");
            push("checkpoint.encode_ms", codec.encode_ms, "ms");
            push("checkpoint.decode_ms", codec.decode_ms, "ms");
            let traced = median(&mut traced_rates);
            let plain = median(&mut plain_rates);
            push("trace.msgs_per_s", traced, "msgs/s");
            push("trace.plain_msgs_per_s", plain, "msgs/s");
            push("trace.overhead_pct", 100.0 * (1.0 - traced / plain), "%");
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    // Removes the scratch directory only if no other run is using it.
    let _ = std::fs::remove_dir(SCRATCH_DIR);

    let counts = RunCounts {
        passes,
        latency_samples: latencies.iter().map(Vec::len).sum(),
        setups: prepared.setup_s.len(),
        recoveries: recovery.ms.len(),
    };
    Report {
        provenance: provenance(args, &prepared, &counts),
        checks,
        metrics,
    }
}

/// What a run measured, for its provenance line.
struct RunCounts {
    passes: usize,
    latency_samples: usize,
    setups: usize,
    recoveries: usize,
}

/// Timed recoveries of the journal directory, checked against the state
/// of the session that wrote it.
#[derive(Default)]
struct Recovery {
    ms: Vec<f64>,
    deltas_replayed: usize,
    /// Frames the journal of that session wrote.
    frames: usize,
    /// `quanta_processed` and binary checkpoint of that session.
    expected: Option<(u64, Vec<u8>)>,
}

impl Recovery {
    fn expect(&mut self, live: &DetectorSession) {
        self.frames = live
            .journal()
            .map_or(0, |j| j.snapshot_frames() + j.delta_frames());
        self.expected = Some((
            live.quanta_processed(),
            live.checkpoint_bytes(WireFormat::Binary),
        ));
    }

    /// Recovers `dir` once, timed; the recovered session must match the
    /// expected quanta count and binary checkpoint.
    fn recover(&mut self, dir: &Path, checks: &mut Checks) {
        let start = Instant::now();
        let restored = DetectorSession::restore_from_dir_with_report(dir);
        self.ms.push(start.elapsed().as_secs_f64() * 1e3);
        let same = match restored {
            Ok((session, report)) => {
                self.deltas_replayed = report.deltas_replayed;
                self.expected.as_ref().is_some_and(|(quanta, bytes)| {
                    session.quanta_processed() == *quanta
                        && session.checkpoint_bytes(WireFormat::Binary) == *bytes
                })
            }
            Err(e) => {
                eprintln!("perfbench: recovery failed: {e}");
                false
            }
        };
        checks.record(1, u64::from(!same));
    }
}

struct Codec {
    bytes: usize,
    encode_ms: f64,
    decode_ms: f64,
}

/// Times the binary checkpoint encode and decode of `session`, five times
/// each, medians; the decoded session must encode to the same bytes.
fn checkpoint_codec(session: &DetectorSession, checks: &mut Checks) -> Codec {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        bytes = black_box(session.checkpoint_bytes(WireFormat::Binary));
        encode.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let restored = DetectorSession::restore_bytes(&bytes);
        decode.push(start.elapsed().as_secs_f64() * 1e3);
        let same = restored.is_ok_and(|r| r.checkpoint_bytes(WireFormat::Binary) == bytes);
        checks.record(1, u64::from(!same));
    }
    Codec {
        bytes: bytes.len(),
        encode_ms: median(&mut encode),
        decode_ms: median(&mut decode),
    }
}

/// Per-quantum distributions and work ratios from the traced spans.
fn per_layer_metrics(spans: &[Span], push: &mut impl FnMut(&str, f64, &'static str)) {
    let mut dist = |name: &str, mut values: Vec<f64>| {
        push(&format!("{name}.p50"), percentile(&mut values, 50.0), "ms");
        push(&format!("{name}.p99"), percentile(&mut values, 99.0), "ms");
    };
    let total_span: f64 = spans.iter().map(|s| s.span_ms).sum();
    let share = |part: f64| 100.0 * part / total_span.max(f64::MIN_POSITIVE);
    let mut shares = Vec::new();
    let stages = StageTimes::default().as_millis().map(|(name, _)| name);
    for (i, stage) in stages.iter().enumerate() {
        let values: Vec<f64> = spans.iter().map(|s| s.stage_ms[i]).collect();
        shares.push((format!("stage.{stage}_pct"), share(values.iter().sum())));
        dist(&format!("stage.{stage}_ms"), values);
    }
    dist("session.tail_ms", spans.iter().map(Span::tail_ms).collect());
    dist("quantum.span_ms", spans.iter().map(|s| s.span_ms).collect());
    for (name, value) in shares {
        push(&name, value, "%");
    }
    push(
        "session.tail_pct",
        share(spans.iter().map(Span::tail_ms).sum()),
        "%",
    );

    let quanta = spans.len().max(1) as f64;
    let sum = |f: fn(&Span) -> u64| spans.iter().map(f).sum::<u64>() as f64;
    push(
        "akg.pairs_evaluated",
        sum(|s| s.pairs_evaluated) / quanta,
        "count",
    );
    push(
        "akg.pair_yield",
        sum(|s| s.edges_added) / sum(|s| s.pairs_evaluated).max(1.0),
        "ratio",
    );
    push("cluster.ops", sum(|s| s.cluster_ops) / quanta, "count");
    push("report.events", sum(|s| s.events) / quanta, "count");
    push(
        "report.event_yield",
        sum(|s| s.events) / sum(|s| s.live_clusters).max(1.0),
        "ratio",
    );
    push("alloc.count", sum(|s| s.alloc_count) / quanta, "count");
    push("alloc.bytes", sum(|s| s.alloc_bytes) / quanta, "B");
}

/// Median nanoseconds per call of the three batch sketch kernels, on
/// `bench_smoke`'s shapes: `[hash_batch, minima_fold, radix_pairs]`.
fn kernel_ns() -> [f64; 3] {
    use dengraph_minhash::{kernel, SketchLanes, UserHasher};
    let time = |op: &mut dyn FnMut()| {
        op(); // sizes scratch buffers outside the timed rounds
        let mut ns: Vec<f64> = (0..KERNEL_ROUNDS)
            .map(|_| {
                let start = Instant::now();
                op();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(&mut ns)
    };
    let hasher = UserHasher::new(0xD0E5);
    let ids: Vec<u64> = (0..KERNEL_ELEMS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut hashes: Vec<u64> = Vec::new();
    let hash_batch = time(&mut || {
        kernel::hash_batch(&hasher, black_box(&ids), |id| id, &mut hashes);
        black_box(&hashes);
    });
    // The sketch saturates at p = 16 in the warm-up call, so the timed
    // rounds measure the steady-state filter against the p-th minimum.
    let mut lanes = SketchLanes::new();
    let mut minima: Vec<u64> = Vec::new();
    let minima_fold = time(&mut || {
        lanes.load_hashes(black_box(&hashes));
        kernel::fold_lanes_into(&mut minima, 16, &mut lanes);
        black_box(&minima);
    });
    // A duplicate-heavy packed (keyword, user) column, like a quantum's.
    let pairs: Vec<u64> = (0..KERNEL_ELEMS as u64)
        .map(|i| ((i % 97) << 32) | (i.wrapping_mul(2_654_435_761) % 1024))
        .collect();
    let mut keys: Vec<u64> = Vec::new();
    let mut tmp: Vec<u64> = Vec::new();
    let radix_pairs = time(&mut || {
        keys.clear();
        keys.extend_from_slice(black_box(&pairs));
        kernel::radix_sort_u64(&mut keys, &mut tmp);
        black_box(&keys);
    });
    [hash_batch, minima_fold, radix_pairs]
}

/// Every pass replays identical work, so each quantum position's value is
/// taken as its median over the passes, in milliseconds: a burst of load on
/// the host moves a position only if it hits most passes there.
fn position_medians_ms(passes: &[Vec<u64>]) -> Vec<f64> {
    let positions = passes.first().map_or(0, Vec::len);
    (0..positions)
        .map(|i| {
            let mut values: Vec<f64> = passes.iter().map(|p| p[i] as f64 / 1e6).collect();
            median(&mut values)
        })
        .collect()
}

/// Median of `values` (sorted in place); 0 when empty.
fn median(values: &mut [f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = (pct / 100.0 * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Total bytes of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The line stamping the result with where and how it was measured.
fn provenance(args: &Args, prepared: &Prepared, counts: &RunCounts) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let config = &prepared.config;
    let fields = [
        ("workload", json_str(args.workload.name())),
        ("profile", json_str(&prepared.profile_name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.traced).to_string()),
        ("parallelism", json_str(&format!("{:?}", config.parallelism))),
        (
            "config",
            json_str(&format!(
                "quantum_size={} high_state_threshold={} edge_correlation_threshold={} window_quanta={}",
                config.quantum_size,
                config.high_state_threshold,
                config.edge_correlation_threshold,
                config.window_quanta
            )),
        ),
        ("loop", json_str("closed, one message in flight")),
        ("passes", counts.passes.to_string()),
        ("trace_copies_per_pass", prepared.replays.to_string()),
        ("messages_per_pass", prepared.messages_per_pass().to_string()),
        ("quanta_per_pass", prepared.quanta_per_pass().to_string()),
        ("latency_samples", counts.latency_samples.to_string()),
        ("setups", counts.setups.to_string()),
        ("recoveries", counts.recoveries.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&env("PERFBENCH_RUSTC"))),
        ("git_commit", json_str(&env("PERFBENCH_GIT_COMMIT"))),
        ("source_sha256", json_str(&env("PERFBENCH_SOURCE_SHA256"))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}
