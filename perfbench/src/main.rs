//! Served-path benchmark of the situational-facts service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <nba-batch|zipf-window|ticks-rowwise> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! rounds plus the traced replica and reports the per-layer split. The last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`); a readable summary goes to standard error. See
//! `perfbench/README.md` for the workloads, metrics and bounds.

#![forbid(unsafe_code)]

mod oracle;
mod replica;
mod served;
mod stats;
mod workload;

use oracle::Oracle;
use replica::{InProcess, Layer, Replica, Spans};
use served::{Ops, Round, Server};
use sitfact_algos::Discovery;
use sitfact_datagen::Row;
use sitfact_prominence::ArrivalReport;
use sitfact_serve::{Request, Response, ServerStats};
use stats::{mean, median, now, quantile, secs_since};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Quantile of per-round times a timing metric reports.
const SLOW_QUARTER: f64 = 0.75;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {:?}",
                    workload::NAMES
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}; expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A data directory private to this run, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(workload: &str, seed: u64) -> Result<RunDir, String> {
        // audit: allow(no-wallclock): a timestamp makes run directories unique across pid reuse
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(".perfbench-runs").join(format!(
            "{workload}-seed{seed}-pid{}-{stamp}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared between runs; remove it only once empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Named metric values in output order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Per-round per-layer figures of a traced round.
struct TracedRound {
    values: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic counters that must repeat exactly in every round.
    counters: Vec<u64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let workload = &args.workload;
    let run_dir = RunDir::create(workload.name, args.seed)?;

    let t = now();
    let rows = workload.rows(args.seed);
    let requests = served::wire_requests(workload, &rows);
    let generate_s = secs_since(t);
    let t = now();
    let server = Server::start(workload, &run_dir.sub("served"))?;
    let mut client = server.connect()?;
    let bind_s = secs_since(t);

    let oracle = Oracle::new(workload, &rows);
    let mut ops = Ops::default();
    let mut failures: Vec<String> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let loop_start = now();
    let mut index = 0usize;
    while index == 0 || secs_since(loop_start) < args.seconds {
        let name = format!("{}-r{index}", workload.name);
        let failed_before = ops.failed;
        let outcome = served::round(&mut client, &mut ops, &server, workload, &requests, &name)
            .and_then(|round| {
                check_round(&oracle, rounds.first(), &round)?;
                if args.trace {
                    let dir = run_dir.sub(&format!("r{index}"));
                    let traced_round =
                        trace_round(workload, &rows, &oracle, &round, &dir, index == 0);
                    let _ = std::fs::remove_dir_all(&dir);
                    let traced_round = traced_round?;
                    if let Some(first) = traced.first() {
                        if first.counters != traced_round.counters {
                            return Err(format!(
                                "round {index}: per-layer counters {:?} differ from round 0's {:?}",
                                traced_round.counters, first.counters
                            ));
                        }
                    }
                    traced.push(traced_round);
                }
                Ok(round)
            });
        match outcome {
            Ok(mut round) => {
                if !rounds.is_empty() {
                    // Checked against round 0 already; keep memory flat.
                    round.reports = Vec::new();
                }
                eprintln!(
                    "perfbench: round {index}: at {:.1} s, stream {:.4} s, ack mean {:.3} ms, read p50 {:.1} us, recover {:.4} s, setup {:.4} s",
                    secs_since(loop_start),
                    round.stream_s,
                    mean(&round.acks) * 1e3,
                    median(&round.reads) * 1e6,
                    round.recover_s,
                    round.setup_s
                );
                rounds.push(round)
            }
            Err(e) => {
                eprintln!("perfbench: round {index}: {e}");
                if ops.failed == failed_before {
                    failures.push(e);
                }
                // Leave no tenant behind for the next round.
                let _ = client.close(&name);
                let _ = std::fs::remove_dir_all(server.data_dir.join(format!("t-{name}")));
                if rounds.is_empty() {
                    break;
                }
            }
        }
        index += 1;
    }
    drop(client);
    server.stop()?;

    let first = rounds.first().ok_or_else(|| {
        format!(
            "no round completed: {}",
            failures.first().map_or("operations failed", String::as_str)
        )
    })?;
    let mut metrics = Metrics::default();
    if args.trace {
        for &(name, _, unit) in &traced[0].values {
            let values: Vec<f64> = traced
                .iter()
                .flat_map(|t| t.values.iter().filter(|v| v.0 == name).map(|v| v.1))
                .collect();
            metrics.put(name, median(&values), unit);
        }
    } else {
        // Every timing is a per-round figure taken at the slow quarter of the
        // run's rounds (the 75th percentile of times). Rounds repeat the same
        // work, and this machine alternates between its usual speed and
        // phases up to 1.5x faster that last seconds to a minute, so the
        // slow quarter tracks the usual speed whether or not a run caught a
        // fast phase (see the README).
        let per_round = |f: &dyn Fn(&Round) -> f64| {
            quantile(&rounds.iter().map(f).collect::<Vec<_>>(), SLOW_QUARTER)
        };
        metrics.put(
            "ingest_rows_per_s",
            workload.stream as f64 / per_round(&|r| r.stream_s),
            "rows/s",
        );
        // The mean, not the median, of a round's acks: on one CPU the ack
        // times of `ticks-rowwise` split into two modes, and a median that
        // flips between them moved 2x from round to round.
        metrics.put("ack_mean_ms", per_round(&|r| mean(&r.acks)) * 1e3, "ms");
        metrics.put("read_p50_us", per_round(&|r| median(&r.reads)) * 1e6, "us");
        metrics.put("recover_s", per_round(&|r| r.recover_s), "s");
        metrics.put(
            "wal_bytes_per_row",
            first.stats.wal_bytes as f64 / first.stats.wal_synced.max(1) as f64,
            "B/row",
        );
        metrics.put("peak_rss_mb", stats::peak_rss_mib(), "MiB");
        metrics.put(
            "setup_s",
            generate_s + bind_s + per_round(&|r| r.setup_s),
            "s",
        );
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: {} rounds of {} prefill + {} streamed rows, {} ops, {} failed",
        workload.name,
        args.seed,
        u8::from(args.trace),
        rounds.len(),
        workload.prefill,
        workload.stream,
        ops.attempted,
        ops.failed
    );
    for (name, value, unit) in &metrics.0 {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    for failure in &failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        ops.attempted,
        ops.failed,
        metrics.json()
    ))
}

/// Round 0 is checked against the independent recomputation; every later
/// round repeats round 0's inputs, so it must repeat its outputs exactly.
fn check_round(oracle: &Oracle, first: Option<&Round>, round: &Round) -> Result<(), String> {
    match first {
        None => oracle.check(&round.reports),
        Some(first) if first.reports != round.reports => {
            Err("reports differ from round 0 on identical inputs".to_string())
        }
        // The schema is named after the tenant, which differs per round.
        Some(first)
            if (ServerStats {
                schema: first.stats.schema.clone(),
                ..round.stats.clone()
            }) != first.stats =>
        {
            Err(format!(
                "STATS {:?} differ from round 0's {:?}",
                round.stats, first.stats
            ))
        }
        Some(_) => Ok(()),
    }
}

/// Runs the round's inputs through the real monitor in-process and through
/// the traced replica, checks both against the served reports and each
/// other, and derives the per-layer figures.
fn trace_round(
    workload: &Workload,
    rows: &[Row],
    oracle: &Oracle,
    round: &Round,
    dir: &Path,
    check_facts: bool,
) -> Result<TracedRound, String> {
    let ranges = workload.requests();
    let prefill = workload.prefill_requests();
    let stream_rows = workload.stream as f64;
    let stream_requests = (ranges.len() - prefill) as f64;

    // The real monitor, unspanned: the in-process time of each request.
    let mut inproc = InProcess::open(workload, &dir.join("inproc"))?;
    let mut inproc_reports = Vec::with_capacity(rows.len());
    let mut inproc_stream_s = 0.0;
    for (i, range) in ranges.iter().enumerate() {
        let (reports, secs) = inproc.ingest(&rows[range.clone()])?;
        inproc_reports.extend(reports);
        if i >= prefill {
            inproc_stream_s += secs;
        }
    }
    if inproc_reports != round.reports {
        return Err("in-process monitor reports differ from the served reports".to_string());
    }

    // The replica, spanned.
    let keep_full = if check_facts {
        oracle
            .sample()
            .into_iter()
            .map(|g| g as sitfact_core::TupleId)
            .collect()
    } else {
        Vec::new()
    };
    let replica_dir = dir.join("replica");
    let mut replica = Replica::create(workload, &replica_dir, keep_full)?;
    let mut replica_reports = Vec::with_capacity(rows.len());
    let mut stream = Spans::default();
    let mut whole = Spans::default();
    let (mut evicted, mut snapshots, mut facts_ranked) = (0u64, 0u64, 0u64);
    let mut prefill_work = replica.algorithm().work_stats();
    let mut replica_stream_s = 0.0;
    for (i, range) in ranges.iter().enumerate() {
        if i == prefill {
            prefill_work = replica.algorithm().work_stats();
        }
        let t = now();
        let (reports, trace) = replica.ingest(&rows[range.clone()])?;
        let secs = secs_since(t);
        replica_reports.extend(reports);
        whole.merge(&trace.spans);
        snapshots += trace.snapshots;
        if i >= prefill {
            replica_stream_s += secs;
            stream.merge(&trace.spans);
            evicted += trace.evicted;
            facts_ranked += trace.facts_ranked;
        }
    }
    // The replica's reports must equal the served ones before any of its
    // spans count.
    if replica_reports != round.reports {
        return Err("traced replica reports differ from the served reports".to_string());
    }
    if check_facts {
        for g in oracle.sample() {
            let facts = replica
                .full_facts
                .get(&(g as sitfact_core::TupleId))
                .ok_or(format!("replica kept no facts for arrival {g}"))?;
            oracle.check_all_facts(g, facts)?;
        }
    }

    let real = inproc.fact_monitor();
    let work = replica.algorithm().work_stats();
    let store = replica.algorithm().store_stats();
    let heap = replica.table().approx_heap_bytes();
    let wal = replica.wal_stats();
    if work != real.algorithm().work_stats()
        || store != real.algorithm().store_stats()
        || heap != real.table().approx_heap_bytes()
    {
        return Err("replica work or store counters differ from the real monitor's".to_string());
    }
    check_stats_match(&round.stats, replica.table(), &wal)?;
    drop(inproc);

    // Recovery of the replica's own log and snapshot.
    drop(replica);
    let (recovered, recover_snapshot_s, recover_replay_s) =
        Replica::recover(workload, &replica_dir)?;
    check_stats_match(&round.stats, recovered.table(), &recovered.wal_stats())?;
    drop(recovered);

    // The codecs on the real frames of the streamed requests.
    let mut decode_s = 0.0;
    let mut encode_s = 0.0;
    for range in &ranges[prefill..] {
        let raw: Vec<sitfact_serve::RawRow> = rows[range.clone()]
            .iter()
            .map(|r| sitfact_serve::RawRow {
                dims: r.dims.clone(),
                measures: r.measures.clone(),
            })
            .collect();
        let reports: Vec<ArrivalReport> = round.reports[range.clone()].to_vec();
        let (request, response) = if workload.batch == 1 {
            (
                Request::Ingest(raw.into_iter().next().ok_or("empty request")?),
                Response::Report(reports.into_iter().next().ok_or("empty request")?),
            )
        } else {
            (Request::IngestBatch(raw), Response::Reports(reports))
        };
        let frame = request.encode().map_err(|e| e.to_string())?;
        let t = now();
        let decoded = Request::decode(&frame).map_err(|e| e.to_string())?;
        decode_s += secs_since(t);
        let t = now();
        let encoded = response.encode();
        encode_s += secs_since(t);
        if decoded != request || Response::decode(&encoded).map_err(|e| e.to_string())? != response
        {
            return Err("a frame does not round-trip through its codec".to_string());
        }
    }

    let ack_s: f64 = round.acks.iter().sum();
    let transport_s = ack_s - inproc_stream_s;
    let layer_s = stream.leaf_sum();
    let per_row = |secs: f64| secs * 1e6 / stream_rows;
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e6 / n as f64 };
    let count_per_row = |n: u64| n as f64 / stream_rows;
    let values = vec![
        (
            "algos.discover_us",
            per_row(stream.get(Layer::Discover)),
            "us/row",
        ),
        (
            "algos.comparisons",
            count_per_row(work.comparisons - prefill_work.comparisons),
            "1/row",
        ),
        (
            "algos.traversed_constraints",
            count_per_row(work.traversed_constraints - prefill_work.traversed_constraints),
            "1/row",
        ),
        (
            "algos.store_reads",
            count_per_row(work.store_reads - prefill_work.store_reads),
            "1/row",
        ),
        (
            "algos.store_writes",
            count_per_row(work.store_writes - prefill_work.store_writes),
            "1/row",
        ),
        ("algos.store_bytes", store.approx_bytes as f64, "B"),
        (
            "algos.retract_us",
            per(stream.get(Layer::Retract), evicted),
            "us/row",
        ),
        (
            "prominence.rank_us",
            per_row(stream.get(Layer::Rank)),
            "us/row",
        ),
        (
            "prominence.facts_ranked",
            count_per_row(facts_ranked),
            "1/row",
        ),
        (
            "prominence.evict_us",
            per_row(stream.get(Layer::Evict)),
            "us/row",
        ),
        (
            "prominence.snapshot_export_us",
            per(whole.get(Layer::SnapshotExport), snapshots),
            "us",
        ),
        ("prominence.recover_snapshot_s", recover_snapshot_s, "s"),
        ("prominence.recover_replay_s", recover_replay_s, "s"),
        (
            "storage.intern_us",
            per_row(stream.get(Layer::Intern)),
            "us/row",
        ),
        (
            "storage.table_append_us",
            per_row(stream.get(Layer::TableAppend)),
            "us/row",
        ),
        (
            "storage.postings_compact_us",
            per_row(stream.get(Layer::PostingsCompact)),
            "us/row",
        ),
        (
            "storage.context_observe_us",
            per_row(stream.get(Layer::Observe)),
            "us/row",
        ),
        (
            "storage.context_forget_us",
            per(stream.get(Layer::Forget), evicted),
            "us/row",
        ),
        (
            "storage.compact_retracted_us",
            per_row(stream.get(Layer::CompactRetracted) + stream.get(Layer::RetractPrefix)),
            "us/row",
        ),
        ("storage.table_heap_bytes", heap as f64, "B"),
        (
            "storage.posting_comp_bytes",
            round.stats.compressed_bytes as f64,
            "B",
        ),
        ("storage.live_rows", round.stats.live_rows as f64, "count"),
        ("storage.tombstones", round.stats.tombstones as f64, "count"),
        (
            "storage.wal_append_us",
            per_row(stream.get(Layer::WalAppend)),
            "us/row",
        ),
        (
            "storage.snapshot_write_us",
            per(whole.get(Layer::SnapshotWrite), snapshots),
            "us",
        ),
        ("storage.wal_flushes", snapshots as f64, "count"),
        (
            "serve.request_decode_us",
            decode_s * 1e6 / stream_requests,
            "us/req",
        ),
        (
            "serve.response_encode_us",
            encode_s * 1e6 / stream_requests,
            "us/req",
        ),
        (
            "serve.transport_us",
            transport_s * 1e6 / stream_requests,
            "us/req",
        ),
        (
            "trace.layer_sum_over_e2e",
            (layer_s + transport_s) / ack_s,
            "ratio",
        ),
        (
            "trace.replica_over_inprocess",
            replica_stream_s / inproc_stream_s,
            "ratio",
        ),
    ];
    let counters = vec![
        work.comparisons,
        work.traversed_constraints,
        work.store_reads,
        work.store_writes,
        store.stored_entries,
        store.approx_bytes,
        heap as u64,
        wal.bytes,
        wal.durable_rows,
        evicted,
        snapshots,
        facts_ranked,
    ];
    Ok(TracedRound { values, counters })
}

/// The served tenant's `STATS` must agree with a replica's table and log.
fn check_stats_match(
    stats: &ServerStats,
    table: &sitfact_storage::Table,
    wal: &sitfact_storage::WalStats,
) -> Result<(), String> {
    let postings = table.posting_index_stats();
    let replica = (
        table.len() as u64,
        table.live_rows() as u64,
        table.tombstone_rows() as u64,
        table.evicted_rows() as u64,
        postings.sealed_blocks as u64,
        postings.compressed_bytes as u64,
        wal.durable_rows,
    );
    let served = (
        stats.len,
        stats.live_rows,
        stats.tombstones,
        stats.evicted,
        stats.sealed_blocks,
        stats.compressed_bytes,
        stats.wal_synced,
    );
    if replica != served {
        return Err(format!(
            "replica state {replica:?} differs from served STATS {served:?}"
        ));
    }
    Ok(())
}
