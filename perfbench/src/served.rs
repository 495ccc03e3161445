//! The served path: an in-process `FactServer` on loopback with one
//! connection worker and one owner thread, driven by one blocking client in
//! a closed loop (each request is sent after the previous reply arrived).

use crate::replica::{monitor_config, wal_options};
use crate::stats::{now, secs_since};
use crate::workload::Workload;
use sitfact_algos::STopDown;
use sitfact_core::ThreadPool;
use sitfact_datagen::Row;
use sitfact_prominence::{ArrivalReport, FactMonitor, StreamMonitor};
use sitfact_serve::{Client, FactServer, RawRow, ServeError, ServerHandle, ServerStats};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

/// Operations attempted and failed over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn run<T>(&mut self, call: impl FnOnce() -> Result<T, ServeError>) -> Result<T, String> {
        self.attempted += 1;
        call().map_err(|e| {
            self.failed += 1;
            e.to_string()
        })
    }
}

pub struct Server {
    handle: ServerHandle,
    pool: ThreadPool,
    done: mpsc::Receiver<std::io::Result<()>>,
    pub data_dir: PathBuf,
}

impl Server {
    /// Binds a durable server on an ephemeral loopback port, its accept loop
    /// on a one-thread pool.
    pub fn start(workload: &Workload, data_dir: &Path) -> Result<Server, String> {
        let schema = workload.schema();
        let config = monitor_config(workload);
        let default_tenant: Box<dyn StreamMonitor + Send> = Box::new(FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        ));
        let server = FactServer::builder()
            .with_workers(1)
            .with_owners(1)
            .with_data_dir(data_dir)
            .with_wal(wal_options(workload))
            .bind("127.0.0.1:0", default_tenant)
            .map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let pool = ThreadPool::new(1);
        let (tx, done) = mpsc::channel();
        pool.execute(move || {
            let _ = tx.send(server.run());
        });
        Ok(Server {
            handle,
            pool,
            done,
            data_dir: data_dir.to_path_buf(),
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the accept loop and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        drop(self.pool);
        match self.done.recv() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server run: {e}")),
            Err(_) => Err("server thread ended without a result".to_string()),
        }
    }
}

/// What one served round measured and returned.
#[derive(Debug, Clone)]
pub struct Round {
    /// One report per row, prefill included.
    pub reports: Vec<ArrivalReport>,
    /// `OPEN` plus the prefill, in seconds.
    pub setup_s: f64,
    /// Round trip of every streamed ingest request, in seconds.
    pub acks: Vec<f64>,
    /// Round trip of every `TOPK` after a streamed ingest, in seconds.
    pub reads: Vec<f64>,
    /// Wall time of the streamed part, reads included, in seconds.
    pub stream_s: f64,
    /// The re-`OPEN` after `CLOSE`, in seconds.
    pub recover_s: f64,
    /// `STATS` at the end of the stream (equal after recovery).
    pub stats: ServerStats,
}

/// Wire rows of every request of a round, built once per run.
pub fn wire_requests(workload: &Workload, rows: &[Row]) -> Vec<Vec<RawRow>> {
    workload
        .requests()
        .into_iter()
        .map(|range| {
            rows[range]
                .iter()
                .map(|row| RawRow {
                    dims: row.dims.clone(),
                    measures: row.measures.clone(),
                })
                .collect()
        })
        .collect()
}

/// `report` as `TOPK k` serves it.
pub fn top_of(report: &ArrivalReport, k: usize) -> ArrivalReport {
    let mut top = report.clone();
    top.facts.truncate(k);
    top.prominent_count = top.prominent_count.min(k);
    top
}

/// One round on a fresh tenant named `name`: `OPEN` + prefill, the measured
/// stream, then `CLOSE` + `OPEN` (recovery) with its before/after checks,
/// then `CLOSE` and removal of the tenant's directory.
pub fn round(
    client: &mut Client,
    ops: &mut Ops,
    server: &Server,
    workload: &Workload,
    requests: &[Vec<RawRow>],
    name: &str,
) -> Result<Round, String> {
    let spec = workload.spec(name);
    let k = workload.top_k;
    let prefill = workload.prefill_requests();
    let mut reports = Vec::with_capacity(workload.prefill + workload.stream);

    let t = now();
    ops.run(|| client.open(&spec))?;
    ops.run(|| client.use_tenant(name))?;
    for rows in &requests[..prefill] {
        reports.extend(ops.run(|| client.ingest_batch(rows.clone()))?);
    }
    let setup_s = secs_since(t);

    let mut acks = Vec::with_capacity(requests.len() - prefill);
    let mut reads = Vec::with_capacity(requests.len() - prefill);
    let stream_start = now();
    for rows in &requests[prefill..] {
        if workload.batch == 1 {
            let row = &rows[0];
            let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
            let t = now();
            let report = ops.run(|| client.ingest(&dims, &row.measures))?;
            acks.push(secs_since(t));
            reports.push(report);
        } else {
            let batch = rows.clone();
            let t = now();
            let got = ops.run(|| client.ingest_batch(batch))?;
            acks.push(secs_since(t));
            reports.extend(got);
        }
        let t = now();
        let top = ops.run(|| client.top_k(k))?;
        reads.push(secs_since(t));
        let last = reports.last().ok_or("no report")?;
        if top != top_of(last, k) {
            return Err(format!(
                "TOPK after arrival {} differs from its ack",
                last.tuple_id
            ));
        }
        if workload.stats_each {
            let stats = ops.run(|| client.stats())?;
            if stats.len != reports.len() as u64 {
                return Err(format!(
                    "STATS len {} after {} rows",
                    stats.len,
                    reports.len()
                ));
            }
        }
    }
    let stream_s = secs_since(stream_start);

    let stats = ops.run(|| client.stats())?;
    let top = ops.run(|| client.top_k(k))?;
    ops.run(|| client.close(name))?;
    let t = now();
    ops.run(|| client.open(&spec))?;
    let recover_s = secs_since(t);
    ops.run(|| client.use_tenant(name))?;
    let stats_after = ops.run(|| client.stats())?;
    let top_after = ops.run(|| client.top_k(k))?;
    ops.run(|| client.close(name))?;
    if stats_after != stats {
        return Err(format!(
            "STATS after recovery differ: {stats_after:?} vs {stats:?}"
        ));
    }
    if top_after != top {
        return Err("TOPK after recovery differs from before CLOSE".to_string());
    }
    // Tenant directories are named `t-<name>` for names made of
    // `[A-Za-z0-9._-]` (the serve crate's documented layout).
    let dir = server.data_dir.join(format!("t-{name}"));
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    Ok(Round {
        reports,
        setup_s,
        acks,
        reads,
        stream_s,
        recover_s,
        stats,
    })
}
