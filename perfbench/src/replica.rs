//! The traced run: the served tenant's ingest pipeline rebuilt from each
//! layer's public calls, with a span around every call.
//!
//! A served tenant is `DurableMonitor<WindowedMonitor<FactMonitor<STopDown>>>`
//! (the window wrapper only when the tenant has a window). [`Replica`]
//! performs the same calls in the same order — WAL append, table append,
//! per-arrival discovery / counter observe / ranking, postings compaction,
//! window eviction, periodic snapshot — so its reports must equal the served
//! ones, which the caller asserts before any span counts. [`InProcess`] runs
//! the real library monitor without spans; its per-request time is what the
//! served acknowledgement is compared against.
//!
//! The replica sees only what the library exposes. A change that recomposes
//! `FactMonitor::ingest_batch_slice` or the durable wrapper must be mirrored
//! here, or the equality assertion fails.

use crate::stats::now;
use crate::workload::Workload;
use sitfact_algos::{Discovery, STopDown};
use sitfact_core::{DiscoveryConfig, Schema, Tuple, TupleId};
use sitfact_datagen::Row;
use sitfact_prominence::{
    ArrivalReport, DurableMonitor, FactMonitor, MonitorConfig, RankedFact, StreamMonitor,
    SyncPolicy, WalOptions, WindowPolicy, WindowedMonitor,
};
use sitfact_storage::{wal, ArrivalLog, ContextCounter, LoggedRow, Table, WindowRecord};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Segment size of every tenant log: the server default, so a round never
/// rotates a segment (see the benchmark README).
pub const SEGMENT_BYTES: u64 = 4 * 1024 * 1024;

/// The WAL policy of every tenant: flushing is left to the OS, so fsync
/// latency (a property of the disk) stays out of the measurement.
pub fn wal_options(workload: &Workload) -> WalOptions {
    WalOptions::default()
        .with_sync(SyncPolicy::Os)
        .with_snapshot_every(workload.snapshot_every)
        .with_segment_bytes(SEGMENT_BYTES)
}

pub fn monitor_config(workload: &Workload) -> MonitorConfig {
    MonitorConfig {
        discovery: DiscoveryConfig::capped(workload.d_hat as usize, workload.m_hat as usize),
        tau: workload.tau,
        keep_top: Some(workload.keep_top as usize),
    }
}

/// The spanned calls. Leaves partition a request's in-process time; `Evict`
/// encloses the eviction leaves and is reported on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Intern,
    WalAppend,
    TableAppend,
    Discover,
    Observe,
    Rank,
    PostingsCompact,
    RetractPrefix,
    Forget,
    Retract,
    CompactRetracted,
    SnapshotExport,
    SnapshotWrite,
    Evict,
}

const LAYERS: usize = 14;
const LEAVES: [Layer; 13] = [
    Layer::Intern,
    Layer::WalAppend,
    Layer::TableAppend,
    Layer::Discover,
    Layer::Observe,
    Layer::Rank,
    Layer::PostingsCompact,
    Layer::RetractPrefix,
    Layer::Forget,
    Layer::Retract,
    Layer::CompactRetracted,
    Layer::SnapshotExport,
    Layer::SnapshotWrite,
];

/// Accumulated span time (seconds) per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    secs: [f64; LAYERS],
}

impl Spans {
    fn add(&mut self, layer: Layer, start: Instant) {
        self.secs[layer as usize] += start.elapsed().as_secs_f64();
    }

    pub fn get(&self, layer: Layer) -> f64 {
        self.secs[layer as usize]
    }

    /// Sum over the leaf layers: the in-process time the spans account for.
    pub fn leaf_sum(&self) -> f64 {
        LEAVES.iter().map(|&l| self.get(l)).sum()
    }

    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in self.secs.iter_mut().zip(other.secs) {
            *a += b;
        }
    }
}

/// What one replica request did besides its reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTrace {
    pub spans: Spans,
    pub evicted: u64,
    pub snapshots: u64,
    pub facts_ranked: u64,
}

/// `FactMonitor::encode_raw`: intern the dimension strings, validate.
fn encode(schema: &mut Schema, dims: &[String], measures: &[f64]) -> Result<Tuple, String> {
    let dims: Vec<&str> = dims.iter().map(String::as_str).collect();
    let ids = schema.intern_dims(&dims).map_err(|e| e.to_string())?;
    Tuple::validated(ids, measures.to_vec(), schema).map_err(|e| e.to_string())
}

/// The traced replica of a served durable tenant.
pub struct Replica {
    table: Table,
    counter: ContextCounter,
    algorithm: STopDown,
    config: MonitorConfig,
    window: Option<usize>,
    log: ArrivalLog,
    dir: PathBuf,
    snapshot_every: u64,
    rows_since_snapshot: u64,
    /// Untruncated facts of the arrivals listed in `keep_full`.
    pub full_facts: HashMap<TupleId, Vec<RankedFact>>,
    keep_full: Vec<TupleId>,
}

impl Replica {
    /// A fresh replica logging into `dir` (created; must not hold a log).
    pub fn create(
        workload: &Workload,
        dir: &Path,
        keep_full: Vec<TupleId>,
    ) -> Result<Self, String> {
        let schema = workload.schema();
        let config = monitor_config(workload);
        let (log, scanned) =
            ArrivalLog::open(dir, SyncPolicy::Os, SEGMENT_BYTES).map_err(|e| e.to_string())?;
        if !scanned.windows.is_empty() {
            return Err(format!("replica log {} is not empty", dir.display()));
        }
        let counter = ContextCounter::new(
            schema.num_dimensions(),
            config.discovery.effective_d_hat(&schema),
        );
        let algorithm = STopDown::new(&schema, config.discovery);
        let mut replica =
            Replica::assemble(workload, dir, Table::new(schema), counter, algorithm, log);
        replica.keep_full = keep_full;
        Ok(replica)
    }

    fn assemble(
        workload: &Workload,
        dir: &Path,
        table: Table,
        counter: ContextCounter,
        algorithm: STopDown,
        log: ArrivalLog,
    ) -> Replica {
        Replica {
            table,
            counter,
            algorithm,
            config: monitor_config(workload),
            window: workload.window.map(|w| w as usize),
            log,
            dir: dir.to_path_buf(),
            snapshot_every: workload.snapshot_every,
            rows_since_snapshot: 0,
            full_facts: HashMap::new(),
            keep_full: Vec::new(),
        }
    }

    pub fn table(&self) -> &Table {
        &self.table
    }

    pub fn algorithm(&self) -> &STopDown {
        &self.algorithm
    }

    pub fn wal_stats(&self) -> sitfact_storage::WalStats {
        self.log.stats()
    }

    /// One ingest request: log, then the batched monitor pipeline, then the
    /// window and snapshot boundaries — the durable tenant's order.
    pub fn ingest(&mut self, rows: &[Row]) -> Result<(Vec<ArrivalReport>, RequestTrace), String> {
        let mut trace = RequestTrace::default();
        let t = now();
        let mut tuples = Vec::with_capacity(rows.len());
        for row in rows {
            tuples.push(encode(self.table.schema_mut(), &row.dims, &row.measures)?);
        }
        trace.spans.add(Layer::Intern, t);

        // `DurableMonitor::log_and_ingest`: validate each tuple, render it
        // back to raw strings, append the window before applying it.
        let t = now();
        let schema = self.table.schema();
        let mut logged = Vec::with_capacity(tuples.len());
        for tuple in &tuples {
            tuple.validate(schema).map_err(|e| e.to_string())?;
            let dims = tuple
                .dims()
                .iter()
                .enumerate()
                .map(|(d, &id)| schema.resolve_dim(d, id).map(str::to_string))
                .collect::<Option<Vec<String>>>()
                .ok_or("a dimension id has no dictionary entry")?;
            logged.push(LoggedRow {
                dims,
                measures: tuple.measures().to_vec(),
            });
        }
        let record = WindowRecord {
            first_id: self.table.len() as u64,
            rows: logged,
        };
        self.log.append(&record).map_err(|e| e.to_string())?;
        trace.spans.add(Layer::WalAppend, t);

        let reports = self.apply(&tuples, &mut trace)?;

        self.rows_since_snapshot += rows.len() as u64;
        if self.rows_since_snapshot >= self.snapshot_every {
            self.snapshot(&mut trace)?;
        }
        Ok((reports, trace))
    }

    /// `FactMonitor::ingest_batch_slice` followed by the window's
    /// batch-boundary eviction.
    fn apply(
        &mut self,
        tuples: &[Tuple],
        trace: &mut RequestTrace,
    ) -> Result<Vec<ArrivalReport>, String> {
        let first = self.table.next_id();
        let t = now();
        self.table
            .append_batch_slice(tuples)
            .map_err(|e| e.to_string())?;
        trace.spans.add(Layer::TableAppend, t);

        let t = now();
        self.algorithm.begin_batch(tuples.len());
        trace.spans.add(Layer::Discover, t);
        let mut reports = Vec::with_capacity(tuples.len());
        for (i, tuple) in tuples.iter().enumerate() {
            let tuple_id = first + i as TupleId;
            let t = now();
            let pairs = self.algorithm.discover_at(&self.table, tuple, tuple_id);
            trace.spans.add(Layer::Discover, t);

            let t = now();
            self.counter.observe(self.table.tuple(tuple_id));
            trace.spans.add(Layer::Observe, t);

            let t = now();
            trace.facts_ranked += pairs.len() as u64;
            reports.push(self.rank(tuple_id, pairs));
            trace.spans.add(Layer::Rank, t);
        }
        let t = now();
        self.algorithm.end_batch();
        trace.spans.add(Layer::Discover, t);

        let t = now();
        self.table.compact_postings();
        trace.spans.add(Layer::PostingsCompact, t);

        if let Some(window) = self.window {
            let total = self.table.len();
            if total > window {
                let t = now();
                trace.evicted += self.evict((total - window) as TupleId, trace)? as u64;
                trace.spans.add(Layer::Evict, t);
            }
        }
        Ok(reports)
    }

    /// `FactMonitor::evict_prefix`.
    fn evict(&mut self, up_to: TupleId, trace: &mut RequestTrace) -> Result<usize, String> {
        let start = self.table.watermark();
        let t = now();
        let newly = self.table.retract_prefix(up_to as usize);
        trace.spans.add(Layer::RetractPrefix, t);
        for id in start..start + newly as TupleId {
            let t = now();
            self.counter.forget(self.table.tuple(id));
            trace.spans.add(Layer::Forget, t);
            let t = now();
            self.algorithm
                .retract(&self.table, id)
                .map_err(|e| e.to_string())?;
            trace.spans.add(Layer::Retract, t);
        }
        if newly > 0 && self.table.tombstone_rows() >= self.table.live_rows() {
            let t = now();
            self.table.compact_retracted();
            trace.spans.add(Layer::CompactRetracted, t);
        }
        Ok(newly)
    }

    /// `FactMonitor::rank_arrival`.
    fn rank(&mut self, tuple_id: TupleId, pairs: Vec<sitfact_core::SkylinePair>) -> ArrivalReport {
        let limit = tuple_id + 1;
        let mut facts: Vec<RankedFact> = pairs
            .into_iter()
            .map(|pair| {
                let context_size = self.counter.cardinality(&pair.constraint);
                let skyline_size = self.algorithm.skyline_cardinality_at(
                    &self.table,
                    &pair.constraint,
                    pair.subspace,
                    limit,
                ) as u64;
                RankedFact {
                    pair,
                    context_size,
                    skyline_size,
                }
            })
            .collect();
        facts.sort_by(RankedFact::ranking_cmp);
        if self.keep_full.contains(&tuple_id) {
            self.full_facts.insert(tuple_id, facts.clone());
        }
        let max = facts.first().map(RankedFact::prominence).unwrap_or(0.0);
        let prominent_count = if max >= self.config.tau {
            facts
                .iter()
                .take_while(|f| (f.prominence() - max).abs() < f64::EPSILON)
                .count()
        } else {
            0
        };
        if let Some(keep) = self.config.keep_top {
            facts.truncate(keep.max(prominent_count));
        }
        ArrivalReport {
            tuple_id,
            facts,
            prominent_count,
        }
    }

    /// `DurableMonitor::snapshot_now`: export the table and store cells,
    /// write them with a temp-file / fsync / rename, retire covered log
    /// segments. (The durable wrapper also stores the last report; the
    /// replica keeps it in memory instead.)
    fn snapshot(&mut self, trace: &mut RequestTrace) -> Result<(), String> {
        let t = now();
        let cells = self
            .algorithm
            .export_store_cells()
            .ok_or("STopDown exports no store cells")?;
        let mut blob = Vec::new();
        wal::put_u64(&mut blob, self.table.len() as u64);
        wal::encode_table(&self.table, &mut blob);
        wal::encode_cells(&cells, &mut blob);
        trace.spans.add(Layer::SnapshotExport, t);

        let t = now();
        let tmp = self.dir.join("snapshot.tmp");
        let mut file = std::fs::File::create(&tmp).map_err(|e| e.to_string())?;
        wal::write_frame(&mut file, &blob).map_err(|e| e.to_string())?;
        file.flush().map_err(|e| e.to_string())?;
        file.sync_data().map_err(|e| e.to_string())?;
        std::fs::rename(&tmp, self.dir.join("snapshot.bin")).map_err(|e| e.to_string())?;
        self.log
            .retire_covered(self.table.len() as u64)
            .map_err(|e| e.to_string())?;
        trace.spans.add(Layer::SnapshotWrite, t);
        trace.snapshots += 1;
        self.rows_since_snapshot = 0;
        Ok(())
    }

    /// `DurableMonitor::open` on the replica's directory: restore the
    /// snapshot (timed as the first value), then replay the log suffix
    /// behind it through the same pipeline (the second value).
    pub fn recover(workload: &Workload, dir: &Path) -> Result<(Replica, f64, f64), String> {
        let t = now();
        let bytes = std::fs::read(dir.join("snapshot.bin")).map_err(|e| e.to_string())?;
        let (frames, _) = wal::scan_frames(&bytes);
        let payload = frames.first().ok_or("snapshot holds no frame")?;
        let mut cur = wal::ByteCursor::new(payload);
        let covered = cur.get_u64().map_err(|e| e.to_string())?;
        let table = wal::decode_table(&mut cur).map_err(|e| e.to_string())?;
        let cells = wal::decode_cells(&mut cur).map_err(|e| e.to_string())?;
        let config = monitor_config(workload);
        let mut algorithm = STopDown::new(table.schema(), config.discovery);
        algorithm
            .import_store_cells(cells)
            .map_err(|e| e.to_string())?;
        let mut counter = ContextCounter::new(
            table.schema().num_dimensions(),
            config.discovery.effective_d_hat(table.schema()),
        );
        counter.observe_batch(table.iter().map(|(_, view)| view));
        let snapshot_s = crate::stats::secs_since(t);

        let t = now();
        let (log, scanned) =
            ArrivalLog::open(dir, SyncPolicy::Os, SEGMENT_BYTES).map_err(|e| e.to_string())?;
        let mut replica = Replica::assemble(workload, dir, table, counter, algorithm, log);
        let mut trace = RequestTrace::default();
        for window in &scanned.windows {
            if window.first_id + window.rows.len() as u64 <= covered {
                continue;
            }
            let mut tuples = Vec::with_capacity(window.rows.len());
            for row in &window.rows {
                tuples.push(encode(
                    replica.table.schema_mut(),
                    &row.dims,
                    &row.measures,
                )?);
            }
            replica.apply(&tuples, &mut trace)?;
            replica.rows_since_snapshot += tuples.len() as u64;
        }
        Ok((replica, snapshot_s, crate::stats::secs_since(t)))
    }
}

/// The tenant monitor the server builds, run in-process without spans.
pub type Tenant = DurableMonitor<WindowedMonitor<FactMonitor<STopDown>>>;

pub struct InProcess {
    monitor: Tenant,
}

impl InProcess {
    pub fn open(workload: &Workload, dir: &Path) -> Result<Self, String> {
        let schema = workload.schema();
        let config = monitor_config(workload);
        let inner = FactMonitor::new(
            schema.clone(),
            STopDown::new(&schema, config.discovery),
            config,
        );
        let policy = WindowPolicy::from_limit(workload.window).map_err(|e| e.to_string())?;
        let (monitor, _) = DurableMonitor::open(
            dir,
            WindowedMonitor::new(inner, policy),
            wal_options(workload),
        )
        .map_err(|e| e.to_string())?;
        Ok(InProcess { monitor })
    }

    /// One request as the server's owner runs it: encode every row, then
    /// one batched ingest. Returns the reports and the elapsed seconds.
    pub fn ingest(&mut self, rows: &[Row]) -> Result<(Vec<ArrivalReport>, f64), String> {
        let t = now();
        let mut tuples = Vec::with_capacity(rows.len());
        for row in rows {
            let dims: Vec<&str> = row.dims.iter().map(String::as_str).collect();
            tuples.push(
                self.monitor
                    .encode_raw(&dims, row.measures.clone())
                    .map_err(|e| e.to_string())?,
            );
        }
        let reports = self
            .monitor
            .ingest_batch(tuples)
            .map_err(|e| e.to_string())?;
        Ok((reports, crate::stats::secs_since(t)))
    }

    pub fn fact_monitor(&self) -> &FactMonitor<STopDown> {
        self.monitor.inner().inner()
    }
}
