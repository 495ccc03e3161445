//! The three workloads: what is generated from the seed, how it is sent,
//! and how each tenant is configured.
//!
//! Every run repeats whole *rounds*. A round opens a fresh tenant, prefills
//! it, streams the same rows in the workload's request shape, then closes
//! and recovers it. Rounds are identical within a run, so per-request times
//! from different rounds are samples of the same work, and a run's medians
//! do not depend on how many rounds fitted into it.

use sitfact_core::{Direction, Schema};
use sitfact_datagen::nba::{NbaConfig, NbaGenerator};
use sitfact_datagen::stocks::{StockConfig, StockGenerator};
use sitfact_datagen::zipf::{ZipfConfig, ZipfGenerator};
use sitfact_datagen::{DataGenerator, Row};
use sitfact_serve::TenantSpec;

/// Which generator feeds a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Nba,
    Zipf,
    Ticks,
}

/// One workload's inputs and tenant configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    /// Rows sent before the measured stream, in `prefill_batch`-row frames.
    pub prefill: usize,
    pub prefill_batch: usize,
    /// Rows streamed per round, `batch` rows per ingest request
    /// (`batch == 1` sends `INGEST`, otherwise `INGEST_BATCH`).
    pub stream: usize,
    pub batch: usize,
    /// Every ingest is followed by `TOPK k`; with `stats_each` also `STATS`.
    pub stats_each: bool,
    pub top_k: usize,
    pub d_hat: u64,
    pub m_hat: u64,
    pub keep_top: u64,
    pub tau: f64,
    pub window: Option<u64>,
    /// Rows between full-state snapshots of the durable tenant.
    pub snapshot_every: u64,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["nba-batch", "zipf-window", "ticks-rowwise"];

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "",
            source: Source::Nba,
            prefill: 0,
            prefill_batch: 256,
            stream: 0,
            batch: 1,
            stats_each: false,
            top_k: 8,
            d_hat: 3,
            m_hat: 3,
            keep_top: 8,
            tau: 2.0,
            window: None,
            snapshot_every: 0,
        };
        let workload = match name {
            // Discovery and ranking dominate: ~200 candidate facts per
            // arrival over table-sized posting lists, 32 rows per request.
            "nba-batch" => Workload {
                name: "nba-batch",
                source: Source::Nba,
                prefill: 1024,
                stream: 1024,
                batch: 32,
                snapshot_every: 1664,
                ..base
            },
            // Once the window is full every batch evicts as many rows as it
            // adds, so retraction runs beside forward discovery.
            "zipf-window" => Workload {
                name: "zipf-window",
                source: Source::Zipf,
                prefill: 512,
                stream: 512,
                batch: 16,
                window: Some(384),
                snapshot_every: 832,
                ..base
            },
            // Cheap discovery, one row per request: frame coding, the owner
            // hand-off, snapshot publish and the per-row WAL frame show.
            "ticks-rowwise" => Workload {
                name: "ticks-rowwise",
                source: Source::Ticks,
                prefill: 2048,
                stream: 1024,
                batch: 1,
                stats_each: true,
                d_hat: 2,
                m_hat: 2,
                snapshot_every: 2048,
                ..base
            },
            _ => return None,
        };
        Some(workload)
    }

    fn generator(&self, seed: u64) -> Box<dyn DataGenerator> {
        match self.source {
            Source::Nba => Box::new(NbaGenerator::new(NbaConfig {
                dimensions: 5,
                measures: 4,
                seed,
                ..NbaConfig::default()
            })),
            Source::Zipf => Box::new(ZipfGenerator::new(ZipfConfig {
                seed,
                ..ZipfConfig::default()
            })),
            Source::Ticks => Box::new(StockGenerator::new(StockConfig {
                seed,
                ..StockConfig::default()
            })),
        }
    }

    /// The schema the generated rows conform to.
    pub fn schema(&self) -> Schema {
        self.generator(0).schema().clone()
    }

    /// The round's rows (prefill then stream), a pure function of `seed`.
    pub fn rows(&self, seed: u64) -> Vec<Row> {
        self.generator(seed).take_rows(self.prefill + self.stream)
    }

    /// Row ranges of every ingest request of a round, in send order.
    pub fn requests(&self) -> Vec<std::ops::Range<usize>> {
        let chunks = |start: usize, len: usize, size: usize| {
            (start..start + len)
                .step_by(size)
                .map(move |s| s..(s + size).min(start + len))
        };
        chunks(0, self.prefill, self.prefill_batch)
            .chain(chunks(self.prefill, self.stream, self.batch))
            .collect()
    }

    /// Number of prefill requests at the head of [`Workload::requests`].
    pub fn prefill_requests(&self) -> usize {
        self.prefill.div_ceil(self.prefill_batch)
    }

    /// The wire spec of a tenant named `name`.
    pub fn spec(&self, name: &str) -> TenantSpec {
        let schema = self.schema();
        let dims: Vec<&str> = schema
            .dimension_names()
            .iter()
            .map(|d| d.as_str())
            .collect();
        let measures: Vec<(&str, Direction)> = schema
            .measures()
            .iter()
            .map(|m| (m.name.as_str(), m.direction))
            .collect();
        let mut spec = TenantSpec::new(name, &dims, &measures, self.tau);
        spec.keep_top = Some(self.keep_top);
        spec.d_hat = Some(self.d_hat);
        spec.m_hat = Some(self.m_hat);
        spec.window = self.window;
        spec
    }
}
