//! Cross-crate equivalence tests: every discovery algorithm must produce the
//! same fact stream as the brute-force reference on realistic generated
//! workloads (NBA, weather, and generic anti-correlated data).

use sitfact_core::pair::canonical_sort;
use situational_facts::datagen::generic::{Correlation, GenericConfig, GenericGenerator};
use situational_facts::datagen::nba::{NbaConfig, NbaGenerator};
use situational_facts::datagen::weather::{WeatherConfig, WeatherGenerator};
use situational_facts::datagen::{encode_row, DataGenerator};
use situational_facts::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A file-store directory owned by one call of
/// [`assert_all_algorithms_agree`], removed when dropped — also when an
/// assertion panics.
///
/// The test runner executes tests on parallel threads of one process, and a
/// `FileSkylineStore` directory must be owned by one live store at a time, so
/// the name combines the process id with a process-wide call counter: two
/// tests streaming the same schema never share (or delete) each other's cell
/// files.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("sitfact-eq-{tag}-{}-{call}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Streams `n` rows from `generator` through every algorithm and asserts that
/// each produces exactly the brute-force fact set at every arrival.
fn assert_all_algorithms_agree<G: DataGenerator>(
    mut generator: G,
    n: usize,
    config: DiscoveryConfig,
) {
    let schema = generator.schema().clone();
    let mut table = Table::new(schema.clone());

    let mut reference = BruteForce::new(&schema, config);
    // Declared before `algorithms` so the stores (which flush on drop) go
    // first and the directories are removed after them.
    let fs_dir_bu = ScratchDir::new("bu");
    let fs_dir_td = ScratchDir::new("td");

    let mut algorithms: Vec<Box<dyn Discovery>> = vec![
        Box::new(BaselineSeq::new(&schema, config)),
        Box::new(BaselineIdx::new(&schema, config)),
        Box::new(CCsc::new(&schema, config)),
        Box::new(BottomUp::new(&schema, config)),
        Box::new(TopDown::new(&schema, config)),
        Box::new(SBottomUp::new(&schema, config)),
        Box::new(STopDown::new(&schema, config)),
        Box::new(FsBottomUp::with_store(
            &schema,
            config,
            FileSkylineStore::new(&fs_dir_bu.0).unwrap(),
        )),
        Box::new(FsTopDown::with_store(
            &schema,
            config,
            FileSkylineStore::new(&fs_dir_td.0).unwrap(),
        )),
    ];

    for step in 0..n {
        let row = generator.next_row();
        let tuple = encode_row(&mut table, &row).expect("row encodes");
        let mut expected = reference.discover(&table, &tuple);
        canonical_sort(&mut expected);
        for algo in algorithms.iter_mut() {
            let mut actual = algo.discover(&table, &tuple);
            canonical_sort(&mut actual);
            assert_eq!(
                expected,
                actual,
                "{} diverged from BruteForce at tuple {} of {}",
                algo.name(),
                step,
                schema.name()
            );
        }
        table.append(tuple).unwrap();
    }
}

#[test]
fn all_algorithms_agree_on_nba_stream() {
    let generator = NbaGenerator::new(NbaConfig {
        dimensions: 4,
        measures: 3,
        players: 25,
        teams: 6,
        seasons: 2,
        games_per_season: 60,
        seed: 424_242,
    });
    assert_all_algorithms_agree(generator, 90, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_on_nba_stream_with_caps() {
    let generator = NbaGenerator::new(NbaConfig {
        dimensions: 5,
        measures: 4,
        players: 20,
        teams: 5,
        seasons: 2,
        games_per_season: 40,
        seed: 31_337,
    });
    assert_all_algorithms_agree(generator, 60, DiscoveryConfig::capped(3, 3));
}

#[test]
fn all_algorithms_agree_on_weather_stream() {
    let generator = WeatherGenerator::new(WeatherConfig {
        dimensions: 4,
        measures: 3,
        locations: 15,
        records_per_day: 15,
        seed: 55,
    });
    assert_all_algorithms_agree(generator, 80, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_on_anticorrelated_workload() {
    // Anti-correlated measures maximise skyline sizes — the stress case for
    // store maintenance (demotions in TopDown, deletions in BottomUp).
    let generator = GenericGenerator::new(GenericConfig {
        dim_cardinalities: vec![3, 3, 2],
        measures: 3,
        correlation: Correlation::AntiCorrelated,
        seed: 77,
    });
    assert_all_algorithms_agree(generator, 80, DiscoveryConfig::unrestricted());
}

#[test]
fn all_algorithms_agree_with_duplicate_heavy_workload() {
    // Many exactly-equal measure vectors exercise the tie-handling paths of
    // the dominance relation (equal tuples never dominate each other).
    let generator = GenericGenerator::new(GenericConfig {
        dim_cardinalities: vec![2, 2],
        measures: 2,
        correlation: Correlation::Correlated,
        seed: 88,
    });
    // Quantise measures to a handful of values by regenerating rows.
    struct Quantised<G>(G);
    impl<G: DataGenerator> DataGenerator for Quantised<G> {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn next_row(&mut self) -> Row {
            let mut row = self.0.next_row();
            for m in &mut row.measures {
                *m = (*m / 250.0).round();
            }
            row
        }
    }
    assert_all_algorithms_agree(Quantised(generator), 100, DiscoveryConfig::unrestricted());
}
