//! The `µ_{C,M}` skyline-tuple store abstraction.
//!
//! Every discovery algorithm of the paper conceptually maintains, for each
//! constraint–measure pair `(C, M)`, the set of tuples it has decided to keep
//! for that cell (all contextual skyline tuples for `BottomUp`-style
//! algorithms, only maximal-constraint occurrences for `TopDown`-style ones).
//! The [`SkylineStore`] trait captures the cell-level operations; it is
//! implemented by an in-memory backend and by the file-backed backend of the
//! paper's Section VI-C, so the same algorithm code runs over both.

use crate::stats::StoreStats;
use sitfact_core::{Constraint, DimValueId, Result, SitFactError, SubspaceMask, TupleId};
use std::sync::Arc;

/// One stored skyline tuple: its id plus a copy of its measure values.
///
/// Keeping the measures inline mirrors the paper's storage model (each cell
/// materialises its skyline tuples) and is what the file backend serialises;
/// it also spares the algorithms a table lookup per comparison. The measures
/// are reference-counted so that reading a large cell (skylines over 7
/// measures routinely hold thousands of tuples) costs a shallow copy per
/// entry rather than a heap allocation per entry.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEntry {
    /// Id of the tuple in the append-only table.
    pub id: TupleId,
    /// The tuple's measure values (all of them, regardless of the cell's
    /// subspace, so one entry layout serves every cell).
    pub measures: Arc<[f64]>,
}

impl StoredEntry {
    /// Creates an entry from a tuple id and its measures.
    pub fn new(id: TupleId, measures: &[f64]) -> Self {
        StoredEntry {
            id,
            measures: measures.into(),
        }
    }
}

/// One dumped cell of a [`SkylineStore`] in plain-data form: the constraint's
/// raw value ids, the subspace bits and the entries (id plus measures), as
/// produced by [`SkylineStore::dump_cells`] and consumed by
/// [`SkylineStore::load_cells`]. This is the serialization surface of the
/// durability layer — see `crate::wal::encode_cells`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreCell {
    /// The cell's constraint as raw dimension value ids
    /// ([`Constraint::values`]; `UNBOUND` marks free dimensions).
    pub constraint: Vec<DimValueId>,
    /// The cell's measure subspace bits ([`SubspaceMask`]`::0`).
    pub subspace: u32,
    /// The stored entries, in the cell's insertion order.
    pub entries: Vec<(TupleId, Vec<f64>)>,
}

/// Cell-level access to the skyline tuples stored per `(C, M)` pair.
///
/// All methods take `&mut self` because the file-backed implementation keeps
/// per-cell buffers and I/O counters that mutate even on reads.
pub trait SkylineStore {
    /// Whether the cells live on disk (the paper's Section VI-C backend).
    /// Algorithms generic over the store report the paper's `FS*` names for
    /// file-backed instantiations.
    const FILE_BACKED: bool = false;

    /// Reads the entries of cell `(constraint, subspace)`; the returned value
    /// is a snapshot (mutations go through [`SkylineStore::insert`] /
    /// [`SkylineStore::remove`], which copy-on-write under the hood), so the
    /// caller may keep iterating it while mutating the same cell. Reading a
    /// cell is O(1) for the in-memory backend.
    fn read(&mut self, constraint: &Constraint, subspace: SubspaceMask) -> Arc<Vec<StoredEntry>>;

    /// Inserts an entry into a cell. The caller guarantees the entry is not
    /// already present.
    fn insert(&mut self, constraint: &Constraint, subspace: SubspaceMask, entry: StoredEntry);

    /// Removes a tuple from a cell, returning whether it was present.
    fn remove(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool;

    /// Whether the cell contains the given tuple id.
    fn contains(&mut self, constraint: &Constraint, subspace: SubspaceMask, id: TupleId) -> bool;

    /// Storage statistics (entries, bytes, I/O counters).
    fn stats(&self) -> StoreStats;

    /// Removes every cell.
    fn clear(&mut self);

    /// Persists any buffered state (a no-op for purely in-memory backends;
    /// the file-backed store writes back its dirty cell buffer).
    fn flush(&mut self) {}

    /// Dumps every cell in plain-data form for a durability snapshot, or
    /// `None` when this backend does not support state export (the default —
    /// callers then fall back to full-log replay).
    fn dump_cells(&self) -> Option<Vec<StoreCell>> {
        None
    }

    /// Replaces this store's contents with previously dumped cells. The
    /// default refuses, matching the default [`SkylineStore::dump_cells`].
    fn load_cells(&mut self, _cells: Vec<StoreCell>) -> Result<()> {
        Err(SitFactError::InvalidConfig(
            "this skyline store does not support state import".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_entry_round_trip() {
        let e = StoredEntry::new(7, &[1.0, 2.0, 3.0]);
        assert_eq!(e.id, 7);
        assert_eq!(&*e.measures, &[1.0, 2.0, 3.0]);
        let f = e.clone();
        assert_eq!(e, f);
    }
}
