//! A named-table catalog with interior mutability.
//!
//! Tables are stored behind `Arc` so scans are zero-copy snapshots; the
//! MPP layer gives each segment its own `Catalog`.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use probkb_support::sync::RwLock;

use crate::btree_index::BTreeIndex;
use crate::colstore::CHUNK_ROWS;
use crate::error::{Error, Result};
use crate::index::HashIndex;
use crate::schema::Schema;
use crate::spill::{process_default, SpillPolicy};
use crate::stats::TableStats;
use crate::table::{Row, Table};
use crate::value::Value;

/// A collection of named tables.
///
/// Alongside the tables themselves the catalog maintains planner
/// statistics ([`TableStats`]): computed lazily on first use (or via
/// [`Catalog::analyze`]), updated incrementally on inserts, and
/// invalidated by deletes and table replacement so they rebuild fresh.
///
/// It also holds secondary [`HashIndex`]es ([`Catalog::build_index`])
/// and disk-resident [`BTreeIndex`]es ([`Catalog::build_btree_index`]):
/// the executor probes a matching index instead of re-hashing a large
/// build side on every join over the same table. Indexes are maintained
/// incrementally by the append entry points and dropped by any mutation
/// that rewrites or removes rows, so a cached index is never stale.
///
/// When a [`SpillPolicy`] is active (the process default from
/// `PROBKB_SPILL_ROWS`, or one set via [`Catalog::set_spill_policy`]),
/// every mutation entry point re-evaluates the table's placement: tables
/// at or above the row threshold move out of core, and spilled tables
/// flush full chunks from their tails. Placement never changes results.
#[derive(Debug)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    stats: RwLock<HashMap<String, Arc<TableStats>>>,
    indexes: RwLock<HashMap<String, Vec<Arc<HashIndex>>>>,
    btree_indexes: RwLock<HashMap<String, Vec<Arc<BTreeIndex>>>>,
    spill: RwLock<Option<SpillPolicy>>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog, adopting the process-default spill policy.
    pub fn new() -> Self {
        Catalog {
            tables: RwLock::new(HashMap::new()),
            stats: RwLock::new(HashMap::new()),
            indexes: RwLock::new(HashMap::new()),
            btree_indexes: RwLock::new(HashMap::new()),
            spill: RwLock::new(process_default()),
        }
    }

    /// The catalog's spill policy, if any.
    pub fn spill_policy(&self) -> Option<SpillPolicy> {
        self.spill.read().clone()
    }

    /// Replace the catalog's spill policy (`None` keeps every table in
    /// memory from now on; already-spilled tables stay spilled).
    pub fn set_spill_policy(&self, policy: Option<SpillPolicy>) {
        *self.spill.write() = policy;
    }

    /// Re-evaluate one table's placement under the current policy:
    /// spill it when it crossed the threshold, or flush full chunks out
    /// of a spilled table's tail. Spill failures are non-fatal — the
    /// table simply stays (correct) in memory.
    fn maybe_spill(&self, name: &str) {
        let Some(policy) = self.spill_policy() else {
            return;
        };
        let mut guard = self.tables.write();
        let Some(slot) = guard.get_mut(name) else {
            return;
        };
        if slot.is_spilled() {
            if slot.len() - slot.spilled_rows() >= CHUNK_ROWS {
                let _ = Arc::make_mut(slot).flush_tail();
            }
        } else if slot.len() >= policy.threshold_rows {
            let _ = Arc::make_mut(slot).spill(&policy.ctx);
        }
    }

    /// Register a table. Errors if the name is taken.
    pub fn create(&self, name: impl Into<String>, table: Table) -> Result<()> {
        let name = name.into();
        let mut guard = self.tables.write();
        if guard.contains_key(&name) {
            return Err(Error::AlreadyExists(name));
        }
        guard.insert(name.clone(), Arc::new(table));
        drop(guard);
        self.stats.write().remove(&name);
        self.indexes.write().remove(&name);
        self.btree_indexes.write().remove(&name);
        self.maybe_spill(&name);
        Ok(())
    }

    /// Register or overwrite a table.
    pub fn create_or_replace(&self, name: impl Into<String>, table: Table) {
        let name = name.into();
        self.tables.write().insert(name.clone(), Arc::new(table));
        self.stats.write().remove(&name);
        self.indexes.write().remove(&name);
        self.btree_indexes.write().remove(&name);
        self.maybe_spill(&name);
    }

    /// Fetch a table snapshot.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    /// The schema of a named table.
    pub fn schema_of(&self, name: &str) -> Result<Schema> {
        Ok(self.get(name)?.schema().clone())
    }

    /// Drop a table; returns whether it existed.
    pub fn drop_table(&self, name: &str) -> bool {
        let existed = self.tables.write().remove(name).is_some();
        self.stats.write().remove(name);
        self.indexes.write().remove(name);
        self.btree_indexes.write().remove(name);
        existed
    }

    /// True if a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// All table names, sorted for deterministic output.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Row count of a named table.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        Ok(self.get(name)?.len())
    }

    /// Append rows to a table (INSERT). Rows are validated.
    pub fn insert_rows(&self, name: &str, rows: Vec<Row>) -> Result<usize> {
        let mut guard = self.tables.write();
        let slot = guard
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
        let table = Arc::make_mut(slot);
        let start = table.len();
        let mut outcome = Ok(rows.len());
        for row in rows {
            if let Err(e) = table.push(row) {
                outcome = Err(e);
                break;
            }
        }
        let snapshot = Arc::clone(slot);
        drop(guard);
        self.bump_stats(name, &snapshot, start);
        self.bump_indexes(name, &snapshot, start);
        self.maybe_spill(name);
        outcome
    }

    /// Append rows without validation (hot path for grounding merges).
    pub fn insert_rows_unchecked(&self, name: &str, rows: Vec<Row>) -> Result<usize> {
        let mut guard = self.tables.write();
        let slot = guard
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
        let table = Arc::make_mut(slot);
        let start = table.len();
        let n = rows.len();
        table.extend_rows(rows);
        let snapshot = Arc::clone(slot);
        drop(guard);
        self.bump_stats(name, &snapshot, start);
        self.bump_indexes(name, &snapshot, start);
        self.maybe_spill(name);
        Ok(n)
    }

    /// Bulk-append every row of `delta` to a table — the incremental-
    /// expansion merge path (`TΠ ← TΠ ∪ Δ`). Schema widths must agree.
    ///
    /// Like [`Catalog::insert_rows`], cached planner statistics are bumped
    /// incrementally with exactly the appended rows, so a post-delta
    /// EXPLAIN sees the new cardinalities instead of reordering joins from
    /// stale pre-delta estimates.
    pub fn append_table(&self, name: &str, delta: &Table) -> Result<usize> {
        let mut guard = self.tables.write();
        let slot = guard
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
        if slot.schema().width() != delta.schema().width() {
            return Err(Error::SchemaMismatch {
                detail: format!(
                    "append_table({name}): width {} vs delta width {}",
                    slot.schema().width(),
                    delta.schema().width()
                ),
            });
        }
        let table = Arc::make_mut(slot);
        let start = table.len();
        let mut incoming = Vec::with_capacity(delta.len());
        for block in delta.blocks() {
            incoming.extend_from_slice(block.rows());
        }
        table.extend_rows(incoming);
        let snapshot = Arc::clone(slot);
        drop(guard);
        self.bump_stats(name, &snapshot, start);
        self.bump_indexes(name, &snapshot, start);
        self.maybe_spill(name);
        Ok(delta.len())
    }

    /// Delete rows whose key over `cols` appears in `keys`; returns the
    /// number of deleted rows. This is the `DELETE ... WHERE (..) IN (..)`
    /// used by Query 3 (`applyConstraints`).
    pub fn delete_matching(
        &self,
        name: &str,
        cols: &[usize],
        keys: &HashSet<Vec<Value>>,
    ) -> Result<usize> {
        let mut guard = self.tables.write();
        let slot = guard
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
        let removed = Arc::make_mut(slot).delete_matching(cols, keys);
        drop(guard);
        if removed > 0 {
            self.stats.write().remove(name);
            self.indexes.write().remove(name);
            self.btree_indexes.write().remove(name);
        }
        // The delete pulled a spilled table back into memory; re-spill.
        self.maybe_spill(name);
        Ok(removed)
    }

    /// Deduplicate a table in place over the listed columns.
    pub fn dedup_table(&self, name: &str, cols: &[usize]) -> Result<usize> {
        let mut guard = self.tables.write();
        let slot = guard
            .get_mut(name)
            .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
        let table = Arc::make_mut(slot);
        let before = table.len();
        table.dedup_by_cols(cols);
        let removed = before - table.len();
        drop(guard);
        if removed > 0 {
            self.stats.write().remove(name);
            self.indexes.write().remove(name);
            self.btree_indexes.write().remove(name);
        }
        self.maybe_spill(name);
        Ok(removed)
    }

    /// Total approximate bytes across all tables.
    pub fn size_bytes(&self) -> usize {
        self.tables.read().values().map(|t| t.size_bytes()).sum()
    }

    /// Planner statistics for a named table, computed on first use and
    /// cached until the table shrinks or is replaced. Returns `None` for
    /// unknown tables.
    pub fn stats_of(&self, name: &str) -> Option<Arc<TableStats>> {
        if let Some(stats) = self.stats.read().get(name) {
            return Some(Arc::clone(stats));
        }
        let table = self.get(name).ok()?;
        let stats = Arc::new(TableStats::analyze(&table));
        self.stats
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&stats));
        Some(stats)
    }

    /// Recompute statistics for a named table from scratch (the explicit
    /// `ANALYZE` entry point).
    pub fn analyze(&self, name: &str) -> Result<Arc<TableStats>> {
        self.analyze_parallel(name, 1)
    }

    /// Install planner statistics for a table without scanning it.
    ///
    /// This is a planner *hint* for callers that already hold statistics
    /// describing the table well enough — e.g. a derived table that is a
    /// large subset of an analyzed base table, where re-analyzing would
    /// cost more than every query against it. Statistics only steer join
    /// ordering and build-side choice, never result correctness.
    pub fn set_stats(&self, name: &str, stats: Arc<TableStats>) {
        self.stats.write().insert(name.to_string(), stats);
    }

    /// [`Catalog::analyze`] on up to `threads` workers. Statistics are
    /// count-based and merged per chunk, so the result is identical to
    /// the serial analyze at any thread count.
    pub fn analyze_parallel(&self, name: &str, threads: usize) -> Result<Arc<TableStats>> {
        let table = self.get(name)?;
        let stats = Arc::new(TableStats::analyze_parallel(&table, threads));
        self.stats
            .write()
            .insert(name.to_string(), Arc::clone(&stats));
        Ok(stats)
    }

    /// Build (or rebuild) a secondary hash index over `key_cols` of a
    /// named table, on up to `threads` workers. The index is cached for
    /// [`Catalog::index_on`] / the executor's index-join path, maintained
    /// incrementally by appends, and dropped by destructive mutations.
    ///
    /// The executor canonicalizes a join's key columns to ascending order
    /// before looking for an index (equality conjunctions are
    /// order-insensitive), so pass `key_cols` ascending for it to match.
    pub fn build_index(
        &self,
        name: &str,
        key_cols: &[usize],
        threads: usize,
    ) -> Result<Arc<HashIndex>> {
        let table = self.get(name)?;
        if let Some(c) = key_cols.iter().find(|&&c| c >= table.schema().width()) {
            return Err(Error::InvalidPlan(format!(
                "build_index({name}): key column {c} out of range"
            )));
        }
        let index = Arc::new(HashIndex::build(&table, key_cols, threads));
        let mut guard = self.indexes.write();
        let list = guard.entry(name.to_string()).or_default();
        list.retain(|idx| idx.key_cols() != key_cols);
        list.push(Arc::clone(&index));
        Ok(index)
    }

    /// Install a pre-built index over a named table — the warm-start path
    /// for callers that computed an equivalent index ahead of time (e.g. a
    /// delta session indexing its base closure off the update critical
    /// path). The caller asserts the index matches what
    /// [`Catalog::build_index`] would produce for the current snapshot;
    /// row count and key-column range are checked here, and debug builds
    /// verify full equality against a fresh build.
    pub fn install_index(&self, name: &str, index: Arc<HashIndex>) -> Result<()> {
        let table = self.get(name)?;
        if let Some(c) = index
            .key_cols()
            .iter()
            .find(|&&c| c >= table.schema().width())
        {
            return Err(Error::InvalidPlan(format!(
                "install_index({name}): key column {c} out of range"
            )));
        }
        if index.rows_indexed() != table.len() {
            return Err(Error::InvalidPlan(format!(
                "install_index({name}): index covers {} rows, table has {}",
                index.rows_indexed(),
                table.len()
            )));
        }
        debug_assert_eq!(
            *index,
            HashIndex::build(&table, index.key_cols(), 1),
            "install_index({name}): installed index diverges from a fresh build"
        );
        let mut guard = self.indexes.write();
        let list = guard.entry(name.to_string()).or_default();
        list.retain(|idx| idx.key_cols() != index.key_cols());
        list.push(index);
        Ok(())
    }

    /// The cached index of a table over exactly these key columns (same
    /// order), if one was built. Cached indexes are never stale: appends
    /// maintain them in place and every other mutation drops them.
    pub fn index_on(&self, name: &str, key_cols: &[usize]) -> Option<Arc<HashIndex>> {
        self.indexes
            .read()
            .get(name)?
            .iter()
            .find(|idx| idx.key_cols() == key_cols)
            .cloned()
    }

    /// Drop every cached index of a named table.
    pub fn drop_indexes(&self, name: &str) {
        self.indexes.write().remove(name);
    }

    /// Build (or rebuild) a disk-resident B-tree index over `key_cols`
    /// of a named table, with pages drawn from the catalog's spill
    /// context (or `ctx` when given explicitly). Cached like hash
    /// indexes: maintained by appends, dropped by destructive
    /// mutations. Requires a spill policy unless `ctx` is provided.
    pub fn build_btree_index(&self, name: &str, key_cols: &[usize]) -> Result<Arc<BTreeIndex>> {
        let Some(policy) = self.spill_policy() else {
            return Err(Error::Storage(format!(
                "build_btree_index({name}): no spill policy / storage context configured"
            )));
        };
        let table = self.get(name)?;
        if let Some(c) = key_cols.iter().find(|&&c| c >= table.schema().width()) {
            return Err(Error::InvalidPlan(format!(
                "build_btree_index({name}): key column {c} out of range"
            )));
        }
        let index = Arc::new(BTreeIndex::build(&policy.ctx, &table, key_cols)?);
        let mut guard = self.btree_indexes.write();
        let list = guard.entry(name.to_string()).or_default();
        list.retain(|idx| idx.key_cols() != key_cols);
        list.push(Arc::clone(&index));
        Ok(index)
    }

    /// The cached B-tree index of a table over exactly these key
    /// columns, if one was built.
    pub fn btree_index_on(&self, name: &str, key_cols: &[usize]) -> Option<Arc<BTreeIndex>> {
        self.btree_indexes
            .read()
            .get(name)?
            .iter()
            .find(|idx| idx.key_cols() == key_cols)
            .cloned()
    }

    /// Fold rows `start..` of `snapshot` into every cached index of the
    /// table, keeping them consistent across append-only growth.
    fn bump_indexes(&self, name: &str, snapshot: &Table, start: usize) {
        if snapshot.len() <= start {
            return;
        }
        self.bump_btree_indexes(name, snapshot, start);
        let mut guard = self.indexes.write();
        let Some(list) = guard.get_mut(name) else {
            return;
        };
        if list.len() <= 1 || snapshot.len() - start < 4096 {
            for idx in list {
                Arc::make_mut(idx).extend_from(snapshot, start);
            }
            return;
        }
        // Large append over several indexes: each index folds the suffix
        // in on its own scoped thread. The indexes are disjoint, so this
        // is bit-identical to the serial loop.
        std::thread::scope(|scope| {
            for idx in list.iter_mut() {
                let idx = Arc::make_mut(idx);
                scope.spawn(move || idx.extend_from(snapshot, start));
            }
        });
    }

    /// Same, for the disk-resident B-tree indexes. An index whose
    /// incremental fold fails (storage error) is dropped rather than
    /// left stale — the executor then falls back to other strategies.
    fn bump_btree_indexes(&self, name: &str, snapshot: &Table, start: usize) {
        let mut guard = self.btree_indexes.write();
        let Some(list) = guard.get_mut(name) else {
            return;
        };
        list.retain(|idx| idx.extend_from(snapshot, start).is_ok());
        if list.is_empty() {
            guard.remove(name);
        }
    }

    /// Incrementally fold rows `start..` of `snapshot` into cached stats.
    /// A cache miss stays a miss — the next [`Catalog::stats_of`] will
    /// analyze the whole table anyway.
    fn bump_stats(&self, name: &str, snapshot: &Table, start: usize) {
        if snapshot.len() <= start {
            return;
        }
        if let Entry::Occupied(mut entry) = self.stats.write().entry(name.to_string()) {
            let stats = Arc::make_mut(entry.get_mut());
            // Appends land in the in-memory tail, so the suffix is
            // normally borrowable without materializing spilled chunks.
            let materialized;
            let suffix = match snapshot.suffix_rows(start) {
                Some(s) => s,
                None => {
                    materialized = snapshot.rows();
                    &materialized[start..]
                }
            };
            if suffix.len() < 4096 {
                stats.add_rows(suffix);
            } else {
                // Large append: analyze the suffix in parallel and merge —
                // counts are additive, so this matches add_rows exactly.
                let threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                let partial =
                    TableStats::analyze_rows_parallel(suffix, snapshot.schema().width(), threads);
                stats.merge(&partial);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: Vec<i64>) -> Table {
        Table::from_rows_unchecked(
            Schema::ints(&["a"]),
            rows.into_iter().map(|v| vec![Value::Int(v)]).collect(),
        )
    }

    #[test]
    fn create_get_drop() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1, 2])).unwrap();
        assert!(cat.contains("t"));
        assert_eq!(cat.row_count("t").unwrap(), 2);
        assert!(matches!(
            cat.create("t", table(vec![])),
            Err(Error::AlreadyExists(_))
        ));
        assert!(cat.drop_table("t"));
        assert!(!cat.drop_table("t"));
        assert!(matches!(cat.get("t"), Err(Error::UnknownTable(_))));
    }

    #[test]
    fn snapshots_are_immutable_under_inserts() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1])).unwrap();
        let snap = cat.get("t").unwrap();
        cat.insert_rows("t", vec![vec![Value::Int(2)]]).unwrap();
        assert_eq!(snap.len(), 1); // old snapshot unchanged
        assert_eq!(cat.row_count("t").unwrap(), 2);
    }

    #[test]
    fn insert_validates() {
        let cat = Catalog::new();
        cat.create("t", table(vec![])).unwrap();
        assert!(cat.insert_rows("t", vec![vec![Value::str("x")]]).is_err());
        assert!(cat.insert_rows("missing", vec![]).is_err());
    }

    #[test]
    fn delete_matching_applies_keys() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1, 2, 3, 1])).unwrap();
        let mut keys = HashSet::new();
        keys.insert(vec![Value::Int(1)]);
        let removed = cat.delete_matching("t", &[0], &keys).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(cat.row_count("t").unwrap(), 2);
    }

    #[test]
    fn dedup_table_counts_removed() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1, 1, 2])).unwrap();
        assert_eq!(cat.dedup_table("t", &[0]).unwrap(), 1);
        assert_eq!(cat.row_count("t").unwrap(), 2);
    }

    #[test]
    fn names_sorted() {
        let cat = Catalog::new();
        cat.create("b", table(vec![])).unwrap();
        cat.create("a", table(vec![])).unwrap();
        assert_eq!(cat.names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn stats_computed_on_first_use_and_bumped_on_insert() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1, 2, 2])).unwrap();
        let s = cat.stats_of("t").unwrap();
        assert_eq!(s.row_count(), 3);
        assert_eq!(s.column(0).unwrap().distinct_count(), 2);
        // Inserts refresh the cached stats incrementally.
        cat.insert_rows("t", vec![vec![Value::Int(3)]]).unwrap();
        let s = cat.stats_of("t").unwrap();
        assert_eq!(s.row_count(), 4);
        assert_eq!(s.column(0).unwrap().distinct_count(), 3);
        assert!(cat.stats_of("missing").is_none());
    }

    #[test]
    fn append_table_bumps_cached_stats() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1, 2])).unwrap();
        // Warm the stats cache, then append a delta table in bulk.
        assert_eq!(cat.stats_of("t").unwrap().row_count(), 2);
        let appended = cat.append_table("t", &table(vec![2, 3, 4])).unwrap();
        assert_eq!(appended, 3);
        assert_eq!(cat.row_count("t").unwrap(), 5);
        let s = cat.stats_of("t").unwrap();
        assert_eq!(s.row_count(), 5);
        assert_eq!(s.column(0).unwrap().distinct_count(), 4);
        // Width mismatch and unknown tables are rejected.
        let wide = Table::from_rows_unchecked(
            Schema::ints(&["a", "b"]),
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
        assert!(cat.append_table("t", &wide).is_err());
        assert!(cat.append_table("missing", &table(vec![1])).is_err());
    }

    #[test]
    fn stats_never_go_stale_after_delete_or_replace() {
        let cat = Catalog::new();
        cat.create("t", table(vec![1, 1, 2, 3])).unwrap();
        assert_eq!(cat.stats_of("t").unwrap().row_count(), 4);
        let mut keys = HashSet::new();
        keys.insert(vec![Value::Int(1)]);
        cat.delete_matching("t", &[0], &keys).unwrap();
        let s = cat.stats_of("t").unwrap();
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.column(0).unwrap().distinct_count(), 2);
        cat.create_or_replace("t", table(vec![9]));
        assert_eq!(cat.stats_of("t").unwrap().row_count(), 1);
        cat.dedup_table("t", &[0]).unwrap(); // no rows removed: cache kept
        assert_eq!(cat.stats_of("t").unwrap().row_count(), 1);
        assert!(cat.drop_table("t"));
        assert!(cat.stats_of("t").is_none());
    }

    #[test]
    fn explicit_analyze_rebuilds_from_scratch() {
        let cat = Catalog::new();
        cat.create("t", table(vec![])).unwrap();
        // Edge cases: empty table, then single row, then all-duplicates.
        assert_eq!(cat.stats_of("t").unwrap().row_count(), 0);
        cat.insert_rows("t", vec![vec![Value::Int(5)]]).unwrap();
        assert_eq!(cat.analyze("t").unwrap().row_count(), 1);
        cat.insert_rows("t", vec![vec![Value::Int(5)], vec![Value::Int(5)]])
            .unwrap();
        let s = cat.analyze("t").unwrap();
        assert_eq!(s.row_count(), 3);
        assert_eq!(s.column(0).unwrap().distinct_count(), 1);
        assert!(cat.analyze("missing").is_err());
    }
}
