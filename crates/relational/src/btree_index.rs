//! Disk-resident B-tree indexes over table columns.
//!
//! The out-of-core sibling of [`crate::index::HashIndex`]: key tuples
//! are serialized with the order-preserving [`crate::keyenc`] codec and
//! stored in a buffer-managed [`BTree`], so the index itself pages in
//! and out instead of pinning a `HashMap` of the whole key space in
//! RAM. Because the pager's tree holds *unique* keys, each entry's key
//! is the encoded tuple followed by the row position as a big-endian
//! `u64` suffix — duplicates become adjacent distinct keys, and a
//! prefix range scan returns their positions already in ascending row
//! order (the same order `HashIndex` posting lists guarantee).
//!
//! Equality semantics match `HashIndex`: rows with NULL in any key
//! column are not indexed, and NULL probes match nothing. Unlike the
//! hash index, point probes here are *prefix scans*, so the index also
//! answers value-range queries ([`BTreeIndex::range_probe`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use probkb_pager::btree::BTree;

use crate::error::Result;
use crate::keyenc::{encode_key, prefix_range};
use crate::spill::StorageContext;
use crate::table::{Row, Table};
use crate::value::Value;

/// A B-tree index mapping key tuples to row positions in a table
/// snapshot, resident in buffer-managed pages.
pub struct BTreeIndex {
    tree: BTree,
    key_cols: Vec<usize>,
    rows_indexed: AtomicUsize,
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("key_cols", &self.key_cols)
            .field("rows_indexed", &self.rows_indexed())
            .field("entries", &self.tree.len())
            .field("pages", &self.tree.page_count())
            .finish()
    }
}

impl BTreeIndex {
    /// Build an index over `table` keyed by `key_cols`, with pages
    /// allocated from `ctx`. Rows with NULL in any key column are
    /// excluded (they can never equi-match).
    pub fn build(ctx: &Arc<StorageContext>, table: &Table, key_cols: &[usize]) -> Result<Self> {
        let tree = BTree::create(Arc::clone(ctx.buffer()), &ctx.new_index_path(), true)?;
        let idx = BTreeIndex {
            tree,
            key_cols: key_cols.to_vec(),
            rows_indexed: AtomicUsize::new(0),
        };
        idx.extend_from(table, 0)?;
        Ok(idx)
    }

    /// Fold rows `from_row..` of `table` into the index — incremental
    /// maintenance for append-only tables, identical to rebuilding.
    /// Takes `&self` (the tree serializes internally) so the catalog can
    /// maintain a shared index; concurrent probes may observe a prefix
    /// of an in-flight append, which the executor tolerates by filtering
    /// positions against its own table snapshot length.
    pub fn extend_from(&self, table: &Table, from_row: usize) -> Result<()> {
        // Stage the encoded entries in key order. A from-scratch build
        // bulk-loads the sorted run bottom-up ([`BTree::load_sorted`]:
        // every page written once, no descents, no splits); incremental
        // extensions insert in key order, which lands each key at or
        // right of the previous leaf instead of descending to a random
        // one. Identical outcome either way (the tree is a set of
        // unique keys — the position suffix disambiguates duplicates).
        let mut entries: Vec<(Vec<u8>, u64)> =
            Vec::with_capacity(table.len().saturating_sub(from_row));
        let mut pos = 0usize;
        for block in table.blocks() {
            let rows = block.rows();
            if pos + rows.len() > from_row {
                for (off, row) in rows.iter().enumerate() {
                    let at = pos + off;
                    if at < from_row {
                        continue;
                    }
                    let key = Table::key_of(row, &self.key_cols);
                    if key.iter().any(Value::is_null) {
                        continue;
                    }
                    let mut enc = encode_key(&key);
                    enc.extend_from_slice(&(at as u64).to_be_bytes());
                    entries.push((enc, at as u64));
                }
            }
            pos += rows.len();
        }
        entries.sort_unstable();
        if from_row == 0 && self.tree.is_empty() {
            self.tree.load_sorted(&entries)?;
        } else {
            for (enc, at) in entries {
                self.tree.insert(&enc, at)?;
            }
        }
        self.rows_indexed.store(table.len(), Ordering::Release);
        Ok(())
    }

    /// The key columns this index covers.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of rows in the snapshot the index was built from.
    pub fn rows_indexed(&self) -> usize {
        self.rows_indexed.load(Ordering::Acquire)
    }

    /// Number of indexed entries (rows minus NULL-keyed rows).
    pub fn entries(&self) -> u64 {
        self.tree.len()
    }

    /// Pages occupied by the tree (observability).
    pub fn page_count(&self) -> u32 {
        self.tree.page_count()
    }

    /// Row positions whose key equals `key`, ascending.
    pub fn get(&self, key: &[Value]) -> Result<Vec<usize>> {
        if key.iter().any(Value::is_null) {
            return Ok(Vec::new());
        }
        let (lo, hi) = prefix_range(&encode_key(key));
        self.scan_positions(&lo, hi.as_deref())
    }

    /// Look up using the key extracted from `probe_row` at `probe_cols`.
    pub fn probe(&self, probe_row: &Row, probe_cols: &[usize]) -> Result<Vec<usize>> {
        self.get(&Table::key_of(probe_row, probe_cols))
    }

    /// Row positions whose key tuple lies in `[lo, hi]` (both ends
    /// inclusive, compared by [`Value`] order within each column).
    /// `lo`/`hi` may be shorter than the indexed key — they then bound
    /// the leading columns only.
    pub fn range_probe(&self, lo: &[Value], hi: &[Value]) -> Result<Vec<usize>> {
        let enc_lo = encode_key(lo);
        // Upper bound: everything with `hi` as a tuple prefix stays in.
        let (_, enc_hi) = prefix_range(&encode_key(hi));
        self.scan_positions(&enc_lo, enc_hi.as_deref())
    }

    /// True if any row carries this key.
    pub fn contains(&self, key: &[Value]) -> Result<bool> {
        Ok(!self.get(key)?.is_empty())
    }

    fn scan_positions(&self, lo: &[u8], hi: Option<&[u8]>) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        self.tree.for_each_range(lo, hi, &mut |_, v| {
            out.push(v as usize);
            true
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::HashIndex;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn ctx() -> Arc<StorageContext> {
        StorageContext::in_temp(64).unwrap()
    }

    fn table() -> Table {
        Table::from_rows(
            Schema::new(vec![
                Column::new("r", DataType::Int),
                Column::nullable("x", DataType::Int),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(10)],
                vec![Value::Int(3), Value::Null],
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_and_lookup_matches_hash_index() {
        let t = table();
        let ctx = ctx();
        let bt = BTreeIndex::build(&ctx, &t, &[0]).unwrap();
        let hi = HashIndex::build(&t, &[0], 1);
        for r in 0..5i64 {
            let key = vec![Value::Int(r)];
            assert_eq!(bt.get(&key).unwrap(), hi.get(&key), "key {r}");
        }
        assert_eq!(bt.rows_indexed(), 4);
        assert_eq!(bt.entries(), 4);
    }

    #[test]
    fn null_keys_excluded_and_null_probe_empty() {
        let t = table();
        let bt = BTreeIndex::build(&ctx(), &t, &[1]).unwrap();
        assert_eq!(bt.entries(), 3); // NULL x row skipped
        assert!(bt.get(&[Value::Null]).unwrap().is_empty());
        assert_eq!(bt.get(&[Value::Int(10)]).unwrap(), vec![0, 2]);
    }

    #[test]
    fn range_probe_inclusive_bounds() {
        let t = Table::from_rows_unchecked(
            Schema::ints(&["k"]),
            (0..100i64).map(|i| vec![Value::Int(i)]).collect(),
        );
        let bt = BTreeIndex::build(&ctx(), &t, &[0]).unwrap();
        let got = bt.range_probe(&[Value::Int(10)], &[Value::Int(13)]).unwrap();
        assert_eq!(got, vec![10, 11, 12, 13]);
        // Prefix bound on a composite index.
        let t2 = Table::from_rows_unchecked(
            Schema::ints(&["a", "b"]),
            (0..20i64).map(|i| vec![Value::Int(i / 5), Value::Int(i)]).collect(),
        );
        let bt2 = BTreeIndex::build(&ctx(), &t2, &[0, 1]).unwrap();
        let got = bt2.range_probe(&[Value::Int(1)], &[Value::Int(2)]).unwrap();
        assert_eq!(got, (5..15).collect::<Vec<usize>>());
    }

    #[test]
    fn duplicates_return_ascending_positions() {
        let t = Table::from_rows_unchecked(
            Schema::ints(&["k"]),
            (0..1000i64).map(|i| vec![Value::Int(i % 7)]).collect(),
        );
        let ctx = ctx();
        let bt = BTreeIndex::build(&ctx, &t, &[0]).unwrap();
        let hi = HashIndex::build(&t, &[0], 1);
        for k in 0..7i64 {
            let key = vec![Value::Int(k)];
            assert_eq!(bt.get(&key).unwrap(), hi.get(&key), "k={k}");
        }
    }

    #[test]
    fn extend_from_matches_full_rebuild_and_works_spilled() {
        let ctx = ctx();
        let mut t = Table::from_rows_unchecked(
            Schema::ints(&["k", "v"]),
            (0..5000i64).map(|i| vec![Value::Int(i % 31), Value::Int(i)]).collect(),
        );
        t.spill(&ctx).unwrap();
        assert!(t.is_spilled());
        let bt = BTreeIndex::build(&ctx, &t, &[0]).unwrap();
        for i in 5000..5600i64 {
            t.push_unchecked(vec![Value::Int(i % 31), Value::Int(i)]);
        }
        t.flush_tail().unwrap();
        bt.extend_from(&t, 5000).unwrap();
        let fresh = BTreeIndex::build(&ctx, &t, &[0]).unwrap();
        let hi = HashIndex::build(&t, &[0], 1);
        for k in 0..31i64 {
            let key = vec![Value::Int(k)];
            assert_eq!(bt.get(&key).unwrap(), hi.get(&key), "k={k}");
            assert_eq!(fresh.get(&key).unwrap(), hi.get(&key), "k={k}");
        }
    }

    #[test]
    fn string_and_mixed_keys() {
        let t = Table::from_rows_unchecked(
            Schema::new(vec![
                Column::new("s", DataType::Str),
                Column::new("n", DataType::Int),
            ]),
            vec![
                vec![Value::str("apple"), Value::Int(1)],
                vec![Value::str("app"), Value::Int(2)],
                vec![Value::str("apple"), Value::Int(1)],
                vec![Value::str("banana"), Value::Int(3)],
            ],
        );
        let bt = BTreeIndex::build(&ctx(), &t, &[0, 1]).unwrap();
        assert_eq!(
            bt.get(&[Value::str("apple"), Value::Int(1)]).unwrap(),
            vec![0, 2]
        );
        // "app" must not match as a prefix of "apple" (terminator).
        assert_eq!(bt.get(&[Value::str("app"), Value::Int(2)]).unwrap(), vec![1]);
        // Range results come back in key order: "app" sorts before
        // "apple", and equal keys yield ascending positions.
        let r = bt
            .range_probe(&[Value::str("app")], &[Value::str("apple")])
            .unwrap();
        assert_eq!(r, vec![1, 0, 2]);
    }
}
