//! Hash indexes over table columns: the one key → row-positions map.
//!
//! Every equi-join probes a [`HashIndex`]. The catalog keeps indexes a
//! workload probes again and again ([`crate::catalog::Catalog::build_index`]:
//! grounding re-joins `TΠ` on `(R, C1, C2)`-style keys every iteration,
//! and appends maintain the index in place); the executor builds one over
//! a join's build input for that join alone. Posting lists hold row
//! positions in ascending order however the index was built, so a probe
//! returns its matches in build-row order.
//!
//! ## Key representation
//!
//! Grounding keys are interned ids, so every key value is an `Int`. When
//! every non-NULL key value an index has seen is an `Int` and the key has
//! at most [`INLINE_KEY_WIDTH`] columns, keys are stored inline as
//! zero-padded `[i64; INLINE_KEY_WIDTH]` arrays: no boxed `Vec<Value>` per
//! key and no hashing of value tags. Any other key stays a boxed
//! `Vec<Value>`. The choice follows from the indexed rows alone: an append
//! that brings a non-`Int` key value converts the index to boxed keys.
//! `Value` equality is strictly typed (`Int(2) ≠ Float(2.0)`), so a probe
//! carrying a non-`Int` value can never match an inline key, and both
//! representations answer every lookup alike.

use std::hash::Hash;

use probkb_support::hash::{fx_map_with_capacity, FxHashMap};
use probkb_support::sync::map_ranges;

use crate::table::{Row, Table};
use crate::value::Value;

/// The widest key stored inline: grounding joins `TΠ` on keys of up to
/// six all-`Int` columns (the head lookup `(R, C1, C2, x, y)` plus one
/// merged join condition).
pub(crate) const INLINE_KEY_WIDTH: usize = 6;

/// An inline key: the key's `Int` values, zero-padded to
/// [`INLINE_KEY_WIDTH`].
pub(crate) type IntKey = [i64; INLINE_KEY_WIDTH];

/// Key → ascending row positions, in one of the two key representations.
/// Which one is a function of the indexed key values, so the derived
/// equality is equality of content.
#[derive(Debug, Clone, PartialEq)]
enum Postings {
    Inline(FxHashMap<IntKey, Vec<usize>>),
    Boxed(FxHashMap<Vec<Value>, Vec<usize>>),
}

/// A key read for the inline representation.
enum ReadKey {
    Int(IntKey),
    /// Some key value is NULL: the row never equi-matches.
    Null,
    /// Some key value is neither `Int` nor NULL.
    Other,
}

/// Read up to [`INLINE_KEY_WIDTH`] key values as an inline key.
fn read_key<'v>(values: impl Iterator<Item = &'v Value>) -> ReadKey {
    let mut key = [0; INLINE_KEY_WIDTH];
    let mut null = false;
    for (slot, value) in key.iter_mut().zip(values) {
        match value {
            Value::Int(v) => *slot = *v,
            Value::Null => null = true,
            _ => return ReadKey::Other,
        }
    }
    if null {
        ReadKey::Null
    } else {
        ReadKey::Int(key)
    }
}

/// Append `from`'s posting lists (over later rows) to `into`'s.
fn append<K: Hash + Eq>(into: &mut FxHashMap<K, Vec<usize>>, from: FxHashMap<K, Vec<usize>>) {
    if into.is_empty() {
        *into = from;
        return;
    }
    for (key, list) in from {
        into.entry(key).or_default().extend(list);
    }
}

impl Postings {
    fn new(width: usize, capacity: usize) -> Postings {
        if width <= INLINE_KEY_WIDTH {
            Postings::Inline(fx_map_with_capacity(capacity))
        } else {
            Postings::Boxed(fx_map_with_capacity(capacity))
        }
    }

    fn len(&self) -> usize {
        match self {
            Postings::Inline(map) => map.len(),
            Postings::Boxed(map) => map.len(),
        }
    }

    fn reserve(&mut self, additional: usize) {
        match self {
            Postings::Inline(map) => map.reserve(additional),
            Postings::Boxed(map) => map.reserve(additional),
        }
    }

    /// Index `row` at position `pos` (NULL keys are skipped); switches
    /// to boxed keys on the first key value that is neither `Int` nor
    /// NULL.
    fn insert(&mut self, row: &[Value], cols: &[usize], pos: usize) {
        if let Postings::Inline(map) = self {
            match read_key(cols.iter().map(|&c| &row[c])) {
                ReadKey::Int(key) => return map.entry(key).or_default().push(pos),
                ReadKey::Null => return,
                ReadKey::Other => self.box_keys(cols.len()),
            }
        }
        if let Postings::Boxed(map) = self {
            let key = Table::key_of(row, cols);
            if !key.iter().any(Value::is_null) {
                map.entry(key).or_default().push(pos);
            }
        }
    }

    /// Convert inline keys of `width` columns to boxed keys.
    fn box_keys(&mut self, width: usize) {
        if let Postings::Inline(map) = self {
            let boxed = std::mem::take(map)
                .into_iter()
                .map(|(key, list)| (key[..width].iter().map(|&v| Value::Int(v)).collect(), list))
                .collect();
            *self = Postings::Boxed(boxed);
        }
    }

    /// Append `other`'s posting lists, built over later rows.
    fn absorb(&mut self, mut other: Postings, width: usize) {
        if matches!(other, Postings::Boxed(_)) {
            self.box_keys(width);
        } else if matches!(self, Postings::Boxed(_)) {
            other.box_keys(width);
        }
        match (self, other) {
            (Postings::Inline(into), Postings::Inline(from)) => append(into, from),
            (Postings::Boxed(into), Postings::Boxed(from)) => append(into, from),
            _ => unreachable!("absorb boxes both sides or neither"),
        }
    }
}

/// A hash index mapping key tuples to row positions in a table snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HashIndex {
    key_cols: Vec<usize>,
    postings: Postings,
    rows_indexed: usize,
}

impl HashIndex {
    /// Build an index over `table` keyed by `key_cols` on up to `threads`
    /// workers. Rows with NULL in any key column are excluded (they can
    /// never equi-match). The table streams block by block (rows already
    /// resident, see [`Table::rows`], are one block); each block is
    /// indexed in contiguous chunks, one per worker, whose maps merge in
    /// chunk order — so every posting list is ascending and the index is
    /// the same at any thread count. One thread indexes in place.
    pub fn build(table: &Table, key_cols: &[usize], threads: usize) -> Self {
        let mut index = HashIndex {
            key_cols: key_cols.to_vec(),
            postings: Postings::new(key_cols.len(), 0),
            rows_indexed: 0,
        };
        index.fold(table, 0, threads);
        index
    }

    /// Fold rows `from_row..` of `table` into the index — the incremental
    /// maintenance path for append-only tables. Appended row positions are
    /// strictly larger than anything already indexed, so every posting
    /// list stays in ascending row order and the result is identical to
    /// rebuilding from scratch.
    pub fn extend_from(&mut self, table: &Table, from_row: usize) {
        self.fold(table, from_row, 1);
    }

    fn fold(&mut self, table: &Table, from_row: usize, threads: usize) {
        if threads <= 1 {
            self.postings.reserve(table.len().saturating_sub(from_row));
        }
        if let Some(rows) = table.resident_rows() {
            self.fold_rows(rows, 0, from_row, threads);
        } else {
            let mut pos = 0usize;
            for block in table.blocks() {
                if pos + block.len() > from_row {
                    self.fold_rows(block.rows(), pos, from_row, threads);
                }
                pos += block.len();
            }
        }
        self.rows_indexed = table.len();
    }

    /// Fold the rows at positions `from_row..` of a block of `rows`
    /// starting at table position `pos`.
    fn fold_rows(&mut self, rows: &[Row], pos: usize, from_row: usize, threads: usize) {
        let skip = from_row.saturating_sub(pos);
        if threads <= 1 {
            for (i, row) in rows.iter().enumerate().skip(skip) {
                self.postings.insert(row, &self.key_cols, pos + i);
            }
            return;
        }
        let cols = &self.key_cols;
        let parts = map_ranges(rows.len() - skip, threads, |_, range| {
            let (lo, hi) = (range.start + skip, range.end + skip);
            let mut part = Postings::new(cols.len(), range.len());
            for (i, row) in rows[lo..hi].iter().enumerate() {
                part.insert(row, cols, pos + lo + i);
            }
            vec![part]
        });
        for part in parts {
            self.postings.absorb(part, cols.len());
        }
    }

    /// Rebase the index onto a permutation of its snapshot's rows:
    /// `perm[old_position] = new_position`. Posting lists are re-sorted
    /// ascending, so the result equals an index built from the permuted
    /// table — without rehashing or cloning any key. Used to transfer a
    /// prebuilt index onto a table holding the same rows in a different
    /// order (e.g. a delta replay that renumbers facts).
    pub fn remap_positions(&mut self, perm: &[usize]) {
        let remap = |list: &mut Vec<usize>| {
            for p in list.iter_mut() {
                *p = perm[*p];
            }
            list.sort_unstable();
        };
        match &mut self.postings {
            Postings::Inline(map) => map.values_mut().for_each(remap),
            Postings::Boxed(map) => map.values_mut().for_each(remap),
        }
    }

    /// The key columns this index covers.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Number of rows in the snapshot the index was built from.
    pub fn rows_indexed(&self) -> usize {
        self.rows_indexed
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.postings.len()
    }

    /// True when keys are stored inline (see the module docs), so
    /// [`HashIndex::get_inline`] answers lookups.
    pub(crate) fn has_inline_keys(&self) -> bool {
        matches!(self.postings, Postings::Inline(_))
    }

    /// Look up an inline key; empty when keys are boxed.
    pub(crate) fn get_inline(&self, key: &IntKey) -> &[usize] {
        match &self.postings {
            Postings::Inline(map) => map.get(key).map_or(&[], Vec::as_slice),
            Postings::Boxed(_) => &[],
        }
    }

    /// Look up the row positions matching a key.
    pub fn get(&self, key: &[Value]) -> &[usize] {
        self.lookup(key.iter())
    }

    /// Look up using the key extracted from `probe_row` at `probe_cols`.
    pub fn probe(&self, probe_row: &Row, probe_cols: &[usize]) -> &[usize] {
        self.lookup(probe_cols.iter().map(|&c| &probe_row[c]))
    }

    fn lookup<'v>(&self, key: impl ExactSizeIterator<Item = &'v Value>) -> &[usize] {
        if key.len() != self.key_cols.len() {
            return &[];
        }
        let list = match &self.postings {
            Postings::Inline(map) => match read_key(key) {
                ReadKey::Int(key) => map.get(&key),
                ReadKey::Null | ReadKey::Other => None,
            },
            Postings::Boxed(map) => map.get(&key.cloned().collect::<Vec<Value>>()),
        };
        list.map_or(&[], Vec::as_slice)
    }

    /// True if a key exists in the index.
    pub fn contains(&self, key: &[Value]) -> bool {
        !self.get(key).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

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

    /// `table()` plus rows whose `r` is a string and a float: an index on
    /// `r` extended over them must switch to boxed keys.
    fn mixed_table() -> Table {
        let mut t = table();
        t.push_unchecked(vec![Value::Str("a".into()), Value::Int(30)]);
        t.push_unchecked(vec![Value::Float(2.0), Value::Int(40)]);
        t.push_unchecked(vec![Value::Int(2), Value::Int(50)]);
        t
    }

    fn reversed(t: &Table) -> Table {
        Table::from_rows_unchecked(t.schema().clone(), t.rows().iter().rev().cloned().collect())
    }

    #[test]
    fn build_and_lookup() {
        let t = table();
        let idx = HashIndex::build(&t, &[0], 1);
        assert!(idx.has_inline_keys());
        assert_eq!(idx.get(&[Value::Int(1)]), &[0, 1]);
        assert_eq!(idx.get(&[Value::Int(2)]), &[2]);
        assert_eq!(idx.get(&[Value::Int(99)]), &[] as &[usize]);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.rows_indexed(), 4);
        assert_eq!(idx.key_cols(), &[0]);
    }

    #[test]
    fn null_keys_excluded() {
        let t = table();
        let idx = HashIndex::build(&t, &[1], 1);
        // Row 3 has NULL x and is not indexed.
        assert!(!idx.contains(&[Value::Null]));
        assert_eq!(idx.get(&[Value::Int(10)]), &[0, 2]);
    }

    #[test]
    fn probe_extracts_key_from_row() {
        let t = table();
        let idx = HashIndex::build(&t, &[0, 1], 1);
        let probe = vec![Value::Int(1), Value::Int(20)];
        assert_eq!(idx.probe(&probe, &[0, 1]), &[1]);
        let null_probe = vec![Value::Int(1), Value::Null];
        assert_eq!(idx.probe(&null_probe, &[0, 1]), &[] as &[usize]);
    }

    #[test]
    fn key_representation_follows_the_data() {
        let idx = HashIndex::build(&table(), &[0], 1);
        assert!(idx.has_inline_keys());
        // Strictly typed, and a zero-padded key never matches another width.
        assert_eq!(idx.get(&[Value::Float(1.0)]), &[] as &[usize]);
        assert_eq!(idx.get(&[Value::Int(1), Value::Int(0)]), &[] as &[usize]);
        let idx = HashIndex::build(&mixed_table(), &[0], 1);
        assert!(!idx.has_inline_keys());
        assert_eq!(idx.get(&[Value::Int(2)]), &[2, 6]);
        assert_eq!(idx.get(&[Value::Float(2.0)]), &[5]);
        assert_eq!(idx.get(&[Value::Str("a".into())]), &[4]);
        let wide = Table::from_rows_unchecked(
            Schema::ints(&["a", "b", "c", "d", "e", "f", "g"]),
            vec![(0..7).map(Value::Int).collect()],
        );
        let cols: Vec<usize> = (0..7).collect();
        for (width, inline) in [(6, true), (7, false)] {
            let idx = HashIndex::build(&wide, &cols[..width], 1);
            assert_eq!(idx.has_inline_keys(), inline);
            assert_eq!(idx.probe(&wide.rows()[0], &cols[..width]), &[0]);
        }
    }

    #[test]
    fn build_is_thread_invariant() {
        let big = Table::from_rows_unchecked(
            Schema::ints(&["r", "x"]),
            (0..500i64)
                .map(|i| vec![Value::Int(i % 7), Value::Int(i % 23)])
                .collect(),
        );
        let mut mixed = big.clone();
        mixed.push_unchecked(vec![Value::Str("s".into()), Value::Int(1)]);
        mixed.extend_rows(big.rows().to_vec());
        for t in [&big, &mixed] {
            let serial = HashIndex::build(t, &[0, 1], 1);
            for threads in [2, 8] {
                assert_eq!(HashIndex::build(t, &[0, 1], threads), serial, "threads={threads}");
            }
        }
    }

    #[test]
    fn remap_positions_matches_permuted_build() {
        let t = table();
        let mut idx = HashIndex::build(&t, &[0], 1);
        assert!(idx.has_inline_keys());
        // Reverse the rows: position i -> 3 - i.
        let perm = [3usize, 2, 1, 0];
        idx.remap_positions(&perm);
        assert_eq!(idx, HashIndex::build(&reversed(&t), &[0], 1));
        // An all-Int index extended by rows carrying non-Int keys turns
        // boxed in place and equals a fresh build, before and after a
        // remap; all-Int extensions stay inline.
        let full = mixed_table();
        for (col, inline) in [(0, false), (1, true)] {
            let mut idx = HashIndex::build(&t, &[col], 1);
            idx.extend_from(&full, t.len());
            assert_eq!(idx.has_inline_keys(), inline);
            assert_eq!(idx, HashIndex::build(&full, &[col], 1));
            let perm: Vec<usize> = (0..full.len()).rev().collect();
            idx.remap_positions(&perm);
            assert_eq!(idx, HashIndex::build(&reversed(&full), &[col], 1));
        }
    }

    #[test]
    fn composite_keys_distinguish() {
        let t = table();
        let idx = HashIndex::build(&t, &[0, 1], 1);
        assert_eq!(idx.distinct_keys(), 3);
        assert!(idx.contains(&[Value::Int(2), Value::Int(10)]));
        assert!(!idx.contains(&[Value::Int(2), Value::Int(20)]));
    }
}
