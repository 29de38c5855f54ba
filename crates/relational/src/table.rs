//! Tables: a schema plus rows, resident in memory or spilled to
//! buffer-managed pages.
//!
//! The engine is batch/set-oriented like the SQL backends in the paper:
//! every operator consumes and produces whole `Table`s. A table's rows
//! live in one of two stores:
//!
//! * **Mem** — the historical `Vec<Row>`; and
//! * **Paged** — columnar [`crate::colstore`] chunks in an ephemeral
//!   [`HeapFile`] (out-of-core), plus an in-memory tail of rows not yet
//!   filling a chunk. The catalog moves tables between stores by
//!   [`crate::spill::SpillPolicy`]; operators stream either store with
//!   [`Table::blocks`].
//!
//! **Placement never changes results.** Chunk boundaries are a pure
//! function of the row list ([`CHUNK_ROWS`]-aligned), scan order equals
//! insertion order in both stores, and `Debug`/`rows()` render
//! identically — so any fingerprint of a spilled table is byte-equal
//! to its in-memory twin, at any buffer-pool size. The few operations
//! that need random or mutable access to the whole row list
//! (`rows()`, `rows_mut()`, sort/dedup/delete) transparently
//! materialize; storage-layer corruption on that path panics rather
//! than serving damaged rows (CRC failures are unrecoverable here, like
//! lock poisoning).

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use probkb_pager::heap::{HeapFile, Rid};

use crate::colstore::{decode_chunk, encode_chunk, DecodedChunk, CHUNK_ROWS};
use crate::error::Result;
use crate::schema::Schema;
use crate::spill::StorageContext;
use crate::value::Value;

/// A row is an ordered list of values matching a schema.
pub type Row = Vec<Value>;

#[derive(Debug, Clone)]
struct ChunkMeta {
    rid: Rid,
    rows: u32,
}

/// The out-of-core store: encoded chunks in a heap plus a row tail.
struct PagedStore {
    ctx: Arc<StorageContext>,
    heap: Arc<HeapFile>,
    chunks: Vec<ChunkMeta>,
    /// Rows resident in `chunks` (tail rows not included).
    spilled_rows: usize,
    /// `Value::size_bytes`-based size of the spilled rows, so
    /// [`Table::size_bytes`] stays byte-equal to the Mem computation.
    spilled_bytes: usize,
    /// Rows appended since the last chunk flush.
    tail: Vec<Row>,
    /// Lazily materialized full row list (compatibility path for
    /// callers needing `&[Row]`). Reset by any mutation.
    cache: OnceLock<Vec<Row>>,
}

impl Clone for PagedStore {
    fn clone(&self) -> Self {
        // Clones share the heap (chunks are immutable once written and
        // addressed by rid, so divergent clones simply reference
        // disjoint chunk sets); the materialize cache is not cloned.
        PagedStore {
            ctx: Arc::clone(&self.ctx),
            heap: Arc::clone(&self.heap),
            chunks: self.chunks.clone(),
            spilled_rows: self.spilled_rows,
            spilled_bytes: self.spilled_bytes,
            tail: self.tail.clone(),
            cache: OnceLock::new(),
        }
    }
}

impl PagedStore {
    fn decode_at(&self, idx: usize) -> DecodedChunk {
        let meta = &self.chunks[idx];
        let bytes = self
            .heap
            .get(meta.rid)
            .unwrap_or_else(|e| panic!("spilled chunk {idx} unreadable: {e}"));
        let chunk =
            decode_chunk(&bytes).unwrap_or_else(|e| panic!("spilled chunk {idx} corrupt: {e}"));
        assert_eq!(chunk.len(), meta.rows as usize, "chunk {idx} row count drifted");
        chunk
    }

    fn materialize(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.spilled_rows + self.tail.len());
        for i in 0..self.chunks.len() {
            rows.extend_from_slice(self.decode_at(i).rows());
        }
        rows.extend(self.tail.iter().cloned());
        rows
    }

    fn cached(&self) -> &Vec<Row> {
        self.cache.get_or_init(|| self.materialize())
    }

    /// Encode full chunks out of the tail (leaving `< CHUNK_ROWS`
    /// rows), keeping chunk boundaries aligned regardless of append
    /// pattern.
    fn flush_tail(&mut self) -> Result<()> {
        while self.tail.len() >= CHUNK_ROWS {
            let rest = self.tail.split_off(CHUNK_ROWS);
            let chunk: Vec<Row> = std::mem::replace(&mut self.tail, rest);
            let bytes: usize = chunk
                .iter()
                .map(|r| r.iter().map(Value::size_bytes).sum::<usize>() + 24)
                .sum();
            let rec = encode_chunk(&chunk);
            let rid = self.heap.append(&rec)?;
            self.chunks.push(ChunkMeta {
                rid,
                rows: chunk.len() as u32,
            });
            self.spilled_rows += chunk.len();
            self.spilled_bytes += bytes;
        }
        self.cache = OnceLock::new();
        Ok(())
    }
}

enum Store {
    Mem(Vec<Row>),
    Paged(PagedStore),
}

impl Clone for Store {
    fn clone(&self) -> Self {
        match self {
            Store::Mem(rows) => Store::Mem(rows.clone()),
            Store::Paged(p) => Store::Paged(p.clone()),
        }
    }
}

/// A relation, resident in memory or spilled to pages.
#[derive(Clone)]
pub struct Table {
    schema: Schema,
    store: Store,
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Must render exactly like the historical
        // `#[derive(Debug)] struct Table { schema, rows: Vec<Row> }`:
        // grounding fingerprints are this string.
        f.debug_struct("Table")
            .field("schema", &self.schema)
            .field("rows", &self.rows())
            .finish()
    }
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Table {
            schema,
            store: Store::Mem(Vec::new()),
        }
    }

    /// Build a table from pre-validated rows. Every row is checked against
    /// the schema; use [`Table::from_rows_unchecked`] in hot paths that
    /// construct rows mechanically.
    pub fn from_rows(schema: Schema, rows: Vec<Row>) -> Result<Self> {
        for row in &rows {
            schema.validate_row(row)?;
        }
        Ok(Table {
            schema,
            store: Store::Mem(rows),
        })
    }

    /// Build a table without validating rows. The caller guarantees each
    /// row matches the schema (e.g. rows produced by a projection of an
    /// already-valid table).
    pub fn from_rows_unchecked(schema: Schema, rows: Vec<Row>) -> Self {
        Table {
            schema,
            store: Store::Mem(rows),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Mem(rows) => rows.len(),
            Store::Paged(p) => p.spilled_rows + p.tail.len(),
        }
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when rows live (at least partly) on disk pages.
    pub fn is_spilled(&self) -> bool {
        matches!(self.store, Store::Paged(_))
    }

    /// Rows resident in on-disk chunks (0 for in-memory tables).
    pub fn spilled_rows(&self) -> usize {
        match &self.store {
            Store::Mem(_) => 0,
            Store::Paged(p) => p.spilled_rows,
        }
    }

    /// The rows, in insertion order. For a spilled table this
    /// materializes (and caches) the full row list — the compatibility
    /// path; streaming consumers should prefer [`Table::blocks`].
    pub fn rows(&self) -> &[Row] {
        match &self.store {
            Store::Mem(rows) => rows,
            Store::Paged(p) => p.cached(),
        }
    }

    /// The whole row list when it is resident without decoding: an
    /// in-memory table, or a spilled one [`Table::rows`] has already
    /// materialized.
    pub(crate) fn resident_rows(&self) -> Option<&[Row]> {
        match &self.store {
            Store::Mem(rows) => Some(rows),
            Store::Paged(p) => p.cache.get().map(Vec::as_slice),
        }
    }

    /// Stream the rows as blocks without materializing the whole
    /// table: one borrowed slice for Mem, one decoded chunk at a time
    /// (plus the tail slice) for Paged. Block boundaries for a given
    /// row list are deterministic, and concatenating blocks always
    /// yields insertion order.
    pub fn blocks(&self) -> Blocks<'_> {
        match &self.store {
            Store::Mem(rows) => Blocks {
                state: BlocksState::Slice(Some(rows)),
            },
            Store::Paged(p) => Blocks {
                state: BlocksState::Paged {
                    store: p,
                    next_chunk: 0,
                    tail_done: false,
                },
            },
        }
    }

    /// Random access to rows by position without materializing the
    /// whole table (caches one decoded chunk at a time).
    pub fn row_reader(&self) -> RowReader<'_> {
        RowReader {
            table: self,
            cached: None,
        }
    }

    /// Mutable access to the row store (used by DELETE and motions).
    /// A spilled table is pulled back into memory first; the catalog
    /// re-spills after the mutation.
    pub fn rows_mut(&mut self) -> &mut Vec<Row> {
        self.ensure_mem();
        match &mut self.store {
            Store::Mem(rows) => rows,
            Store::Paged(_) => unreachable!("ensure_mem left table paged"),
        }
    }

    /// Consume the table, returning its rows.
    pub fn into_rows(self) -> Vec<Row> {
        match self.store {
            Store::Mem(rows) => rows,
            Store::Paged(p) => p.materialize(),
        }
    }

    fn ensure_mem(&mut self) {
        if let Store::Paged(p) = &self.store {
            self.store = Store::Mem(p.materialize());
        }
    }

    /// Move the rows out of core: encode full chunks into a fresh heap
    /// file from `ctx`, keeping the sub-chunk remainder as the tail.
    /// Normally driven by the catalog's [`crate::spill::SpillPolicy`].
    pub fn spill(&mut self, ctx: &Arc<StorageContext>) -> Result<()> {
        if self.is_spilled() {
            return self.flush_tail();
        }
        let rows = match &mut self.store {
            Store::Mem(rows) => std::mem::take(rows),
            Store::Paged(_) => unreachable!(),
        };
        let mut paged = PagedStore {
            ctx: Arc::clone(ctx),
            heap: ctx.new_heap()?,
            chunks: Vec::new(),
            spilled_rows: 0,
            spilled_bytes: 0,
            tail: rows,
            cache: OnceLock::new(),
        };
        let flush = paged.flush_tail();
        match flush {
            Ok(()) => {
                self.store = Store::Paged(paged);
                Ok(())
            }
            Err(e) => {
                // Leave the table in memory, intact.
                self.store = Store::Mem(paged.materialize());
                Err(e)
            }
        }
    }

    /// Encode any full chunks accumulated in a spilled table's tail.
    /// No-op for in-memory tables.
    pub fn flush_tail(&mut self) -> Result<()> {
        if let Store::Paged(p) = &mut self.store {
            p.flush_tail()?;
        }
        Ok(())
    }

    /// Append a validated row.
    pub fn push(&mut self, row: Row) -> Result<()> {
        self.schema.validate_row(&row)?;
        self.push_unchecked(row);
        Ok(())
    }

    /// Append a row without validation (hot path).
    pub fn push_unchecked(&mut self, row: Row) {
        match &mut self.store {
            Store::Mem(rows) => rows.push(row),
            Store::Paged(p) => {
                p.tail.push(row);
                p.cache = OnceLock::new();
            }
        }
    }

    /// Append all rows of `other` (bag union, `∪B` in Algorithm 1).
    /// The schemas must be compatible; only the arity is checked here.
    pub fn extend_from(&mut self, other: Table) {
        debug_assert_eq!(self.schema.width(), other.schema.width());
        self.extend_rows(other.into_rows());
    }

    /// Append pre-validated rows in bulk. Spilled tables buffer them in
    /// the tail (no unspill), to be chunked by the next flush.
    pub fn extend_rows(&mut self, incoming: Vec<Row>) {
        match &mut self.store {
            Store::Mem(rows) => rows.extend(incoming),
            Store::Paged(p) => {
                p.tail.extend(incoming);
                p.cache = OnceLock::new();
            }
        }
    }

    /// The rows from position `start` on, when they are contiguous in
    /// memory (always for Mem; for Paged only while the suffix still
    /// sits in the tail). `None` means the suffix spans disk chunks —
    /// fall back to [`Table::rows`].
    pub fn suffix_rows(&self, start: usize) -> Option<&[Row]> {
        match &self.store {
            Store::Mem(rows) => rows.get(start..),
            Store::Paged(p) => {
                if start >= p.spilled_rows {
                    p.tail.get(start - p.spilled_rows..)
                } else {
                    None
                }
            }
        }
    }

    /// Extract the key of `row` at the given column indices.
    pub fn key_of(row: &[Value], cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| row[c].clone()).collect()
    }

    /// Remove duplicate rows, comparing only the listed columns and keeping
    /// the first occurrence. Used when merging newly inferred facts into
    /// `TΠ`: two facts are the same if they agree on `(R, x, C1, y, C2)`
    /// regardless of their `I` and `w` columns.
    pub fn dedup_by_cols(&mut self, cols: &[usize]) {
        let mut seen: probkb_support::hash::FxHashSet<Vec<Value>> =
            probkb_support::hash::FxHashSet::default();
        seen.reserve(self.len());
        self.rows_mut()
            .retain(|row| seen.insert(Table::key_of(row, cols)));
    }

    /// Remove full-row duplicates (SQL `DISTINCT`), keeping first occurrence.
    pub fn dedup_rows(&mut self) {
        let all: Vec<usize> = (0..self.schema.width()).collect();
        self.dedup_by_cols(&all);
    }

    /// The set of distinct keys over the listed columns.
    pub fn distinct_keys(&self, cols: &[usize]) -> HashSet<Vec<Value>> {
        let mut keys = HashSet::new();
        for block in self.blocks() {
            keys.extend(block.rows().iter().map(|row| Table::key_of(row, cols)));
        }
        keys
    }

    /// Retain only rows whose key over `cols` is NOT in `keys`.
    /// This implements the anti-join used by `applyConstraints` (Query 3):
    /// `DELETE FROM T WHERE (T.x, T.C1) IN (...)`.
    pub fn delete_matching(&mut self, cols: &[usize], keys: &HashSet<Vec<Value>>) -> usize {
        let before = self.len();
        self.rows_mut()
            .retain(|row| !keys.contains(&Table::key_of(row, cols)));
        before - self.len()
    }

    /// Sort rows by the listed columns ascending (stable).
    pub fn sort_by_cols(&mut self, cols: &[usize]) {
        self.rows_mut()
            .sort_by(|a, b| Table::key_of(a, cols).cmp(&Table::key_of(b, cols)));
    }

    /// Approximate in-memory size, used by the MPP cost model. Computed
    /// from logical row contents, so spilling a table never changes it
    /// (placement must not perturb planning).
    pub fn size_bytes(&self) -> usize {
        match &self.store {
            Store::Mem(rows) => rows
                .iter()
                .map(|r| r.iter().map(Value::size_bytes).sum::<usize>() + 24)
                .sum(),
            Store::Paged(p) => {
                p.spilled_bytes
                    + p.tail
                        .iter()
                        .map(|r| r.iter().map(Value::size_bytes).sum::<usize>() + 24)
                        .sum::<usize>()
            }
        }
    }

    /// Render the first `limit` rows as an aligned text grid for debugging
    /// and examples.
    pub fn display_head(&self, limit: usize) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let mut shown: Vec<Vec<String>> = Vec::new();
        'outer: for block in self.blocks() {
            for r in block.rows() {
                if shown.len() >= limit {
                    break 'outer;
                }
                shown.push(r.iter().map(|v| v.to_string()).collect());
            }
        }
        for row in &shown {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, n) in names.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", n, width = widths[i]));
        }
        out.push('\n');
        for row in &shown {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        if self.len() > limit {
            out.push_str(&format!("... ({} rows total)\n", self.len()));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_head(20))
    }
}

/// One streamed block of rows; see [`Table::blocks`].
pub enum Block<'a> {
    /// A borrowed slice (Mem store, or a Paged tail).
    Slice(&'a [Row]),
    /// A chunk decoded from disk.
    Chunk(DecodedChunk),
}

impl Block<'_> {
    /// The block's rows.
    pub fn rows(&self) -> &[Row] {
        match self {
            Block::Slice(rows) => rows,
            Block::Chunk(c) => c.rows(),
        }
    }

    /// Number of rows in the block.
    pub fn len(&self) -> usize {
        match self {
            Block::Slice(rows) => rows.len(),
            Block::Chunk(c) => c.len(),
        }
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense `u32` id column, when this block carries one (only
    /// decoded chunks of interned-id columns do).
    pub fn dense_u32(&self, col: usize) -> Option<&[u32]> {
        match self {
            Block::Slice(_) => None,
            Block::Chunk(c) => c.dense_u32(col),
        }
    }
}

enum BlocksState<'a> {
    Slice(Option<&'a [Row]>),
    Paged {
        store: &'a PagedStore,
        next_chunk: usize,
        tail_done: bool,
    },
}

/// Iterator over a table's [`Block`]s.
pub struct Blocks<'a> {
    state: BlocksState<'a>,
}

impl<'a> Iterator for Blocks<'a> {
    type Item = Block<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.state {
            BlocksState::Slice(slot) => slot.take().map(Block::Slice),
            BlocksState::Paged {
                store,
                next_chunk,
                tail_done,
            } => {
                if *next_chunk < store.chunks.len() {
                    let c = store.decode_at(*next_chunk);
                    *next_chunk += 1;
                    Some(Block::Chunk(c))
                } else if !*tail_done {
                    *tail_done = true;
                    if store.tail.is_empty() {
                        None
                    } else {
                        Some(Block::Slice(&store.tail))
                    }
                } else {
                    None
                }
            }
        }
    }
}

/// Positional row access over either store; see [`Table::row_reader`].
pub struct RowReader<'a> {
    table: &'a Table,
    cached: Option<(usize, DecodedChunk)>,
}

impl RowReader<'_> {
    /// The row at `pos` (panics when out of bounds, like slice
    /// indexing).
    pub fn row(&mut self, pos: usize) -> &Row {
        match &self.table.store {
            Store::Mem(rows) => &rows[pos],
            Store::Paged(p) => {
                if let Some(cache) = p.cache.get() {
                    return &cache[pos];
                }
                if pos >= p.spilled_rows {
                    return &p.tail[pos - p.spilled_rows];
                }
                // Chunks are CHUNK_ROWS-aligned by construction.
                let idx = pos / CHUNK_ROWS;
                if self.cached.as_ref().map(|(i, _)| *i) != Some(idx) {
                    self.cached = Some((idx, p.decode_at(idx)));
                }
                &self.cached.as_ref().unwrap().1.rows()[pos % CHUNK_ROWS]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn t3(rows: Vec<Vec<i64>>) -> Table {
        let schema = Schema::ints(&["a", "b", "c"]);
        Table::from_rows_unchecked(
            schema,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect())
                .collect(),
        )
    }

    fn spilled(mut t: Table) -> Table {
        let ctx = StorageContext::in_temp(32).unwrap();
        t.spill(&ctx).unwrap();
        assert!(t.is_spilled());
        t
    }

    fn big(n: i64) -> Table {
        t3((0..n).map(|i| vec![i, i % 7, i * 3]).collect())
    }

    #[test]
    fn push_validates() {
        let mut t = Table::empty(Schema::ints(&["a"]));
        assert!(t.push(vec![Value::Int(1)]).is_ok());
        assert!(t.push(vec![Value::str("x")]).is_err());
        assert!(t.push(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn from_rows_validates_all() {
        let schema = Schema::ints(&["a"]);
        assert!(Table::from_rows(schema.clone(), vec![vec![Value::Int(1)]]).is_ok());
        assert!(Table::from_rows(schema, vec![vec![Value::Null]]).is_err());
    }

    #[test]
    fn dedup_by_cols_keeps_first() {
        let mut t = t3(vec![vec![1, 2, 10], vec![1, 2, 20], vec![1, 3, 30]]);
        t.dedup_by_cols(&[0, 1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][2], Value::Int(10)); // first kept
    }

    #[test]
    fn delete_matching_removes_keyed_rows() {
        let mut t = t3(vec![vec![1, 2, 3], vec![4, 5, 6], vec![1, 9, 9]]);
        let mut keys = HashSet::new();
        keys.insert(vec![Value::Int(1)]);
        let removed = t.delete_matching(&[0], &keys);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::Int(4));
    }

    #[test]
    fn sort_by_cols_orders_rows() {
        let mut t = t3(vec![vec![3, 1, 0], vec![1, 2, 0], vec![1, 1, 0]]);
        t.sort_by_cols(&[0, 1]);
        let firsts: Vec<i64> = t.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(firsts, vec![1, 1, 3]);
        assert_eq!(t.rows()[0][1], Value::Int(1));
    }

    #[test]
    fn extend_from_is_bag_union() {
        let mut a = t3(vec![vec![1, 1, 1]]);
        let b = t3(vec![vec![1, 1, 1], vec![2, 2, 2]]);
        a.extend_from(b);
        assert_eq!(a.len(), 3); // duplicates preserved
    }

    #[test]
    fn distinct_keys_collects_set() {
        let t = t3(vec![vec![1, 2, 3], vec![1, 2, 9], vec![2, 2, 0]]);
        let keys = t.distinct_keys(&[0, 1]);
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn display_head_truncates() {
        let t = t3((0..30).map(|i| vec![i, i, i]).collect());
        let s = t.display_head(5);
        assert!(s.contains("(30 rows total)"));
    }

    #[test]
    fn size_bytes_nonzero_and_monotonic() {
        let small = t3(vec![vec![1, 2, 3]]);
        let big = t3(vec![vec![1, 2, 3], vec![4, 5, 6]]);
        assert!(small.size_bytes() > 0);
        assert!(big.size_bytes() > small.size_bytes());
        let _ = Column::new("x", DataType::Int); // silence unused import on some cfgs
    }

    // ---- spilled-store behavior ----

    #[test]
    fn spill_preserves_rows_len_and_debug() {
        let mem = big(10_000);
        let sp = spilled(mem.clone());
        assert_eq!(sp.len(), mem.len());
        assert!(sp.spilled_rows() > 0);
        assert!(sp.spilled_rows() % CHUNK_ROWS == 0, "unaligned chunks");
        assert_eq!(sp.rows(), mem.rows());
        assert_eq!(format!("{:?}", sp), format!("{:?}", mem));
        assert_eq!(sp.size_bytes(), mem.size_bytes());
    }

    #[test]
    fn blocks_concatenate_to_insertion_order() {
        let mem = big(9000);
        let sp = spilled(mem.clone());
        let mut streamed: Vec<Row> = Vec::new();
        let mut nblocks = 0;
        for b in sp.blocks() {
            streamed.extend_from_slice(b.rows());
            nblocks += 1;
        }
        assert!(nblocks >= 3, "9000 rows should stream in multiple blocks");
        assert_eq!(streamed.as_slice(), mem.rows());
        // Mem tables stream as exactly one block.
        assert_eq!(mem.blocks().count(), 1);
    }

    #[test]
    fn spilled_chunks_carry_dense_ids() {
        let sp = spilled(big(CHUNK_ROWS as i64 * 2));
        let mut saw_chunk = false;
        for b in sp.blocks() {
            if let Block::Chunk(_) = b {
                saw_chunk = true;
                assert!(b.dense_u32(0).is_some(), "id column not dense");
            }
        }
        assert!(saw_chunk);
    }

    #[test]
    fn pushes_after_spill_land_in_tail_then_flush() {
        let mut t = spilled(big(CHUNK_ROWS as i64));
        assert_eq!(t.spilled_rows(), CHUNK_ROWS);
        for i in 0..CHUNK_ROWS as i64 + 10 {
            t.push_unchecked(vec![Value::Int(i), Value::Int(0), Value::Int(0)]);
        }
        assert_eq!(t.len(), 2 * CHUNK_ROWS + 10);
        assert_eq!(t.spilled_rows(), CHUNK_ROWS); // not yet flushed
        t.flush_tail().unwrap();
        assert_eq!(t.spilled_rows(), 2 * CHUNK_ROWS);
        let rows = t.rows();
        assert_eq!(rows.len(), 2 * CHUNK_ROWS + 10);
        assert_eq!(rows[2 * CHUNK_ROWS + 9][0], Value::Int(CHUNK_ROWS as i64 + 9));
    }

    #[test]
    fn mutation_unspills_and_preserves_semantics() {
        let mem = {
            let mut t = big(6000);
            let mut keys = HashSet::new();
            keys.insert(vec![Value::Int(3)]);
            t.delete_matching(&[1], &keys);
            t.sort_by_cols(&[1, 0]);
            t
        };
        let mut sp = spilled(big(6000));
        let mut keys = HashSet::new();
        keys.insert(vec![Value::Int(3)]);
        sp.delete_matching(&[1], &keys);
        sp.sort_by_cols(&[1, 0]);
        assert!(!sp.is_spilled(), "mutation should unspill");
        assert_eq!(sp.rows(), mem.rows());
    }

    #[test]
    fn row_reader_matches_rows() {
        let mem = big(9500);
        let sp = spilled(mem.clone());
        let mut rd = sp.row_reader();
        for pos in [0usize, 1, 4095, 4096, 8191, 8192, 9499] {
            assert_eq!(rd.row(pos), &mem.rows()[pos], "pos {pos}");
        }
        // Backwards too (cache replacement).
        for pos in [9000usize, 100, 5000, 4000] {
            assert_eq!(rd.row(pos), &mem.rows()[pos], "pos {pos}");
        }
    }

    #[test]
    fn clone_of_spilled_table_is_independent() {
        let sp = spilled(big(5000));
        let mut clone = sp.clone();
        clone.push_unchecked(vec![Value::Int(-1), Value::Int(-1), Value::Int(-1)]);
        clone.flush_tail().unwrap();
        assert_eq!(clone.len(), 5001);
        assert_eq!(sp.len(), 5000);
        assert_eq!(sp.rows().len(), 5000);
    }

    #[test]
    fn into_rows_materializes_spilled() {
        let mem = big(4500);
        let sp = spilled(mem.clone());
        assert_eq!(sp.into_rows(), mem.into_rows());
    }
}
