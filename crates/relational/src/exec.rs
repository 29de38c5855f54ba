//! The plan executor.
//!
//! Executes [`Plan`] trees bottom-up, materializing a [`Table`] per
//! operator (set-oriented execution, like the SQL engines the paper runs
//! on). Every node records its own wall-clock time and output cardinality
//! so `EXPLAIN ANALYZE`-style output (Figure 4) can be rendered from any
//! execution.
//!
//! ## Morsel-driven parallelism
//!
//! With [`Executor::with_threads`] > 1 (default: the `PROBKB_THREADS`
//! environment variable, read once per process), operators over inputs of
//! at least [`Executor::with_parallel_threshold`] rows run on a fork-join
//! pool instead of the caller's thread:
//!
//! * **Equi-join** (inner, semi, anti) — one probe loop over one lookup:
//!   a prebuilt catalog [`HashIndex`] or [`BTreeIndex`] when the build
//!   side is an indexed scan, else a [`HashIndex`] built for the join
//!   over the executed build input, its chunks indexed concurrently and
//!   merged in chunk order. Probe-side chunks are scanned in parallel
//!   with per-chunk outputs concatenated in chunk order; every lookup
//!   returns build positions ascending, so all of them emit the same
//!   rows in the same order.
//! * **Aggregate** — each worker folds its chunk into a partial group map;
//!   partials are merged in chunk order. Only exact / order-insensitive
//!   aggregates (COUNT, integer SUM, MIN, MAX) take this path — float SUM
//!   and AVG accumulate in IEEE-754 addition order, which is not
//!   associative, so they stay serial.
//! * **Filter / Project** — chunked row maps, outputs in chunk order.
//!
//! Because chunking is contiguous and concatenation preserves chunk order,
//! every parallel operator produces rows in **exactly** the order the
//! serial path does: same-seed runs are byte-identical at any thread
//! count. The differential suite in `tests/proptest_parallel.rs` holds
//! this line.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use probkb_pager::buffer::BufferStats;
use probkb_support::hash::FxHashMap;
use probkb_support::sync::{default_threads, map_chunks, map_ranges};

use crate::btree_index::BTreeIndex;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::index::{HashIndex, IntKey, INLINE_KEY_WIDTH};
use crate::optimizer;
use crate::plan::{AggExpr, AggFunc, BuildSide, JoinKind, Plan};
use crate::schema::Schema;
use crate::spill::StorageContext;
use crate::table::{Block, Row, Table};
use crate::value::Value;

thread_local! {
    /// Joins on this thread whose lookup was a hash index with inline
    /// integer keys instead of boxed `Vec<Value>` keys.
    static INLINE_KEY_JOINS: Cell<u64> = const { Cell::new(0) };
    /// Probe ranges on this thread whose join keys were read straight out
    /// of dense `u32` id columns of a decoded chunk.
    static DENSE_U32_PROBES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

/// Count of joins run on the calling thread whose lookup was a hash
/// index with inline integer keys (the id-interned grounding case).
/// Monotonic, and per thread so concurrent tests cannot inflate it:
/// regression tests use it to assert grounding joins stay unboxed.
pub fn dense_int_join_count() -> u64 {
    INLINE_KEY_JOINS.with(Cell::get)
}

/// Count of probe ranges, on the calling thread, keyed straight from
/// dense `u32` id columns without materializing `Value`s for key
/// extraction. A serial probe has one range per block; a parallel probe
/// counts on its worker threads.
pub fn dense_u32_probe_block_count() -> u64 {
    DENSE_U32_PROBES.with(Cell::get)
}

/// Per-node execution statistics, mirroring the plan tree.
#[derive(Debug, Clone)]
pub struct ExecMetrics {
    /// Operator description (e.g. `Seq Scan on TPi`).
    pub description: String,
    /// Rows produced by this node.
    pub rows_out: usize,
    /// Rows the planner estimated this node would produce, annotated
    /// after execution so `EXPLAIN ANALYZE` can show `est=` next to
    /// `rows=` and make misestimates visible.
    pub est_rows: usize,
    /// Time spent in this node's own operator work, excluding children.
    pub elapsed: Duration,
    /// Wall-clock time of this node *including* its children, measured by
    /// a single timer spanning the node's whole execution. This is what
    /// [`ExecMetrics::total_elapsed`] reports: summing child times would
    /// double-count children that ran concurrently.
    pub wall: Duration,
    /// Worker threads that executed this node (1 = serial path).
    pub workers: usize,
    /// Per-worker busy time when `workers > 1`, in chunk order.
    pub worker_elapsed: Vec<Duration>,
    /// Buffer-pool activity during this node's execution (children
    /// included, like [`ExecMetrics::wall`]): pages pinned, cache
    /// hits/misses, evictions, and bytes spilled to disk. `None` when
    /// the catalog has no out-of-core storage configured.
    pub buffer: Option<BufferStats>,
    /// Child metrics, in plan order.
    pub children: Vec<ExecMetrics>,
}

impl ExecMetrics {
    /// Total time including children: the wall-clock of the single timer
    /// that spanned this node's execution. Not a sum over the tree —
    /// concurrent children overlap in time, and adding their individual
    /// clocks would count the overlap twice.
    pub fn total_elapsed(&self) -> Duration {
        self.wall
    }

    /// Visit every node depth-first.
    pub fn visit(&self, f: &mut dyn FnMut(&ExecMetrics, usize)) {
        fn go(node: &ExecMetrics, depth: usize, f: &mut dyn FnMut(&ExecMetrics, usize)) {
            f(node, depth);
            for c in &node.children {
                go(c, depth + 1, f);
            }
        }
        go(self, 0, f);
    }
}

/// Parallelism telemetry for one operator: how many workers ran and how
/// long each was busy. The serial path reports one worker and no per-
/// worker breakdown.
struct Par {
    workers: usize,
    worker_elapsed: Vec<Duration>,
}

impl Par {
    fn serial() -> Par {
        Par {
            workers: 1,
            worker_elapsed: Vec::new(),
        }
    }
}

/// Where a join looks up the build rows matching a probe key. Every
/// lookup returns positions in ascending row order, so all three emit
/// the same rows in the same order.
enum Lookup {
    /// A hash index: kept by the catalog, or built for this join.
    Hash(Arc<HashIndex>),
    /// A catalog B-tree. It may index rows appended after this query's
    /// snapshot of `len` rows; positions at or past `len` are skipped.
    BTree { index: Arc<BTreeIndex>, len: usize },
}

/// A join input resolved to a catalog table with a usable prebuilt index:
/// the index's key columns match the join keys (mapped through `cols`
/// when the input is a pruned projection over the scan).
struct IndexedSide {
    name: String,
    table: Arc<Table>,
    lookup: Lookup,
    /// Output-position → base-column map for a projected scan; `None`
    /// for a bare scan (identity).
    cols: Option<Vec<usize>>,
    /// Key-pair permutation that sorts this side's key columns into the
    /// index's (ascending) column order; applied to the probe keys so the
    /// pairs stay aligned.
    perm: Vec<usize>,
}

/// How an inner join reads the build row at a matched position.
enum BuildRows<'t> {
    /// Semi and anti joins read no build rows.
    None,
    /// An executed build input's rows, materialized by [`Table::rows`].
    Input(&'t [Row]),
    /// A catalog table, read by position one chunk at a time (a spilled
    /// table is never materialized whole) and projected through `cols`.
    Catalog(&'t Table, Option<&'t [usize]>),
}

/// The build side of an equi-join as the probe loop sees it.
struct Build<'t> {
    lookup: Lookup,
    rows: BuildRows<'t>,
    /// Whether the build rows land on the left of each output row.
    on_left: bool,
}

/// Either a shared snapshot (scans) or an operator-owned table.
enum Batch {
    Shared(Arc<Table>),
    Owned(Table),
}

impl Batch {
    fn table(&self) -> &Table {
        match self {
            Batch::Shared(t) => t,
            Batch::Owned(t) => t,
        }
    }

    fn into_table(self) -> Table {
        match self {
            Batch::Shared(t) => (*t).clone(),
            Batch::Owned(t) => t,
        }
    }
}

/// Below this many input rows an operator stays serial: forking threads
/// costs more than the scan itself. Chosen from the `joins` thread-scaling
/// microbench; tests set 0 via [`Executor::with_parallel_threshold`] to
/// force the parallel path on tiny inputs.
const PARALLEL_THRESHOLD: usize = 256;

/// Executes plans against a catalog.
///
/// `threads` > 1 enables the morsel-driven parallel operators (see the
/// module docs) for inputs of at least `parallel_threshold` rows. The
/// default budget is read once per process from `PROBKB_THREADS` (unset →
/// 1, the serial engine). Results are identical to serial execution at
/// any thread count.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    threads: usize,
    parallel_threshold: usize,
    optimize: bool,
    /// The catalog's storage context at construction time; drives the
    /// per-node buffer-pool deltas in [`ExecMetrics::buffer`].
    storage: Option<Arc<StorageContext>>,
}

impl<'a> Executor<'a> {
    /// Build an executor over a catalog with the process-default thread
    /// budget (`PROBKB_THREADS`, read once; unset → serial) and the
    /// process-default optimizer setting (`PROBKB_OPTIMIZE`, read once;
    /// unset → on).
    pub fn new(catalog: &'a Catalog) -> Self {
        Executor {
            catalog,
            threads: default_threads(),
            parallel_threshold: PARALLEL_THRESHOLD,
            optimize: optimizer::default_optimize(),
            storage: catalog.spill_policy().map(|p| p.ctx),
        }
    }

    /// Set the worker-thread budget. `0` is clamped to `1` (serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enable or disable the cost-based optimizer pass for this executor.
    /// Disabled, plans run exactly as written — the differential oracle
    /// the plan-equivalence tests compare against.
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Set the minimum input rows before an operator goes parallel.
    /// Differential tests set this to 0 so small randomized tables still
    /// exercise the parallel path.
    pub fn with_parallel_threshold(mut self, rows: usize) -> Self {
        self.parallel_threshold = rows;
        self
    }

    /// The configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers to use for an operator over `rows` input rows.
    fn workers_for(&self, rows: usize) -> usize {
        if self.threads > 1 && rows > 0 && rows >= self.parallel_threshold {
            self.threads
        } else {
            1
        }
    }

    /// Pick the build side for an inner join whose plan left it on `Auto`.
    /// With the optimizer enabled this consults table statistics — the
    /// estimated cardinality of each child plan — falling back to the
    /// materialized row counts when no estimate is available; with the
    /// optimizer off it is the old smaller-materialized-input heuristic.
    fn auto_build_on_left(&self, left: &Plan, right: &Plan, lt: &Table, rt: &Table) -> bool {
        if self.optimize {
            if let (Ok(le), Ok(re)) = (
                optimizer::estimate(left, self.catalog),
                optimizer::estimate(right, self.catalog),
            ) {
                return le.rows <= re.rows;
            }
        }
        lt.len() <= rt.len()
    }

    /// Execute a plan, returning the result and per-node metrics.
    ///
    /// With [`Executor::with_optimize`] enabled (the default), the plan
    /// first goes through [`optimizer::optimize`] — join reordering,
    /// build-side selection, and filter/projection pushdown — before
    /// execution. Either way the metrics tree is annotated with the
    /// planner's cardinality estimates (`est_rows`).
    pub fn execute(&self, plan: &Plan) -> Result<(Table, ExecMetrics)> {
        let optimized;
        let plan = if self.optimize {
            optimized = optimizer::optimize(plan, self.catalog);
            &optimized
        } else {
            plan
        };
        let (batch, mut metrics) = self.run(plan)?;
        optimizer::annotate_estimates(&mut metrics, plan, self.catalog);
        Ok((batch.into_table(), metrics))
    }

    /// Execute a plan, returning only the result table.
    pub fn execute_table(&self, plan: &Plan) -> Result<Table> {
        Ok(self.execute(plan)?.0)
    }

    fn run(&self, plan: &Plan) -> Result<(Batch, ExecMetrics)> {
        // One timer spans the whole node, children included — the only
        // double-count-free way to report total time once children can
        // run concurrently. Buffer-pool counters get the same spanning
        // treatment: each node reports the delta over its subtree.
        let entry = Instant::now();
        let before = self.storage.as_ref().map(|s| s.stats());
        let (batch, mut metrics) = self.run_node(plan)?;
        metrics.wall = entry.elapsed();
        if let Some(before) = before {
            let after = self.storage.as_ref().expect("storage unset mid-run").stats();
            metrics.buffer = Some(after.since(&before));
        }
        Ok((batch, metrics))
    }

    fn run_node(&self, plan: &Plan) -> Result<(Batch, ExecMetrics)> {
        match plan {
            Plan::Scan { table } => {
                let start = Instant::now();
                let t = self.catalog.get(table)?;
                let rows_out = t.len();
                Ok((
                    Batch::Shared(t),
                    leaf_metrics(plan.describe(), rows_out, start.elapsed()),
                ))
            }
            Plan::Values { table } => Ok((
                Batch::Owned(table.clone()),
                leaf_metrics(plan.describe(), table.len(), Duration::ZERO),
            )),
            Plan::Filter { input, predicate } => {
                let (batch, child) = self.run(input)?;
                let start = Instant::now();
                let src = batch.table();
                let workers = self.workers_for(src.len());
                let (rows, par) = try_par_map_table(src, workers, |block, range| {
                    let mut out = Vec::new();
                    for row in &block.rows()[range] {
                        if predicate.eval(row)?.is_truthy() {
                            out.push(row.clone());
                        }
                    }
                    Ok(out)
                })?;
                let table = Table::from_rows_unchecked(src.schema().clone(), rows);
                Ok(self.done(plan, table, start, par, vec![child]))
            }
            Plan::Project { input, exprs } => {
                let (batch, child) = self.run(input)?;
                let start = Instant::now();
                let src = batch.table();
                let lookup = |name: &str| self.catalog.schema_of(name);
                let schema = plan.schema(&lookup)?;
                let workers = self.workers_for(src.len());
                let (rows, par) = try_par_map_table(src, workers, |block, range| {
                    let mut out = Vec::with_capacity(range.len());
                    for row in &block.rows()[range] {
                        let mut r = Vec::with_capacity(exprs.len());
                        for (e, _) in exprs {
                            r.push(e.eval(row)?);
                        }
                        out.push(r);
                    }
                    Ok(out)
                })?;
                let table = Table::from_rows_unchecked(schema, rows);
                Ok(self.done(plan, table, start, par, vec![child]))
            }
            Plan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
                build,
            } => {
                if left_keys.len() != right_keys.len() {
                    return Err(Error::InvalidPlan(format!(
                        "join key arity mismatch: {} vs {}",
                        left_keys.len(),
                        right_keys.len()
                    )));
                }
                self.join(plan, left, right, left_keys, right_keys, *kind, *build)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (batch, child) = self.run(input)?;
                let start = Instant::now();
                let lookup = |name: &str| self.catalog.schema_of(name);
                let schema = plan.schema(&lookup)?;
                let src = batch.table();
                let workers = self.workers_for(src.len());
                let (table, par) = if workers > 1 && aggs_order_insensitive(src, aggs) {
                    par_aggregate_table(src, group_by, aggs, schema, workers)?
                } else {
                    (aggregate_table(src, group_by, aggs, schema)?, Par::serial())
                };
                Ok(self.done(plan, table, start, par, vec![child]))
            }
            Plan::Distinct { input } => {
                let (batch, child) = self.run(input)?;
                let start = Instant::now();
                let mut table = batch.into_table();
                table.dedup_rows();
                Ok(self.done(plan, table, start, Par::serial(), vec![child]))
            }
            Plan::UnionAll { left, right } => {
                let (lb, lm) = self.run(left)?;
                let (rb, rm) = self.run(right)?;
                let start = Instant::now();
                let lt = lb.table();
                let rt = rb.table();
                if lt.schema().width() != rt.schema().width() {
                    return Err(Error::InvalidPlan(format!(
                        "UNION ALL width mismatch: {} vs {}",
                        lt.schema().width(),
                        rt.schema().width()
                    )));
                }
                let mut table = lb.into_table();
                table.extend_from(rb.into_table());
                Ok(self.done(plan, table, start, Par::serial(), vec![lm, rm]))
            }
            Plan::Sort { input, keys } => {
                let (batch, child) = self.run(input)?;
                let start = Instant::now();
                let mut table = batch.into_table();
                table.sort_by_cols(keys);
                Ok(self.done(plan, table, start, Par::serial(), vec![child]))
            }
            Plan::Limit { input, n } => {
                let (batch, child) = self.run(input)?;
                let start = Instant::now();
                let src = batch.table();
                let mut rows: Vec<Row> = Vec::with_capacity((*n).min(src.len()));
                'blocks: for block in src.blocks() {
                    for row in block.rows() {
                        if rows.len() >= *n {
                            break 'blocks;
                        }
                        rows.push(row.clone());
                    }
                }
                let table = Table::from_rows_unchecked(src.schema().clone(), rows);
                Ok(self.done(plan, table, start, Par::serial(), vec![child]))
            }
        }
    }

    /// Resolve a join input to a catalog table with a usable prebuilt
    /// index on the given (input-local) join key columns. Eligible inputs
    /// are a bare [`Plan::Scan`] or a pure-column [`Plan::Project`]
    /// directly over one — the shape the optimizer's leaf pruning emits —
    /// with the key columns mapped back to base-table positions.
    fn indexed_side(&self, plan: &Plan, keys: &[usize]) -> Option<IndexedSide> {
        let (name, cols) = match plan {
            Plan::Scan { table } => (table.as_str(), None),
            Plan::Project { input, exprs } => {
                let Plan::Scan { table } = input.as_ref() else {
                    return None;
                };
                let mut map = Vec::with_capacity(exprs.len());
                for (e, _) in exprs {
                    match e {
                        Expr::Col(c) => map.push(*c),
                        _ => return None,
                    }
                }
                (table.as_str(), Some(map))
            }
            _ => return None,
        };
        let table = self.catalog.get(name).ok()?;
        let base_keys: Vec<usize> = keys
            .iter()
            .map(|&k| match &cols {
                Some(m) => m.get(k).copied(),
                None => Some(k),
            })
            .collect::<Option<Vec<usize>>>()?;
        // Equality conjunctions are order-insensitive: canonicalize to the
        // index's ascending column order so any key permutation matches.
        let mut perm: Vec<usize> = (0..base_keys.len()).collect();
        perm.sort_by_key(|&i| base_keys[i]);
        let sorted_keys: Vec<usize> = perm.iter().map(|&i| base_keys[i]).collect();
        // Defensive freshness checks; the catalog should never serve a
        // stale index, but a wrong join result is never worth the risk.
        // A hash index must cover the snapshot exactly. A B-tree index
        // may run ahead of the snapshot (a concurrent append extends it
        // in place) — the probe filters positions back to the snapshot —
        // but must never lag behind it.
        let lookup = match self.catalog.index_on(name, &sorted_keys) {
            Some(h) if h.rows_indexed() == table.len() => Lookup::Hash(h),
            _ => match self.catalog.btree_index_on(name, &sorted_keys) {
                Some(b) if b.rows_indexed() >= table.len() => Lookup::BTree {
                    index: b,
                    len: table.len(),
                },
                _ => return None,
            },
        };
        Some(IndexedSide {
            name: name.to_string(),
            table,
            lookup,
            cols,
            perm,
        })
    }

    /// The one equi-join routine, for inner, semi and anti joins. The
    /// build side is looked up through a prebuilt catalog index when
    /// [`Executor::indexed_side`] finds one (it overrides the plan's
    /// build-side choice: a prebuilt index costs nothing), and otherwise
    /// through a [`HashIndex`] built over the executed build input. Semi
    /// and anti joins always build on the right.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        plan: &Plan,
        left: &Plan,
        right: &Plan,
        left_keys: &[usize],
        right_keys: &[usize],
        kind: JoinKind,
        build: BuildSide,
    ) -> Result<(Batch, ExecMetrics)> {
        let indexed = match kind {
            JoinKind::Inner => {
                match (
                    self.indexed_side(left, left_keys),
                    self.indexed_side(right, right_keys),
                ) {
                    // Both indexed: probe into the larger one.
                    (Some(l), Some(r)) if l.table.len() >= r.table.len() => Some((true, l)),
                    (Some(l), None) => Some((true, l)),
                    (_, r) => r.map(|r| (false, r)),
                }
            }
            JoinKind::LeftSemi | JoinKind::LeftAnti => {
                self.indexed_side(right, right_keys).map(|r| (false, r))
            }
        };
        let Some((build_on_left, side)) = indexed else {
            let (lb, lm) = self.run(left)?;
            let (rb, rm) = self.run(right)?;
            let start = Instant::now();
            let (lt, rt) = (lb.table(), rb.table());
            let (build_on_left, probe_len) = match kind {
                JoinKind::Inner => {
                    let on_left = match build {
                        BuildSide::Left => true,
                        BuildSide::Right => false,
                        BuildSide::Auto => self.auto_build_on_left(left, right, lt, rt),
                    };
                    (on_left, lt.len().max(rt.len()))
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti => (false, lt.len()),
            };
            let workers = self.workers_for(probe_len);
            let (table, par) =
                transient_join(lt, rt, left_keys, right_keys, kind, build_on_left, workers);
            // A serial hash join reports one worker, also over a
            // multi-block (spilled) probe input.
            let par = if workers > 1 { par } else { Par::serial() };
            return Ok(self.done(plan, table, start, par, vec![lm, rm]));
        };
        let (probe_plan, probe_keys) = if build_on_left {
            (right, right_keys)
        } else {
            (left, left_keys)
        };
        let (pb, pm) = self.run(probe_plan)?;
        let start = Instant::now();
        let probe = pb.table();
        let schema = plan.schema(&|name: &str| self.catalog.schema_of(name))?;
        let probe_cols: Vec<usize> = side.perm.iter().map(|&i| probe_keys[i]).collect();
        let build = Build {
            lookup: side.lookup,
            rows: BuildRows::Catalog(&side.table, side.cols.as_deref()),
            on_left: build_on_left,
        };
        let workers = self.workers_for(probe.len());
        let (rows, par) = probe_join(probe, &probe_cols, &build, kind, schema.width(), workers)?;
        let table = Table::from_rows_unchecked(schema, rows);
        let probed = leaf_metrics(format!("Index Probe on {}", side.name), 0, Duration::ZERO);
        let children = if build_on_left {
            vec![probed, pm]
        } else {
            vec![pm, probed]
        };
        let (batch, mut metrics) = self.done(plan, table, start, par, children);
        metrics.description = format!("{} [index: {}]", metrics.description, side.name);
        Ok((batch, metrics))
    }

    fn done(
        &self,
        plan: &Plan,
        table: Table,
        start: Instant,
        par: Par,
        children: Vec<ExecMetrics>,
    ) -> (Batch, ExecMetrics) {
        let metrics = ExecMetrics {
            description: plan.describe(),
            rows_out: table.len(),
            est_rows: 0, // annotated by `execute` from the plan estimates
            elapsed: start.elapsed(),
            wall: Duration::ZERO, // set by `run` from the node-entry timer
            workers: par.workers,
            worker_elapsed: par.worker_elapsed,
            buffer: None, // filled by `run` from the spanning delta
            children,
        };
        (Batch::Owned(table), metrics)
    }
}

fn leaf_metrics(description: String, rows_out: usize, elapsed: Duration) -> ExecMetrics {
    ExecMetrics {
        description,
        rows_out,
        est_rows: 0, // annotated by `execute` from the plan estimates
        elapsed,
        wall: Duration::ZERO, // set by `run` from the node-entry timer
        workers: 1,
        worker_elapsed: Vec::new(),
        buffer: None, // filled by `run` from the spanning delta
        children: vec![],
    }
}

/// Chunked fallible row map over a whole table, streamed block by block
/// so spilled inputs never materialize more than one decoded chunk at a
/// time. Each block is cut into contiguous position ranges, one per
/// worker; `f` maps a block's range to output rows, and the outputs
/// concatenate in block and range order — row-for-row what a serial pass
/// produces — while each worker's busy time is recorded. An in-memory
/// table is a single block.
fn try_par_map_table<F>(table: &Table, workers: usize, f: F) -> Result<(Vec<Row>, Par)>
where
    F: Fn(&Block<'_>, Range<usize>) -> Result<Vec<Row>> + Sync,
{
    let mut out = Vec::new();
    let mut worker_elapsed = Vec::new();
    for block in table.blocks() {
        let parts = map_ranges(block.len(), workers, |_, range| {
            let busy = Instant::now();
            let rows = f(&block, range);
            vec![(rows, busy.elapsed())]
        });
        for (rows, busy) in parts {
            out.extend(rows?);
            worker_elapsed.push(busy);
        }
    }
    let workers = worker_elapsed.len().max(1);
    Ok((
        out,
        Par {
            workers,
            worker_elapsed,
        },
    ))
}

/// Multi-key hash equi-join with the default build-side heuristic: for
/// inner joins the hash table is built on whichever input has fewer
/// *materialized* rows. Note this is a fallback, not a cost-based choice —
/// the executor's plan-aware path ([`Plan::HashJoin`]'s `build` field plus
/// statistics-based `Auto` resolution) picks the side from cardinality
/// estimates and only degenerates to this heuristic when no estimates
/// exist. Rows with a NULL in any key column never match (SQL semantics).
/// Semi and anti joins build on the right. The output row layout is
/// always `left ++ right` (just `left` for semi/anti).
pub fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
) -> Table {
    let build_on_left = kind == JoinKind::Inner && left.len() <= right.len();
    transient_join(left, right, left_keys, right_keys, kind, build_on_left, 1).0
}

/// An equi-join whose lookup is a [`HashIndex`] built over the build
/// input for this join alone, on `workers` threads for both the build
/// and the probe.
fn transient_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    kind: JoinKind,
    build_on_left: bool,
    workers: usize,
) -> (Table, Par) {
    let (build_table, build_keys, probe, probe_keys) = if build_on_left {
        (left, left_keys, right, right_keys)
    } else {
        (right, right_keys, left, left_keys)
    };
    let schema = match kind {
        JoinKind::Inner => left.schema().join(right.schema()),
        JoinKind::LeftSemi | JoinKind::LeftAnti => left.schema().clone(),
    };
    // An inner join materializes its build input first, so a spilled
    // input is decoded once for both the index and the emitted rows.
    let rows = match kind {
        JoinKind::Inner => BuildRows::Input(build_table.rows()),
        JoinKind::LeftSemi | JoinKind::LeftAnti => BuildRows::None,
    };
    let index = HashIndex::build(build_table, build_keys, workers);
    let build = Build {
        lookup: Lookup::Hash(Arc::new(index)),
        rows,
        on_left: build_on_left,
    };
    let (rows, par) = probe_join(probe, probe_keys, &build, kind, schema.width(), workers)
        .expect("hash lookups cannot fail");
    (Table::from_rows_unchecked(schema, rows), par)
}

/// The one probe loop behind every equi-join. Streams `probe` through
/// [`try_par_map_table`] and looks each row's `probe_keys` up in the
/// build side. Inner joins emit `left ++ right` rows in probe order, then
/// in ascending build position; semi and anti joins keep the probe rows
/// that do (do not) match. NULL keys never match. When the lookup is a
/// hash index with inline keys, a probe block exposing dense `u32`
/// columns for every key is keyed straight from those arrays.
fn probe_join(
    probe: &Table,
    probe_keys: &[usize],
    build: &Build<'_>,
    kind: JoinKind,
    width: usize,
    workers: usize,
) -> Result<(Vec<Row>, Par)> {
    let inline = match &build.lookup {
        Lookup::Hash(index) => index.has_inline_keys(),
        Lookup::BTree { .. } => false,
    };
    if inline {
        bump(&INLINE_KEY_JOINS);
    }
    try_par_map_table(probe, workers, |block, range| {
        let prows = &block.rows()[range.clone()];
        let ids: Option<Vec<&[u32]>> = if inline {
            probe_keys
                .iter()
                .map(|&c| block.dense_u32(c).map(|col| &col[range.clone()]))
                .collect()
        } else {
            None
        };
        if ids.is_some() {
            bump(&DENSE_U32_PROBES);
        }
        // One positional reader per worker range over a catalog table.
        let mut reader = match build.rows {
            BuildRows::Catalog(table, _) => Some(table.row_reader()),
            BuildRows::None | BuildRows::Input(_) => None,
        };
        let mut emit_build = |pos: usize, out: &mut Row| match build.rows {
            BuildRows::Input(rows) => out.extend_from_slice(&rows[pos]),
            BuildRows::Catalog(_, cols) => {
                let row = reader.as_mut().expect("catalog row reader").row(pos);
                match cols {
                    Some(cols) => out.extend(cols.iter().map(|&c| row[c].clone())),
                    None => out.extend_from_slice(row),
                }
            }
            BuildRows::None => unreachable!("only inner joins read build rows"),
        };
        let mut out = Vec::new();
        let mut btree_matches;
        for (i, prow) in prows.iter().enumerate() {
            let matches: &[usize] = match (&build.lookup, &ids) {
                (Lookup::Hash(index), Some(ids)) => {
                    let mut key: IntKey = [0; INLINE_KEY_WIDTH];
                    for (slot, col) in key.iter_mut().zip(ids) {
                        *slot = i64::from(col[i]);
                    }
                    index.get_inline(&key)
                }
                (Lookup::Hash(index), None) => index.probe(prow, probe_keys),
                (Lookup::BTree { index, len }, _) => {
                    btree_matches = index.probe(prow, probe_keys)?;
                    btree_matches.retain(|&pos| pos < *len);
                    &btree_matches
                }
            };
            match kind {
                JoinKind::Inner => {
                    for &pos in matches {
                        let mut row: Row = Vec::with_capacity(width);
                        if build.on_left {
                            emit_build(pos, &mut row);
                            row.extend_from_slice(prow);
                        } else {
                            row.extend_from_slice(prow);
                            emit_build(pos, &mut row);
                        }
                        out.push(row);
                    }
                }
                JoinKind::LeftSemi if !matches.is_empty() => out.push(prow.clone()),
                JoinKind::LeftAnti if matches.is_empty() => out.push(prow.clone()),
                JoinKind::LeftSemi | JoinKind::LeftAnti => {}
            }
        }
        Ok(out)
    })
}

#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: i64 },
}

impl AggState {
    fn new(func: &AggFunc, input_is_float: bool) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count(_) => AggState::Count(0),
            AggFunc::Sum(_) => {
                if input_is_float {
                    AggState::SumFloat(0.0, false)
                } else {
                    AggState::SumInt(0, false)
                }
            }
            AggFunc::Min(_) => AggState::Min(None),
            AggFunc::Max(_) => AggState::Max(None),
            AggFunc::Avg(_) => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, func: &AggFunc, row: &Row) {
        match (self, func) {
            (AggState::Count(n), AggFunc::CountStar) => *n += 1,
            (AggState::Count(n), AggFunc::Count(c)) => {
                if !row[*c].is_null() {
                    *n += 1;
                }
            }
            (AggState::SumInt(acc, seen), AggFunc::Sum(c)) => {
                if let Some(v) = row[*c].as_int() {
                    *acc += v;
                    *seen = true;
                }
            }
            (AggState::SumFloat(acc, seen), AggFunc::Sum(c)) => {
                if let Some(v) = row[*c].as_float() {
                    *acc += v;
                    *seen = true;
                }
            }
            (AggState::Min(cur), AggFunc::Min(c)) => {
                let v = &row[*c];
                if !v.is_null() && cur.as_ref().is_none_or(|m| v < m) {
                    *cur = Some(v.clone());
                }
            }
            (AggState::Max(cur), AggFunc::Max(c)) => {
                let v = &row[*c];
                if !v.is_null() && cur.as_ref().is_none_or(|m| v > m) {
                    *cur = Some(v.clone());
                }
            }
            (AggState::Avg { sum, n }, AggFunc::Avg(c)) => {
                if let Some(v) = row[*c].as_float() {
                    *sum += v;
                    *n += 1;
                }
            }
            _ => unreachable!("agg state/func mismatch"),
        }
    }

    /// Fold another chunk's partial state (same function) into `self`.
    /// Used by the parallel aggregate's merge step; the float variants
    /// merge too, but the planner never parallelizes them (see
    /// [`aggs_order_insensitive`]) because float addition order changes
    /// the bits.
    fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Count(n), AggState::Count(m)) => *n += m,
            (AggState::SumInt(acc, seen), AggState::SumInt(b, sb)) => {
                *acc += b;
                *seen |= sb;
            }
            (AggState::SumFloat(acc, seen), AggState::SumFloat(b, sb)) => {
                *acc += b;
                *seen |= sb;
            }
            (AggState::Min(cur), AggState::Min(v)) => {
                if let Some(v) = v {
                    if cur.as_ref().is_none_or(|m| v < *m) {
                        *cur = Some(v);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(v)) => {
                if let Some(v) = v {
                    if cur.as_ref().is_none_or(|m| v > *m) {
                        *cur = Some(v);
                    }
                }
            }
            (AggState::Avg { sum, n }, AggState::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            _ => unreachable!("agg state merge mismatch"),
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::SumInt(v, seen) => {
                if seen {
                    Value::Int(v)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat(v, seen) => {
                if seen {
                    Value::Float(v)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
        }
    }
}

/// Which aggregates read a float column and therefore accumulate in
/// `f64` (SUM only; COUNT/MIN/MAX are type-agnostic).
fn float_sum_inputs(input: &Table, aggs: &[AggExpr]) -> Vec<bool> {
    use crate::value::DataType;
    aggs.iter()
        .map(|a| match a.func {
            AggFunc::Sum(c) => input
                .schema()
                .column(c)
                .map(|col| col.dtype == DataType::Float)
                .unwrap_or(false),
            _ => false,
        })
        .collect()
}

/// True when every aggregate is exact or order-insensitive, so per-chunk
/// partial states can be merged without changing a single bit of the
/// result. Float SUM and AVG accumulate in IEEE-754 addition order, which
/// is not associative — those keep the serial path so same-seed runs stay
/// byte-identical at any thread count.
fn aggs_order_insensitive(input: &Table, aggs: &[AggExpr]) -> bool {
    aggs.iter()
        .zip(float_sum_inputs(input, aggs))
        .all(|(a, is_float)| match a.func {
            AggFunc::Avg(_) => false,
            AggFunc::Sum(_) => !is_float,
            AggFunc::CountStar | AggFunc::Count(_) | AggFunc::Min(_) | AggFunc::Max(_) => true,
        })
}

/// Grouped aggregation over a table, producing `out_schema` rows sorted by
/// group key. Exposed so the MPP executor can run segment-local aggregates.
pub fn aggregate_table(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggExpr],
    out_schema: Schema,
) -> Result<Table> {
    let float_inputs = float_sum_inputs(input, aggs);

    let make_states = || -> Vec<AggState> {
        aggs.iter()
            .zip(float_inputs.iter())
            .map(|(a, &is_f)| AggState::new(&a.func, is_f))
            .collect()
    };

    let mut groups: FxHashMap<Vec<Value>, Vec<AggState>> = FxHashMap::default();
    // A global aggregate (no GROUP BY) must yield one row even on empty
    // input, so seed the single group eagerly.
    if group_by.is_empty() {
        groups.insert(Vec::new(), make_states());
    }
    for block in input.blocks() {
        for row in block.rows() {
            let key = Table::key_of(row, group_by);
            let states = groups.entry(key).or_insert_with(make_states);
            for (state, agg) in states.iter_mut().zip(aggs.iter()) {
                state.update(&agg.func, row);
            }
        }
    }

    Ok(finish_groups(groups, out_schema))
}

/// Parallel grouped aggregation: each worker folds its chunk into a
/// partial group map; partials are merged in chunk order, then finished
/// exactly like [`aggregate_table`] (same empty-group seeding, same
/// sorted output). Only called when [`aggs_order_insensitive`] holds.
fn par_aggregate_table(
    input: &Table,
    group_by: &[usize],
    aggs: &[AggExpr],
    out_schema: Schema,
    workers: usize,
) -> Result<(Table, Par)> {
    let float_inputs = float_sum_inputs(input, aggs);
    let make_states = || -> Vec<AggState> {
        aggs.iter()
            .zip(float_inputs.iter())
            .map(|(a, &is_f)| AggState::new(&a.func, is_f))
            .collect()
    };

    let partials = map_chunks(input.rows(), workers, |_, chunk| {
        let busy = Instant::now();
        let mut groups: FxHashMap<Vec<Value>, Vec<AggState>> = FxHashMap::default();
        for row in chunk {
            let key = Table::key_of(row, group_by);
            let states = groups.entry(key).or_insert_with(&make_states);
            for (state, agg) in states.iter_mut().zip(aggs.iter()) {
                state.update(&agg.func, row);
            }
        }
        vec![(groups, busy.elapsed())]
    });

    let mut groups: FxHashMap<Vec<Value>, Vec<AggState>> = FxHashMap::default();
    if group_by.is_empty() {
        groups.insert(Vec::new(), make_states());
    }
    let mut worker_elapsed = Vec::with_capacity(partials.len());
    for (partial, busy) in partials {
        worker_elapsed.push(busy);
        for (key, states) in partial {
            match groups.entry(key) {
                Entry::Occupied(mut e) => {
                    for (acc, s) in e.get_mut().iter_mut().zip(states) {
                        acc.merge(s);
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(states);
                }
            }
        }
    }
    let workers = worker_elapsed.len().max(1);
    Ok((
        finish_groups(groups, out_schema),
        Par {
            workers,
            worker_elapsed,
        },
    ))
}

/// Finish agg states into output rows, sorted by group key (deterministic
/// output order helps tests and diffing).
fn finish_groups(groups: FxHashMap<Vec<Value>, Vec<AggState>>, out_schema: Schema) -> Table {
    let mut rows: Vec<Row> = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let mut row = key;
        for state in states {
            row.push(state.finish());
        }
        rows.push(row);
    }
    rows.sort();
    Table::from_rows_unchecked(out_schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggExpr;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let people = Table::from_rows(
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("city", DataType::Int),
                Column::nullable("w", DataType::Float),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(10), Value::Float(0.9)],
                vec![Value::Int(2), Value::Int(10), Value::Null],
                vec![Value::Int(3), Value::Int(20), Value::Float(0.5)],
            ],
        )
        .unwrap();
        let cities = Table::from_rows(
            Schema::ints(&["cid", "country"]),
            vec![
                vec![Value::Int(10), Value::Int(100)],
                vec![Value::Int(20), Value::Int(200)],
            ],
        )
        .unwrap();
        cat.create("people", people).unwrap();
        cat.create("cities", cities).unwrap();
        cat
    }

    #[test]
    fn scan_and_filter() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("people").filter(Expr::col(1).eq(Expr::lit(10i64)));
        let (out, metrics) = exec.execute(&plan).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(metrics.rows_out, 2);
        assert_eq!(metrics.children[0].rows_out, 3);
    }

    #[test]
    fn inner_join_concatenates() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("people").hash_join(Plan::scan("cities"), vec![1], vec![0]);
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.schema().width(), 5);
        // person 1 joined with country 100
        let row = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(1))
            .unwrap();
        assert_eq!(row[4], Value::Int(100));
    }

    #[test]
    fn semi_and_anti_join() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let only10 = Table::from_rows_unchecked(Schema::ints(&["cid"]), vec![vec![Value::Int(10)]]);
        let semi = Plan::scan("people").join(
            Plan::values(only10.clone()),
            vec![1],
            vec![0],
            JoinKind::LeftSemi,
        );
        assert_eq!(exec.execute_table(&semi).unwrap().len(), 2);
        let anti = Plan::scan("people").join(
            Plan::values(only10),
            vec![1],
            vec![0],
            JoinKind::LeftAnti,
        );
        let out = exec.execute_table(&anti).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(3));
        assert_eq!(out.schema().width(), 3); // left schema preserved
    }

    #[test]
    fn null_keys_never_match() {
        let cat = Catalog::new();
        let schema = Schema::new(vec![Column::nullable("k", DataType::Int)]);
        let t = Table::from_rows(
            schema.clone(),
            vec![vec![Value::Null], vec![Value::Int(1)]],
        )
        .unwrap();
        cat.create("t", t).unwrap();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("t").hash_join(Plan::scan("t"), vec![0], vec![0]);
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.len(), 1); // only Int(1) matches itself
    }

    #[test]
    fn null_keys_never_match_in_parallel() {
        let cat = Catalog::new();
        let schema = Schema::new(vec![Column::nullable("k", DataType::Int)]);
        let t = Table::from_rows(
            schema.clone(),
            vec![vec![Value::Null], vec![Value::Int(1)], vec![Value::Null]],
        )
        .unwrap();
        cat.create("t", t).unwrap();
        let exec = Executor::new(&cat).with_threads(4).with_parallel_threshold(0);
        let plan = Plan::scan("t").hash_join(Plan::scan("t"), vec![0], vec![0]);
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn aggregate_grouped() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("people").aggregate(
            vec![1],
            vec![
                AggExpr::new(AggFunc::CountStar, "n"),
                AggExpr::new(AggFunc::Count(2), "nw"),
                AggExpr::new(AggFunc::Min(0), "mn"),
                AggExpr::new(AggFunc::Avg(2), "aw"),
            ],
        );
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.len(), 2);
        let g10 = out
            .rows()
            .iter()
            .find(|r| r[0] == Value::Int(10))
            .unwrap();
        assert_eq!(g10[1], Value::Int(2)); // COUNT(*)
        assert_eq!(g10[2], Value::Int(1)); // COUNT(w) skips NULL
        assert_eq!(g10[3], Value::Int(1)); // MIN(id)
        assert_eq!(g10[4], Value::Float(0.9)); // AVG over non-null
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let cat = Catalog::new();
        cat.create("e", Table::empty(Schema::ints(&["a"]))).unwrap();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("e").aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::CountStar, "n"),
                AggExpr::new(AggFunc::Sum(0), "s"),
                AggExpr::new(AggFunc::Max(0), "m"),
            ],
        );
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
        assert!(out.rows()[0][2].is_null());
    }

    #[test]
    fn distinct_union_sort_limit() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let ids = Plan::scan("people").project_cols(&[1], &["city"]);
        let plan = ids
            .clone()
            .union_all(ids)
            .distinct()
            .sort(vec![0])
            .limit(1);
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(10));
    }

    #[test]
    fn union_width_mismatch_fails_at_exec() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("people").union_all(Plan::scan("cities"));
        assert!(exec.execute(&plan).is_err());
    }

    #[test]
    fn join_key_arity_mismatch_rejected() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("people").hash_join(Plan::scan("cities"), vec![0, 1], vec![0]);
        assert!(matches!(exec.execute(&plan), Err(Error::InvalidPlan(_))));
    }

    #[test]
    fn metrics_tree_matches_plan_shape() {
        let cat = catalog();
        // Optimization off: this test pins the metrics tree to the plan as
        // written (the optimizer would push the filter below the join).
        let exec = Executor::new(&cat).with_optimize(false);
        let plan = Plan::scan("people")
            .hash_join(Plan::scan("cities"), vec![1], vec![0])
            .filter(Expr::col(4).gt(Expr::lit(100i64)));
        let (_, metrics) = exec.execute(&plan).unwrap();
        assert!(metrics.description.starts_with("Filter"));
        assert!(metrics.children[0].description.contains("Hash Join"));
        assert_eq!(metrics.children[0].children.len(), 2);
        let mut count = 0;
        metrics.visit(&mut |_, _| count += 1);
        assert_eq!(count, 4);
        assert!(metrics.total_elapsed() >= metrics.elapsed);
        // The node-entry timer spans children: every child's wall fits
        // inside its parent's.
        assert!(metrics.children[0].wall <= metrics.wall);
    }

    #[test]
    fn total_elapsed_uses_single_parent_timer() {
        // Two children that each ran 90ms *concurrently* under a parent
        // whose wall-clock was 100ms. Summing per-node times (the old
        // semantics) would claim 10 + 90 + 90 = 190ms of elapsed time for
        // a node that finished in 100ms; the single parent timer cannot
        // double-count overlap.
        let child = || ExecMetrics {
            description: "child".into(),
            rows_out: 0,
            est_rows: 0,
            elapsed: Duration::from_millis(90),
            wall: Duration::from_millis(90),
            workers: 1,
            worker_elapsed: Vec::new(),
            buffer: None,
            children: vec![],
        };
        let parent = ExecMetrics {
            description: "parent".into(),
            rows_out: 0,
            est_rows: 0,
            elapsed: Duration::from_millis(10),
            wall: Duration::from_millis(100),
            workers: 2,
            worker_elapsed: vec![Duration::from_millis(90); 2],
            buffer: None,
            children: vec![child(), child()],
        };
        assert_eq!(parent.total_elapsed(), Duration::from_millis(100));
        let naive_sum = parent.elapsed
            + parent
                .children
                .iter()
                .map(|c| c.total_elapsed())
                .sum::<Duration>();
        assert!(parent.total_elapsed() < naive_sum);
    }

    #[test]
    fn parallel_execution_matches_serial_and_reports_workers() {
        let cat = Catalog::new();
        let big = Table::from_rows_unchecked(
            Schema::ints(&["k", "v"]),
            (0..300i64)
                .map(|i| vec![Value::Int(i % 17), Value::Int(i)])
                .collect(),
        );
        let dim = Table::from_rows_unchecked(
            Schema::ints(&["k", "tag"]),
            (0..17i64).map(|i| vec![Value::Int(i), Value::Int(i * 10)]).collect(),
        );
        cat.create("big", big).unwrap();
        cat.create("dim", dim).unwrap();
        let plan = Plan::scan("big")
            .hash_join(Plan::scan("dim"), vec![0], vec![0])
            .aggregate(
                vec![3],
                vec![
                    AggExpr::new(AggFunc::CountStar, "n"),
                    AggExpr::new(AggFunc::Sum(1), "s"),
                ],
            );
        let serial = Executor::new(&cat).with_threads(1).execute_table(&plan).unwrap();
        let (par, metrics) = Executor::new(&cat)
            .with_threads(4)
            .with_parallel_threshold(1)
            .execute(&plan)
            .unwrap();
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
        // Aggregate and join both engaged multiple workers.
        assert!(metrics.workers > 1, "aggregate should go parallel");
        assert_eq!(metrics.workers, metrics.worker_elapsed.len());
        assert!(metrics.children[0].workers > 1, "join should go parallel");
    }

    #[test]
    fn float_order_sensitive_aggregates_stay_serial() {
        let cat = catalog();
        let plan = Plan::scan("people").aggregate(
            vec![1],
            vec![
                AggExpr::new(AggFunc::Sum(2), "sw"), // float SUM
                AggExpr::new(AggFunc::Avg(2), "aw"),
            ],
        );
        let (out, metrics) = Executor::new(&cat)
            .with_threads(8)
            .with_parallel_threshold(0)
            .execute(&plan)
            .unwrap();
        assert_eq!(metrics.workers, 1, "float SUM/AVG must not parallelize");
        let serial = Executor::new(&cat).with_threads(1).execute_table(&plan).unwrap();
        assert_eq!(format!("{serial:?}"), format!("{out:?}"));
    }

    #[test]
    fn project_computes_expressions() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = Plan::scan("people").project(vec![
            (Expr::col(0), "id"),
            (Expr::col(2).is_null(), "missing_w"),
        ]);
        let out = exec.execute_table(&plan).unwrap();
        assert_eq!(out.schema().names(), vec!["id", "missing_w"]);
        assert_eq!(out.rows()[1][1], Value::Int(1));
    }

    /// The grounding join probe must take the dense paths: all-int keys
    /// select a hash index with inline keys, and probing a *spilled*
    /// table must read keys straight out of the columnar chunks' dense
    /// `u32` arrays without reconstructing `Value`s — for a one-column
    /// key and a grounding-shaped five-column one. Counter deltas prove
    /// the fast paths actually ran — a silent fallback to boxed keys
    /// would still pass every result-equality test. The counters are per
    /// thread and the joins run serially, so concurrent tests cannot
    /// satisfy the assertions.
    #[test]
    fn dense_int_join_probes_spilled_chunks_without_boxing() {
        use crate::spill::{SpillPolicy, StorageContext};
        let cat = Catalog::new();
        let ctx = StorageContext::in_temp(64).unwrap();
        cat.set_spill_policy(Some(SpillPolicy {
            ctx,
            threshold_rows: 1024,
        }));
        for width in [1usize, 5] {
            let key = |k: i64| (0..width as i64).map(|j| Value::Int(k + j)).collect::<Row>();
            let names: Vec<String> = (0..width).map(|j| format!("k{j}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let probe = Table::from_rows_unchecked(
                Schema::ints(&[names.as_slice(), &["v"]].concat()),
                (0..10_000i64)
                    .map(|i| [key(i % 97), vec![Value::Int(i)]].concat())
                    .collect(),
            );
            let dim = Table::from_rows_unchecked(Schema::ints(&names), (0..97).map(key).collect());
            let (probe_name, dim_name) = (format!("probe{width}"), format!("dim{width}"));
            cat.create(&probe_name, probe).unwrap();
            cat.create(&dim_name, dim).unwrap();
            assert!(cat.get(&probe_name).unwrap().is_spilled());

            let joins_before = dense_int_join_count();
            let blocks_before = dense_u32_probe_block_count();
            // Serial inner join, dim side built, spilled side probed.
            let cols: Vec<usize> = (0..width).collect();
            let plan = Plan::scan(&probe_name).hash_join(Plan::scan(&dim_name), cols.clone(), cols);
            let out = Executor::new(&cat)
                .with_threads(1)
                .with_optimize(false)
                .execute_table(&plan)
                .unwrap();
            assert_eq!(out.len(), 10_000);
            assert!(
                dense_int_join_count() > joins_before,
                "all-int join keys ({width} columns) must select the dense build"
            );
            assert!(
                dense_u32_probe_block_count() >= blocks_before + 2,
                "a 10k-row spilled probe side spans >= 2 dense-u32 chunks ({width} key columns)"
            );
        }
    }
}
