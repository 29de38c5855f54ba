//! Incremental knowledge expansion: `apply_delta` (live updates).
//!
//! A [`DeltaSession`] holds a fully-grounded KB and merges batches of new
//! facts and rules into it **without** re-grounding from scratch. The
//! post-delta facts table, factor table, and fact-derivation schedule are
//! byte-identical to a full re-ground of the union KB — enforced by the
//! differential suite (`tests/incremental_differential.rs`) — while the
//! work done is proportional to what the delta actually changes.
//!
//! # The union-renumbering replay
//!
//! Fact ids in a batch run are assigned per iteration: every round's new
//! candidate keys are sorted before registration
//! ([`crate::grounding::register_candidates`]), so ids encode the round at
//! which each fact is first derived. A delta can *accelerate* old
//! derivations (a new fact completes a rule body earlier) and *promote*
//! old derived facts into weighted base facts, so matching the batch run
//! means renumbering: `apply_delta` replays the union run round by round,
//! computing only delta-reachable derivations and **injecting** the old
//! run's recorded per-round schedule for everything else.
//!
//! Per round `r`, candidate keys come from four sources:
//!
//! 1. **Off-schedule frontier** (`T_dx` = facts that appeared last round
//!    at a different round than the base run, or delta base facts): the
//!    semi-naive plans `Mi ⋈ T_dx [⋈ TΠ]` over the *old* partitions.
//! 2. **Schedule × extra** (arity-3 only, `r ≥ 2`): a base fact scheduled
//!    last round joined with an off-schedule fact from *any* earlier
//!    round (`Mi ⋈ T_sched ⋈ T_extra`, both leg orders).
//! 3. **New-rule partitions** (`Mi_new` = union partition rows minus old
//!    rows): the full join at `r = 1`, then `Mi_new ⋈ T_fresh [⋈ TΠ]`
//!    where `T_fresh` is everything that arrived last round.
//! 4. **Injection**: the base run's round-`r` schedule, replayed from the
//!    recorded `fact_iteration` (already-registered keys no-op).
//!
//! Registration over the sorted union of these sources reproduces the
//! union run's round-`r` registrations exactly; convergence, the
//! iteration cap, and `max_total_facts` mirror for the same reason. The
//! factor pass reuses the old `TΦ` (ids remapped old → new) and adds only
//! factors with at least one new ground atom, via a disjoint old/new leg
//! decomposition of each partition join.
//!
//! Constraint enforcement deletes facts mid-run, which invalidates the
//! schedule-injection argument — sessions with active constraints fall
//! back to a full re-ground of the union (still byte-identical, reported
//! via [`DeltaReport::full_fallback`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use probkb_kb::prelude::{
    parse_into, Fact, HornRule, KbBuilder, ParseError, ProbKb, RulePattern,
};
use probkb_relational::prelude::*;
use probkb_support::sync::{default_threads, map_indices};

use crate::grounding::{
    canonicalize_factors, ground, register_candidates, GroundingConfig, GroundingOutcome,
};
use crate::queries::{ground_atoms_plan, ground_factors_plan, join_spec};
use crate::relmodel::{
    candidate_schema, load, mln_tables, names, tphi, tphi_schema, tpi, tpi_schema, FactRegistry,
};
use crate::semi_naive::SemiNaiveEngine;

/// Off-schedule frontier: facts first derived last round at a round the
/// base run did not predict (plus the delta's base facts at round 1).
const T_DX: &str = "T_dx";
/// The base run's schedule for last round (keys with recorded ids).
const T_SCHED: &str = "T_sched";
/// All off-schedule facts whose scheduled round has not passed yet.
const T_EXTRA: &str = "T_extra";
/// Everything that arrived last round: `T_dx ∪ T_sched`.
const T_FRESH: &str = "T_fresh";
/// Union-closure facts that already existed in the old closure.
const T_OLD: &str = "T_old";
/// Union-closure facts that are genuinely new.
const T_NEW: &str = "T_new";

/// Row count above which a per-round table borrows `TΠ`'s statistics
/// instead of being re-analyzed (it is a closure-sized subset of `TΠ`,
/// and the planner only needs "this leg is big").
const STATS_BORROW_MIN: usize = 4096;

/// The MLN table holding only the delta's rows of partition `i`.
fn m_new(i: usize) -> String {
    format!("M{i}_new")
}

/// A batch of new knowledge to merge into a live session.
#[derive(Debug, Clone, Default)]
pub struct KbDelta {
    /// New base facts (ids interned against the session's KB).
    pub facts: Vec<Fact>,
    /// New inference rules.
    pub rules: Vec<HornRule>,
}

impl KbDelta {
    /// True when the delta carries nothing.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty() && self.rules.is_empty()
    }
}

/// One replay round of an incremental apply.
#[derive(Debug, Clone)]
pub struct DeltaRound {
    /// 1-based round number (aligned with the batch run's iterations).
    pub round: usize,
    /// Facts newly registered this round (scheduled + off-schedule).
    pub new_facts: usize,
    /// Of those, facts the base run's schedule did not predict.
    pub off_schedule: usize,
    /// Delta queries executed (0 when the round was pure injection).
    pub queries: usize,
    /// Wall-clock time of the round.
    pub elapsed: Duration,
}

/// What an `apply_delta` call did.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// True when active constraints forced a full re-ground of the union.
    pub full_fallback: bool,
    /// Whether the replay reached the closure (vs. hitting a cap).
    pub converged: bool,
    /// Per-round replay statistics.
    pub rounds: Vec<DeltaRound>,
    /// Facts carried over from the old closure (renumbered, not re-derived).
    pub reused_facts: usize,
    /// Facts that exist only in the union closure.
    pub new_facts: usize,
    /// Factors carried over from the old `TΦ` (ids remapped).
    pub reused_factors: usize,
    /// Factors computed fresh (delta-restricted joins + new singletons).
    pub new_factors: usize,
    /// Queries used by the incremental factor pass.
    pub factor_queries: usize,
    /// Total wall-clock time of the apply.
    pub elapsed: Duration,
}

impl DeltaReport {
    /// One-line `EXPLAIN ANALYZE`-style annotation.
    pub fn annotate(&self) -> String {
        crate::explain::annotate(
            "ApplyDelta",
            &[
                (
                    "mode",
                    if self.full_fallback {
                        "full".to_string()
                    } else {
                        "incremental".to_string()
                    },
                ),
                ("rounds", self.rounds.len().to_string()),
                ("facts", format!("{}+{}", self.reused_facts, self.new_facts)),
                (
                    "factors",
                    format!("{}+{}", self.reused_factors, self.new_factors),
                ),
                (
                    "time",
                    probkb_relational::explain::fmt_duration(self.elapsed),
                ),
            ],
        )
    }
}

/// The outcome of one `apply_delta`: everything a live consumer (factor
/// graph, sampler) needs to follow the update without rebuilding.
#[derive(Debug)]
pub struct DeltaApplied {
    /// `remap[old_id] = new_id` for every fact of the pre-delta closure.
    /// Empty when [`DeltaReport::full_fallback`] is set (consumers must
    /// rebuild from [`DeltaSession::factors`] in that case).
    pub remap: Vec<i64>,
    /// Ids (post-renumbering) of facts that exist only in the new closure.
    pub new_fact_ids: Vec<i64>,
    /// The added factors (new joins + new singletons) in canonical order —
    /// feed to `GroundGraph::extend_with`. Empty on full fallback.
    pub added_factors: Table,
    /// Statistics for the apply.
    pub report: DeltaReport,
}

/// Delta-independent state for the next incremental apply, computed from
/// the session's current closure alone — so it can be built **off the
/// update critical path** (at session setup, or between deltas) and
/// consumed when the delta arrives.
///
/// Two kinds of state qualify:
///
/// * Base-run bookkeeping (old closure keys, EDB keys, the per-round
///   derivation schedule, weighted keys, the old MLN partition split).
/// * Indexes whose key columns exclude the fact-id and weight columns.
///   `T_sched` tables are rebuilt from the recorded schedule in recorded
///   order, so their indexes transfer as-is; `T_old` holds the base
///   closure's rows but possibly *reordered* (accelerated derivations
///   register earlier), so its indexes are rebased through the
///   old-to-new position permutation at apply time
///   ([`HashIndex::remap_positions`]). Debug builds verify every
///   installed index against a fresh build
///   ([`Catalog::install_index`]).
#[derive(Debug)]
struct PreparedApply {
    /// Catalog seeded with the base EDB `TΠ`, analyzed and indexed.
    catalog: Catalog,
    /// Rows of the base EDB — the prefix of the union load's `TΠ`.
    edb_len: usize,
    /// Old closure key → old fact id.
    old_ids: HashMap<[i64; 5], i64>,
    /// Keys of the old base (EDB) facts.
    base_edb: HashSet<[i64; 5]>,
    /// The base run's per-round derivation schedule.
    schedule: HashMap<usize, Vec<[i64; 5]>>,
    /// Keys that already carried a weight in the old closure.
    old_weighted: HashSet<[i64; 5]>,
    /// The old KB's MLN partition tables.
    old_mln: Vec<(RulePattern, Table)>,
    /// Row sets of the old partitions, for the old/new split.
    old_rows_of: HashMap<RulePattern, HashSet<Row>>,
    /// Body-leg + head-lookup indexes over the base closure; rebased onto
    /// the factor pass's `T_old` (same rows modulo ids, weights, order).
    t_old_indexes: Vec<Arc<HashIndex>>,
    /// Per-round body-leg indexes over the scheduled keys, valid for the
    /// round-`r+1` `T_sched` table.
    sched_indexes: HashMap<usize, Vec<Arc<HashIndex>>>,
}

impl PreparedApply {
    fn build(
        kb: &ProbKb,
        facts: &Table,
        fact_iteration: &HashMap<i64, usize>,
        threads: usize,
    ) -> Result<PreparedApply> {
        let rel = load(kb);
        let catalog = Catalog::new();
        let edb_len = rel.t_pi.len();
        catalog.create_or_replace(names::TPI, rel.t_pi);
        // Warm statistics so the cost-based planner puts the small delta
        // legs first; per-round appends bump these in place.
        catalog.analyze_parallel(names::TPI, threads)?;
        // Prebuilt indexes over the full-closure legs: every frontier plan
        // re-joins `TΠ` on `(R, C1, C2, z)` (z bound to X or Y) and the
        // factor plans add the head lookup `(R, C1, C2, X, Y)`. Indexing
        // once — maintained in place by the per-round appends — turns each
        // such join from an O(|TΠ|) rebuild into O(|frontier|) probes.
        for key_cols in tpi_join_keys() {
            catalog.build_index(names::TPI, &key_cols, threads)?;
        }

        let old_ids: HashMap<[i64; 5], i64> = facts
            .rows()
            .iter()
            .map(|r| (row_key(r), r[tpi::I].as_int().expect("fact id")))
            .collect();
        let base_edb: HashSet<[i64; 5]> = kb.facts.iter().map(fact_key).collect();
        let mut schedule: HashMap<usize, Vec<[i64; 5]>> = HashMap::new();
        for row in facts.rows() {
            let id = row[tpi::I].as_int().expect("fact id");
            if let Some(&r) = fact_iteration.get(&id) {
                schedule.entry(r).or_default().push(row_key(row));
            }
        }
        let old_weighted: HashSet<[i64; 5]> = facts
            .rows()
            .iter()
            .filter(|r| !r[tpi::W].is_null())
            .map(|r| row_key(r))
            .collect();
        let (old_mln, _) = mln_tables(&kb.rules);
        let old_rows_of: HashMap<RulePattern, HashSet<Row>> = old_mln
            .iter()
            .map(|(p, t)| (*p, t.rows().iter().cloned().collect()))
            .collect();

        // The replay's `T_old` has exactly the base closure's rows (the
        // indexed key columns exclude the renumbered id); apply rebases
        // the posting lists onto the replay's row order.
        let t_old_indexes: Vec<Arc<HashIndex>> = tpi_join_keys()
            .iter()
            .map(|key_cols| Arc::new(HashIndex::build(facts, key_cols, threads)))
            .collect();
        let sched_indexes: HashMap<usize, Vec<Arc<HashIndex>>> = schedule
            .iter()
            .map(|(&round, keys)| {
                let rows: Vec<Row> = keys.iter().map(|k| sched_key_row(k)).collect();
                let table = Table::from_rows_unchecked(tpi_schema(), rows);
                let indexes = tpi_join_keys()[..2]
                    .iter()
                    .map(|key_cols| Arc::new(HashIndex::build(&table, key_cols, threads)))
                    .collect();
                (round, indexes)
            })
            .collect();

        Ok(PreparedApply {
            catalog,
            edb_len,
            old_ids,
            base_edb,
            schedule,
            old_weighted,
            old_mln,
            old_rows_of,
            t_old_indexes,
            sched_indexes,
        })
    }
}

/// A live, incrementally-expandable grounding session.
#[derive(Debug)]
pub struct DeltaSession {
    kb: ProbKb,
    config: GroundingConfig,
    facts: Table,
    factors: Table,
    fact_iteration: HashMap<i64, usize>,
    last_catalog: Option<Catalog>,
    prepared: Option<PreparedApply>,
}

impl DeltaSession {
    /// Ground `kb` from scratch and open a session over the result.
    pub fn new(kb: ProbKb, config: GroundingConfig) -> Result<DeltaSession> {
        let mut engine = SemiNaiveEngine::new();
        let out = ground(&kb, &mut engine, &config)?;
        Ok(DeltaSession::from_outcome(kb, config, out))
    }

    /// Open a session over an already-computed grounding outcome.
    pub fn from_outcome(
        kb: ProbKb,
        config: GroundingConfig,
        outcome: GroundingOutcome,
    ) -> DeltaSession {
        DeltaSession::from_parts(kb, config, outcome.facts, outcome.factors, outcome.fact_iteration)
    }

    /// Reassemble a session from persisted state (checkpoint resume).
    pub fn from_parts(
        kb: ProbKb,
        config: GroundingConfig,
        facts: Table,
        factors: Table,
        fact_iteration: HashMap<i64, usize>,
    ) -> DeltaSession {
        DeltaSession {
            kb,
            config,
            facts,
            factors,
            fact_iteration,
            last_catalog: None,
            prepared: None,
        }
    }

    /// Precompute everything the next [`DeltaSession::apply_delta`] needs
    /// that does not depend on the delta itself: base-run bookkeeping,
    /// the analyzed-and-indexed EDB catalog, and the closure-order
    /// indexes the replay's `T_old`/`T_sched` tables will reuse.
    ///
    /// Calling this **off the update critical path** (right after opening
    /// the session, or between deltas) moves that maintenance out of the
    /// next apply's latency; an unprepared session computes the same
    /// state inline and produces byte-identical results. The prepared
    /// state is consumed by the next apply (any apply invalidates it —
    /// the closure it describes changed), so call it again between
    /// deltas. No-op for constraint-enforcing sessions, which always fall
    /// back to a full re-ground.
    pub fn prepare(&mut self) -> Result<()> {
        let constrained = (self.config.preclean || self.config.apply_constraints)
            && !self.kb.constraints.is_empty();
        if constrained || self.prepared.is_some() {
            return Ok(());
        }
        let threads = self.config.threads.unwrap_or_else(default_threads).max(1);
        self.prepared = Some(PreparedApply::build(
            &self.kb,
            &self.facts,
            &self.fact_iteration,
            threads,
        )?);
        Ok(())
    }

    /// The session's (union) knowledge base.
    pub fn kb(&self) -> &ProbKb {
        &self.kb
    }

    /// The grounding configuration the session replays under.
    pub fn config(&self) -> &GroundingConfig {
        &self.config
    }

    /// The current closure `TΠ`, sorted by fact id.
    pub fn facts(&self) -> &Table {
        &self.facts
    }

    /// The current canonical factor table `TΦ`.
    pub fn factors(&self) -> &Table {
        &self.factors
    }

    /// Round at which each inferred fact id was first derived (base facts
    /// absent), matching a batch run of the union KB.
    pub fn fact_iteration(&self) -> &HashMap<i64, usize> {
        &self.fact_iteration
    }

    /// The catalog of the most recent incremental apply — `TΠ` grown via
    /// `append_table` with statistics bumped in place, so `EXPLAIN` over
    /// it shows post-delta cardinality estimates. `None` before the first
    /// apply or after a full fallback.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.last_catalog.as_ref()
    }

    /// Merge `delta` into the session. The resulting facts, factors, and
    /// derivation schedule are byte-identical to grounding
    /// `self.kb ∪ delta` from scratch under the session's config.
    pub fn apply_delta(&mut self, delta: &KbDelta) -> Result<DeltaApplied> {
        let start = Instant::now();
        let mut union_kb = self.kb.clone();
        union_kb.facts.extend(delta.facts.iter().cloned());
        union_kb.rules.extend(delta.rules.iter().cloned());

        let constrained = (self.config.preclean || self.config.apply_constraints)
            && !union_kb.constraints.is_empty();
        if constrained {
            self.apply_full(union_kb, start)
        } else {
            self.apply_incremental(union_kb, start)
        }
    }

    /// Parse KB-text statements (the `kb::parser` format: `fact`, `rule`,
    /// `functional`, `subclass` lines) into a [`KbDelta`] against this
    /// session's live id space. Names already known to the session keep
    /// their ids; new entities, classes, and relations are interned by
    /// appending, and the session's dictionaries/memberships/signatures
    /// adopt them immediately — the facts and rules themselves are *not*
    /// applied until the returned delta is passed to
    /// [`DeltaSession::apply_delta`]. This is the server's `APPLY_DELTA`
    /// ingestion path.
    pub fn parse_delta(&mut self, text: &str) -> std::result::Result<KbDelta, ParseError> {
        let mut builder = KbBuilder::from_kb(self.kb.clone());
        let n_facts = builder.fact_count();
        let n_rules = builder.rule_count();
        parse_into(&mut builder, text)?;
        let mut union_kb = builder.build();
        let delta = KbDelta {
            facts: union_kb.facts.split_off(n_facts),
            rules: union_kb.rules.split_off(n_rules),
        };
        // Adopt the extended dictionaries (and any new constraints) while
        // keeping the fact/rule sets exactly as they were — apply_delta
        // unions them in itself.
        self.kb = union_kb;
        Ok(delta)
    }

    /// Parse KB-text statements into the facts and rules they *denote*,
    /// without the duplicate-suppression of [`DeltaSession::parse_delta`]
    /// — a retraction refers to statements that already exist, which the
    /// dedup index would otherwise resolve to nothing. Names are looked
    /// up against the session's dictionaries via a throwaway builder;
    /// the session itself is untouched (retraction must not intern
    /// anything new into live state).
    pub fn parse_retraction(&self, text: &str) -> std::result::Result<KbDelta, ParseError> {
        let mut stripped = self.kb.clone();
        stripped.facts.clear();
        stripped.rules.clear();
        let mut builder = KbBuilder::from_kb(stripped);
        parse_into(&mut builder, text)?;
        let kb = builder.build();
        Ok(KbDelta {
            facts: kb.facts,
            rules: kb.rules,
        })
    }

    /// Remove facts and/or rules from the live session — **not yet
    /// supported**. Retraction cannot reuse the schedule-injection replay
    /// (a removed fact may invalidate derivations at *earlier* rounds
    /// than it was used, so the recorded schedule over-approximates);
    /// until provenance-guided deletion lands (ROADMAP item 2
    /// follow-up), every call returns a structured
    /// [`Error::Unsupported`] naming the feature, so callers (e.g. the
    /// server's `APPLY_DELTA` error path) can report it without string
    /// matching. The session is left untouched.
    pub fn retract(&mut self, retraction: &KbDelta) -> Result<DeltaApplied> {
        Err(Error::Unsupported {
            feature: "retract".into(),
            reason: format!(
                "in-place retraction of {} fact(s) and {} rule(s) is not implemented; \
                 rebuild a session from the surviving KB instead",
                retraction.facts.len(),
                retraction.rules.len()
            ),
        })
    }

    /// Constraint-enforcing sessions delete facts mid-run; replaying the
    /// recorded schedule is unsound there, so re-ground the union.
    fn apply_full(&mut self, union_kb: ProbKb, start: Instant) -> Result<DeltaApplied> {
        let mut engine = SemiNaiveEngine::new();
        let out = ground(&union_kb, &mut engine, &self.config)?;
        let rounds = out
            .report
            .iterations
            .iter()
            .map(|i| DeltaRound {
                round: i.iteration,
                new_facts: i.new_facts,
                off_schedule: i.new_facts,
                queries: i.queries,
                elapsed: i.elapsed,
            })
            .collect();
        let report = DeltaReport {
            full_fallback: true,
            converged: out.report.converged,
            rounds,
            reused_facts: 0,
            new_facts: out.facts.len(),
            reused_factors: 0,
            new_factors: out.factors.len(),
            factor_queries: out.report.factor_queries,
            elapsed: start.elapsed(),
        };
        self.kb = union_kb;
        self.facts = out.facts;
        self.factors = out.factors;
        self.fact_iteration = out.fact_iteration;
        self.last_catalog = None;
        self.prepared = None;
        Ok(DeltaApplied {
            remap: Vec::new(),
            new_fact_ids: Vec::new(),
            added_factors: Table::empty(tphi_schema()),
            report,
        })
    }

    fn apply_incremental(&mut self, union_kb: ProbKb, start: Instant) -> Result<DeltaApplied> {
        let threads = self.config.threads.unwrap_or_else(default_threads).max(1);
        let optimize = self.config.optimize.unwrap_or_else(default_optimize);
        let run = |catalog: &Catalog, plan: &Plan| -> Result<Table> {
            Executor::new(catalog)
                .with_threads(threads)
                .with_optimize(optimize)
                .execute(plan)
                .map(|(table, _)| table)
        };

        // Delta-independent state: consumed from a prior
        // [`DeltaSession::prepare`] (kept off the update critical path) or
        // computed here inline — the same construction either way, so
        // prepared and unprepared applies are byte-identical.
        let PreparedApply {
            catalog,
            edb_len,
            old_ids,
            base_edb,
            schedule,
            old_weighted,
            old_mln,
            old_rows_of,
            t_old_indexes,
            sched_indexes,
        } = match self.prepared.take() {
            Some(p) => p,
            None => PreparedApply::build(&self.kb, &self.facts, &self.fact_iteration, threads)?,
        };

        // Fresh union load: base facts keep their load-order ids, delta
        // facts append, first weight wins on duplicates — exactly the id
        // and weight assignment a batch run of the union would see. The
        // catalog already holds the base EDB prefix of `TΠ`, analyzed and
        // indexed; only the delta's suffix is appended (which bumps the
        // statistics and indexes in place).
        let rel = load(&union_kb);
        let mut registry = rel.registry;
        #[cfg(debug_assertions)]
        {
            let edb = catalog.get(names::TPI)?;
            assert_eq!(
                rel.t_pi.rows()[..edb_len],
                edb.rows()[..],
                "base EDB is not a prefix of the union load"
            );
        }
        catalog.append_table(
            names::TPI,
            &Table::from_rows_unchecked(tpi_schema(), rel.t_pi.rows()[edb_len..].to_vec()),
        )?;
        let mut old_partitions: Vec<RulePattern> = Vec::new();
        let mut new_partitions: Vec<RulePattern> = Vec::new();
        for (pattern, utable) in &rel.mln {
            let empty = HashSet::new();
            let old = old_rows_of.get(pattern).unwrap_or(&empty);
            let added: Vec<Row> = utable
                .rows()
                .iter()
                .filter(|r| !old.contains(*r))
                .cloned()
                .collect();
            if !old.is_empty() {
                let table = old_mln
                    .iter()
                    .find(|(p, _)| p == pattern)
                    .map(|(_, t)| t.clone())
                    .expect("old partition table");
                catalog.create_or_replace(names::mln(pattern.index()), table);
                old_partitions.push(*pattern);
            }
            if !added.is_empty() {
                catalog.create_or_replace(
                    m_new(pattern.index()),
                    Table::from_rows_unchecked(utable.schema().clone(), added),
                );
                new_partitions.push(*pattern);
            }
        }

        // Frontier init: the delta's base facts are "off schedule at
        // round 0". A delta fact whose key matches an old *derived* fact
        // promotes it to a (weighted) base fact — it is off schedule too,
        // until its recorded round passes.
        let mut x_rows: Vec<Row> = rel
            .t_pi
            .rows()
            .iter()
            .filter(|r| !base_edb.contains(&row_key(r)))
            .cloned()
            .collect();
        let mut extra: HashMap<[i64; 5], Row> =
            x_rows.iter().map(|r| (row_key(r), r.clone())).collect();
        let mut sched_rows: Vec<Row> = Vec::new();

        let mut rounds = Vec::new();
        let mut fact_iteration: HashMap<i64, usize> = HashMap::new();
        let mut converged = false;
        for round in 1..=self.config.max_iterations {
            let rstart = Instant::now();
            catalog.create_or_replace(T_DX, Table::from_rows_unchecked(tpi_schema(), x_rows.clone()));
            catalog.create_or_replace(
                T_SCHED,
                Table::from_rows_unchecked(tpi_schema(), sched_rows.clone()),
            );
            let mut extra_rows: Vec<Row> = extra.values().cloned().collect();
            extra_rows.sort_by_key(|r| r[tpi::I].as_int());
            catalog.create_or_replace(
                T_EXTRA,
                Table::from_rows_unchecked(tpi_schema(), extra_rows),
            );
            let mut fresh_rows = x_rows.clone();
            fresh_rows.extend(sched_rows.iter().cloned());
            catalog.create_or_replace(
                T_FRESH,
                Table::from_rows_unchecked(tpi_schema(), fresh_rows),
            );
            // Fresh statistics for the per-round tables (create_or_replace
            // invalidates them), so the join orderer sees the real — often
            // tiny — frontier cardinalities; and body-leg indexes over the
            // schedule, which round 1's bulk injection can make large. A
            // closure-sized round table is a subset of `TΠ`, so instead of
            // re-analyzing it we borrow `TΠ`'s statistics — all the
            // planner needs to know is "this leg is big, order it last".
            let tpi_stats = catalog.stats_of(names::TPI).expect("TΠ analyzed");
            for t in [T_DX, T_SCHED, T_EXTRA, T_FRESH] {
                if catalog.row_count(t)? >= STATS_BORROW_MIN {
                    catalog.set_stats(t, Arc::clone(&tpi_stats));
                } else {
                    catalog.analyze(t)?;
                }
            }
            // The schedule table's body-leg indexes were prebuilt from the
            // scheduled keys (same rows, same order, ids not indexed);
            // fall back to an inline build when unavailable.
            match sched_indexes.get(&(round - 1)) {
                Some(idxs) if idxs.iter().all(|i| i.rows_indexed() == sched_rows.len()) => {
                    for idx in idxs {
                        catalog.install_index(T_SCHED, Arc::clone(idx))?;
                    }
                }
                _ => {
                    for key_cols in &tpi_join_keys()[..2] {
                        catalog.build_index(T_SCHED, key_cols, threads)?;
                    }
                }
            }

            let mut plans: Vec<Plan> = Vec::new();
            for &p in &old_partitions {
                let m = names::mln(p.index());
                if p.arity() == 2 {
                    plans.push(atoms_plan_legs(p, &m, T_DX, T_DX));
                } else {
                    plans.push(atoms_plan_legs(p, &m, T_DX, names::TPI));
                    plans.push(atoms_plan_legs(p, &m, names::TPI, T_DX));
                    if round >= 2 {
                        plans.push(atoms_plan_legs(p, &m, T_SCHED, T_EXTRA));
                        plans.push(atoms_plan_legs(p, &m, T_EXTRA, T_SCHED));
                    }
                }
            }
            for &p in &new_partitions {
                let m = m_new(p.index());
                if round == 1 {
                    plans.push(ground_atoms_plan(p, &m, names::TPI));
                } else if p.arity() == 2 {
                    plans.push(atoms_plan_legs(p, &m, T_FRESH, T_FRESH));
                } else {
                    plans.push(atoms_plan_legs(p, &m, T_FRESH, names::TPI));
                    plans.push(atoms_plan_legs(p, &m, names::TPI, T_FRESH));
                }
            }
            let queries = plans.len();
            let mut candidates = Table::empty(candidate_schema());
            let outputs = map_indices(plans.len(), threads, |i| run(&catalog, &plans[i]));
            for out in outputs {
                candidates.extend_from(out?);
            }
            // Inject the base run's round-r schedule (dups no-op).
            let scheduled = schedule.get(&round);
            if let Some(keys) = scheduled {
                for k in keys {
                    candidates.push_unchecked(vec![
                        Value::Int(k[0]),
                        Value::Int(k[1]),
                        Value::Int(k[2]),
                        Value::Int(k[3]),
                        Value::Int(k[4]),
                    ]);
                }
            }

            let new_rows = register_candidates(&mut registry, &candidates);
            let new_facts = new_rows.len();
            for row in &new_rows {
                fact_iteration.insert(row[0].as_int().expect("fact id"), round);
            }
            if new_facts == 0 {
                converged = true;
                rounds.push(DeltaRound {
                    round,
                    new_facts: 0,
                    off_schedule: 0,
                    queries,
                    elapsed: rstart.elapsed(),
                });
                break;
            }
            catalog.append_table(
                names::TPI,
                &Table::from_rows_unchecked(tpi_schema(), new_rows.clone()),
            )?;

            let sched_set: HashSet<[i64; 5]> = scheduled
                .map(|ks| ks.iter().copied().collect())
                .unwrap_or_default();
            x_rows = new_rows
                .iter()
                .filter(|r| !sched_set.contains(&row_key(r)))
                .cloned()
                .collect();
            let off_schedule = x_rows.len();
            sched_rows = scheduled
                .map(|ks| ks.iter().map(|k| sched_row(&registry, k)).collect())
                .unwrap_or_default();
            // An off-schedule fact stops being "extra" once its scheduled
            // round passes: later pairings are base-covered by injection.
            for k in &sched_set {
                extra.remove(k);
            }
            for r in &x_rows {
                extra.insert(row_key(r), r.clone());
            }
            rounds.push(DeltaRound {
                round,
                new_facts,
                off_schedule,
                queries,
                elapsed: rstart.elapsed(),
            });

            if let Some(cap) = self.config.max_total_facts {
                if registry.len() > cap {
                    break;
                }
            }
        }

        // Factor pass: the old TΦ carries over with ids remapped; only
        // factors touching a new ground atom are computed, via a disjoint
        // old/new decomposition of each partition's body+head legs.
        let mut facts = (*catalog.get(names::TPI)?).clone();
        let mut t_old_rows = Vec::new();
        let mut t_new_rows = Vec::new();
        let mut new_fact_ids = Vec::new();
        // Where each base-closure row landed in `T_old`: the replay can
        // reorder old facts (accelerated derivations register earlier),
        // and the base closure is sorted by its dense ids, so
        // `old_pos[old_id] = T_old position` rebases the prepared indexes.
        let mut old_pos = vec![0usize; self.facts.len()];
        for row in facts.rows() {
            match old_ids.get(&row_key(row)) {
                Some(&old_id) => {
                    old_pos[old_id as usize] = t_old_rows.len();
                    t_old_rows.push(row.clone());
                }
                None => {
                    new_fact_ids.push(row[tpi::I].as_int().expect("fact id"));
                    t_new_rows.push(row.clone());
                }
            }
        }
        let reused_facts = t_old_rows.len();
        catalog.create_or_replace(T_OLD, Table::from_rows_unchecked(tpi_schema(), t_old_rows));
        catalog.create_or_replace(T_NEW, Table::from_rows_unchecked(tpi_schema(), t_new_rows));
        // `T_old` is closure-sized; statistics put it last in every factor
        // join and the indexes make those final legs O(matches) probes.
        // `T_old` is `TΠ` minus the (few) new facts, so its statistics are
        // borrowed from `TΠ` rather than recomputed; only the two body-leg
        // key sets are indexed (T_old never serves as a head leg — heads
        // resolve against `TΠ` or `T_new`).
        let tpi_stats = catalog.stats_of(names::TPI).expect("TΠ analyzed");
        catalog.set_stats(T_OLD, tpi_stats);
        catalog.analyze(T_NEW)?;
        // `T_old` holds exactly the base closure's rows (ids renumbered,
        // some weights promoted — neither is indexed), possibly reordered;
        // rebasing the prepared indexes through `old_pos` is equivalent to
        // rebuilding them, without rehashing or cloning any key.
        if t_old_indexes
            .iter()
            .all(|i| i.rows_indexed() == reused_facts)
        {
            for idx in t_old_indexes {
                let mut idx = Arc::try_unwrap(idx).unwrap_or_else(|a| (*a).clone());
                idx.remap_positions(&old_pos);
                catalog.install_index(T_OLD, Arc::new(idx))?;
            }
        } else {
            for key_cols in &tpi_join_keys() {
                catalog.build_index(T_OLD, key_cols, threads)?;
            }
        }

        let mut fplans: Vec<Plan> = Vec::new();
        for &p in &old_partitions {
            let m = names::mln(p.index());
            if p.arity() == 2 {
                fplans.push(factors_plan_legs(p, &m, T_NEW, T_NEW, names::TPI));
                fplans.push(factors_plan_legs(p, &m, T_OLD, T_OLD, T_NEW));
            } else {
                fplans.push(factors_plan_legs(p, &m, T_NEW, names::TPI, names::TPI));
                fplans.push(factors_plan_legs(p, &m, T_OLD, T_NEW, names::TPI));
                fplans.push(factors_plan_legs(p, &m, T_OLD, T_OLD, T_NEW));
            }
        }
        for &p in &new_partitions {
            fplans.push(ground_factors_plan(p, &m_new(p.index()), names::TPI));
        }
        let factor_queries = fplans.len();
        let mut added = Table::empty(tphi_schema());
        let outputs = map_indices(fplans.len(), threads, |i| run(&catalog, &fplans[i]));
        for out in outputs {
            added.extend_from(out?);
        }
        // New singletons: weighted base facts whose key was not weighted
        // before (new base facts plus promoted derived facts).
        for row in rel.t_pi.rows() {
            if !row[tpi::W].is_null() && !old_weighted.contains(&row_key(row)) {
                added.push_unchecked(vec![
                    row[tpi::I].clone(),
                    Value::Null,
                    Value::Null,
                    row[tpi::W].clone(),
                ]);
            }
        }
        canonicalize_factors(&mut added);

        // Remap the old factor table into the new id space and combine.
        let n_old = self.facts.len();
        let mut remap = vec![0i64; n_old];
        for (key, &old_id) in &old_ids {
            remap[old_id as usize] = registry
                .id_of(key)
                .expect("old closure is a subset of the union closure");
        }
        let map_i = |v: &Value| match v.as_int() {
            Some(i) => Value::Int(remap[i as usize]),
            None => Value::Null,
        };
        let mut combined = Vec::with_capacity(self.factors.len() + added.len());
        for row in self.factors.rows() {
            combined.push(vec![
                map_i(&row[tphi::I1]),
                map_i(&row[tphi::I2]),
                map_i(&row[tphi::I3]),
                row[tphi::W].clone(),
            ]);
        }
        combined.extend(added.rows().iter().cloned());
        let mut factors = Table::from_rows_unchecked(tphi_schema(), combined);
        canonicalize_factors(&mut factors);
        facts.sort_by_cols(&[tpi::I]);

        let report = DeltaReport {
            full_fallback: false,
            converged,
            rounds,
            reused_facts,
            new_facts: new_fact_ids.len(),
            reused_factors: self.factors.len(),
            new_factors: added.len(),
            factor_queries,
            elapsed: start.elapsed(),
        };
        self.kb = union_kb;
        self.facts = facts;
        self.factors = factors;
        self.fact_iteration = fact_iteration;
        self.last_catalog = Some(catalog);
        Ok(DeltaApplied {
            remap,
            new_fact_ids,
            added_factors: added,
            report,
        })
    }
}

/// `(R, x, C1, y, C2)` key of a `TΠ` row.
fn row_key(row: &[Value]) -> [i64; 5] {
    [
        row[tpi::R].as_int().expect("fact R"),
        row[tpi::X].as_int().expect("fact x"),
        row[tpi::C1].as_int().expect("fact C1"),
        row[tpi::Y].as_int().expect("fact y"),
        row[tpi::C2].as_int().expect("fact C2"),
    ]
}

/// `(R, x, C1, y, C2)` key of a base fact.
fn fact_key(fact: &Fact) -> [i64; 5] {
    [
        fact.rel.as_i64(),
        fact.x.as_i64(),
        fact.c1.as_i64(),
        fact.y.as_i64(),
        fact.c2.as_i64(),
    ]
}

/// A join-only `TΠ` row for a scheduled key (weight unused by the plans).
fn sched_row(registry: &FactRegistry, key: &[i64; 5]) -> Row {
    let id = registry.id_of(key).expect("scheduled fact is registered");
    vec![
        Value::Int(id),
        Value::Int(key[0]),
        Value::Int(key[1]),
        Value::Int(key[2]),
        Value::Int(key[3]),
        Value::Int(key[4]),
        Value::Null,
    ]
}

/// A schedule row with a placeholder id, for building `T_sched` indexes
/// ahead of the replay — the indexed key columns exclude the id, so the
/// resulting index is identical to one built from [`sched_row`] rows.
fn sched_key_row(key: &[i64; 5]) -> Row {
    vec![
        Value::Null,
        Value::Int(key[0]),
        Value::Int(key[1]),
        Value::Int(key[2]),
        Value::Int(key[3]),
        Value::Int(key[4]),
        Value::Null,
    ]
}

/// The key-column sets under which the incremental plans probe a full
/// closure table (`TΠ` or `T_old`): the two semi-naive body legs
/// `(R, C1, C2, X|Y)` and the factor pass's head lookup
/// `(R, C1, C2, X, Y)`. Columns ascend — the executor canonicalizes a
/// join's key permutation to this order before matching an index.
fn tpi_join_keys() -> [Vec<usize>; 3] {
    [
        vec![tpi::R, tpi::X, tpi::C1, tpi::C2],
        vec![tpi::R, tpi::C1, tpi::Y, tpi::C2],
        vec![tpi::R, tpi::X, tpi::C1, tpi::Y, tpi::C2],
    ]
}

/// [`ground_atoms_plan`] with independently-named body legs, so each leg
/// can scan a frontier table instead of the full `TΠ`.
fn atoms_plan_legs(pattern: RulePattern, m_table: &str, t2: &str, t3: &str) -> Plan {
    let spec = join_spec(pattern);
    let mut plan = Plan::scan(m_table).hash_join(
        Plan::scan(t2),
        spec.m_keys1.clone(),
        spec.t2_keys.clone(),
    );
    if spec.arity == 3 {
        plan = plan.hash_join(Plan::scan(t3), spec.mid_keys2.clone(), spec.t3_keys.clone());
    }
    plan.project(vec![
        (Expr::col(0), "R"),
        (Expr::col(spec.x_col), "x"),
        (Expr::col(spec.c1_col), "C1"),
        (Expr::col(spec.y_col), "y"),
        (Expr::col(spec.c2_col), "C2"),
    ])
    .distinct()
}

/// [`ground_factors_plan`] with independently-named body and head legs.
fn factors_plan_legs(
    pattern: RulePattern,
    m_table: &str,
    t2: &str,
    t3: &str,
    head: &str,
) -> Plan {
    let spec = join_spec(pattern);
    let mut plan = Plan::scan(m_table).hash_join(
        Plan::scan(t2),
        spec.m_keys1.clone(),
        spec.t2_keys.clone(),
    );
    let t_width = 7;
    let mut head_off = spec.m_width + t_width;
    if spec.arity == 3 {
        plan = plan.hash_join(Plan::scan(t3), spec.mid_keys2.clone(), spec.t3_keys.clone());
        head_off += t_width;
    }
    let plan = plan.hash_join(
        Plan::scan(head),
        spec.head_keys_mid.clone(),
        spec.head_keys_t.clone(),
    );
    let i3 = match spec.i3_col {
        Some(c) => Expr::col(c),
        None => Expr::lit(Value::Null),
    };
    plan.project(vec![
        (Expr::col(head_off + tpi::I), "I1"),
        (Expr::col(spec.i2_col), "I2"),
        (i3, "I3"),
        (Expr::col(spec.w_col), "w"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_node::SingleNodeEngine;
    use probkb_kb::prelude::parse;

    fn no_constraints() -> GroundingConfig {
        GroundingConfig {
            apply_constraints: false,
            ..GroundingConfig::default()
        }
    }

    fn fingerprint(t: &Table) -> String {
        format!("{t:?}")
    }

    /// Ground the union text from scratch with the naive engine — the
    /// oracle every incremental apply must match byte for byte.
    fn oracle(text: &str, config: &GroundingConfig) -> GroundingOutcome {
        let kb = parse(text).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        ground(&kb, &mut engine, config).unwrap()
    }

    /// Split a union text: session over the first `n_facts`/`n_rules`,
    /// delta holding the rest (same interned ids since the base text is a
    /// prefix of the union text's entity/relation mentions).
    fn session_and_delta(
        union_text: &str,
        base_text: &str,
        config: GroundingConfig,
    ) -> (DeltaSession, KbDelta) {
        let union_kb = parse(union_text).unwrap().build();
        let base_kb = parse(base_text).unwrap().build();
        let n_facts = base_kb.facts.len();
        let n_rules = base_kb.rules.len();
        let mut base = union_kb.clone();
        base.facts.truncate(n_facts);
        base.rules.truncate(n_rules);
        let delta = KbDelta {
            facts: union_kb.facts[n_facts..].to_vec(),
            rules: union_kb.rules[n_rules..].to_vec(),
        };
        let session = DeltaSession::new(base, config).unwrap();
        (session, delta)
    }

    const BASE: &str = r#"
        fact 0.96 born_in(RG:Writer, NYC:City)
        fact 0.93 born_in(RG:Writer, Brooklyn:Place)
        rule 1.40 live_in(x:Writer, y:Place) :- born_in(x, y)
        rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
        rule 0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x), born_in(z, y)
    "#;

    #[test]
    fn fact_delta_matches_full_reground() {
        let union_text = format!("{BASE}\nfact 0.88 born_in(JK:Writer, Brooklyn:Place)\n");
        let (mut session, delta) = session_and_delta(&union_text, BASE, no_constraints());
        let applied = session.apply_delta(&delta).unwrap();
        assert!(!applied.report.full_fallback);
        let want = oracle(&union_text, &no_constraints());
        assert_eq!(fingerprint(session.facts()), fingerprint(&want.facts));
        assert_eq!(fingerprint(session.factors()), fingerprint(&want.factors));
        assert_eq!(session.fact_iteration(), &want.fact_iteration);
    }

    #[test]
    fn rule_delta_matches_full_reground() {
        let union_text =
            format!("{BASE}\nrule 2.0 grow_up_in(x:Writer, y:Place) :- born_in(x, y)\n");
        let (mut session, delta) = session_and_delta(&union_text, BASE, no_constraints());
        assert!(delta.facts.is_empty() && delta.rules.len() == 1);
        let applied = session.apply_delta(&delta).unwrap();
        let want = oracle(&union_text, &no_constraints());
        assert_eq!(fingerprint(session.facts()), fingerprint(&want.facts));
        assert_eq!(fingerprint(session.factors()), fingerprint(&want.factors));
        assert!(applied.report.new_factors > 0);
    }

    #[test]
    fn empty_delta_is_identity() {
        let (mut session, _) = session_and_delta(BASE, BASE, no_constraints());
        let before_facts = fingerprint(session.facts());
        let before_factors = fingerprint(session.factors());
        let applied = session.apply_delta(&KbDelta::default()).unwrap();
        assert_eq!(fingerprint(session.facts()), before_facts);
        assert_eq!(fingerprint(session.factors()), before_factors);
        assert!(applied.new_fact_ids.is_empty());
        assert_eq!(applied.added_factors.len(), 0);
        // Identity remap: ids are unchanged.
        for (old, new) in applied.remap.iter().enumerate() {
            assert_eq!(old as i64, *new);
        }
    }

    #[test]
    fn promoting_a_derived_fact_renumbers_and_adds_a_singleton() {
        // The delta asserts located_in(Brooklyn, NYC) — previously
        // *derived* (no weight) — as a weighted base fact. In the union
        // batch run it becomes a base fact with a low id (ahead of every
        // derived fact) and gains a singleton factor.
        let union_text = format!("{BASE}\nfact 0.70 located_in(Brooklyn:Place, NYC:City)\n");
        let (mut session, delta) = session_and_delta(&union_text, BASE, no_constraints());
        let applied = session.apply_delta(&delta).unwrap();
        let want = oracle(&union_text, &no_constraints());
        assert_eq!(fingerprint(session.facts()), fingerprint(&want.facts));
        assert_eq!(fingerprint(session.factors()), fingerprint(&want.factors));
        // No *new* fact keys — the promoted key already existed.
        assert!(applied.new_fact_ids.is_empty());
        // But it gained a singleton factor.
        assert_eq!(applied.added_factors.len(), 1);
        // And the remap is a genuine renumbering, not the identity.
        assert!(applied.remap.iter().enumerate().any(|(o, n)| o as i64 != *n));
    }

    #[test]
    fn constrained_session_falls_back_to_full_reground() {
        let base = format!("{BASE}\nfunctional born_in 1 1\n");
        let union_text = format!("{base}\nfact 0.88 born_in(JK:Writer, Brooklyn:Place)\n");
        let (mut session, delta) =
            session_and_delta(&union_text, &base, GroundingConfig::default());
        let applied = session.apply_delta(&delta).unwrap();
        assert!(applied.report.full_fallback);
        let want = oracle(&union_text, &GroundingConfig::default());
        assert_eq!(fingerprint(session.facts()), fingerprint(&want.facts));
        assert_eq!(fingerprint(session.factors()), fingerprint(&want.factors));
    }

    #[test]
    fn chained_deltas_keep_matching() {
        let step1 = format!("{BASE}\nfact 0.88 born_in(JK:Writer, Brooklyn:Place)\n");
        let step2 = format!(
            "{step1}\nrule 2.0 grow_up_in(x:Writer, y:Place) :- born_in(x, y)\nfact 0.6 live_in(AB:Writer, Paris:City)\n"
        );
        let (mut session, delta1) = session_and_delta(&step1, BASE, no_constraints());
        session.apply_delta(&delta1).unwrap();
        let union_kb = parse(&step2).unwrap().build();
        let delta2 = KbDelta {
            facts: union_kb.facts[session.kb().facts.len()..].to_vec(),
            rules: union_kb.rules[session.kb().rules.len()..].to_vec(),
        };
        session.apply_delta(&delta2).unwrap();
        let want = oracle(&step2, &no_constraints());
        assert_eq!(fingerprint(session.facts()), fingerprint(&want.facts));
        assert_eq!(fingerprint(session.factors()), fingerprint(&want.factors));
        assert_eq!(session.fact_iteration(), &want.fact_iteration);
    }

    #[test]
    fn transitive_chain_delta_accelerates_correctly() {
        // Base: a reachability chain. Delta: a shortcut edge that
        // accelerates many scheduled derivations to earlier rounds.
        let mut base = String::new();
        for i in 0..8 {
            base.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
        }
        base.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
        base.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
        let union_text = format!("{base}fact 0.9 next(n0:Node, n5:Node)\n");
        let config = GroundingConfig {
            max_iterations: 20,
            ..no_constraints()
        };
        let (mut session, delta) = session_and_delta(&union_text, &base, config.clone());
        let applied = session.apply_delta(&delta).unwrap();
        assert!(!applied.report.full_fallback);
        assert!(applied.report.converged);
        let want = oracle(&union_text, &config);
        assert_eq!(fingerprint(session.facts()), fingerprint(&want.facts));
        assert_eq!(fingerprint(session.factors()), fingerprint(&want.factors));
        assert_eq!(session.fact_iteration(), &want.fact_iteration);
    }

    #[test]
    fn prepared_apply_matches_unprepared() {
        // Same acceleration-heavy delta, applied to a prepared and an
        // unprepared session: identical outputs byte for byte (the
        // prepared path additionally runs the install-time debug checks
        // that every transferred index matches a fresh build).
        let mut base = String::new();
        for i in 0..8 {
            base.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
        }
        base.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
        base.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
        let union_text = format!("{base}fact 0.9 next(n0:Node, n5:Node)\n");
        let config = GroundingConfig {
            max_iterations: 20,
            ..no_constraints()
        };
        let (mut cold, delta) = session_and_delta(&union_text, &base, config.clone());
        let (mut warm, _) = session_and_delta(&union_text, &base, config);
        warm.prepare().unwrap();
        // Prepare is idempotent and consumed by the apply.
        warm.prepare().unwrap();
        let a = cold.apply_delta(&delta).unwrap();
        let b = warm.apply_delta(&delta).unwrap();
        assert_eq!(fingerprint(cold.facts()), fingerprint(warm.facts()));
        assert_eq!(fingerprint(cold.factors()), fingerprint(warm.factors()));
        assert_eq!(cold.fact_iteration(), warm.fact_iteration());
        assert_eq!(a.remap, b.remap);
        assert_eq!(a.new_fact_ids, b.new_fact_ids);
        assert_eq!(
            fingerprint(&a.added_factors),
            fingerprint(&b.added_factors)
        );
    }

    #[test]
    fn report_annotation_shape() {
        let union_text = format!("{BASE}\nfact 0.88 born_in(JK:Writer, Brooklyn:Place)\n");
        let (mut session, delta) = session_and_delta(&union_text, BASE, no_constraints());
        let applied = session.apply_delta(&delta).unwrap();
        let line = applied.report.annotate();
        assert!(line.starts_with("ApplyDelta"), "{line}");
        assert!(line.contains("mode=incremental"), "{line}");
        // Post-delta catalog is exposed for EXPLAIN / statistics checks.
        assert!(session.catalog().is_some());
    }
}
