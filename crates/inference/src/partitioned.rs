//! The Gibbs kernel: partition-sharded, multi-chain Gibbs sampling with
//! online convergence control — the one sampler behind batch expansion,
//! incremental re-inference, and query-time local inference (the
//! paper's parallel Gibbs engine, §2.2; Wick et al.'s factor-graph/MCMC
//! shape: shard the graph across workers by independent sets, stop when
//! the marginals stabilize rather than after a fixed sample count).
//!
//! * **Chromatic schedule.** Variables of one color class share no
//!   factor, so a whole class is resampled from a frozen snapshot of the
//!   assignment; classes run in sequence.
//! * **Multiple independent chains.** `GibbsConfig::chains` chains run on
//!   the `probkb-support` fork-join pool (`PROBKB_GIBBS_WORKERS` /
//!   `GibbsConfig::workers`), each from its own seed stream. Marginals
//!   average over all chains; the cross-chain disagreement feeds split-R̂.
//! * **Fixed sharding as the unit of randomness.** Every color class is
//!   cut into shards of [`SHARD_SIZE`] variables; one RNG stream is seeded
//!   per `(seed, chain, sweep, shard)`. Workers pick up shards in any
//!   interleaving, but the draws — and therefore the marginals, the
//!   diagnostics, and the early-stop sweep — are a pure function of
//!   `(seed, chains)` at **any** worker count, mirroring the guarantee
//!   the grounding layer gives per thread count.
//! * **Shape-batched factor evaluation.** Factors are compiled into
//!   per-shape CSR arrays (singletons fold into a constant, unary/binary
//!   head and body positions each get a tight loop), replacing the
//!   per-factor dispatch of [`FactorGraph::flip_delta_ro`] inside the hot
//!   resampling loop.
//! * **Scoped, warm-started runs.** [`PartitionedGibbs::run_from`]
//!   resamples only a variable scope (for incremental expansion, the
//!   delta's Markov blanket, [`blanket_of`]) from warm chain states.
//!   Out-of-scope variables draw nothing and keep a prior marginal, so a
//!   scoped sweep costs O(scope), not O(graph). With the full scope and
//!   cold chains a run is [`PartitionedGibbs::run`] draw for draw.
//!
//! Convergence control runs sampling in blocks of
//! `GibbsConfig::check_interval` sweeps, feeding per-block true counts of
//! the scope's variables to [`ChainStats`]; when the worst per-variable
//! split-R̂ reaches `GibbsConfig::target_rhat` the run stops (capped by
//! `max_sweeps`).

use std::borrow::Cow;
use std::time::{Duration, Instant};

use probkb_factorgraph::prelude::{color, Coloring, FactorGraph, Sharding, VarId};
use probkb_support::rng::{Rng, SeedableRng, StdRng};
use probkb_support::sync::{for_each_chunk_mut, map_chunks};

use crate::diagnostics::ChainStats;

/// Sampler configuration.
#[derive(Debug, Clone, Copy)]
pub struct GibbsConfig {
    /// Sweeps per chain discarded before estimation starts.
    pub burn_in: usize,
    /// Sweeps per chain used for estimation when `target_rhat` is `None`
    /// (ignored under convergence control, where `max_sweeps` caps the
    /// run instead).
    pub samples: usize,
    /// RNG seed (runs are deterministic given the seed and chain count,
    /// independent of the worker count).
    pub seed: u64,
    /// Independent chains. Marginals average over all chains; split-R̂
    /// compares them (with one chain it compares the chain's two halves).
    pub chains: usize,
    /// Fork-join worker cap. `None` reads `PROBKB_GIBBS_WORKERS` once per
    /// process (unset/zero → 1). The worker count never changes results,
    /// only wall-clock time.
    pub workers: Option<usize>,
    /// Online convergence control: when `Some(target)`, sampling stops as
    /// soon as the worst per-variable split-R̂ drops to `target` or below
    /// (checked every `check_interval` sweeps), instead of running a
    /// fixed `samples` schedule.
    pub target_rhat: Option<f64>,
    /// Hard cap on sampling sweeps per chain under convergence control.
    pub max_sweeps: usize,
    /// Sweeps per convergence-check block (also the batch size for the
    /// incremental R̂/ESS accumulators).
    pub check_interval: usize,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            burn_in: 200,
            samples: 2000,
            seed: 0x9e3779b9,
            chains: 1,
            workers: None,
            target_rhat: None,
            max_sweeps: 20_000,
            check_interval: 100,
        }
    }
}

impl GibbsConfig {
    /// The worker budget this config resolves to: the explicit override,
    /// or the process-wide [`default_gibbs_workers`].
    pub fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(default_gibbs_workers).max(1)
    }
}

/// The process-wide default inference worker budget, read **once** from
/// `PROBKB_GIBBS_WORKERS` and cached (the same contract as the grounding
/// layer's `PROBKB_THREADS`). Unset, unparsable, or zero all mean 1 —
/// parallel inference is opt-in. Tests comparing worker counts should set
/// [`GibbsConfig::workers`] explicitly instead of re-reading the
/// environment.
pub fn default_gibbs_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| probkb_support::sync::env_workers("PROBKB_GIBBS_WORKERS").unwrap_or(1))
}

/// Estimated marginals: `p[v]` ≈ `P(X_v = 1)`.
#[derive(Debug, Clone)]
pub struct Marginals {
    /// Per-variable probability estimates.
    pub p: Vec<f64>,
}

impl Marginals {
    /// Largest absolute difference to another estimate (convergence
    /// diagnostics between runs).
    pub fn max_diff(&self, other: &Marginals) -> f64 {
        self.p
            .iter()
            .zip(other.p.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Numerically stable logistic function.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The seed variables of a delta plus their Markov blanket: every
/// variable whose conditional distribution an update to `seeds` can have
/// changed. Sorted and deduplicated.
pub fn blanket_of(graph: &FactorGraph, seeds: &[VarId]) -> Vec<VarId> {
    let mut out: Vec<VarId> = seeds.to_vec();
    for &v in seeds {
        out.extend(graph.neighbors(v));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Variables per shard — the fixed work/randomness granule. Chosen so a
/// shard amortizes its RNG setup but a big color class still splits into
/// enough shards to feed every worker.
pub const SHARD_SIZE: usize = 1024;

/// A factor graph compiled into per-shape evaluation arrays.
///
/// For a flip of variable `v` the conditional logit decomposes by the
/// position `v` takes in each factor shape (`w` if the clause is satisfied,
/// `0` otherwise, Equation 4):
///
/// | shape | position | contribution |
/// |---|---|---|
/// | singleton `v` | head | `+w` (constant) |
/// | `v ← u` | head | `+w` if `u` |
/// | `v ← u₁,u₂` | head | `+w` if `u₁ ∧ u₂` |
/// | `h ← v` | body | `−w` if `¬h` |
/// | `h ← v,u` | body | `−w` if `u ∧ ¬h` |
///
/// Factors with repeated variables or arity beyond the paper's shapes fall
/// back to the generic [`FactorGraph`] evaluation.
#[derive(Debug, Clone)]
pub struct BatchedPlan {
    /// Constant logit per variable (sum of its singleton weights).
    base: Vec<f64>,
    head1_off: Vec<usize>,
    head1: Vec<(u32, f64)>,
    head2_off: Vec<usize>,
    head2: Vec<(u32, u32, f64)>,
    body1_off: Vec<usize>,
    body1: Vec<(u32, f64)>,
    body2_off: Vec<usize>,
    body2: Vec<(u32, u32, f64)>,
    general_off: Vec<usize>,
    general: Vec<u32>,
}

fn flatten<T: Copy>(per_var: Vec<Vec<T>>) -> (Vec<usize>, Vec<T>) {
    let mut off = Vec::with_capacity(per_var.len() + 1);
    let mut flat = Vec::new();
    off.push(0);
    for items in per_var {
        flat.extend(items);
        off.push(flat.len());
    }
    (off, flat)
}

impl BatchedPlan {
    /// Compile a graph's factors into shape-batched arrays.
    pub fn build(graph: &FactorGraph) -> Self {
        let n = graph.num_vars();
        let mut base = vec![0.0f64; n];
        let mut head1 = vec![Vec::new(); n];
        let mut head2 = vec![Vec::new(); n];
        let mut body1 = vec![Vec::new(); n];
        let mut body2 = vec![Vec::new(); n];
        let mut general = vec![Vec::new(); n];
        for (fi, f) in graph.factors().iter().enumerate() {
            let mut vars: Vec<usize> = f.vars().collect();
            vars.sort_unstable();
            let duplicated = vars.windows(2).any(|w| w[0] == w[1]);
            if duplicated || f.body.len() > 2 {
                vars.dedup();
                for v in vars {
                    general[v].push(fi as u32);
                }
                continue;
            }
            match f.body.as_slice() {
                [] => base[f.head] += f.weight,
                [u] => {
                    head1[f.head].push((*u as u32, f.weight));
                    body1[*u].push((f.head as u32, f.weight));
                }
                [u1, u2] => {
                    head2[f.head].push((*u1 as u32, *u2 as u32, f.weight));
                    body2[*u1].push((f.head as u32, *u2 as u32, f.weight));
                    body2[*u2].push((f.head as u32, *u1 as u32, f.weight));
                }
                _ => unreachable!("arity > 2 handled above"),
            }
        }
        let (head1_off, head1) = flatten(head1);
        let (head2_off, head2) = flatten(head2);
        let (body1_off, body1) = flatten(body1);
        let (body2_off, body2) = flatten(body2);
        let (general_off, general) = flatten(general);
        BatchedPlan {
            base,
            head1_off,
            head1,
            head2_off,
            head2,
            body1_off,
            body1,
            body2_off,
            body2,
            general_off,
            general,
        }
    }

    /// The Gibbs conditional logit for flipping `v`, evaluated against a
    /// frozen assignment. Same value as [`FactorGraph::flip_delta_ro`] up
    /// to floating-point summation order.
    #[inline]
    pub fn delta(&self, graph: &FactorGraph, v: usize, state: &[bool]) -> f64 {
        let mut delta = self.base[v];
        for &(u, w) in &self.head1[self.head1_off[v]..self.head1_off[v + 1]] {
            if state[u as usize] {
                delta += w;
            }
        }
        for &(u1, u2, w) in &self.head2[self.head2_off[v]..self.head2_off[v + 1]] {
            if state[u1 as usize] && state[u2 as usize] {
                delta += w;
            }
        }
        for &(h, w) in &self.body1[self.body1_off[v]..self.body1_off[v + 1]] {
            if !state[h as usize] {
                delta -= w;
            }
        }
        for &(h, u, w) in &self.body2[self.body2_off[v]..self.body2_off[v + 1]] {
            if state[u as usize] && !state[h as usize] {
                delta -= w;
            }
        }
        for &fi in &self.general[self.general_off[v]..self.general_off[v + 1]] {
            let f = &graph.factors()[fi as usize];
            delta += f.log_value_with(state, v, true) - f.log_value_with(state, v, false);
        }
        delta
    }
}

/// What an inference run did — the sampler-side mirror of the grounding
/// layer's `EXPLAIN ANALYZE` annotations.
#[derive(Debug, Clone)]
pub struct GibbsReport {
    /// Independent chains run.
    pub chains: usize,
    /// Fork-join workers used (never affects results).
    pub workers: usize,
    /// Color classes in the chromatic schedule.
    pub colors: usize,
    /// Fixed shards the classes were cut into.
    pub shards: usize,
    /// Shards holding at least one in-scope variable (the only shards
    /// that do any work or consume randomness).
    pub active_shards: usize,
    /// Variables in the graph.
    pub vars: usize,
    /// Variables resampled (the scope; all of `vars` for a full run).
    pub touched: usize,
    /// Burn-in sweeps per chain (0 when the scope is empty).
    pub burn_in: usize,
    /// Sampling sweeps per chain actually run.
    pub sweeps: usize,
    /// True when the run stopped because split-R̂ reached the target
    /// (always false for fixed-schedule runs).
    pub converged: bool,
    /// Worst split-R̂ over the scope's variables at the end of the run,
    /// once every chain completed ≥ 2 diagnostic blocks.
    pub rhat: Option<f64>,
    /// Smallest batch-means effective sample size over the scope.
    pub ess: Option<f64>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl GibbsReport {
    /// Total variable draws taken (burn-in included, all chains).
    pub fn total_samples(&self) -> u64 {
        self.touched as u64 * self.chains as u64 * (self.sweeps + self.burn_in) as u64
    }

    /// Sampling throughput normalized by the worker count — the number
    /// the `gibbs` bench reports so multi-core hosts show real scaling.
    pub fn samples_per_sec_per_worker(&self) -> f64 {
        self.total_samples() as f64 / self.elapsed.as_secs_f64().max(1e-9) / self.workers as f64
    }

    /// One-line `EXPLAIN ANALYZE`-style annotation.
    pub fn annotate(&self) -> String {
        let fmt_opt = |x: Option<f64>, digits: usize| {
            x.map(|x| format!("{x:.digits$}")).unwrap_or_else(|| "-".into())
        };
        probkb_core::explain::annotate(
            "PartitionedGibbs",
            &[
                ("touched", format!("{}/{}", self.touched, self.vars)),
                ("chains", self.chains.to_string()),
                ("workers", self.workers.to_string()),
                ("colors", self.colors.to_string()),
                ("shards", format!("{}/{}", self.active_shards, self.shards)),
                ("sweeps", format!("{}+{}", self.burn_in, self.sweeps)),
                (
                    "stop",
                    if self.converged { "rhat" } else { "schedule" }.to_string(),
                ),
                ("rhat", fmt_opt(self.rhat, 4)),
                ("ess", fmt_opt(self.ess, 1)),
                (
                    "time",
                    probkb_relational::explain::fmt_duration(self.elapsed),
                ),
            ],
        )
    }
}

/// Marginals, final chain states, and the run report.
#[derive(Debug, Clone)]
pub struct GibbsRun {
    /// Estimated marginals (averaged over all chains): fresh estimates
    /// for the scope, the prior carried through for everything else.
    pub marginals: Marginals,
    /// Final per-chain states, one `Vec<bool>` per chain — feed these
    /// back as `warm` to [`PartitionedGibbs::run_from`] on the next delta.
    pub states: Vec<Vec<bool>>,
    /// Execution report.
    pub report: GibbsReport,
}

struct ChainState {
    id: usize,
    state: Vec<bool>,
    /// True counts per scope position over all sampling sweeps (drives
    /// the marginals).
    counts: Vec<u64>,
    /// True counts per scope position within the current diagnostic block.
    block: Vec<u32>,
}

/// The variables one run resamples, laid out along the fixed schedule —
/// a pure function of `(coloring, scope)`, never of the worker count.
struct Scope {
    /// In-scope variables, ascending. Counts and diagnostics are indexed
    /// by position in this list.
    vars: Vec<VarId>,
    /// Per shard, its in-scope variables in shard order.
    shard_vars: Vec<Vec<VarId>>,
    /// Per color class, the shards holding an in-scope variable.
    class_shards: Vec<Vec<usize>>,
}

/// The Gibbs sampler: a compiled schedule plus its configuration.
pub struct PartitionedGibbs<'a> {
    graph: &'a FactorGraph,
    coloring: Cow<'a, Coloring>,
    partitioning: Sharding,
    plan: BatchedPlan,
    config: GibbsConfig,
}

impl<'a> PartitionedGibbs<'a> {
    /// Compile the schedule (coloring, sharding, shape batching) for a
    /// graph. The schedule depends only on the graph, never on workers.
    pub fn new(graph: &'a FactorGraph, config: &GibbsConfig) -> Self {
        Self::compile(graph, Cow::Owned(color(graph)), config)
    }

    /// Compile the schedule under a caller-maintained coloring (any
    /// proper coloring works; incremental callers pass the one they
    /// extend with `extend_color`).
    pub fn with_coloring(
        graph: &'a FactorGraph,
        coloring: &'a Coloring,
        config: &GibbsConfig,
    ) -> Self {
        Self::compile(graph, Cow::Borrowed(coloring), config)
    }

    fn compile(graph: &'a FactorGraph, coloring: Cow<'a, Coloring>, config: &GibbsConfig) -> Self {
        let partitioning = coloring.partition(SHARD_SIZE);
        PartitionedGibbs {
            graph,
            coloring,
            partitioning,
            plan: BatchedPlan::build(graph),
            config: *config,
        }
    }

    /// Number of color classes.
    pub fn num_colors(&self) -> usize {
        self.coloring.num_colors()
    }

    /// Number of fixed shards.
    pub fn num_shards(&self) -> usize {
        self.partitioning.num_shards()
    }

    /// Lay `vars` (every variable when `None`) out along the schedule.
    fn scope(&self, vars: Option<&[VarId]>) -> Scope {
        let n = self.graph.num_vars();
        let mut mask = vec![vars.is_none(); n];
        for &v in vars.unwrap_or_default() {
            mask[v] = true;
        }
        let shard_vars: Vec<Vec<VarId>> = self
            .partitioning
            .shards
            .iter()
            .map(|s| {
                let vars = self.coloring.shard_vars(s).iter().copied();
                vars.filter(|&v| mask[v]).collect()
            })
            .collect();
        let class_shards = (0..self.num_colors())
            .map(|class| {
                let shards = self.partitioning.shards_of(class).iter();
                shards
                    .map(|s| s.index)
                    .filter(|&i| !shard_vars[i].is_empty())
                    .collect()
            })
            .collect();
        Scope {
            vars: (0..n).filter(|&v| mask[v]).collect(),
            shard_vars,
            class_shards,
        }
    }

    /// One chromatic sweep of one chain: classes in sequence, the active
    /// shards of a class resampled against the frozen pre-class snapshot,
    /// shard results applied in shard order.
    fn chain_sweep(&self, scope: &Scope, chain: &mut ChainState, sweep: u64, inner: usize) {
        for shards in &scope.class_shards {
            let state: &[bool] = &chain.state;
            let chain_id = chain.id as u64;
            let updates = map_chunks(shards, inner, |_, part| {
                let mut out = Vec::new();
                for &shard in part {
                    let mut rng = StdRng::seed_from_u64(shard_seed(
                        self.config.seed,
                        chain_id,
                        sweep,
                        shard as u64,
                    ));
                    for &v in &scope.shard_vars[shard] {
                        let delta = self.plan.delta(self.graph, v, state);
                        out.push((v, rng.random::<f64>() < sigmoid(delta)));
                    }
                }
                out
            });
            for (v, value) in updates {
                chain.state[v] = value;
            }
        }
    }

    /// Advance every chain by `sweeps` sweeps starting at global sweep
    /// number `base`, fanning chains over the outer workers. During
    /// sampling (`sampling = true`) per-sweep true counts of the scope
    /// accumulate into each chain's marginal and block counters.
    fn advance(
        &self,
        scope: &Scope,
        states: &mut [ChainState],
        base: u64,
        sweeps: usize,
        sampling: bool,
    ) {
        if sweeps == 0 {
            return;
        }
        // Chains are the coarse parallelism; leftover workers split each
        // chain's shard lists. Both levels are result-invariant.
        let workers = self.config.resolved_workers();
        let outer = workers.min(states.len()).max(1);
        let inner = (workers / outer).max(1);
        for_each_chunk_mut(states, outer, |_, part| {
            for chain in part {
                for s in 0..sweeps {
                    self.chain_sweep(scope, chain, base + s as u64, inner);
                    if sampling {
                        for (i, &v) in scope.vars.iter().enumerate() {
                            let bit = chain.state[v];
                            chain.counts[i] += bit as u64;
                            chain.block[i] += bit as u32;
                        }
                    }
                }
            }
        });
    }

    /// Run the full schedule over every variable from cold (all-false)
    /// chains: burn-in, then either the fixed `samples` sweeps or
    /// convergence-controlled blocks until split-R̂ reaches `target_rhat`
    /// (or `max_sweeps`).
    pub fn run(&self) -> GibbsRun {
        self.run_from(None, &[], &[])
    }

    /// Run the schedule over `scope` (every variable when `None`).
    ///
    /// * Chains warm-start from `warm` (per-chain states, padded with
    ///   `false` for variables beyond each state's length; missing chains
    ///   start cold).
    /// * Out-of-scope variables draw nothing: they keep their warm state
    ///   and report `prior[v]` as their marginal (missing entries default
    ///   to 0.0).
    /// * R̂/ESS and the early stop are computed over the scope's variables.
    ///
    /// An empty scope is a no-op that returns the prior and the padded
    /// warm states. Results are a pure function of `(graph, coloring,
    /// scope, warm, prior, config)` at any worker count.
    pub fn run_from(&self, scope: Option<&[VarId]>, warm: &[Vec<bool>], prior: &[f64]) -> GibbsRun {
        let start = Instant::now();
        let n = self.graph.num_vars();
        let config = &self.config;
        let chains = config.chains.max(1);
        let workers = config.resolved_workers();
        let check = config.check_interval.max(1);
        let scope = self.scope(scope);
        let touched = scope.vars.len();

        let mut report = GibbsReport {
            chains,
            workers,
            colors: self.num_colors(),
            shards: self.num_shards(),
            active_shards: scope.class_shards.iter().map(Vec::len).sum(),
            vars: n,
            touched,
            burn_in: config.burn_in,
            sweeps: 0,
            converged: false,
            rhat: None,
            ess: None,
            elapsed: Duration::ZERO,
        };
        let mut states: Vec<ChainState> = (0..chains)
            .map(|id| {
                let mut state = warm.get(id).cloned().unwrap_or_default();
                state.resize(n, false);
                ChainState {
                    id,
                    state,
                    counts: vec![0u64; touched],
                    block: vec![0u32; touched],
                }
            })
            .collect();
        let mut p: Vec<f64> = (0..n)
            .map(|v| prior.get(v).copied().unwrap_or(0.0))
            .collect();

        if touched == 0 {
            // Nothing to sample; a convergence-controlled run over
            // nothing is trivially converged.
            report.burn_in = 0;
            report.converged = config.target_rhat.is_some();
        } else {
            self.advance(&scope, &mut states, 0, config.burn_in, false);
            let mut sweep_no = config.burn_in as u64;
            let mut stats = ChainStats::new(chains, touched, check);
            let mut done = 0usize;
            let budget = match config.target_rhat {
                Some(_) => config.max_sweeps,
                None => config.samples,
            };
            while done < budget {
                let step = check.min(budget - done);
                self.advance(&scope, &mut states, sweep_no, step, true);
                sweep_no += step as u64;
                done += step;
                for chain in &mut states {
                    let block = std::mem::replace(&mut chain.block, vec![0u32; touched]);
                    if step == check {
                        stats.push_block(chain.id, block);
                    }
                    // Partial trailing blocks still count toward marginals
                    // but carry no diagnostic weight.
                }
                if let Some(target) = config.target_rhat {
                    if let Some(rhat) = stats.max_split_rhat() {
                        if rhat <= target {
                            report.converged = true;
                            break;
                        }
                    }
                }
            }

            report.sweeps = done;
            report.rhat = stats.max_split_rhat();
            report.ess = stats.min_batch_ess();
            let denom = (chains * done.max(1)) as f64;
            for (i, &v) in scope.vars.iter().enumerate() {
                let mut total = 0.0f64;
                for chain in &states {
                    total += chain.counts[i] as f64;
                }
                p[v] = total / denom;
            }
        }
        report.elapsed = start.elapsed();
        GibbsRun {
            marginals: Marginals { p },
            states: states.into_iter().map(|c| c.state).collect(),
            report,
        }
    }
}

/// Mix a shard's RNG seed from the run seed and the shard coordinates.
/// SplitMix64-style finalization keeps nearby coordinates uncorrelated.
fn shard_seed(seed: u64, chain: u64, sweep: u64, shard: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for x in [chain, sweep, shard] {
        h = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Run the sampler over every variable from cold chains and return
/// marginals, final chain states, and the execution report.
pub fn partitioned_marginals(graph: &FactorGraph, config: &GibbsConfig) -> GibbsRun {
    PartitionedGibbs::new(graph, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_marginals;
    use probkb_factorgraph::prelude::Factor;
    use probkb_support::rng::{Rng, SeedableRng, StdRng};

    fn chain_graph(n: usize) -> FactorGraph {
        let mut factors = vec![Factor::singleton(0, 1.5)];
        for v in 1..n {
            factors.push(Factor::rule(v, vec![v - 1], 1.0));
        }
        FactorGraph::new(n, factors)
    }

    fn random_graph(seed: u64, n: usize, m: usize) -> FactorGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut factors = Vec::new();
        for _ in 0..m {
            let head = (rng.random::<u64>() as usize) % n;
            let arity = (rng.random::<u64>() as usize) % 3;
            let mut body = Vec::new();
            while body.len() < arity {
                let u = (rng.random::<u64>() as usize) % n;
                if u != head && !body.contains(&u) {
                    body.push(u);
                }
            }
            let weight = rng.random::<f64>() * 4.0 - 2.0;
            factors.push(Factor { head, body, weight });
        }
        FactorGraph::new(n, factors)
    }

    #[test]
    fn batched_plan_matches_flip_delta_ro() {
        let g = random_graph(7, 9, 30);
        let plan = BatchedPlan::build(&g);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let state: Vec<bool> = (0..9).map(|_| rng.random::<f64>() < 0.5).collect();
            for v in 0..9 {
                let batched = plan.delta(&g, v, &state);
                let reference = g.flip_delta_ro(v, &state);
                assert!(
                    (batched - reference).abs() < 1e-9,
                    "var {v}: batched {batched} vs reference {reference}"
                );
            }
        }
    }

    #[test]
    fn batched_plan_handles_degenerate_factors() {
        // Head repeated in the body and a 3-atom body: both must route
        // through the general fallback and still match the reference.
        let g = FactorGraph::new(
            4,
            vec![
                Factor::rule(0, vec![0], 1.3),
                Factor::rule(1, vec![2, 3, 0], 0.7),
                Factor::rule(2, vec![3, 3], 0.9),
            ],
        );
        let plan = BatchedPlan::build(&g);
        for mask in 0u8..16 {
            let state: Vec<bool> = (0..4).map(|v| (mask >> v) & 1 == 1).collect();
            for v in 0..4 {
                let batched = plan.delta(&g, v, &state);
                let reference = g.flip_delta_ro(v, &state);
                assert!(
                    (batched - reference).abs() < 1e-9,
                    "mask {mask} var {v}: {batched} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn matches_exact_on_small_chain() {
        let g = chain_graph(6);
        let exact = exact_marginals(&g);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 300,
                samples: 10_000,
                seed: 3,
                chains: 2,
                workers: Some(2),
                ..GibbsConfig::default()
            },
        );
        for (v, (got, want)) in run.marginals.p.iter().zip(exact.iter()).enumerate() {
            assert!(
                (got - want).abs() < 0.03,
                "var {v}: partitioned {got} vs exact {want}"
            );
        }
        assert_eq!(run.report.sweeps, 10_000);
        assert!(!run.report.converged);
        assert!(run.report.rhat.is_some());
    }

    #[test]
    fn convergence_control_stops_early_on_well_mixed_graph() {
        let g = chain_graph(6);
        let exact = exact_marginals(&g);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 100,
                seed: 5,
                chains: 4,
                workers: Some(1),
                target_rhat: Some(1.02),
                max_sweeps: 50_000,
                check_interval: 500,
                ..GibbsConfig::default()
            },
        );
        assert!(run.report.converged, "R̂ never reached 1.02: {:?}", run.report.rhat);
        assert!(
            run.report.sweeps < 50_000,
            "early stop did not fire (ran {} sweeps)",
            run.report.sweeps
        );
        assert!(run.report.rhat.unwrap() <= 1.02);
        // Equal marginal accuracy: the stopped run still tracks the oracle.
        for (v, (got, want)) in run.marginals.p.iter().zip(exact.iter()).enumerate() {
            assert!(
                (got - want).abs() < 0.05,
                "var {v}: converged run {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn annotation_contains_the_explain_fields() {
        let g = chain_graph(4);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 20,
                samples: 200,
                seed: 9,
                chains: 2,
                workers: Some(3),
                ..GibbsConfig::default()
            },
        );
        let line = run.report.annotate();
        assert!(line.starts_with("PartitionedGibbs  ("), "{line}");
        for key in ["chains=2", "workers=3", "sweeps=20+200", "rhat=", "time="] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(run.report.samples_per_sec_per_worker() > 0.0);
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999999);
        assert!(sigmoid(-30.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_variable_marginal_matches_closed_form() {
        // One var, singleton weight w: P(x=1) = e^w / (1 + e^w).
        let w = 1.2;
        let g = FactorGraph::new(1, vec![Factor::singleton(0, w)]);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 100,
                samples: 20000,
                seed: 7,
                ..GibbsConfig::default()
            },
        );
        let expected = sigmoid(w);
        let got = run.marginals.p[0];
        assert!((got - expected).abs() < 0.02, "got {got}, want {expected}");
    }

    #[test]
    fn implication_raises_head_probability() {
        // Strong body, strong rule: head should be likely even with no
        // direct evidence.
        let g = FactorGraph::new(
            2,
            vec![Factor::singleton(0, 3.0), Factor::rule(1, vec![0], 2.0)],
        );
        let m = partitioned_marginals(&g, &GibbsConfig::default()).marginals;
        assert!(m.p[0] > 0.9);
        assert!(m.p[1] > 0.7, "head marginal {}", m.p[1]);
        // An isolated variable with no factors sits near 0.5.
        let free = FactorGraph::new(1, vec![]);
        let mf = partitioned_marginals(&free, &GibbsConfig::default()).marginals;
        assert!((mf.p[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_given_seed_and_seed_sensitive() {
        let g = chain_graph(5);
        let config = GibbsConfig {
            burn_in: 10,
            samples: 100,
            seed: 42,
            ..GibbsConfig::default()
        };
        let a = partitioned_marginals(&g, &config);
        let b = partitioned_marginals(&g, &config);
        assert_eq!(a.marginals.p, b.marginals.p);
        assert_eq!(a.states, b.states);
        let other = partitioned_marginals(&g, &GibbsConfig { seed: 43, ..config });
        assert_ne!(a.marginals.p, other.marginals.p);
    }

    #[test]
    fn colors_match_graph_structure() {
        let g = chain_graph(10);
        let sampler = PartitionedGibbs::new(&g, &GibbsConfig::default());
        assert_eq!(sampler.num_colors(), 2); // a chain is 2-colorable
        assert_eq!(sampler.num_shards(), 2);
    }

    #[test]
    fn max_diff_measures_chain_disagreement() {
        let a = Marginals { p: vec![0.1, 0.9] };
        let b = Marginals { p: vec![0.2, 0.85] };
        assert!((a.max_diff(&b) - 0.1).abs() < 1e-12);
    }

    fn scoped_config(samples: usize) -> GibbsConfig {
        GibbsConfig {
            burn_in: 100,
            samples,
            chains: 2,
            workers: Some(1),
            target_rhat: None,
            ..GibbsConfig::default()
        }
    }

    fn run_scoped(
        g: &FactorGraph,
        scope: &[VarId],
        warm: &[Vec<bool>],
        prior: &[f64],
        config: &GibbsConfig,
    ) -> GibbsRun {
        PartitionedGibbs::new(g, config).run_from(Some(scope), warm, prior)
    }

    #[test]
    fn all_touched_cold_start_matches_partitioned_fixed_schedule() {
        let g = chain_graph(9);
        let cfg = scoped_config(400);
        let full = partitioned_marginals(&g, &cfg);
        let all: Vec<VarId> = (0..g.num_vars()).collect();
        let scoped = run_scoped(&g, &all, &[], &[], &cfg);
        // Same draws in the same order: byte-identical marginals and states.
        assert_eq!(scoped.marginals.p, full.marginals.p);
        assert_eq!(scoped.states, full.states);
        assert_eq!(scoped.report.touched, full.report.vars);
    }

    #[test]
    fn untouched_vars_keep_prior_and_state() {
        let g = chain_graph(6);
        let cfg = scoped_config(50);
        let prior = vec![0.11, 0.22, 0.33, 0.44, 0.55, 0.66];
        let warm = vec![vec![true; 6], vec![false; 6]];
        let run = run_scoped(&g, &[4, 5], &warm, &prior, &cfg);
        for v in 0..4 {
            assert_eq!(run.marginals.p[v], prior[v], "var {v}");
            // Untouched variables never flip.
            assert!(run.states[0][v]);
            assert!(!run.states[1][v]);
        }
        assert_eq!(run.report.touched, 2);
        assert_eq!(run.report.vars, 6);
    }

    #[test]
    fn empty_touched_set_is_a_no_op() {
        let g = chain_graph(4);
        let prior = vec![0.1, 0.2, 0.3, 0.4];
        let warm = vec![vec![true, false, true, false]];
        let run = run_scoped(&g, &[], &warm, &prior, &scoped_config(100));
        assert_eq!(run.marginals.p, prior);
        assert_eq!(run.report.sweeps, 0);
        assert_eq!(run.report.active_shards, 0);
        assert_eq!(run.states[0], warm[0]);
    }

    #[test]
    fn scoped_worker_count_never_changes_results() {
        let g = chain_graph(40);
        let touched: Vec<VarId> = (20..40).collect();
        let warm = vec![vec![false; 40]; 2];
        let prior = vec![0.5; 40];
        let mut baseline: Option<GibbsRun> = None;
        for workers in [1usize, 2, 4] {
            let cfg = GibbsConfig {
                workers: Some(workers),
                ..scoped_config(200)
            };
            let run = run_scoped(&g, &touched, &warm, &prior, &cfg);
            match &baseline {
                None => baseline = Some(run),
                Some(b) => {
                    assert_eq!(run.marginals.p, b.marginals.p, "workers={workers}");
                    assert_eq!(run.states, b.states, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn warm_started_full_scope_agrees_with_exact() {
        // Warm chains only move the starting point: after burn-in the
        // full-scope estimates still track the oracle.
        let g = chain_graph(5);
        let exact = exact_marginals(&g);
        let cfg = GibbsConfig {
            burn_in: 300,
            samples: 6000,
            ..scoped_config(0)
        };
        let all: Vec<VarId> = (0..5).collect();
        let warm = vec![vec![true; 5], vec![false, true, false, true, false]];
        let run = run_scoped(&g, &all, &warm, &[], &cfg);
        for (v, (got, want)) in run.marginals.p.iter().zip(exact.iter()).enumerate() {
            assert!((got - want).abs() < 0.05, "var {v}: {got} vs {want}");
        }
    }

    #[test]
    fn scoped_convergence_control_reports_rhat_over_the_scope() {
        let g = chain_graph(6);
        let cfg = GibbsConfig {
            target_rhat: Some(1.05),
            max_sweeps: 20_000,
            check_interval: 200,
            ..scoped_config(0)
        };
        let run = run_scoped(&g, &[3, 4, 5], &[], &[0.5; 6], &cfg);
        assert!(
            run.report.converged,
            "R̂ never reached 1.05: {:?}",
            run.report.rhat
        );
        assert!(run.report.rhat.unwrap() <= 1.05);
        assert!(run.report.sweeps < 20_000);
        assert_eq!(&run.marginals.p[..3], &[0.5; 3]);
    }

    #[test]
    fn scoped_report_annotation_shape() {
        let g = chain_graph(3);
        let run = run_scoped(&g, &[2], &[], &[0.5; 3], &scoped_config(10));
        let line = run.report.annotate();
        assert!(line.starts_with("PartitionedGibbs"), "{line}");
        assert!(line.contains("touched=1/3"), "{line}");
        assert!(line.contains("shards=1/"), "{line}");
        assert!(line.contains("sweeps=100+10"), "{line}");
    }
}
