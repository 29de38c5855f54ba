//! # probkb-inference
//!
//! Marginal inference over ProbKB's ground factor graphs — the stand-in
//! for the external engine (GraphLab + parallel Gibbs) the paper hands
//! its grounding output to (Figure 1, §2.2).
//!
//! * [`partitioned`] — the Gibbs kernel: partition-sharded multi-chain
//!   Gibbs on the fork-join pool (`PROBKB_GIBBS_WORKERS`) with
//!   shape-batched factor evaluation, online convergence control, and
//!   scoped warm-started runs over a Markov blanket for incremental
//!   expansion (`apply_delta`).
//! * [`bp`] — loopy belief propagation (sum- and max-product).
//! * [`map`] — MAP inference: ICM, simulated annealing, exact search.
//! * [`diagnostics`] — split-R̂ (Gelman–Rubin) and effective-sample-size
//!   estimators, incremental across chains.
//! * [`exact`] — brute-force enumeration oracle (≤ 24 variables) used by
//!   the test suite to validate the sampler.
//! * [`local`] — query-time marginals over budgeted local groundings.
//! * [`writeback`] — store estimated marginals back into `TΠ` weights so
//!   queries need no inference at run time.

#![warn(missing_docs)]

pub mod bp;
pub mod diagnostics;
pub mod exact;
pub mod local;
pub mod map;
pub mod partitioned;
pub mod writeback;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::bp::{belief_propagation, max_product, BpConfig, BpResult};
    pub use crate::diagnostics::{ess, split_rhat, ChainStats};
    pub use crate::exact::{exact_marginals, log_partition};
    pub use crate::local::{LocalAnswer, LocalSession, LOCAL_EXACT_MAX_VARS};
    pub use crate::map::{anneal, exact_map, icm, icm_from, AnnealConfig, MapSolution};
    pub use crate::partitioned::{
        blanket_of, default_gibbs_workers, partitioned_marginals, sigmoid, BatchedPlan,
        GibbsConfig, GibbsReport, GibbsRun, Marginals, PartitionedGibbs, SHARD_SIZE,
    };
    pub use crate::writeback::{marginal_of, write_marginals};
}
