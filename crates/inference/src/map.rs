//! MAP (maximum a posteriori) inference — §2.2's "other inference type".
//!
//! ProbKB ships marginal inference so results can live in the KB, but MAP
//! is the standard alternative: find the single most likely world. Two
//! standard local-search solvers are provided, both exact on small graphs
//! when cross-checked against enumeration in the tests:
//!
//! * **ICM** (iterated conditional modes): deterministically flip each
//!   variable to its conditionally-better value until a fixpoint — fast,
//!   may stop in a local optimum.
//! * **Simulated annealing**: Gibbs-style sweeps with a temperature
//!   schedule cooling toward greedy; escapes local optima with high
//!   probability given enough sweeps.

use probkb_factorgraph::prelude::FactorGraph;
use probkb_support::rng::{Rng, SeedableRng, StdRng};

use crate::partitioned::sigmoid;

/// A MAP solution: an assignment and its unnormalized log score.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSolution {
    /// The assignment.
    pub assignment: Vec<bool>,
    /// `Σᵢ Wᵢ nᵢ(x)` for the assignment.
    pub log_score: f64,
}

/// Iterated conditional modes from the all-false state. Returns the local
/// optimum and the number of sweeps to convergence.
pub fn icm(graph: &FactorGraph) -> (MapSolution, usize) {
    icm_from(graph, vec![false; graph.num_vars()])
}

/// ICM from a caller-provided start state.
pub fn icm_from(graph: &FactorGraph, mut assignment: Vec<bool>) -> (MapSolution, usize) {
    assert_eq!(assignment.len(), graph.num_vars());
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        let mut changed = false;
        for v in 0..graph.num_vars() {
            let better = graph.flip_delta_ro(v, &assignment) > 0.0;
            if assignment[v] != better {
                assignment[v] = better;
                changed = true;
            }
        }
        if !changed || sweeps > graph.num_vars() + 8 {
            break;
        }
    }
    let log_score = graph.log_score(&assignment);
    (
        MapSolution {
            assignment,
            log_score,
        },
        sweeps,
    )
}

/// Simulated-annealing configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnnealConfig {
    /// Number of sweeps.
    pub sweeps: usize,
    /// Starting temperature (1.0 = plain Gibbs).
    pub t_start: f64,
    /// Final temperature (→ 0 = greedy).
    pub t_end: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            sweeps: 300,
            t_start: 2.0,
            t_end: 0.05,
            seed: 0xC0FFEE,
        }
    }
}

/// Simulated annealing; returns the best assignment seen across the whole
/// run (not merely the final state), finished with an ICM polish.
pub fn anneal(graph: &FactorGraph, config: &AnnealConfig) -> MapSolution {
    let n = graph.num_vars();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = vec![false; n];
    let mut best = MapSolution {
        assignment: state.clone(),
        log_score: graph.log_score(&state),
    };
    let sweeps = config.sweeps.max(1);
    for sweep in 0..sweeps {
        // Geometric cooling.
        let progress = sweep as f64 / sweeps as f64;
        let temperature = config.t_start * (config.t_end / config.t_start).powf(progress);
        for v in 0..n {
            let delta = graph.flip_delta_ro(v, &state);
            let p_true = sigmoid(delta / temperature.max(1e-9));
            state[v] = rng.random::<f64>() < p_true;
        }
        let score = graph.log_score(&state);
        if score > best.log_score {
            best = MapSolution {
                assignment: state.clone(),
                log_score: score,
            };
        }
    }
    // Polish the best state to a local optimum (ICM never lowers the
    // score, so the polished solution is returned unconditionally).
    let (polished, _) = icm_from(graph, best.assignment.clone());
    debug_assert!(polished.log_score >= best.log_score - 1e-12);
    polished
}

/// Exact MAP by enumeration (≤ 24 variables) — the test oracle.
pub fn exact_map(graph: &FactorGraph) -> MapSolution {
    let n = graph.num_vars();
    assert!(n <= 24, "exact MAP limited to 24 variables, got {n}");
    let mut best_mask = 0u64;
    let mut best_score = f64::NEG_INFINITY;
    let mut assignment = vec![false; n];
    for mask in 0u64..(1u64 << n) {
        for (v, slot) in assignment.iter_mut().enumerate() {
            *slot = (mask >> v) & 1 == 1;
        }
        let score = graph.log_score(&assignment);
        if score > best_score {
            best_score = score;
            best_mask = mask;
        }
    }
    for (v, slot) in assignment.iter_mut().enumerate() {
        *slot = (best_mask >> v) & 1 == 1;
    }
    MapSolution {
        assignment,
        log_score: best_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probkb_factorgraph::prelude::Factor;

    fn chain(n: usize) -> FactorGraph {
        let mut factors = vec![Factor::singleton(0, 2.0)];
        for v in 1..n {
            factors.push(Factor::rule(v, vec![v - 1], 1.5));
        }
        // One contrarian singleton pulling the middle down.
        factors.push(Factor::singleton(n / 2, -0.4));
        FactorGraph::new(n, factors)
    }

    #[test]
    fn icm_exact_on_independent_variables() {
        // Independent singletons of mixed sign: greedy per-variable
        // choices are globally optimal.
        let weights = [2.0, -1.0, 0.5, -3.0, 4.0, -0.2];
        let factors = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| Factor::singleton(v, w))
            .collect();
        let g = FactorGraph::new(weights.len(), factors);
        let oracle = exact_map(&g);
        let (sol, sweeps) = icm(&g);
        assert!(sweeps <= 2);
        assert_eq!(sol.log_score, oracle.log_score);
        for (v, &w) in weights.iter().enumerate() {
            assert_eq!(sol.assignment[v], w > 0.0, "var {v}");
        }
    }

    #[test]
    fn icm_from_map_stays_at_map() {
        // ICM started at the exact MAP must not move off it.
        let g = chain(10);
        let oracle = exact_map(&g);
        let (sol, _) = icm_from(&g, oracle.assignment.clone());
        assert_eq!(sol.log_score, oracle.log_score);
    }

    #[test]
    fn icm_reaches_a_local_optimum() {
        // With contrarian evidence ICM may miss the global MAP, but the
        // result must be 1-flip optimal, and annealing must do at least
        // as well.
        let g = chain(10);
        let (sol, _) = icm(&g);
        for v in 0..g.num_vars() {
            let delta = g.flip_delta_ro(v, &sol.assignment);
            let improvable = if sol.assignment[v] { delta < 0.0 } else { delta > 0.0 };
            assert!(!improvable, "var {v} still improvable");
        }
        let annealed = anneal(&g, &AnnealConfig::default());
        assert!(annealed.log_score >= sol.log_score - 1e-12);
    }

    #[test]
    fn annealing_matches_exact_map() {
        for seed in [1u64, 2, 3] {
            let g = chain(12);
            let oracle = exact_map(&g);
            let sol = anneal(
                &g,
                &AnnealConfig {
                    sweeps: 200,
                    seed,
                    ..AnnealConfig::default()
                },
            );
            assert!(
                (sol.log_score - oracle.log_score).abs() < 1e-9,
                "seed {seed}: anneal {} vs exact {}",
                sol.log_score,
                oracle.log_score
            );
        }
    }

    #[test]
    fn map_prefers_satisfying_worlds() {
        // strong fact + strong implication: MAP sets both true.
        let g = FactorGraph::new(
            2,
            vec![Factor::singleton(0, 3.0), Factor::rule(1, vec![0], 2.0)],
        );
        let (sol, _) = icm(&g);
        assert_eq!(sol.assignment, vec![true, true]);
    }

    #[test]
    fn negative_evidence_flips_map() {
        let g = FactorGraph::new(1, vec![Factor::singleton(0, -5.0)]);
        let (sol, _) = icm(&g);
        assert_eq!(sol.assignment, vec![false]);
        assert_eq!(sol.log_score, 0.0);
    }

    #[test]
    fn anneal_reports_best_not_last() {
        // With an absurdly hot schedule the final state is random, but the
        // best-seen must still be optimal for this trivial graph.
        let g = FactorGraph::new(1, vec![Factor::singleton(0, 4.0)]);
        let sol = anneal(
            &g,
            &AnnealConfig {
                sweeps: 50,
                t_start: 50.0,
                t_end: 50.0,
                seed: 9,
            },
        );
        assert_eq!(sol.assignment, vec![true]);
    }

    #[test]
    fn empty_graph_map_is_trivial() {
        let g = FactorGraph::new(3, vec![]);
        let (sol, _) = icm(&g);
        assert_eq!(sol.log_score, 0.0);
        let oracle = exact_map(&g);
        assert_eq!(oracle.log_score, 0.0);
    }
}
