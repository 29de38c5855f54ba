//! Loopy belief propagation — a deterministic alternative to sampling.
//!
//! The paper's related work (§7) cites residual/parallel BP among the
//! engines its factor graphs can feed; this module implements standard
//! sum-product message passing in log space. Exact on trees; a damped
//! fixed-point iteration on loopy graphs.

use probkb_factorgraph::prelude::{FactorGraph, VarId};

use crate::partitioned::{sigmoid, Marginals};

/// BP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpConfig {
    /// Maximum message-passing rounds.
    pub max_iterations: usize,
    /// Convergence threshold on the max message change.
    pub tolerance: f64,
    /// Damping in [0, 1): new = (1-d)·update + d·old. Helps loopy graphs.
    pub damping: f64,
}

impl Default for BpConfig {
    fn default() -> Self {
        BpConfig {
            max_iterations: 200,
            tolerance: 1e-8,
            damping: 0.3,
        }
    }
}

/// The result of a BP run.
#[derive(Debug, Clone)]
pub struct BpResult {
    /// Estimated marginals.
    pub marginals: Marginals,
    /// Rounds executed.
    pub iterations: usize,
    /// True when the message updates fell below tolerance.
    pub converged: bool,
}

/// Run loopy sum-product BP and return per-variable marginals.
pub fn belief_propagation(graph: &FactorGraph, config: &BpConfig) -> BpResult {
    let n = graph.num_vars();
    let factors = graph.factors();

    // Message storage: for every (factor, var-slot) edge, one message in
    // each direction, parameterized as log-odds toward "true".
    // edges[f] lists the variables of factor f in slot order.
    let edges: Vec<Vec<VarId>> = factors.iter().map(|f| f.vars().collect()).collect();
    let mut var_to_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (fi, vars) in edges.iter().enumerate() {
        for (slot, &v) in vars.iter().enumerate() {
            var_to_edges[v].push((fi, slot));
        }
    }

    // msg_vf[f][slot]: variable → factor log-odds; msg_fv: factor → var.
    let mut msg_vf: Vec<Vec<f64>> = edges.iter().map(|vars| vec![0.0; vars.len()]).collect();
    let mut msg_fv: Vec<Vec<f64>> = msg_vf.clone();

    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        let mut max_delta = 0.0f64;

        // Variable → factor: sum of incoming factor messages except this
        // edge's own.
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let total: f64 = var_to_edges[v]
                .iter()
                .map(|&(fi, slot)| msg_fv[fi][slot])
                .sum();
            for &(fi, slot) in &var_to_edges[v] {
                let update = total - msg_fv[fi][slot];
                let old = msg_vf[fi][slot];
                let new = config.damping * old + (1.0 - config.damping) * update;
                max_delta = max_delta.max((new - old).abs());
                msg_vf[fi][slot] = new;
            }
        }

        // Factor → variable: marginalize the factor table against the
        // incoming messages (factors have ≤ 3 variables, so enumerating
        // the ≤ 8 rows is cheap and exact).
        for (fi, factor) in factors.iter().enumerate() {
            let arity = edges[fi].len();
            for slot in 0..arity {
                // For target value b ∈ {0,1}: logsumexp over the other
                // variables' assignments of factor log-value + incoming
                // log-odds for the "true" sides.
                let mut score = [f64::NEG_INFINITY; 2];
                for mask in 0u8..(1 << arity) {
                    let mut assignment = [false; 3];
                    for (s, slot_value) in assignment.iter_mut().enumerate().take(arity) {
                        *slot_value = (mask >> s) & 1 == 1;
                    }
                    // Factor log value under this local assignment.
                    let satisfied = {
                        let read = |s: usize| assignment[s];
                        if factor.body.is_empty() {
                            read(0)
                        } else {
                            let body_true = (1..arity).all(read);
                            !body_true || read(0)
                        }
                    };
                    let mut logv = if satisfied { factor.weight } else { 0.0 };
                    for s in 0..arity {
                        if s != slot && assignment[s] {
                            logv += msg_vf[fi][s];
                        }
                    }
                    let b = assignment[slot] as usize;
                    score[b] = logsumexp2(score[b], logv);
                }
                let update = score[1] - score[0];
                let old = msg_fv[fi][slot];
                let new = config.damping * old + (1.0 - config.damping) * update;
                max_delta = max_delta.max((new - old).abs());
                msg_fv[fi][slot] = new;
            }
        }

        if max_delta < config.tolerance {
            converged = true;
            break;
        }
    }

    // Beliefs: product (sum in log space) of all incoming messages.
    let p = (0..n)
        .map(|v| {
            let logit: f64 = var_to_edges[v]
                .iter()
                .map(|&(fi, slot)| msg_fv[fi][slot])
                .sum();
            sigmoid(logit)
        })
        .collect();

    BpResult {
        marginals: Marginals { p },
        iterations,
        converged,
    }
}

fn logsumexp2(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

/// Max-product BP: the MAP-seeking variant. Identical message flow to
/// [`belief_propagation`] but marginalization is replaced by
/// maximization, so beliefs score the best completion rather than the
/// probability mass. Exact on trees. Returns the decoded assignment,
/// iterations used, and whether messages converged.
pub fn max_product(graph: &FactorGraph, config: &BpConfig) -> (Vec<bool>, usize, bool) {
    let n = graph.num_vars();
    let factors = graph.factors();
    let edges: Vec<Vec<VarId>> = factors.iter().map(|f| f.vars().collect()).collect();
    let mut var_to_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (fi, vars) in edges.iter().enumerate() {
        for (slot, &v) in vars.iter().enumerate() {
            var_to_edges[v].push((fi, slot));
        }
    }
    let mut msg_vf: Vec<Vec<f64>> = edges.iter().map(|vars| vec![0.0; vars.len()]).collect();
    let mut msg_fv: Vec<Vec<f64>> = msg_vf.clone();

    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        let mut max_delta = 0.0f64;

        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let total: f64 = var_to_edges[v]
                .iter()
                .map(|&(fi, slot)| msg_fv[fi][slot])
                .sum();
            for &(fi, slot) in &var_to_edges[v] {
                let update = total - msg_fv[fi][slot];
                let old = msg_vf[fi][slot];
                let new = config.damping * old + (1.0 - config.damping) * update;
                max_delta = max_delta.max((new - old).abs());
                msg_vf[fi][slot] = new;
            }
        }

        for (fi, factor) in factors.iter().enumerate() {
            let arity = edges[fi].len();
            for slot in 0..arity {
                let mut score = [f64::NEG_INFINITY; 2];
                for mask in 0u8..(1 << arity) {
                    let mut assignment = [false; 3];
                    for (s, slot_value) in assignment.iter_mut().enumerate().take(arity) {
                        *slot_value = (mask >> s) & 1 == 1;
                    }
                    let satisfied = {
                        let read = |s: usize| assignment[s];
                        if factor.body.is_empty() {
                            read(0)
                        } else {
                            let body_true = (1..arity).all(read);
                            !body_true || read(0)
                        }
                    };
                    let mut logv = if satisfied { factor.weight } else { 0.0 };
                    for s in 0..arity {
                        if s != slot && assignment[s] {
                            logv += msg_vf[fi][s];
                        }
                    }
                    let b = assignment[slot] as usize;
                    score[b] = score[b].max(logv); // max instead of logsumexp
                }
                let update = score[1] - score[0];
                let old = msg_fv[fi][slot];
                let new = config.damping * old + (1.0 - config.damping) * update;
                max_delta = max_delta.max((new - old).abs());
                msg_fv[fi][slot] = new;
            }
        }

        if max_delta < config.tolerance {
            converged = true;
            break;
        }
    }

    let assignment = (0..n)
        .map(|v| {
            var_to_edges[v]
                .iter()
                .map(|&(fi, slot)| msg_fv[fi][slot])
                .sum::<f64>()
                > 0.0
        })
        .collect();
    (assignment, iterations, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_marginals;
    use probkb_factorgraph::prelude::Factor;

    fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
        for (v, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - w).abs() < tol,
                "{what} var {v}: bp {g} vs exact {w}"
            );
        }
    }

    #[test]
    fn exact_on_single_variable() {
        let g = FactorGraph::new(1, vec![Factor::singleton(0, 1.3)]);
        let r = belief_propagation(&g, &BpConfig::default());
        assert!(r.converged);
        assert!((r.marginals.p[0] - sigmoid(1.3)).abs() < 1e-6);
    }

    #[test]
    fn exact_on_tree_structured_graphs() {
        // A chain (tree): BP is exact.
        let mut factors = vec![Factor::singleton(0, 1.0)];
        for v in 1..6 {
            factors.push(Factor::rule(v, vec![v - 1], 0.8));
        }
        let g = FactorGraph::new(6, factors);
        let r = belief_propagation(&g, &BpConfig::default());
        assert!(r.converged);
        assert_close(&r.marginals.p, &exact_marginals(&g), 1e-5, "chain");
    }

    #[test]
    fn exact_on_ternary_tree() {
        // One ternary factor + leaf evidence: still a tree.
        let g = FactorGraph::new(
            3,
            vec![
                Factor::singleton(0, 1.5),
                Factor::singleton(1, -0.5),
                Factor::rule(2, vec![0, 1], 1.0),
            ],
        );
        let r = belief_propagation(&g, &BpConfig::default());
        assert!(r.converged);
        assert_close(&r.marginals.p, &exact_marginals(&g), 1e-5, "ternary");
    }

    #[test]
    fn close_on_loopy_graphs() {
        // Two derivations of the same head (the Figure 3 located_in
        // situation) create a loop; damped BP stays close to exact.
        let g = FactorGraph::new(
            4,
            vec![
                Factor::singleton(0, 1.0),
                Factor::singleton(1, 0.7),
                Factor::rule(2, vec![0], 1.2),
                Factor::rule(3, vec![0, 1], 0.6),
                Factor::rule(3, vec![2], 0.4),
            ],
        );
        let r = belief_propagation(&g, &BpConfig::default());
        assert!(r.converged, "damped BP should converge here");
        assert_close(&r.marginals.p, &exact_marginals(&g), 0.05, "loopy");
    }

    #[test]
    fn max_product_matches_exact_map_on_trees() {
        use crate::map::exact_map;
        let mut factors = vec![Factor::singleton(0, 2.0), Factor::singleton(2, -0.5)];
        for v in 1..6 {
            factors.push(Factor::rule(v, vec![v - 1], 1.2));
        }
        let g = FactorGraph::new(6, factors);
        let (assignment, _, converged) = max_product(&g, &BpConfig::default());
        assert!(converged);
        let oracle = exact_map(&g);
        assert!(
            (g.log_score(&assignment) - oracle.log_score).abs() < 1e-9,
            "max-product {} vs exact {}",
            g.log_score(&assignment),
            oracle.log_score
        );
    }

    #[test]
    fn max_product_decodes_independent_signs() {
        let weights = [1.0, -2.0, 0.5];
        let factors = weights
            .iter()
            .enumerate()
            .map(|(v, &w)| Factor::singleton(v, w))
            .collect();
        let g = FactorGraph::new(3, factors);
        let (assignment, _, converged) = max_product(&g, &BpConfig::default());
        assert!(converged);
        assert_eq!(assignment, vec![true, false, true]);
    }

    #[test]
    fn respects_iteration_cap() {
        let g = FactorGraph::new(2, vec![Factor::rule(1, vec![0], 1.0)]);
        let r = belief_propagation(
            &g,
            &BpConfig {
                max_iterations: 1,
                tolerance: 0.0,
                damping: 0.0,
            },
        );
        assert_eq!(r.iterations, 1);
        assert!(!r.converged);
    }
}
