//! The ground factor graph (§2.2).
//!
//! Variables are binary ground atoms (one per `TΠ` fact); each factor
//! encodes one ground MLN clause `head ← body` with value `e^W` when the
//! clause is satisfied and `1` otherwise, so the joint is
//! `P(X = x) ∝ exp(Σᵢ Wᵢ nᵢ(x))` (Equation 4).


/// A variable index in a factor graph (dense, 0-based).
pub type VarId = usize;

/// One ground factor: `head ← body` with weight `w`. An empty body is a
/// singleton factor asserting the fact itself with strength `w`.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    /// The head variable.
    pub head: VarId,
    /// Zero, one, or two body variables.
    pub body: Vec<VarId>,
    /// The MLN weight `W`.
    pub weight: f64,
}

impl Factor {
    /// A singleton factor (extracted fact with weight).
    pub fn singleton(head: VarId, weight: f64) -> Self {
        Factor {
            head,
            body: vec![],
            weight,
        }
    }

    /// A rule factor `head ← body`.
    pub fn rule(head: VarId, body: Vec<VarId>, weight: f64) -> Self {
        Factor { head, body, weight }
    }

    /// All variables this factor touches (head first).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        std::iter::once(self.head).chain(self.body.iter().copied())
    }

    /// Is the ground clause satisfied under `assignment`?
    ///
    /// A singleton clause is satisfied when the fact is true; an
    /// implication is violated only when the whole body is true and the
    /// head is false.
    pub fn satisfied(&self, assignment: &[bool]) -> bool {
        if self.body.is_empty() {
            return assignment[self.head];
        }
        let body_true = self.body.iter().all(|&v| assignment[v]);
        !body_true || assignment[self.head]
    }

    /// Log factor value: `w` if satisfied, `0` otherwise (factor values
    /// `e^w` / `1`).
    pub fn log_value(&self, assignment: &[bool]) -> f64 {
        if self.satisfied(assignment) {
            self.weight
        } else {
            0.0
        }
    }

    /// Like [`Factor::satisfied`] but with variable `var` overridden to
    /// `value` — read-only, for lock-free parallel samplers.
    pub fn satisfied_with(&self, assignment: &[bool], var: VarId, value: bool) -> bool {
        let get = |v: VarId| if v == var { value } else { assignment[v] };
        if self.body.is_empty() {
            return get(self.head);
        }
        let body_true = self.body.iter().all(|&v| get(v));
        !body_true || get(self.head)
    }

    /// Log value with an override (read-only).
    pub fn log_value_with(&self, assignment: &[bool], var: VarId, value: bool) -> f64 {
        if self.satisfied_with(assignment, var, value) {
            self.weight
        } else {
            0.0
        }
    }
}

/// A ground factor graph with precomputed variable→factor adjacency.
#[derive(Debug, Clone)]
pub struct FactorGraph {
    num_vars: usize,
    factors: Vec<Factor>,
    /// CSR adjacency: `adj[adj_off[v]..adj_off[v+1]]` are the factor
    /// indices touching variable `v`.
    adj_off: Vec<usize>,
    adj: Vec<usize>,
}

impl FactorGraph {
    /// Build a graph from factors over `num_vars` variables.
    ///
    /// # Panics
    /// Panics if a factor references a variable `>= num_vars`.
    pub fn new(num_vars: usize, factors: Vec<Factor>) -> Self {
        // Each factor appears at most once in a variable's adjacency even
        // if the variable occurs several times in the clause (head repeated
        // in the body, repeated body atoms): a flip changes the factor's
        // value once, so samplers summing over `factors_of` must see it
        // once — the same per-factor accounting the exact oracle uses.
        let distinct = |f: &Factor| {
            let mut vs: Vec<usize> = f.vars().collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        };
        let mut degree = vec![0usize; num_vars];
        for f in &factors {
            for v in f.vars() {
                assert!(v < num_vars, "factor references variable {v} >= {num_vars}");
            }
            for v in distinct(f) {
                degree[v] += 1;
            }
        }
        let mut adj_off = Vec::with_capacity(num_vars + 1);
        let mut acc = 0;
        adj_off.push(0);
        for d in &degree {
            acc += d;
            adj_off.push(acc);
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![0usize; acc];
        for (fi, f) in factors.iter().enumerate() {
            for v in distinct(f) {
                adj[cursor[v]] = fi;
                cursor[v] += 1;
            }
        }
        FactorGraph {
            num_vars,
            factors,
            adj_off,
            adj,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The factors.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Factor indices touching variable `v`.
    pub fn factors_of(&self, v: VarId) -> &[usize] {
        &self.adj[self.adj_off[v]..self.adj_off[v + 1]]
    }

    /// Unnormalized log probability of an assignment: `Σᵢ Wᵢ nᵢ(x)`.
    pub fn log_score(&self, assignment: &[bool]) -> f64 {
        self.factors.iter().map(|f| f.log_value(assignment)).sum()
    }

    /// The log-value difference for flipping `v` to true vs false, with
    /// the rest of the assignment fixed — the Gibbs conditional's logit.
    /// Read-only, so color classes can be resampled concurrently from a
    /// shared assignment slice.
    pub fn flip_delta_ro(&self, v: VarId, assignment: &[bool]) -> f64 {
        self.factors_of(v)
            .iter()
            .map(|&fi| {
                let f = &self.factors[fi];
                f.log_value_with(assignment, v, true) - f.log_value_with(assignment, v, false)
            })
            .sum()
    }

    /// Grow the graph in place: enlarge the variable range to
    /// `new_num_vars` and append `added` factors, merging them into the
    /// CSR adjacency. Existing factor indices are stable and the result is
    /// identical to rebuilding from the concatenated factor list, but only
    /// O(V + F_old + F_new) of copying happens — no re-derivation of the
    /// old structure. Returns the sorted, deduplicated variables the new
    /// factors touch: the seed set of the delta's Markov blanket for
    /// incremental re-inference.
    ///
    /// # Panics
    /// Panics if `new_num_vars` shrinks the graph or an added factor
    /// references a variable `>= new_num_vars`.
    pub fn extend(&mut self, new_num_vars: usize, added: Vec<Factor>) -> Vec<VarId> {
        assert!(
            new_num_vars >= self.num_vars,
            "extend cannot shrink the graph ({new_num_vars} < {})",
            self.num_vars
        );
        let distinct = |f: &Factor| {
            let mut vs: Vec<usize> = f.vars().collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        };
        let mut add_degree = vec![0usize; new_num_vars];
        for f in &added {
            for v in f.vars() {
                assert!(
                    v < new_num_vars,
                    "factor references variable {v} >= {new_num_vars}"
                );
            }
            for v in distinct(f) {
                add_degree[v] += 1;
            }
        }
        let mut adj_off = Vec::with_capacity(new_num_vars + 1);
        let mut acc = 0usize;
        adj_off.push(0);
        for (v, added_deg) in add_degree.iter().enumerate() {
            let old_deg = if v < self.num_vars {
                self.adj_off[v + 1] - self.adj_off[v]
            } else {
                0
            };
            acc += old_deg + added_deg;
            adj_off.push(acc);
        }
        let mut adj = vec![0usize; acc];
        let mut cursor: Vec<usize> = adj_off[..new_num_vars].to_vec();
        for v in 0..self.num_vars {
            let run = &self.adj[self.adj_off[v]..self.adj_off[v + 1]];
            adj[cursor[v]..cursor[v] + run.len()].copy_from_slice(run);
            cursor[v] += run.len();
        }
        let base = self.factors.len();
        let mut touched = Vec::new();
        for (k, f) in added.iter().enumerate() {
            for v in distinct(f) {
                adj[cursor[v]] = base + k;
                cursor[v] += 1;
                touched.push(v);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.factors.extend(added);
        self.adj_off = adj_off;
        self.adj = adj;
        self.num_vars = new_num_vars;
        touched
    }

    /// Variables that co-occur with `v` in some factor (its Markov
    /// blanket, excluding `v` itself).
    pub fn neighbors(&self, v: VarId) -> Vec<VarId> {
        let mut out: Vec<VarId> = self
            .factors_of(v)
            .iter()
            .flat_map(|&fi| self.factors[fi].vars())
            .filter(|&u| u != v)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> FactorGraph {
        // 0 --f0--> 1 --f1--> 2, plus singleton on 0.
        FactorGraph::new(
            3,
            vec![
                Factor::singleton(0, 1.0),
                Factor::rule(1, vec![0], 2.0),
                Factor::rule(2, vec![1], 0.5),
            ],
        )
    }

    #[test]
    fn satisfaction_semantics() {
        let s = Factor::singleton(0, 1.0);
        assert!(s.satisfied(&[true]));
        assert!(!s.satisfied(&[false]));

        let r = Factor::rule(1, vec![0], 1.0);
        assert!(r.satisfied(&[true, true])); // body true, head true
        assert!(!r.satisfied(&[true, false])); // violated
        assert!(r.satisfied(&[false, false])); // body false: vacuous
        assert!(r.satisfied(&[false, true]));
    }

    #[test]
    fn ternary_factor_needs_full_body() {
        let f = Factor::rule(2, vec![0, 1], 1.0);
        assert!(!f.satisfied(&[true, true, false]));
        assert!(f.satisfied(&[true, false, false])); // one body atom false
        assert!(f.satisfied(&[true, true, true]));
    }

    #[test]
    fn log_score_counts_true_groundings() {
        let g = chain();
        // All true: every clause satisfied → 1.0 + 2.0 + 0.5.
        assert_eq!(g.log_score(&[true, true, true]), 3.5);
        // 0 true, 1 false: singleton ok (1.0), f0 violated (0), f1 vacuous
        // (0.5).
        assert_eq!(g.log_score(&[true, false, false]), 1.5);
    }

    #[test]
    fn adjacency_is_correct() {
        let g = chain();
        assert_eq!(g.factors_of(0), &[0, 1]);
        assert_eq!(g.factors_of(1), &[1, 2]);
        assert_eq!(g.factors_of(2), &[2]);
        assert_eq!(g.neighbors(1), vec![0, 2]);
        assert_eq!(g.neighbors(2), vec![1]);
    }

    #[test]
    fn repeated_variables_enter_adjacency_once() {
        // A flip changes a factor's value once no matter how many times the
        // variable occurs in the clause, so the adjacency — and therefore
        // `flip_delta_ro` — must count each factor once.
        let g = FactorGraph::new(
            3,
            vec![
                Factor::rule(0, vec![0], 1.3),
                Factor::rule(1, vec![2, 2], 0.9),
            ],
        );
        assert_eq!(g.factors_of(0), &[0]);
        assert_eq!(g.factors_of(2), &[1]);
        // All false; flipping 2 falsifies "1 ← 2 ∧ 2" exactly once.
        let delta = g.flip_delta_ro(2, &[false, false, false]);
        assert!((delta - (-0.9)).abs() < 1e-12, "delta {delta}");
    }

    #[test]
    fn flip_delta_matches_brute_force() {
        let g = chain();
        let a = vec![true, false, true];
        for v in 0..3 {
            let delta = g.flip_delta_ro(v, &a);
            let mut hi = a.clone();
            hi[v] = true;
            let mut lo = a.clone();
            lo[v] = false;
            let expected = g.log_score(&hi) - g.log_score(&lo);
            assert!((delta - expected).abs() < 1e-12, "var {v}");
        }
    }

    #[test]
    #[should_panic(expected = "factor references variable")]
    fn out_of_range_factor_panics() {
        FactorGraph::new(1, vec![Factor::rule(0, vec![5], 1.0)]);
    }

    #[test]
    fn extend_matches_from_scratch_build() {
        let mut g = chain();
        let added = vec![
            Factor::rule(3, vec![1, 2], 0.7),
            Factor::singleton(4, 0.2),
            Factor::rule(0, vec![4], 1.1),
        ];
        let touched = g.extend(5, added.clone());
        assert_eq!(touched, vec![0, 1, 2, 3, 4]);

        let mut all = chain().factors().to_vec();
        all.extend(added);
        let fresh = FactorGraph::new(5, all);
        assert_eq!(g.num_vars(), fresh.num_vars());
        assert_eq!(g.factors(), fresh.factors());
        for v in 0..5 {
            assert_eq!(g.factors_of(v), fresh.factors_of(v), "var {v}");
            assert_eq!(g.neighbors(v), fresh.neighbors(v), "var {v}");
        }
    }

    #[test]
    fn extend_with_no_factors_just_adds_isolated_vars() {
        let mut g = chain();
        let touched = g.extend(6, vec![]);
        assert!(touched.is_empty());
        assert_eq!(g.num_vars(), 6);
        assert_eq!(g.factors_of(5), &[] as &[usize]);
        assert_eq!(g.factors_of(1), &[1, 2]); // old adjacency untouched
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn extend_rejects_shrinking() {
        chain().extend(2, vec![]);
    }
}
