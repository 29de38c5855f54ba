//! Write inferred marginals back into the knowledge base.
//!
//! ProbKB stores marginal probabilities in the KB "thereby avoiding
//! query-time computation and improving system responsivity" (§2.2): the
//! NULL weights grounding left in `TΠ` are replaced by each fact's
//! estimated marginal.

use probkb_core::relmodel::tpi;
use probkb_factorgraph::prelude::GroundGraph;
use probkb_relational::prelude::{Table, Value};

use crate::partitioned::Marginals;

/// Replace NULL weights in a `TΠ` snapshot with estimated marginals.
/// Facts that never appeared in any factor keep their NULL weight.
/// Returns the updated table and the number of weights written.
pub fn write_marginals(facts: &Table, gg: &GroundGraph, marginals: &Marginals) -> (Table, usize) {
    let mut rows = Vec::with_capacity(facts.len());
    let mut written = 0;
    for row in facts.rows() {
        let mut row = row.clone();
        if row[tpi::W].is_null() {
            let fact_id = row[tpi::I].as_int().expect("fact id");
            if let Some(var) = gg.var_of(fact_id) {
                row[tpi::W] = Value::Float(marginals.p[var]);
                written += 1;
            }
        }
        rows.push(row);
    }
    (
        Table::from_rows_unchecked(facts.schema().clone(), rows),
        written,
    )
}

/// The marginal of a specific fact id, if it was estimated.
pub fn marginal_of(gg: &GroundGraph, marginals: &Marginals, fact_id: i64) -> Option<f64> {
    gg.var_of(fact_id).map(|v| marginals.p[v])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::{partitioned_marginals, GibbsConfig};
    use probkb_core::prelude::*;
    use probkb_factorgraph::prelude::from_phi;
    use probkb_kb::prelude::parse;

    #[test]
    fn end_to_end_ground_infer_writeback() {
        let kb = parse(
            r#"
            fact 2.0 born_in(RG:Writer, NYC:City)
            rule 1.5 live_in(x:Writer, y:City) :- born_in(x, y)
            "#,
        )
        .unwrap()
        .build();
        let mut engine = SingleNodeEngine::new();
        let out = ground(&kb, &mut engine, &GroundingConfig::default()).unwrap();
        let gg = from_phi(&out.factors);
        let marginals = partitioned_marginals(
            &gg.graph,
            &GibbsConfig {
                burn_in: 200,
                samples: 5000,
                seed: 1,
                ..GibbsConfig::default()
            },
        )
        .marginals;
        let (updated, written) = write_marginals(&out.facts, &gg, &marginals);
        assert_eq!(written, 1); // the inferred live_in fact
        // Every weight is now non-null...
        assert!(updated.rows().iter().all(|r| !r[tpi::W].is_null()));
        // ...the base fact keeps its extraction weight...
        assert_eq!(updated.rows()[0][tpi::W], Value::Float(2.0));
        // ...and the inferred fact's marginal is a sane probability,
        // raised above half by the strong body + rule.
        let w = updated.rows()[1][tpi::W].as_float().unwrap();
        assert!((0.5..1.0).contains(&w), "marginal {w}");
        assert_eq!(
            marginal_of(&gg, &marginals, 1),
            Some(w)
        );
        assert_eq!(marginal_of(&gg, &marginals, 999), None);
    }
}
