//! Beyond marginals: MAP inference, belief propagation, and queries over
//! the marginals stored in an expanded KB.
//!
//! Expands a small KB, then answers the questions a downstream
//! application asks: what is the most likely world (MAP)? what do the
//! deterministic (BP) and sampling (Gibbs) estimates say? which inferred
//! facts are confident enough to publish?
//!
//! ```sh
//! cargo run --release --example map_and_query
//! ```

use std::collections::HashSet;

use probkb::core::relmodel::tpi;
use probkb::pipeline::{run_pipeline, PipelineOptions, Sampler};
use probkb::prelude::*;
use probkb::relational::prelude::Row;

fn main() {
    let kb = parse(
        r#"
        fact 1.8 born_in(Kale_Author:Writer, Gainesville:City)
        fact 1.2 works_at(Kale_Author:Writer, UF:University)
        fact 0.4 born_in(Mystery:Writer, Gainesville:City)
        rule 1.6 live_in(x:Writer, y:City) :- born_in(x, y)
        rule 0.9 grew_up_in(x:Writer, y:City) :- born_in(x, y)
        rule 1.1 colleagues_city(x:Writer, y:City) :- works_at(x, z:University), located_at(z, y)
        fact 1.5 located_at(UF:University, Gainesville:City)
        "#,
    )
    .expect("parse")
    .build();

    println!("== MAP, BP, and query-time access ==\n");

    // Gibbs pipeline (the default).
    let gibbs = run_pipeline(&kb, &PipelineOptions::default()).expect("gibbs pipeline");
    // Deterministic BP over the same grounding.
    let bp = run_pipeline(
        &kb,
        &PipelineOptions {
            sampler: Sampler::BeliefPropagation(BpConfig::default()),
            ..PipelineOptions::default()
        },
    )
    .expect("bp pipeline");

    println!("Marginals (Gibbs vs belief propagation):");
    for (i, fact) in gibbs.expansion.new_facts.iter().enumerate() {
        let pg = gibbs.marginal_of_new_fact(i).unwrap_or(f64::NAN);
        let pb = bp.marginal_of_new_fact(i).unwrap_or(f64::NAN);
        println!("  Gibbs={pg:.2}  BP={pb:.2}  {}", kb.fact_to_string(fact));
    }
    let disagreement = gibbs.marginals.max_diff(&bp.marginals);
    println!("  max disagreement: {disagreement:.3}\n");

    // MAP: the single most likely world.
    let (map_icm, sweeps) = icm(&gibbs.graph.graph);
    let map = anneal(&gibbs.graph.graph, &AnnealConfig::default());
    println!(
        "MAP: ICM log-score {:.2} in {sweeps} sweeps; annealing log-score {:.2}",
        map_icm.log_score, map.log_score
    );
    let true_count = map.assignment.iter().filter(|&&b| b).count();
    println!(
        "  most likely world sets {true_count}/{} facts true\n",
        map.assignment.len()
    );

    // Query-time access: the marginals are stored in `TΠ` itself, so a
    // query is a scan of `facts_with_marginals`. Extracted facts are the
    // ones that carried a weight before inference.
    let extracted: HashSet<i64> = gibbs
        .expansion
        .outcome
        .facts
        .rows()
        .iter()
        .filter(|r| !r[tpi::W].is_null())
        .map(|r| r[tpi::I].as_int().expect("fact id"))
        .collect();
    let describe = |row: &Row| {
        let name = |col: usize, dict: &Dictionary| {
            let id = row[col].as_int().expect("id") as u32;
            dict.resolve(id).unwrap_or("?").to_string()
        };
        let tag = if extracted.contains(&row[tpi::I].as_int().expect("fact id")) {
            "extracted"
        } else {
            "inferred"
        };
        let p = row[tpi::W].as_float().unwrap_or(f64::NAN);
        format!(
            "[{tag}, P={p:.2}] {}({}, {})",
            name(tpi::R, &kb.relations),
            name(tpi::X, &kb.entities),
            name(tpi::Y, &kb.entities)
        )
    };
    let facts = gibbs.facts_with_marginals.rows();
    let kale = kb.entities.get("Kale_Author").expect("entity") as i64;
    println!("Everything known about Kale_Author:");
    for row in facts
        .iter()
        .filter(|r| r[tpi::X].as_int() == Some(kale) || r[tpi::Y].as_int() == Some(kale))
    {
        println!("  {}", describe(row));
    }
    println!("\nConfident new knowledge (P >= 0.6):");
    let mut confident: Vec<&Row> = facts
        .iter()
        .filter(|r| !extracted.contains(&r[tpi::I].as_int().expect("fact id")))
        .filter(|r| r[tpi::W].as_float().is_some_and(|p| p >= 0.6))
        .collect();
    confident.sort_by(|a, b| {
        let p = |r: &Row| r[tpi::W].as_float().unwrap_or(0.0);
        p(b).total_cmp(&p(a))
    });
    for row in confident {
        println!("  {}", describe(row));
    }

    assert!(disagreement < 0.2, "BP and Gibbs should roughly agree");
    assert!(map.log_score >= map_icm.log_score - 1e-9);
}
