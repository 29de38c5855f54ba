//! Kill-and-resume demo for the durable grounding driver.
//!
//! Runs Algorithm 1 over a transitive-closure KB with WAL + snapshot
//! checkpointing, then estimates marginals with a fixed-seed Gibbs
//! sampler and writes a deterministic `export.pkb` next to the
//! checkpoint state. Because every iteration is logged, the export is
//! byte-identical no matter how many times the run was interrupted.
//!
//! Try it:
//!
//! ```text
//! cargo run --example checkpoint_resume                     # uninterrupted
//! PROBKB_CRASH_AFTER_ITER=4 cargo run --example checkpoint_resume   # "kill -9" after iter 4 (exit 86)
//! cargo run --example checkpoint_resume                     # resumes at iter 5, same export
//! ```
//!
//! `PROBKB_CKPT_DIR` overrides the checkpoint directory
//! (default `target/ckpt-demo`).

use std::path::PathBuf;

use probkb::core::checkpoint::{ground_checkpointed, CheckpointConfig};
use probkb::core::prelude::{GroundingConfig, SemiNaiveEngine};
use probkb::factorgraph::prelude::from_phi;
use probkb::inference::prelude::{partitioned_marginals, GibbsConfig};
use probkb::kb::prelude::parse;
use probkb::storage::format::{encode_table, ByteWriter};
use probkb::storage::snapshot::SnapshotBuilder;

fn main() {
    // A 12-node chain plus transitive reachability: ~12 grounding
    // iterations, so there is real progress to lose — and recover.
    let mut text = String::new();
    for i in 0..12 {
        text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
    }
    text.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
    text.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
    let kb = parse(&text).expect("chain KB parses").build();

    let dir = std::env::var("PROBKB_CKPT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/ckpt-demo"));
    let ckpt = CheckpointConfig {
        snapshot_every: 3,
        ..CheckpointConfig::new(&dir)
    }
    .with_crash_from_env();
    if let Some(n) = ckpt.crash_after_iteration {
        println!("crash hook armed: will exit after iteration {n}");
    }

    let config = GroundingConfig::default();
    let mut engine = SemiNaiveEngine::new();
    let run = ground_checkpointed(&kb, &mut engine, &config, &ckpt)
        .expect("checkpointed grounding succeeds");

    match run.resume.snapshot_iteration {
        Some(snap) => println!(
            "resumed from snapshot at iteration {snap} (+{} replayed from WAL{})",
            run.resume.replayed_iterations,
            if run.resume.completed_on_disk {
                ", already complete"
            } else {
                ""
            }
        ),
        None => println!("started fresh in {}", dir.display()),
    }
    let report = &run.outcome.report;
    println!(
        "grounded {} facts / {} factors in {} iterations (converged: {})",
        report.total_facts,
        report.total_factors,
        report.iterations.len(),
        report.converged
    );

    // Fixed-seed marginal inference over the recovered factor graph:
    // deterministic given identical factors, so it belongs in the export.
    let graph = from_phi(&run.outcome.factors);
    let marginals = partitioned_marginals(&graph.graph, &GibbsConfig::default()).marginals;
    let mut enc = ByteWriter::new();
    enc.put_u64(marginals.p.len() as u64);
    for &p in &marginals.p {
        enc.put_f64(p);
    }

    let export = dir.join("export.pkb");
    let mut builder = SnapshotBuilder::new();
    builder
        .section("facts", encode_table(&run.outcome.facts))
        .section("factors", encode_table(&run.outcome.factors))
        .section("marginals", enc.into_bytes());
    builder.write_to(&export).expect("export written");
    println!("wrote deterministic export to {}", export.display());
}
