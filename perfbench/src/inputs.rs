//! Workload inputs, all derived from the run's seed.
//!
//! The program under test only ever sees KB text and delta text: the KB
//! is generated here with `probkb_datagen`, rendered to text, and the
//! held-out tail of its extracted facts is rendered as `APPLY_DELTA`
//! batches.
//!
//! The KB's structure is the one of `benches/delta.rs` and
//! `benches/local.rs` (generator seed 7, rule widening seed 3) on every
//! run. The run's seed shuffles the order of facts and rules in the text
//! (and with it every id the program assigns), picks which extracted
//! facts are held out and in which batches they return, and drives the
//! reader's request stream. Generator seeds change the closure size by
//! tens of percent, which would swamp the differences the benchmark
//! exists to resolve.

use std::fmt::Write as _;

use probkb::datagen::prelude::{generate, s1_with_rules, ReverbConfig, Zipf};
use probkb::kb::io::to_text;
use probkb::kb::prelude::{parse, Fact, ProbKb};
use probkb_support::rng::{Rng, SeedableRng, StdRng};

use crate::check::fnv1a;

/// Size parameters of one benchmark scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub name: &'static str,
    pub entities: usize,
    pub classes: usize,
    pub relations: usize,
    pub facts: usize,
    /// Rules drawn by the generator.
    pub rules: usize,
    /// Rules after `s1_with_rules` widens the rule set.
    pub widened_rules: usize,
    /// Extracted facts held out of the served KB and streamed back in.
    pub held_out: usize,
    /// Facts per `APPLY_DELTA` batch.
    pub delta_facts: usize,
    /// Open-loop interval between deltas on `serve`.
    pub serve_delta_interval_ms: u64,
    /// Deltas the traced replay of `update`/`serve` applies.
    pub traced_deltas: usize,
    /// Reader requests per epoch in the traced replay of `serve`.
    pub traced_reads: usize,
}

/// The KB of `benches/delta.rs` and `benches/local.rs`: 20,000 extracted
/// facts over 8,000 entities, 10 classes and 200 relations; 150 rules
/// widened to 250.
pub const FULL: Scale = Scale {
    name: "full",
    entities: 8_000,
    classes: 10,
    relations: 200,
    facts: 20_000,
    rules: 150,
    widened_rules: 250,
    held_out: 2_000,
    delta_facts: 10,
    serve_delta_interval_ms: 1_500,
    traced_deltas: 12,
    traced_reads: 200,
};

/// A seconds-long scale for the smoke test.
pub const TINY: Scale = Scale {
    name: "tiny",
    entities: 800,
    classes: 4,
    relations: 30,
    facts: 2_500,
    rules: 30,
    widened_rules: 45,
    held_out: 200,
    delta_facts: 10,
    serve_delta_interval_ms: 100,
    traced_deltas: 4,
    traced_reads: 40,
};

/// Generator seed of the KB structure.
pub const STRUCTURE_SEED: u64 = 7;
/// Seed of `s1_with_rules`.
pub const WIDEN_SEED: u64 = 3;
/// Zipf exponent for relation frequencies.
pub const ZIPF_S: f64 = 0.8;
/// Zipf exponent for rule bodies.
pub const RULE_ZIPF_S: f64 = 0.6;
/// Zipf exponent of the reader's id choice.
pub const READ_ZIPF_S: f64 = 0.6;
/// One reader request in this many is `MARGINAL_LOCAL`.
pub const LOCAL_EVERY: usize = 10;
/// The `MARGINAL_LOCAL` budget `(nodes, factors)`. At the server smoke
/// budget `(64, 256)`, the few hot facts whose neighbourhoods fill the
/// budget (exact enumeration near 2^20 states, or Gibbs) decided the
/// reader's throughput by which facts the seed made hot: 0.24
/// quartile spread over ten seeds. At this budget every answer is a small
/// exact enumeration.
pub const LOCAL_BUDGET: (u64, u64) = (12, 48);
/// Depth of `LINEAGE` point reads.
pub const LINEAGE_DEPTH: u32 = 2;

/// Everything one run needs, generated from its seed.
pub struct Inputs {
    /// The whole KB as text (`expand`, `expand_paged`).
    pub kb_text: String,
    /// The KB minus the held-out tail (what the server starts from).
    pub base_text: String,
    /// The held-out tail as delta batches, in apply order.
    pub deltas: Vec<String>,
}

impl Inputs {
    pub fn generate(scale: &Scale, seed: u64) -> Inputs {
        let seeded = generate(&ReverbConfig {
            entities: scale.entities,
            classes: scale.classes,
            relations: scale.relations,
            facts: scale.facts,
            rules: scale.rules,
            functional_frac: 0.0,
            pseudo_frac: 0.0,
            zipf_s: ZIPF_S,
            rule_zipf_s: RULE_ZIPF_S,
            seed: STRUCTURE_SEED,
        });
        let mut union = s1_with_rules(&seeded, scale.widened_rules, WIDEN_SEED);
        let mut rng = StdRng::seed_from_u64(seed);
        shuffle(&mut union.facts, &mut rng);
        shuffle(&mut union.rules, &mut rng);
        let cut = union.facts.len() - scale.held_out.min(union.facts.len() / 2);
        let mut base = union.clone();
        base.facts.truncate(cut);
        let deltas = union.facts[cut..]
            .chunks(scale.delta_facts)
            .map(|chunk| {
                let mut text = String::new();
                for fact in chunk {
                    render_fact(&union, fact, &mut text);
                }
                text
            })
            .collect();
        Inputs {
            kb_text: to_text(&union),
            base_text: to_text(&base),
            deltas,
        }
    }

    /// The served KB after the first `applied` deltas, as text.
    pub fn union_text(&self, applied: usize) -> String {
        let mut text = self.base_text.clone();
        text.push('\n');
        for delta in &self.deltas[..applied] {
            text.push_str(delta);
        }
        text
    }
}

/// Parse KB text into a KB, as every workload's program input.
pub fn load(text: &str) -> ProbKb {
    parse(text).expect("generated KB text parses").build()
}

/// One `fact` statement, in the form `probkb::kb::io::to_text` writes.
fn render_fact(kb: &ProbKb, fact: &Fact, out: &mut String) {
    let entity = |id: probkb::kb::prelude::EntityId| kb.entities.resolve(id.raw()).unwrap_or("?");
    let class = |id: probkb::kb::prelude::ClassId| kb.classes.resolve(id.raw()).unwrap_or("?");
    let _ = writeln!(
        out,
        "fact {} {}({}:{}, {}:{})",
        fact.weight.unwrap_or(0.0),
        kb.relations.resolve(fact.rel.raw()).unwrap_or("?"),
        entity(fact.x),
        class(fact.c1),
        entity(fact.y),
        class(fact.c2),
    );
}

/// The `(relation, subject, object)` names of a fact, as the wire
/// protocol's by-key references carry them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FactKey {
    pub rel: String,
    pub x: String,
    pub y: String,
}

impl FactKey {
    /// The key of a fact id a read did not resolve.
    pub fn unknown() -> FactKey {
        FactKey {
            rel: "?".into(),
            x: "?".into(),
            y: "?".into(),
        }
    }
}

/// One reader request of the `serve` mix.
#[derive(Debug, Clone)]
pub enum ReadOp {
    FactById(i64),
    FactByKey(FactKey),
    MarginalById(i64),
    LineageById(i64),
    Local(FactKey),
}

/// The reader's request stream: Zipf-skewed over the epoch-0 facts (for
/// point reads) and over the epoch-0 inferred facts (for
/// `MARGINAL_LOCAL`). Popularity ranks follow a hash of each fact's
/// names, so the same facts are hot under every seed and the hot facts
/// are spread over relations and ids; the seed drives the draws. (With
/// seed-shuffled ranks, one seed's hot set cut the reader's throughput by
/// a fifth to a third in both of two sets of ten runs.)
#[derive(Clone)]
pub struct ReadMix {
    rng: StdRng,
    keys: Vec<FactKey>,
    inferred: Vec<FactKey>,
    point_zipf: Zipf,
    local_zipf: Zipf,
    point_rank: Vec<usize>,
    local_rank: Vec<usize>,
    issued: usize,
}

impl ReadMix {
    /// `keys[id]` names fact `id` at epoch 0; `inferred` lists the keys
    /// of the epoch-0 inferred facts.
    pub fn new(seed: u64, keys: Vec<FactKey>, inferred: Vec<FactKey>) -> ReadMix {
        assert!(!keys.is_empty() && !inferred.is_empty(), "empty read mix");
        let rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f0e_aded);
        let point_rank = by_popularity(&keys);
        let local_rank = by_popularity(&inferred);
        ReadMix {
            point_zipf: Zipf::new(keys.len(), READ_ZIPF_S),
            local_zipf: Zipf::new(inferred.len(), READ_ZIPF_S),
            rng,
            keys,
            inferred,
            point_rank,
            local_rank,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        let n = self.issued;
        self.issued += 1;
        if n % LOCAL_EVERY == LOCAL_EVERY - 1 {
            let i = self.local_rank[self.local_zipf.sample(&mut self.rng)];
            return ReadOp::Local(self.inferred[i].clone());
        }
        let id = self.point_rank[self.point_zipf.sample(&mut self.rng)];
        match n % 4 {
            0 => ReadOp::FactById(id as i64),
            1 => ReadOp::FactByKey(self.keys[id].clone()),
            2 => ReadOp::MarginalById(id as i64),
            _ => ReadOp::LineageById(id as i64),
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// Indices of `keys`, most popular first.
fn by_popularity(keys: &[FactKey]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_cached_key(|&i| {
        let k = &keys[i];
        fnv1a(
            [&k.rel, "(", &k.x, ", ", &k.y, ")"]
                .iter()
                .flat_map(|s| s.bytes()),
        )
    });
    order
}
