//! Output checks: canonical content digests and marginal ranges.
//!
//! Digests are computed over names, never over fact ids, so that a
//! change to id assignment cannot change them while a change to the
//! grounded content always does.

use std::collections::HashMap;

use probkb::core::relmodel::{tphi, tpi};
use probkb::factorgraph::prelude::Lineage;
use probkb::kb::prelude::{Dictionary, ProbKb};
use probkb::relational::prelude::Table;
use probkb_client::protocol::{FactRef, Request, Response};
use probkb_server::epoch::{serve_read, EpochState};

use crate::inputs::FactKey;

/// A canonical digest of a set of lines plus the counts it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub hash: u64,
    pub facts: u64,
    pub inferred: u64,
    pub factors: u64,
}

impl Digest {
    fn of(mut lines: Vec<String>, facts: u64, inferred: u64, factors: u64) -> Digest {
        lines.sort_unstable();
        Digest {
            hash: fnv1a(
                lines
                    .iter()
                    .flat_map(|l| l.bytes().chain(std::iter::once(b'\n'))),
            ),
            facts,
            inferred,
            factors,
        }
    }

    pub fn render(&self) -> String {
        format!(
            "{:016x} (facts={} inferred={} factors={})",
            self.hash, self.facts, self.inferred, self.factors
        )
    }
}

/// FNV-1a over a byte stream: stable across platforms and toolchains.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The name a dictionary holds for an id column value.
fn name(dict: &Dictionary, id: Option<i64>) -> String {
    id.and_then(|id| u32::try_from(id).ok())
        .and_then(|id| dict.resolve(id))
        .unwrap_or("?")
        .to_string()
}

/// `(R, x, C1, y, C2)` names of every fact id of a `TΠ` table.
fn fact_names(kb: &ProbKb, facts: &Table) -> HashMap<i64, String> {
    facts
        .rows()
        .iter()
        .map(|row| {
            let key = format!(
                "{}({}:{}, {}:{})",
                name(&kb.relations, row[tpi::R].as_int()),
                name(&kb.entities, row[tpi::X].as_int()),
                name(&kb.classes, row[tpi::C1].as_int()),
                name(&kb.entities, row[tpi::Y].as_int()),
                name(&kb.classes, row[tpi::C2].as_int()),
            );
            (row[tpi::I].as_int().unwrap_or(-1), key)
        })
        .collect()
}

/// The grounding digest: sorted `(R, x, C1, y, C2)` keys of `TΠ` (with a
/// base/inferred flag) and `TΦ` tuples of keys plus weight.
pub fn grounding_digest(kb: &ProbKb, facts: &Table, factors: &Table) -> Digest {
    let names = fact_names(kb, facts);
    let key = |id: Option<i64>| match id {
        Some(id) => names
            .get(&id)
            .map(String::as_str)
            .unwrap_or("?")
            .to_string(),
        None => "-".to_string(),
    };
    let mut lines = Vec::with_capacity(facts.len() + factors.len());
    let mut inferred = 0u64;
    for row in facts.rows() {
        let is_inferred = row[tpi::W].is_null();
        inferred += u64::from(is_inferred);
        lines.push(format!(
            "fact {} {}",
            key(row[tpi::I].as_int()),
            if is_inferred { "inferred" } else { "base" }
        ));
    }
    for row in factors.rows() {
        lines.push(format!(
            "factor {} | {} | {} | {:?}",
            key(row[tphi::I1].as_int()),
            key(row[tphi::I2].as_int()),
            key(row[tphi::I3].as_int()),
            row[tphi::W].as_float()
        ));
    }
    Digest::of(lines, facts.len() as u64, inferred, factors.len() as u64)
}

/// What the read path exposes of one fact.
fn served_line(key: &FactKey, inferred: bool, p: Option<f64>, with_p: bool) -> String {
    let kind = if inferred { "inferred" } else { "base" };
    if with_p {
        format!("fact {}({}, {}) {kind} {:?}", key.rel, key.x, key.y, p)
    } else {
        format!("fact {}({}, {}) {kind}", key.rel, key.x, key.y)
    }
}

fn derivation_line(head: &FactKey, weight: f64, body: &[&FactKey]) -> String {
    let body: Vec<String> = body
        .iter()
        .map(|k| format!("{}({}, {})", k.rel, k.x, k.y))
        .collect();
    format!(
        "derivation {}({}, {}) <- {:?} {}",
        head.rel,
        head.x,
        head.y,
        weight,
        body.join(", ")
    )
}

/// The served-content digest of a published epoch, read through the
/// server's own read path (`serve_read`): every fact by id with its
/// base/inferred flag (and stored probability when `with_p`), and every
/// derivation `LINEAGE` reports, all by names. Also returns the keys by
/// id and the epoch's marginal-range violations.
pub struct EpochContent {
    pub digest: Digest,
    pub keys: Vec<FactKey>,
    pub inferred_keys: Vec<FactKey>,
    pub bad_marginals: u64,
}

pub fn epoch_content(state: &EpochState, with_p: bool) -> EpochContent {
    let n = state.num_facts();
    let mut keys = Vec::with_capacity(n as usize);
    let mut inferred_keys = Vec::new();
    let mut lines = Vec::new();
    let mut bad_marginals = 0u64;
    let mut missing = 0u64;
    let unknown = FactKey::unknown();
    for id in 0..n as i64 {
        match serve_read(state, &Request::Fact(FactRef::Id(id))) {
            Some(Response::Fact {
                fact: Some(info), ..
            }) => {
                let key = FactKey {
                    rel: info.rel,
                    x: info.x,
                    y: info.y,
                };
                if info.inferred {
                    if !info.p.is_some_and(valid_marginal) {
                        bad_marginals += 1;
                    }
                    inferred_keys.push(key.clone());
                }
                lines.push(served_line(&key, info.inferred, info.p, with_p));
                keys.push(key);
            }
            _ => {
                missing += 1;
                keys.push(FactKey::unknown());
            }
        }
    }
    let mut derivations = 0u64;
    for id in 0..n as i64 {
        let request = Request::Lineage {
            fact: FactRef::Id(id),
            max_depth: 0,
        };
        if let Some(Response::Lineage {
            lineage: Some(info),
            ..
        }) = serve_read(state, &request)
        {
            for (weight, body) in &info.derivations {
                let body: Vec<&FactKey> = body
                    .iter()
                    .map(|&b| usize::try_from(b).ok().and_then(|b| keys.get(b)))
                    .map(|k| k.unwrap_or(&unknown))
                    .collect();
                lines.push(derivation_line(&keys[id as usize], *weight, &body));
                derivations += 1;
            }
        }
    }
    EpochContent {
        digest: Digest::of(lines, n - missing, inferred_keys.len() as u64, derivations),
        keys,
        inferred_keys,
        bad_marginals,
    }
}

/// The served-content digest (without probabilities) an epoch built from
/// `facts`/`factors` must have — the oracle side of [`epoch_content`].
pub fn served_digest(kb: &ProbKb, facts: &Table, factors: &Table) -> Digest {
    let mut by_id = HashMap::with_capacity(facts.len());
    let mut lines = Vec::new();
    let mut inferred = 0u64;
    for row in facts.rows() {
        let key = FactKey {
            rel: name(&kb.relations, row[tpi::R].as_int()),
            x: name(&kb.entities, row[tpi::X].as_int()),
            y: name(&kb.entities, row[tpi::Y].as_int()),
        };
        let is_inferred = row[tpi::W].is_null();
        inferred += u64::from(is_inferred);
        lines.push(served_line(&key, is_inferred, None, false));
        by_id.insert(row[tpi::I].as_int().unwrap_or(-1), key);
    }
    let lineage = Lineage::from_phi(factors);
    let unknown = FactKey::unknown();
    let mut derivations = 0u64;
    for row in facts.rows() {
        let id = row[tpi::I].as_int().unwrap_or(-1);
        for d in lineage.derivations(id) {
            let body: Vec<&FactKey> = d
                .body
                .iter()
                .map(|b| by_id.get(b).unwrap_or(&unknown))
                .collect();
            lines.push(derivation_line(&by_id[&id], d.weight, &body));
            derivations += 1;
        }
    }
    Digest::of(lines, facts.len() as u64, inferred, derivations)
}

/// A marginal is a finite probability.
pub fn valid_marginal(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}
