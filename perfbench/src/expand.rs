//! `expand` and `expand_paged`: batch knowledge expansion (Figure 1),
//! KB text in, marginals and lineage out, through `run_pipeline`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use probkb::core::prelude::{expand, ExpandOptions};
use probkb::factorgraph::prelude::{from_phi, Lineage};
use probkb::inference::prelude::{write_marginals, GibbsConfig};
use probkb::kb::prelude::ProbKb;
use probkb::pipeline::{run_pipeline, PipelineOptions, PipelineResult};
use probkb::relational::spill::{set_process_default, SpillPolicy, StorageContext};
use probkb_pager::buffer::{BufferManager, BufferStats};

use crate::check::{grounding_digest, valid_marginal};
use crate::inputs::{load, Inputs};
use crate::stats::{median, ms, peak_rss_mb, share, Record};
use crate::Run;

/// Buffer-pool frames of the paged workload (64 × 8 KiB = 512 KiB, far
/// below the grounded tables), as in the repository's paged test matrix.
pub const POOL_PAGES: usize = 64;
/// Tables at or above this many rows spill on the paged workload.
pub const SPILL_ROWS: usize = 256;

/// Gibbs schedule of every workload: 50 burn-in + 300 sampling sweeps,
/// library defaults otherwise.
pub fn gibbs() -> GibbsConfig {
    GibbsConfig {
        burn_in: 50,
        samples: 300,
        ..GibbsConfig::default()
    }
}

fn options() -> PipelineOptions {
    PipelineOptions {
        gibbs: gibbs(),
        ..PipelineOptions::default()
    }
}

/// Install a fresh spill context as the process default; returns it so
/// the traced run can read its pool counters.
fn install_spill(run: &Run, n: usize) -> Arc<StorageContext> {
    let dir = run.work_dir.join(format!("spill-{n}"));
    let ctx = StorageContext::new(dir, BufferManager::new(POOL_PAGES)).expect("spill dir");
    set_process_default(Some(SpillPolicy {
        ctx: Arc::clone(&ctx),
        threshold_rows: SPILL_ROWS,
    }));
    ctx
}

/// Check one pass's outputs: every marginal is in range, and the
/// grounding digest is the run's.
fn check_pass(kb: &ProbKb, result: &PipelineResult, record: &mut Record) {
    let outcome = &result.expansion.outcome;
    let bad = result
        .marginals
        .p
        .iter()
        .filter(|&&p| !valid_marginal(p))
        .count();
    record.check(bad == 0, || format!("{bad} marginals outside [0,1]"));
    record.check(!result.expansion.new_facts.is_empty(), || {
        "expansion inferred nothing".into()
    });
    record.agree_digest(grounding_digest(kb, &outcome.facts, &outcome.factors));
}

pub fn run(run: &Run, inputs: &Inputs, paged: bool, record: &mut Record) {
    set_process_default(None);
    if run.trace {
        traced(run, inputs, paged, record);
    } else {
        untraced(run, inputs, paged, record);
    }

    if paged {
        // The paged grounding must be the in-memory grounding.
        set_process_default(None);
        let kb = load(&inputs.kb_text);
        let memory = expand(&kb, &ExpandOptions::default()).expect("in-memory expand");
        let mem_digest = grounding_digest(&kb, &memory.outcome.facts, &memory.outcome.factors);
        println!("digest in-memory {}", mem_digest.render());
        let paged_digest = record.digest.clone();
        record.check(paged_digest.as_ref() == Some(&mem_digest), || {
            format!(
                "paged grounding {} differs from in-memory {}",
                paged_digest.map(|d| d.render()).unwrap_or_default(),
                mem_digest.render()
            )
        });
    }
    set_process_default(None);
}

/// On the paged workload, give the next pass a fresh, empty buffer pool
/// so that every pass does the same paging work.
fn fresh_pool(run: &Run, paged: bool, n: usize) -> Option<Arc<StorageContext>> {
    paged.then(|| install_spill(run, n))
}

/// One timed pass: KB text in, marginals and lineage out.
fn pass(text: &str) -> (ProbKb, PipelineResult, Duration, Duration) {
    let t = Instant::now();
    let kb = load(text);
    let parsed = t.elapsed();
    let result = run_pipeline(&kb, &options()).expect("run_pipeline");
    (kb, result, parsed, t.elapsed())
}

/// Grounding time of a `run_pipeline` result, from its `GroundingReport`.
fn ground_time(result: &PipelineResult) -> Duration {
    let report = &result.expansion.outcome.report;
    report.load_time
        + report
            .iterations
            .iter()
            .map(|i| i.elapsed)
            .sum::<Duration>()
        + report.factor_time
}

fn untraced(run: &Run, inputs: &Inputs, paged: bool, record: &mut Record) {
    let mut times = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    while times.is_empty() || !run.expired(start) {
        fresh_pool(run, paged, times.len());
        record.attempted += 1;
        let (kb, result, parsed, wall) = pass(&inputs.kb_text);
        times.push(ms(wall));
        // Set-up: KB text to the grounded closure, the first stage of
        // the pass.
        setups.push((parsed + ground_time(&result)).as_secs_f64());
        if times.len() == 1 {
            // The peak of the program's own work, before any check runs.
            record.set("peak_rss_mb", peak_rss_mb(), "MB");
        }
        check_pass(&kb, &result, record);
    }
    let n = times.len();
    let p50 = median(&times);
    record.timing("setup_s", median(&setups), "s", n);
    record.timing("expand_s", p50 / 1e3, "s", n);
    record.timing("latency_ms_p50", p50, "ms", n);
    if let Some(d) = &record.digest {
        println!("digest grounding {}", d.render());
    }
}

/// Per-layer times and counts of one traced pass.
struct Layers {
    parse_ms: f64,
    run_s: f64,
    load_s: f64,
    iterate_s: f64,
    factor_pass_s: f64,
    build_ms: f64,
    lineage_ms: f64,
    writeback_ms: f64,
    counts: Vec<(&'static str, u64)>,
}

impl Layers {
    fn ground_s(&self) -> f64 {
        self.load_s + self.iterate_s + self.factor_pass_s
    }

    /// The measured children of `run_pipeline`: grounding, graph build,
    /// lineage and writeback.
    fn children_s(&self) -> f64 {
        self.ground_s() + (self.build_ms + self.lineage_ms + self.writeback_ms) / 1e3
    }
}

fn traced_pass(inputs: &Inputs, ctx: Option<&StorageContext>, record: &mut Record) -> Layers {
    let before = ctx.map(|c| c.stats()).unwrap_or_default();
    let (kb, result, parsed, wall) = pass(&inputs.kb_text);
    let pager = ctx.map(|c| c.stats().since(&before)).unwrap_or_default();
    let report = &result.expansion.outcome.report;
    let factors = &result.expansion.outcome.factors;

    let t = Instant::now();
    let graph = std::hint::black_box(from_phi(factors));
    let build = t.elapsed();
    let t = Instant::now();
    std::hint::black_box(Lineage::from_phi(factors));
    let lineage = t.elapsed();
    let t = Instant::now();
    std::hint::black_box(write_marginals(
        &result.expansion.outcome.facts,
        &result.graph,
        &result.marginals,
    ));
    let writeback = t.elapsed();

    check_pass(&kb, &result, record);
    let BufferStats {
        pins,
        hits,
        misses,
        evictions,
        bytes_spilled,
    } = pager;
    Layers {
        parse_ms: ms(parsed),
        run_s: (wall - parsed).as_secs_f64(),
        load_s: report.load_time.as_secs_f64(),
        iterate_s: report
            .iterations
            .iter()
            .map(|i| i.elapsed.as_secs_f64())
            .sum(),
        factor_pass_s: report.factor_time.as_secs_f64(),
        build_ms: ms(build),
        lineage_ms: ms(lineage),
        writeback_ms: ms(writeback),
        counts: vec![
            ("core.iterations", report.iterations.len() as u64),
            ("core.queries", report.total_queries() as u64),
            ("core.facts_out", report.total_facts as u64),
            ("core.factors_out", report.total_factors as u64),
            ("factorgraph.vars", graph.graph.num_vars() as u64),
            ("factorgraph.factors", graph.graph.factors().len() as u64),
            ("pager.pins", pins),
            ("pager.hits", hits),
            ("pager.misses", misses),
            ("pager.evictions", evictions),
            ("pager.bytes_spilled", bytes_spilled),
        ],
    }
}

fn traced(run: &Run, inputs: &Inputs, paged: bool, record: &mut Record) {
    // Untraced and traced passes alternate, so the tracing overhead is
    // taken under the same machine conditions; the two traced passes'
    // counts must repeat exactly.
    let mut untraced = Vec::new();
    let mut passes = Vec::new();
    for n in 0..2 {
        fresh_pool(run, paged, 2 * n);
        record.attempted += 1;
        untraced.push(pass(&inputs.kb_text).3.as_secs_f64());
        let ctx = fresh_pool(run, paged, 2 * n + 1);
        record.attempted += 1;
        passes.push(traced_pass(inputs, ctx.as_deref(), record));
    }
    record.check(passes[0].counts == passes[1].counts, || {
        format!(
            "counts differ between traced passes: {:?} vs {:?}",
            passes[0].counts, passes[1].counts
        )
    });

    for l in &passes {
        // Parent ≥ children: run_pipeline's wall covers grounding plus the
        // graph build, writeback and lineage it runs internally.
        let (run_s, children_s) = (l.run_s, l.children_s());
        record.check(run_s >= children_s, || {
            format!(
                "run_pipeline {run_s:.4}s < ground + build + writeback + lineage {children_s:.4}s"
            )
        });
    }

    let med = |f: fn(&Layers) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    record.set("kb.parse_ms", med(|l| l.parse_ms), "ms");
    record.set("core.ground_s", med(Layers::ground_s), "s");
    record.set("core.load_s", med(|l| l.load_s), "s");
    record.set("core.iterate_s", med(|l| l.iterate_s), "s");
    record.set("core.factor_pass_s", med(|l| l.factor_pass_s), "s");
    record.set("factorgraph.build_ms", med(|l| l.build_ms), "ms");
    record.set("factorgraph.lineage_ms", med(|l| l.lineage_ms), "ms");
    record.set("inference.writeback_ms", med(|l| l.writeback_ms), "ms");
    record.set("inference.sample_s", med(|l| l.run_s - l.children_s()), "s");
    for &(name, value) in &passes[0].counts {
        let unit = if name == "pager.bytes_spilled" {
            "bytes"
        } else {
            "count"
        };
        record.set(name, value as f64, unit);
    }
    let pins = record.get("pager.pins").unwrap_or(0.0);
    record.set(
        "pager.hit_ratio",
        share(record.get("pager.hits").unwrap_or(0.0), pins),
        "ratio",
    );

    let traced_s =
        med(|l| l.parse_ms / 1e3 + l.run_s + (l.build_ms + l.lineage_ms + l.writeback_ms) / 1e3);
    let untraced_s = median(&untraced);
    println!(
        "tracing overhead: traced pass {traced_s:.4}s vs untraced {untraced_s:.4}s ({:+.1}%)",
        100.0 * (traced_s / untraced_s - 1.0)
    );
}
