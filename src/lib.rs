//! # ProbKB
//!
//! A from-scratch Rust reproduction of *Knowledge Expansion over
//! Probabilistic Knowledge Bases* (Chen & Wang, SIGMOD 2014): a
//! probabilistic knowledge base system that infers missing facts at scale
//! by storing Markov-logic rules as relational tables and grounding them
//! with batched join queries, on single-node and shared-nothing MPP
//! backends, with quality control that keeps machine-built KBs from
//! drowning in propagated errors.
//!
//! The workspace crates (all re-exported here):
//!
//! | crate | role |
//! |---|---|
//! | [`relational`] | in-memory set-oriented relational engine (PostgreSQL stand-in) |
//! | [`mpp`] | shared-nothing MPP simulator with motions + redistributed views (Greenplum stand-in) |
//! | [`kb`] | the probabilistic KB model: entities, classes, typed facts, Horn rules, constraints |
//! | [`core`] | the paper's contribution: relational MLN model + batch grounding (Algorithm 1) |
//! | [`factorgraph`] | ground factor graphs, lineage, coloring, JSON export |
//! | [`inference`] | partitioned multi-chain Gibbs (full and blanket-scoped), BP, MAP, and an exact oracle |
//! | [`quality`] | constraints, ambiguity detection, rule cleaning, precision evaluation |
//! | [`datagen`] | ReVerb-Sherlock-style synthetic workloads with ground truth |
//! | [`storage`] | durable storage: snapshots, write-ahead log, checkpoint codecs |
//!
//! ## End-to-end example
//!
//! ```
//! use probkb::pipeline::{run_pipeline, PipelineOptions};
//! use probkb::kb::parser::parse;
//!
//! let kb = parse(r#"
//!     fact 0.96 born_in(Ruth_Gruber:Writer, New_York_City:City)
//!     rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
//! "#).unwrap().build();
//!
//! let result = run_pipeline(&kb, &PipelineOptions::default()).unwrap();
//! assert_eq!(result.expansion.new_facts.len(), 1);
//! // The inferred fact now carries an estimated marginal probability.
//! let p = result.marginal_of_new_fact(0).unwrap();
//! assert!(p > 0.5 && p < 1.0);
//! ```

pub use probkb_core as core;
pub use probkb_datagen as datagen;
pub use probkb_factorgraph as factorgraph;
pub use probkb_inference as inference;
pub use probkb_kb as kb;
pub use probkb_mpp as mpp;
pub use probkb_quality as quality;
pub use probkb_relational as relational;
pub use probkb_storage as storage;

pub mod pipeline {
    //! The full ProbKB pipeline of Figure 1: grounding → factor graph →
    //! marginal inference → write marginals back into the KB.

    use probkb_core::prelude::{
        expand, DeltaReport, DeltaSession, ExpandOptions, Expansion, GroundingConfig, KbDelta,
    };
    use probkb_factorgraph::prelude::{
        color, extend_color, from_phi, Coloring, GroundGraph, Lineage, VarId,
    };
    use probkb_inference::prelude::{
        belief_propagation, blanket_of, partitioned_marginals, write_marginals, BpConfig,
        GibbsConfig, GibbsReport, Marginals, PartitionedGibbs,
    };
    use probkb_kb::prelude::ProbKb;
    use probkb_relational::prelude::{Result, Table};

    /// Which engine runs the marginal-inference stage.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Sampler {
        /// Partition-sharded multi-chain Gibbs with online convergence
        /// control (chains/workers/target R̂ come from the `gibbs` config;
        /// the worker count never changes results). The default.
        Partitioned,
        /// Deterministic loopy belief propagation.
        BeliefPropagation(BpConfig),
    }

    /// Options for [`run_pipeline`].
    #[derive(Debug, Clone)]
    pub struct PipelineOptions {
        /// Grounding backend and configuration.
        pub expand: ExpandOptions,
        /// Sampler selection.
        pub sampler: Sampler,
        /// Sampler schedule.
        pub gibbs: GibbsConfig,
    }

    impl Default for PipelineOptions {
        fn default() -> Self {
            PipelineOptions {
                expand: ExpandOptions::default(),
                sampler: Sampler::Partitioned,
                gibbs: GibbsConfig::default(),
            }
        }
    }

    /// The pipeline's outputs.
    #[derive(Debug)]
    pub struct PipelineResult {
        /// Knowledge expansion result (facts, factors, report).
        pub expansion: Expansion,
        /// The ground factor graph with fact-id mapping.
        pub graph: GroundGraph,
        /// Estimated marginals.
        pub marginals: Marginals,
        /// Inference execution report with `workers=`/`sweeps=`/`rhat=`
        /// annotations (`None` under [`Sampler::BeliefPropagation`]).
        pub inference: Option<GibbsReport>,
        /// `TΠ` with NULL weights replaced by marginals.
        pub facts_with_marginals: Table,
        /// Lineage index over `TΦ`.
        pub lineage: Lineage,
    }

    impl PipelineResult {
        /// The marginal probability of the `i`-th newly inferred fact.
        pub fn marginal_of_new_fact(&self, i: usize) -> Option<f64> {
            use probkb_core::relmodel::tpi;
            let mut seen = 0usize;
            for row in self.expansion.outcome.facts.rows() {
                if row[tpi::W].is_null() {
                    if seen == i {
                        let id = row[tpi::I].as_int()?;
                        let var = self.graph.var_of(id)?;
                        return Some(self.marginals.p[var]);
                    }
                    seen += 1;
                }
            }
            None
        }
    }

    /// Run the full pipeline.
    pub fn run_pipeline(kb: &ProbKb, options: &PipelineOptions) -> Result<PipelineResult> {
        let expansion = expand(kb, &options.expand)?;
        let graph = from_phi(&expansion.outcome.factors);
        let mut inference = None;
        let marginals = match options.sampler {
            Sampler::Partitioned => {
                let run = partitioned_marginals(&graph.graph, &options.gibbs);
                inference = Some(run.report);
                run.marginals
            }
            Sampler::BeliefPropagation(config) => {
                belief_propagation(&graph.graph, &config).marginals
            }
        };
        let (facts_with_marginals, _) =
            write_marginals(&expansion.outcome.facts, &graph, &marginals);
        let lineage = Lineage::from_phi(&expansion.outcome.factors);
        Ok(PipelineResult {
            expansion,
            graph,
            marginals,
            inference,
            facts_with_marginals,
            lineage,
        })
    }

    /// What one [`IncrementalPipeline::apply_delta`] call did.
    #[derive(Debug)]
    pub struct PipelineDelta {
        /// Grounding-side report (rounds, reuse counters, fallback flag).
        pub grounding: DeltaReport,
        /// Inference-side report: how much of the graph was resampled
        /// (`touched`/`vars`, `active_shards`/`shards`).
        pub inference: GibbsReport,
        /// Old fact id → new fact id (the delta may renumber: new base
        /// facts take low ids ahead of previously derived facts). Empty
        /// when the delta fell back to a full re-ground.
        pub remap: Vec<i64>,
        /// Post-delta fact ids whose conditional changed (the resampled
        /// Markov blanket) — the invalidation set query-time local
        /// caches check their support against. Empty when the delta
        /// fell back to a full re-ground (everything changed).
        pub touched_facts: Vec<i64>,
    }

    /// A live expansion pipeline: grounded state, factor graph, coloring,
    /// warm Gibbs chains, and marginals — all maintained **in place** as
    /// deltas arrive, instead of re-running Figure 1 from scratch.
    ///
    /// Each [`IncrementalPipeline::apply_delta`] grounds only what the
    /// delta can derive ([`DeltaSession`]), splices the new factors into
    /// the existing graph, extends the coloring, and resamples only the
    /// Markov blanket of the touched variables with warm-started chains.
    #[derive(Debug)]
    pub struct IncrementalPipeline {
        session: DeltaSession,
        graph: GroundGraph,
        coloring: Coloring,
        chains: Vec<Vec<bool>>,
        marginals: Vec<f64>,
        gibbs: GibbsConfig,
    }

    impl IncrementalPipeline {
        /// Ground `kb` from scratch and run a full cold-start sampling
        /// pass, establishing the state later deltas update in place. The
        /// session is [`DeltaSession::prepare`]d here, so the first
        /// delta's apply latency excludes that maintenance; call
        /// [`IncrementalPipeline::prepare`] between deltas to keep it off
        /// the critical path for subsequent ones.
        pub fn new(kb: ProbKb, config: GroundingConfig, gibbs: GibbsConfig) -> Result<Self> {
            let mut session = DeltaSession::new(kb, config)?;
            session.prepare()?;
            let graph = from_phi(session.factors());
            let coloring = color(&graph.graph);
            let mut pipeline = IncrementalPipeline {
                session,
                graph,
                coloring,
                chains: Vec::new(),
                marginals: Vec::new(),
                gibbs,
            };
            pipeline.rebuild_all();
            Ok(pipeline)
        }

        /// Re-derive graph, coloring, and marginals from the session's
        /// current factors (cold start; used at construction and after a
        /// constraint-driven full-fallback delta).
        fn rebuild_all(&mut self) -> GibbsReport {
            self.graph = from_phi(self.session.factors());
            self.coloring = color(&self.graph.graph);
            let run =
                PartitionedGibbs::with_coloring(&self.graph.graph, &self.coloring, &self.gibbs)
                    .run();
            self.chains = run.states;
            self.marginals = run.marginals.p;
            run.report
        }

        /// Merge `delta` into the live pipeline. Returns both reports;
        /// marginals for untouched variables are carried through.
        pub fn apply_delta(&mut self, delta: &KbDelta) -> Result<PipelineDelta> {
            use probkb_core::relmodel::tphi;

            let applied = self.session.apply_delta(delta)?;
            if applied.report.full_fallback {
                let inference = self.rebuild_all();
                return Ok(PipelineDelta {
                    grounding: applied.report,
                    inference,
                    remap: applied.remap,
                    touched_facts: Vec::new(),
                });
            }

            // Renumber existing variables to post-delta fact ids, then
            // splice in the delta's factors.
            let remap = &applied.remap;
            self.graph
                .remap_fact_ids(|id| remap.get(id as usize).copied().unwrap_or(id));
            let old_num_vars = self.graph.graph.num_vars();
            self.graph.extend_with(&applied.added_factors);
            self.coloring = extend_color(&self.graph.graph, &self.coloring, old_num_vars);

            // Every variable an added factor touches has a changed
            // conditional — seed the blanket from all of them, not just
            // the brand-new variables.
            let mut seeds: Vec<VarId> = Vec::new();
            for row in applied.added_factors.rows() {
                for col in [tphi::I1, tphi::I2, tphi::I3] {
                    if let Some(id) = row[col].as_int() {
                        if let Some(v) = self.graph.var_of(id) {
                            seeds.push(v);
                        }
                    }
                }
            }
            seeds.sort_unstable();
            seeds.dedup();
            let touched = blanket_of(&self.graph.graph, &seeds);

            self.marginals.resize(self.graph.graph.num_vars(), 0.5);
            let run =
                PartitionedGibbs::with_coloring(&self.graph.graph, &self.coloring, &self.gibbs)
                    .run_from(Some(&touched), &self.chains, &self.marginals);
            self.chains = run.states;
            self.marginals = run.marginals.p;
            let touched_facts = touched.iter().map(|&v| self.graph.fact_of(v)).collect();
            Ok(PipelineDelta {
                grounding: applied.report,
                inference: run.report,
                remap: applied.remap,
                touched_facts,
            })
        }

        /// The live grounding session (facts, factors, schedule).
        pub fn session(&self) -> &DeltaSession {
            &self.session
        }

        /// The sampler configuration the pipeline runs under (the
        /// serving layer reuses it for query-time local inference).
        pub fn gibbs(&self) -> &GibbsConfig {
            &self.gibbs
        }

        /// Parse KB-text statements into a [`KbDelta`] against the live
        /// session's id space (see [`DeltaSession::parse_delta`]). New
        /// names are interned immediately; nothing is grounded until the
        /// delta is passed to [`IncrementalPipeline::apply_delta`].
        pub fn parse_delta(
            &mut self,
            text: &str,
        ) -> std::result::Result<KbDelta, probkb_kb::parser::ParseError> {
            self.session.parse_delta(text)
        }

        /// Parse KB-text into the facts/rules it denotes, without
        /// duplicate suppression (see [`DeltaSession::parse_retraction`])
        /// — the ingestion path for retraction statements, which refer
        /// to facts that already exist.
        pub fn parse_retraction(
            &self,
            text: &str,
        ) -> std::result::Result<KbDelta, probkb_kb::parser::ParseError> {
            self.session.parse_retraction(text)
        }

        /// Retraction stub (see [`DeltaSession::retract`]): always
        /// returns the structured `Unsupported` error, leaving the
        /// pipeline untouched.
        pub fn retract(&mut self, retraction: &KbDelta) -> Result<()> {
            self.session.retract(retraction).map(|_| ())
        }

        /// Precompute the next delta's delta-independent grounding state
        /// ([`DeltaSession::prepare`]) — maintenance best done between
        /// deltas, off the update critical path.
        pub fn prepare(&mut self) -> Result<()> {
            self.session.prepare()
        }

        /// The live factor graph with fact-id mapping.
        pub fn graph(&self) -> &GroundGraph {
            &self.graph
        }

        /// Current per-variable marginal estimates.
        pub fn marginals(&self) -> &[f64] {
            &self.marginals
        }

        /// The estimated marginal of a `TΠ` fact id, if it has a
        /// variable (i.e. appears in some factor).
        pub fn marginal_of_fact(&self, fact_id: i64) -> Option<f64> {
            self.graph.var_of(fact_id).map(|v| self.marginals[v])
        }
    }
}

/// Convenient glob import: everything a downstream user typically needs.
pub mod prelude {
    pub use crate::pipeline::{
        run_pipeline, IncrementalPipeline, PipelineDelta, PipelineOptions, PipelineResult,
        Sampler,
    };
    pub use probkb_core::prelude::*;
    pub use probkb_datagen::prelude::*;
    pub use probkb_factorgraph::prelude::*;
    pub use probkb_inference::prelude::*;
    pub use probkb_kb::prelude::*;
    pub use probkb_quality::prelude::*;
    pub use probkb_storage::prelude::*;
}
