//! The two-step hierarchical analysis (Section 3 of the paper).
//!
//! Step 1 characterizes every *distinct* leaf module once into a
//! [`ModuleTiming`] (shared by all its instances — the source of the
//! large CPU savings on regular circuits like the carry-skip adders of
//! Table 1). Step 2 visits the instances of the top-level composite in
//! topological order, propagating arrival times through each instance
//! with the min–max evaluation of its output models.
//!
//! Theorem 1: the result is a conservative approximation of the flat
//! XBD0 delay — never optimistic — and at least as accurate as
//! hierarchical topological analysis. The integration test-suite checks
//! both bounds on every workload.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;
use std::time::Instant;

use hfta_fta::{
    AnalysisConfig, ConeSigCache, ModelDbSpec, ModelSource, ModuleTiming, PhaseWall, StabilityStats,
};
use hfta_modeldb::{ModelDb, ModelDbStats};
use hfta_netlist::{Composite, Design, Netlist, NetlistError, Time};
use hfta_sched::Scheduler;
use hfta_trace::{Tracer, Value};

use crate::deadline::DeadlineToken;

fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Opens the `(use, emit)` database handles named by a
/// [`ModelDbSpec`]. The read handle tolerates a missing directory
/// (probes miss); the write handle creates its directory, so creation
/// failures surface as [`NetlistError::Io`].
pub(crate) fn open_model_dbs(
    spec: &ModelDbSpec,
) -> Result<(Option<ModelDb>, Option<ModelDb>), NetlistError> {
    let use_db = spec.read.as_ref().map(ModelDb::open_read_only);
    let emit_db = match &spec.write {
        Some(dir) => {
            let mut db = ModelDb::open(dir).map_err(|e| NetlistError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            db.set_limit(spec.limit);
            Some(db)
        }
        None => None,
    };
    Ok((use_db, emit_db))
}

/// Splits `config` into an analyzer's own copy and its seated worker
/// pool. The copy goes to pooled tasks through the `Arc`, so its seat is
/// emptied: a task may be dropped on a pool worker, and the last
/// [`Scheduler`] handle must never be dropped there (dropping it joins
/// the workers).
pub(crate) fn split_config(config: &AnalysisConfig) -> (Arc<AnalysisConfig>, Option<Scheduler>) {
    let mut own = config.clone();
    let pool = std::mem::take(&mut own.scheduler).get().cloned();
    (Arc::new(own), pool)
}

/// The former name of [`AnalysisConfig`] as the argument of
/// [`HierAnalyzer::new`]. Kept only so the benchmark crate
/// (`perfbench/src/modular.rs`, which calls
/// `HierAnalyzer::new(design, top, HierOptions::default())`) builds
/// unchanged; new code names [`AnalysisConfig`].
pub type HierOptions = AnalysisConfig;

/// Work counters for the two-step analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HierStats {
    /// Distinct leaf modules characterized (cache misses).
    pub modules_characterized: u64,
    /// Modules whose characterization was degraded — wholesale to
    /// topological models by the analysis deadline, or partially (some
    /// outputs at their topological tuples) by the per-query budget.
    /// See [`HierAnalyzer::degraded_modules`] for the names.
    pub modules_degraded: u64,
    /// Instances propagated through.
    pub instances_propagated: u64,
    /// Modules whose every output was served by the structural
    /// signature cache from another module's characterization — the
    /// module name is effectively an alias (see
    /// [`HierAnalyzer::sig_aliases`]).
    pub modules_aliased: u64,
    /// Stability/solver work of all characterizations (zero for
    /// topological models and installed black-box abstractions).
    /// Includes the `cone_sig_hits`/`cone_sig_misses` counters of the
    /// structural signature cache.
    pub stability: StabilityStats,
}

/// Result of a hierarchical timing analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct HierAnalysis {
    /// Arrival time of every top-level net (indexed like the
    /// composite's nets).
    pub net_arrivals: Vec<Time>,
    /// Arrival times of the primary outputs, in output order.
    pub output_arrivals: Vec<Time>,
    /// The estimated circuit delay: the latest output arrival.
    pub delay: Time,
    /// Work counters.
    pub stats: HierStats,
}

/// The two-step hierarchical analyzer.
///
/// # Example
///
/// ```
/// use hfta_core::{AnalysisConfig, HierAnalyzer};
/// use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = carry_skip_adder(4, 2, CsaDelays::default());
/// let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())?;
/// let analysis = hier.analyze(&vec![Time::ZERO; 9])?;
/// // The paper's Section 4 example: c4 arrives at 10.
/// assert_eq!(*analysis.output_arrivals.last().expect("c4"), Time::new(10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HierAnalyzer<'a> {
    design: &'a Design,
    top: &'a Composite,
    /// The analyzer's configuration (its scheduler seat moved to
    /// `scheduler`), shared with parallel characterization tasks.
    config: Arc<AnalysisConfig>,
    cache: HashMap<Arc<str>, ModuleTiming>,
    /// Module-name interner: cache keys, alias pairs and degradation
    /// records all share one `Arc<str>` per distinct name instead of
    /// cloning `String`s on every probe/insert.
    names: HashSet<Arc<str>>,
    /// Structural cone-signature cache shared by all characterizations
    /// of this analyzer (serial ones directly; parallel workers fill
    /// private caches that are merged back).
    sig_cache: ConeSigCache,
    /// `(alias, owner)` pairs: modules whose every output model was
    /// replayed from `owner`'s characterization.
    sig_aliases: Vec<(Arc<str>, Arc<str>)>,
    characterized: u64,
    stability: StabilityStats,
    /// Shared wall-clock cutoff for characterization, derived from the
    /// characterization budget's deadline. Workers check it before
    /// starting a module; the same deadline interrupts in-flight SAT
    /// queries from inside the solver.
    token: DeadlineToken,
    /// Names of modules whose characterization was degraded, with the
    /// reason ("deadline" or "budget").
    degraded: Vec<(Arc<str>, &'static str)>,
    wall: PhaseWall,
    /// Persistent worker pool for parallel characterization: the one
    /// seated in the config, or created by the first parallel phase;
    /// reused across `characterize_all`/`analyze` calls.
    scheduler: Option<Scheduler>,
    /// The `threads_clamped` event is emitted at most once.
    clamp_reported: bool,
    /// Persistent model database probed before every characterization
    /// (warm start); hits are booked without counting a
    /// characterization.
    db_use: Option<ModelDb>,
    /// Persistent model database that freshly characterized,
    /// undegraded models are stored into.
    db_emit: Option<ModelDb>,
}

/// What characterizing one module produced.
#[derive(Debug)]
struct CharOutcome {
    timing: ModuleTiming,
    stats: StabilityStats,
    why: Option<&'static str>,
    /// Set when every output model was replayed from another module's
    /// characterization via the signature cache.
    alias_owner: Option<String>,
}

impl<'a> HierAnalyzer<'a> {
    /// Creates an analyzer for module `top` of `design`. Model source,
    /// characterization parameters and budget, threads, worker pool,
    /// trace sink and model databases all come from `config`.
    ///
    /// The analysis requires the paper's depth-1 setting: `top` must be
    /// a composite whose instances all reference leaf modules. A model
    /// database named in `config.model_db` is probed before every
    /// characterization (hits are installed without counting as
    /// characterizations), and fresh undegraded models are stored into
    /// its emit side.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] if `top` is missing, is not a
    /// composite, or instantiates non-leaf modules; any design
    /// validation error; and [`NetlistError::Io`] when the emit
    /// database directory cannot be created.
    pub fn with_config(
        design: &'a Design,
        top: &str,
        config: &AnalysisConfig,
    ) -> Result<HierAnalyzer<'a>, NetlistError> {
        design.validate()?;
        let top = design.composite(top).ok_or_else(|| NetlistError::Unknown {
            what: "top-level composite module",
            name: top.to_string(),
        })?;
        for inst in top.instances() {
            if design.leaf(&inst.module).is_none() {
                return Err(NetlistError::Unknown {
                    what: "leaf module (hierarchical analysis requires depth-1 hierarchy)",
                    name: inst.module.clone(),
                });
            }
        }
        let (db_use, db_emit) = open_model_dbs(&config.model_db)?;
        let (config, scheduler) = split_config(config);
        Ok(HierAnalyzer {
            design,
            top,
            token: DeadlineToken::new(config.budget.deadline),
            config,
            cache: HashMap::new(),
            names: HashSet::new(),
            sig_cache: ConeSigCache::new(),
            sig_aliases: Vec::new(),
            characterized: 0,
            stability: StabilityStats::default(),
            degraded: Vec::new(),
            wall: PhaseWall::default(),
            scheduler,
            clamp_reported: false,
            db_use,
            db_emit,
        })
    }

    /// [`HierAnalyzer::with_config`] taking the config by value, the
    /// way the benchmark crate calls it (see [`HierOptions`]).
    ///
    /// # Errors
    ///
    /// Same as [`HierAnalyzer::with_config`].
    pub fn new(
        design: &'a Design,
        top: &str,
        config: HierOptions,
    ) -> Result<HierAnalyzer<'a>, NetlistError> {
        HierAnalyzer::with_config(design, top, &config)
    }

    /// Counters of the attached model-database handles, merged across
    /// the read and emit sides (all zero when no database is
    /// attached). Hit/miss totals also flow into
    /// [`StabilityStats::model_db_hits`]/[`StabilityStats::model_db_misses`].
    #[must_use]
    pub fn model_db_stats(&self) -> ModelDbStats {
        let mut s = ModelDbStats::default();
        if let Some(db) = &self.db_use {
            s.merge(&db.stats());
        }
        if let Some(db) = &self.db_emit {
            s.merge(&db.stats());
        }
        s
    }

    /// Probes the persistent database for `name`'s model. On a hit the
    /// model is booked straight into the cache — no characterization
    /// counted — and the hit lands in
    /// [`StabilityStats::model_db_hits`].
    fn db_probe(&mut self, nl: &Netlist, name: &str, tracer: &mut Tracer) -> bool {
        let Some(db) = self.db_use.as_mut() else {
            return false;
        };
        match db.probe(nl, self.config.source, &self.config) {
            Some(timing) => {
                self.stability.model_db_hits += 1;
                if tracer.is_enabled() {
                    tracer.event("model_db_hit", vec![("module", Value::from(name))]);
                }
                let key = self.intern(name);
                self.cache.insert(key, timing);
                true
            }
            None => {
                self.stability.model_db_misses += 1;
                if tracer.is_enabled() {
                    tracer.event("model_db_miss", vec![("module", Value::from(name))]);
                }
                false
            }
        }
    }

    /// Offers a fresh characterization outcome to the emit database
    /// (which refuses degraded models).
    fn db_store(&mut self, nl: &Netlist, name: &str, outcome: &CharOutcome, tracer: &mut Tracer) {
        let Some(db) = self.db_emit.as_mut() else {
            return;
        };
        let stored = db.store(
            nl,
            self.config.source,
            &self.config,
            &outcome.timing,
            outcome.why.is_some(),
        );
        if stored && tracer.is_enabled() {
            tracer.event("model_db_store", vec![("module", Value::from(name))]);
        }
    }

    /// The worker pool parallel characterization runs on, if one
    /// exists yet (seated in the config or lazily created by the first
    /// parallel phase).
    #[must_use]
    pub fn scheduler_handle(&self) -> Option<&Scheduler> {
        self.scheduler.as_ref()
    }

    /// The pool a parallel phase runs on, or `None` to run serially.
    /// A seated pool wins unchanged; otherwise the first parallel
    /// phase creates one with `threads` workers — clamped to the
    /// machine's parallelism unless [`AnalysisConfig::clamp_threads`]
    /// is off — and the analyzer keeps it from then on.
    fn scheduler_for_phase(&mut self, threads: usize, tracer: &mut Tracer) -> Option<Scheduler> {
        if self.scheduler.is_none() && threads > 1 {
            let effective = hfta_sched::effective_parallelism(threads, self.config.clamp_threads);
            if effective < threads && tracer.is_enabled() && !self.clamp_reported {
                self.clamp_reported = true;
                tracer.event(
                    "threads_clamped",
                    vec![
                        ("requested", Value::from(threads)),
                        ("effective", Value::from(effective)),
                        (
                            "available",
                            Value::from(hfta_sched::available_parallelism()),
                        ),
                    ],
                );
            }
            if effective > 1 {
                self.scheduler = Some(Scheduler::new(effective));
            }
        }
        self.scheduler.clone().filter(|pool| pool.threads() > 1)
    }

    /// Interns a module name, so every cache key, alias pair and
    /// degradation record for the same module shares one allocation.
    fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(existing) = self.names.get(name) {
            return Arc::clone(existing);
        }
        let fresh: Arc<str> = Arc::from(name);
        self.names.insert(Arc::clone(&fresh));
        fresh
    }

    /// Stability/solver work accumulated by all characterizations so
    /// far.
    #[must_use]
    pub fn stability_stats(&self) -> StabilityStats {
        let mut s = self.stability;
        s.wall = self.wall;
        s
    }

    /// Modules whose characterization was degraded, with the reason:
    /// `"deadline"` (the analysis deadline expired before the module
    /// was characterized — its model is wholly topological) or
    /// `"budget"` (the per-query budget interrupted some outputs —
    /// those outputs fell back to their topological tuples).
    #[must_use]
    pub fn degraded_modules(&self) -> &[(Arc<str>, &'static str)] {
        &self.degraded
    }

    /// `(alias, owner)` pairs recorded by the structural signature
    /// cache: every output model of `alias` was replayed from `owner`'s
    /// characterization, so the alias name cost no solver work of its
    /// own.
    #[must_use]
    pub fn sig_aliases(&self) -> &[(Arc<str>, Arc<str>)] {
        &self.sig_aliases
    }

    /// Characterizes one module under `config`, checking
    /// the deadline token first: an expired deadline degrades the whole
    /// module to its topological model (counted per output in
    /// [`StabilityStats::degraded`]).
    fn characterize_one(
        nl: &Netlist,
        name: &str,
        config: &AnalysisConfig,
        token: &DeadlineToken,
        sig_cache: &mut ConeSigCache,
        tracer: &mut Tracer,
    ) -> Result<CharOutcome, NetlistError> {
        let span = tracer
            .is_enabled()
            .then(|| tracer.begin("characterize_module"));
        let result = HierAnalyzer::characterize_one_impl(nl, config, token, sig_cache, tracer);
        if let Some(span) = span {
            match &result {
                Ok(outcome) => {
                    if let Some(owner) = outcome.alias_owner.as_deref() {
                        tracer.event(
                            "module_alias",
                            vec![("module", Value::from(name)), ("owner", Value::from(owner))],
                        );
                    }
                    tracer.end_with(
                        span,
                        vec![
                            ("module", Value::from(name)),
                            ("outputs", Value::from(outcome.timing.models().len())),
                            ("degraded", Value::from(outcome.why.unwrap_or("no"))),
                            ("aliased", Value::from(outcome.alias_owner.is_some())),
                        ],
                    );
                }
                Err(_) => tracer.end_with(span, vec![("module", Value::from(name))]),
            }
        }
        result
    }

    /// The untraced characterization body of [`HierAnalyzer::characterize_one`].
    fn characterize_one_impl(
        nl: &Netlist,
        config: &AnalysisConfig,
        token: &DeadlineToken,
        sig_cache: &mut ConeSigCache,
        tracer: &mut Tracer,
    ) -> Result<CharOutcome, NetlistError> {
        let name = nl.name();
        let wants_functional = config.source == ModelSource::Functional;
        if wants_functional && token.expired() {
            return Ok(CharOutcome {
                timing: ModuleTiming::topological(nl)?,
                stats: StabilityStats {
                    degraded: nl.outputs().len() as u64,
                    ..StabilityStats::default()
                },
                why: Some("deadline"),
                alias_owner: None,
            });
        }
        let (timing, stats, owners) =
            ModuleTiming::characterize_traced(nl, config, sig_cache, tracer)?;
        let why = (wants_functional && stats.degraded > 0).then_some("budget");
        // The module is an alias when every output was replayed from
        // one (other) module's characterization.
        let alias_owner = match owners.first() {
            Some(Some(owner))
                if owner != name && owners.iter().all(|o| o.as_deref() == Some(owner)) =>
            {
                Some(owner.clone())
            }
            _ => None,
        };
        Ok(CharOutcome {
            timing,
            stats,
            why,
            alias_owner,
        })
    }

    /// Step 1 for all distinct leaf modules referenced by the top
    /// composite, serial or parallel per [`AnalysisConfig::threads`].
    /// [`HierAnalyzer::analyze`] calls this lazily; calling it eagerly
    /// separates characterization cost from propagation cost (useful
    /// for the paper's "analyze the same circuit under many
    /// arrival-time conditions" scenario, Section 3.3).
    ///
    /// With `threads == 1` modules are characterized serially in
    /// instance order, sharing this analyzer's signature cache
    /// directly; with more threads, distinct uncached modules fan out
    /// to scoped workers (characterizations are independent) whose
    /// private caches merge back deterministically in chunk order.
    ///
    /// # Errors
    ///
    /// Returns the first characterization error.
    pub fn characterize_all(&mut self) -> Result<(), NetlistError> {
        if self.config.threads > 1 {
            return self.characterize_parallel(self.config.threads);
        }
        let top = self.top;
        for inst in top.instances() {
            self.module_timing(&inst.module)?;
        }
        Ok(())
    }

    /// The parallel step-1 fan-out: one task per distinct uncached
    /// module on the persistent pool. Each task owns a clone of its
    /// leaf netlist (persistent workers need `'static` tasks), a
    /// private signature cache and a forked tracer, and all tasks share
    /// the analyzer's config through its `Arc`; caches and trace
    /// buffers merge back deterministically in sorted-name order, so
    /// the result is independent of how the pool schedules the tasks.
    fn characterize_parallel(&mut self, threads: usize) -> Result<(), NetlistError> {
        let design = self.design;
        let mut names: Vec<&str> = self
            .top
            .instances()
            .iter()
            .map(|i| i.module.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        names.retain(|n| !self.cache.contains_key(*n));
        // Warm start: serve what the persistent database already has
        // (serially — probes are I/O + validation, far cheaper than
        // characterization) and fan out only the true misses.
        if self.db_use.is_some() && !names.is_empty() {
            let mut tracer = self.config.trace.tracer();
            let mut remaining = Vec::with_capacity(names.len());
            for &name in &names {
                let nl = design.leaf(name).ok_or_else(|| NetlistError::Unknown {
                    what: "leaf module",
                    name: name.to_string(),
                })?;
                if !self.db_probe(nl, name, &mut tracer) {
                    remaining.push(name);
                }
            }
            self.config.trace.absorb(tracer);
            names = remaining;
        }
        if names.is_empty() {
            return Ok(());
        }
        let config = Arc::clone(&self.config);
        let mut tracer = config.trace.tracer();
        let pool = self.scheduler_for_phase(threads, &mut tracer);
        let t0 = Instant::now();
        struct CharTask {
            name: String,
            nl: Netlist,
            token: DeadlineToken,
            tracer: Tracer,
        }
        type TaskOut = (
            String,
            Result<CharOutcome, NetlistError>,
            ConeSigCache,
            Tracer,
        );
        let run = move |mut task: CharTask| -> TaskOut {
            let mut sig_cache = ConeSigCache::new();
            let r = HierAnalyzer::characterize_one(
                &task.nl,
                &task.name,
                &config,
                &task.token,
                &mut sig_cache,
                &mut task.tracer,
            );
            (task.name, r, sig_cache, task.tracer)
        };
        let mut tasks = Vec::with_capacity(names.len());
        for (i, &name) in names.iter().enumerate() {
            let nl = design
                .leaf(name)
                .ok_or_else(|| NetlistError::Unknown {
                    what: "leaf module",
                    name: name.to_string(),
                })?
                .clone();
            tasks.push(CharTask {
                name: name.to_string(),
                nl,
                token: self.token.clone(),
                tracer: tracer.fork(i as u32 + 1),
            });
        }
        let results: Vec<TaskOut> = match pool {
            Some(pool) if tasks.len() > 1 => pool.run(tasks, run),
            _ => tasks.into_iter().map(run).collect(),
        };
        self.wall.characterize_micros += micros_since(t0);
        for (name, result, sig_cache, task_tracer) in results {
            tracer.absorb(task_tracer);
            self.sig_cache.merge(sig_cache);
            let outcome = result?;
            if self.db_emit.is_some() {
                if let Some(nl) = design.leaf(&name) {
                    self.db_store(nl, &name, &outcome, &mut tracer);
                }
            }
            self.record(&name, outcome);
        }
        self.config.trace.absorb(tracer);
        Ok(())
    }

    /// Books one characterization outcome into the analyzer's caches,
    /// counters and alias/degradation records.
    fn record(&mut self, name: &str, outcome: CharOutcome) {
        let key = self.intern(name);
        self.characterized += 1;
        self.stability.merge(&outcome.stats);
        if let Some(why) = outcome.why {
            self.degraded.push((Arc::clone(&key), why));
        }
        if let Some(owner) = outcome.alias_owner.as_deref() {
            let owner = self.intern(owner);
            self.sig_aliases.push((Arc::clone(&key), owner));
        }
        self.cache.insert(key, outcome.timing);
    }

    /// The (cached) timing abstraction of a leaf module.
    ///
    /// # Errors
    ///
    /// Returns characterization errors.
    pub fn module_timing(&mut self, name: &str) -> Result<&ModuleTiming, NetlistError> {
        if !self.cache.contains_key(name) {
            let design = self.design;
            let nl = design.leaf(name).ok_or_else(|| NetlistError::Unknown {
                what: "leaf module",
                name: name.to_string(),
            })?;
            let mut tracer = self.config.trace.tracer();
            if self.db_probe(nl, name, &mut tracer) {
                self.config.trace.absorb(tracer);
                return Ok(&self.cache[name]);
            }
            let t0 = Instant::now();
            let outcome = HierAnalyzer::characterize_one(
                nl,
                name,
                &self.config,
                &self.token,
                &mut self.sig_cache,
                &mut tracer,
            );
            self.wall.characterize_micros += micros_since(t0);
            if let Ok(outcome) = &outcome {
                self.db_store(nl, name, outcome, &mut tracer);
            }
            self.config.trace.absorb(tracer);
            self.record(name, outcome?);
        }
        Ok(&self.cache[name])
    }

    /// Injects a pre-built abstraction (e.g. a black-box IP model
    /// loaded from text), bypassing characterization for that module.
    pub fn install_model(&mut self, timing: ModuleTiming) {
        let key = self.intern(timing.module());
        self.cache.insert(key, timing);
    }

    /// Step 2: propagates the given primary-input arrivals through the
    /// instance DAG.
    ///
    /// # Errors
    ///
    /// Returns characterization or composite-ordering errors.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the top-level input
    /// count.
    pub fn analyze(&mut self, pi_arrivals: &[Time]) -> Result<HierAnalysis, NetlistError> {
        self.characterize_all()?;
        if self.config.trace.is_enabled() && self.config.shared_solver {
            let s = self.stability_stats();
            let mut tracer = self.config.trace.tracer();
            tracer.event(
                "shared_solver_stats",
                vec![
                    ("domains_built", Value::from(s.domains_built)),
                    ("clauses_subsumed", Value::from(s.clauses_subsumed)),
                    ("learnts_imported", Value::from(s.learnts_imported)),
                ],
            );
            self.config.trace.absorb(tracer);
        }
        let before = self.characterized;
        let t0 = Instant::now();
        let result = propagate(self.top, &self.cache, pi_arrivals)?;
        self.wall.propagate_micros += micros_since(t0);
        debug_assert_eq!(before, self.characterized, "analyze must not characterize");
        Ok(HierAnalysis {
            stats: HierStats {
                modules_characterized: self.characterized,
                modules_degraded: self.degraded.len() as u64,
                instances_propagated: result.stats.instances_propagated,
                modules_aliased: self.sig_aliases.len() as u64,
                stability: self.stability_stats(),
            },
            ..result
        })
    }
}

/// Pure step-2 propagation given a complete model table.
///
/// # Errors
///
/// Returns [`NetlistError::Unknown`] if a module's model is missing and
/// composite-ordering errors.
///
/// # Panics
///
/// Panics if `pi_arrivals.len()` differs from the composite's input
/// count.
pub fn propagate<K, S>(
    top: &Composite,
    models: &HashMap<K, ModuleTiming, S>,
    pi_arrivals: &[Time],
) -> Result<HierAnalysis, NetlistError>
where
    K: Borrow<str> + Eq + Hash,
    S: BuildHasher,
{
    assert_eq!(
        pi_arrivals.len(),
        top.inputs().len(),
        "arrival vector length mismatch"
    );
    let mut arrivals = vec![Time::NEG_INF; top.net_count()];
    for (k, &pi) in top.inputs().iter().enumerate() {
        arrivals[pi.index()] = pi_arrivals[k];
    }
    let order = top.instance_topo_order()?;
    let mut propagated = 0u64;
    for idx in order {
        let inst = &top.instances()[idx];
        let timing = models
            .get(inst.module.as_str())
            .ok_or_else(|| NetlistError::Unknown {
                what: "timing model",
                name: inst.module.clone(),
            })?;
        let in_arr: Vec<Time> = inst.inputs.iter().map(|n| arrivals[n.index()]).collect();
        let out_times = timing.output_stable_times(&in_arr);
        for (&net, time) in inst.outputs.iter().zip(out_times) {
            arrivals[net.index()] = time;
        }
        propagated += 1;
    }
    let output_arrivals: Vec<Time> = top.outputs().iter().map(|&n| arrivals[n.index()]).collect();
    let delay = output_arrivals
        .iter()
        .copied()
        .fold(Time::NEG_INF, Time::max);
    Ok(HierAnalysis {
        net_arrivals: arrivals,
        output_arrivals,
        delay,
        stats: HierStats {
            modules_characterized: 0,
            modules_degraded: 0,
            instances_propagated: propagated,
            modules_aliased: 0,
            stability: StabilityStats::default(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// The full Section 4 walkthrough: the 4-bit cascade of two 2-bit
    /// blocks, all inputs at 0.
    #[test]
    fn section4_example() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut hier =
            HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default()).unwrap();
        let analysis = hier.analyze(&[t(0); 9]).unwrap();
        let top = design.composite("csa4.2").unwrap();
        // Intermediate carry (the paper's tmp) arrives at 8.
        let tmp = top.find_net("c2").unwrap();
        assert_eq!(analysis.net_arrivals[tmp.index()], t(8));
        // c4 arrives at 10, matching flat analysis.
        let c4 = top.find_net("c4").unwrap();
        assert_eq!(analysis.net_arrivals[c4.index()], t(10));
        // One distinct module characterized, two instances propagated.
        assert_eq!(analysis.stats.modules_characterized, 1);
        assert_eq!(analysis.stats.instances_propagated, 2);
    }

    /// Parametric claim: the last carry of an n-block cascade arrives
    /// at 8 + 2(n−1) — "parametric analysis like this is not possible
    /// with flat analysis".
    #[test]
    fn parametric_carry_formula() {
        for blocks in 1usize..=8 {
            let n = blocks * 2;
            let name = format!("csa{n}.2");
            let design = carry_skip_adder(n, 2, CsaDelays::default());
            let mut hier =
                HierAnalyzer::with_config(&design, &name, &AnalysisConfig::default()).unwrap();
            let analysis = hier.analyze(&vec![t(0); 2 * n + 1]).unwrap();
            let top = design.composite(&name).unwrap();
            let carry = top.find_net(&format!("c{n}")).unwrap();
            assert_eq!(
                analysis.net_arrivals[carry.index()],
                t(8 + 2 * (blocks as i64 - 1)),
                "blocks={blocks}"
            );
        }
    }

    /// Topological models give the classic (pessimistic) hierarchical
    /// result.
    #[test]
    fn topological_models_are_pessimistic() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let opts = AnalysisConfig {
            source: ModelSource::Topological,
            ..AnalysisConfig::default()
        };
        let mut hier = HierAnalyzer::with_config(&design, "csa4.2", &opts).unwrap();
        let analysis = hier.analyze(&[t(0); 9]).unwrap();
        let top = design.composite("csa4.2").unwrap();
        let c4 = top.find_net("c4").unwrap();
        // Topological: c2 at 8, then 6 more through the second block.
        assert_eq!(analysis.net_arrivals[c4.index()], t(14));
    }

    /// Installing a black-box model skips characterization entirely.
    #[test]
    fn installed_model_bypasses_characterization() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let block = design.leaf("csa_block2").unwrap();
        let timing = ModuleTiming::characterize(block, &AnalysisConfig::default()).unwrap();
        let mut hier =
            HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default()).unwrap();
        hier.install_model(timing);
        let analysis = hier.analyze(&[t(0); 9]).unwrap();
        assert_eq!(analysis.stats.modules_characterized, 0);
        assert_eq!(analysis.delay, t(12));
    }

    #[test]
    fn non_composite_top_rejected() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let err = HierAnalyzer::with_config(&design, "csa_block2", &AnalysisConfig::default())
            .unwrap_err();
        assert!(matches!(err, NetlistError::Unknown { .. }));
        let err =
            HierAnalyzer::with_config(&design, "ghost", &AnalysisConfig::default()).unwrap_err();
        assert!(matches!(err, NetlistError::Unknown { .. }));
    }

    /// Different arrival-time conditions reuse the characterization
    /// (Section 3.3, second scenario).
    #[test]
    fn characterization_shared_across_arrival_conditions() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut hier =
            HierAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default()).unwrap();
        let a1 = hier.analyze(&[t(0); 17]).unwrap();
        let mut skewed = vec![t(0); 17];
        skewed[0] = t(5);
        let a2 = hier.analyze(&skewed).unwrap();
        assert_eq!(a1.stats.modules_characterized, 1);
        assert_eq!(a2.stats.modules_characterized, 1, "no re-characterization");
        assert!(a2.delay >= a1.delay - t(100)); // both computed fine
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::{Composite, Design};

    /// A design with several distinct block flavours, to give the
    /// parallel characterizer real fan-out.
    fn multi_flavour_design() -> Design {
        let mut design = Design::new();
        let flavours = [
            CsaDelays {
                and_or: 1,
                xor: 2,
                mux: 2,
            },
            CsaDelays {
                and_or: 1,
                xor: 3,
                mux: 2,
            },
            CsaDelays {
                and_or: 2,
                xor: 2,
                mux: 3,
            },
            CsaDelays {
                and_or: 1,
                xor: 2,
                mux: 4,
            },
        ];
        let mut top = Composite::new("mixed");
        let mut carry = top.add_input("c_in");
        let mut outputs_so_far = 0usize;
        for (k, &d) in flavours.iter().enumerate() {
            let mut block = carry_skip_block(2, d);
            block.set_name(format!("blk{k}"));
            design.add_leaf(block).unwrap();
            let mut ins = vec![carry];
            for i in 0..2 {
                ins.push(top.add_input(format!("a{k}_{i}")));
                ins.push(top.add_input(format!("b{k}_{i}")));
            }
            let s0 = top.add_net(format!("s{k}_0"));
            let s1 = top.add_net(format!("s{k}_1"));
            let c = top.add_net(format!("c{k}"));
            top.add_instance(format!("u{k}"), format!("blk{k}"), &ins, &[s0, s1, c]);
            top.mark_output(s0);
            top.mark_output(s1);
            outputs_so_far += 2;
            carry = c;
        }
        top.mark_output(carry);
        let _ = outputs_so_far;
        design.add_composite(top).unwrap();
        design
    }

    #[test]
    fn parallel_equals_serial() {
        let design = multi_flavour_design();
        let arrivals = vec![Time::ZERO; 17];

        let mut serial =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).unwrap();
        let s = serial.analyze(&arrivals).unwrap();

        // clamp off: the pool must really run multi-worker even on
        // machines with fewer cores than requested threads.
        let opts = AnalysisConfig::default()
            .with_threads(4)
            .with_thread_clamp(false);
        let mut parallel = HierAnalyzer::with_config(&design, "mixed", &opts).unwrap();
        parallel.characterize_all().unwrap();
        let p = parallel.analyze(&arrivals).unwrap();

        assert_eq!(s.delay, p.delay);
        assert_eq!(s.output_arrivals, p.output_arrivals);
        assert_eq!(p.stats.modules_characterized, 4);
    }

    /// An already-expired analysis deadline degrades every module to
    /// its topological model — same answer as asking for topological
    /// models outright, with the degradation recorded.
    #[test]
    fn expired_deadline_degrades_all_modules() {
        use hfta_fta::SolveBudget;

        let design = multi_flavour_design();
        let arrivals = vec![Time::ZERO; 17];
        let opts = AnalysisConfig::default()
            .with_threads(4)
            .with_budget(SolveBudget::default().with_deadline(std::time::Instant::now()));
        let mut capped = HierAnalyzer::with_config(&design, "mixed", &opts).unwrap();
        capped.characterize_all().unwrap();
        let c = capped.analyze(&arrivals).unwrap();
        assert_eq!(c.stats.modules_degraded, 4);
        assert!(c.stats.stability.degraded > 0);
        assert!(capped
            .degraded_modules()
            .iter()
            .all(|(_, why)| *why == "deadline"));

        let topo_opts = AnalysisConfig {
            source: crate::ModelSource::Topological,
            ..AnalysisConfig::default()
        };
        let mut topo = HierAnalyzer::with_config(&design, "mixed", &topo_opts).unwrap();
        let t = topo.analyze(&arrivals).unwrap();
        assert_eq!(c.delay, t.delay);
        assert_eq!(c.output_arrivals, t.output_arrivals);
        // Topological models themselves are never "degraded".
        assert_eq!(t.stats.modules_degraded, 0);

        // And the functional result is at least as sharp.
        let mut full =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).unwrap();
        let f = full.analyze(&arrivals).unwrap();
        assert!(f.delay <= c.delay);
        assert_eq!(f.stats.modules_degraded, 0);
    }

    /// A zero-conflict per-query budget degrades outputs (not whole
    /// modules) but keeps the result sandwiched.
    #[test]
    fn zero_conflict_budget_degrades_outputs() {
        use hfta_fta::SolveBudget;

        let design = multi_flavour_design();
        let arrivals = vec![Time::ZERO; 17];
        let opts = AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let mut capped = HierAnalyzer::with_config(&design, "mixed", &opts).unwrap();
        let c = capped.analyze(&arrivals).unwrap();
        assert!(c.stats.stability.degraded > 0);
        assert!(c.stats.modules_degraded > 0);
        assert!(capped
            .degraded_modules()
            .iter()
            .all(|(_, why)| *why == "budget"));

        let mut full =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default()).unwrap();
        let f = full.analyze(&arrivals).unwrap();
        let topo_opts = AnalysisConfig {
            source: crate::ModelSource::Topological,
            ..AnalysisConfig::default()
        };
        let mut topo = HierAnalyzer::with_config(&design, "mixed", &topo_opts).unwrap();
        let t = topo.analyze(&arrivals).unwrap();
        assert!(c.delay >= f.delay);
        assert!(c.delay <= t.delay);
    }

    /// A cascade of structurally identical blocks under distinct
    /// module names — shareable only through cone signatures.
    fn replicated_design(copies: usize) -> Design {
        let mut design = Design::new();
        let mut top = Composite::new("rep");
        let mut carry = top.add_input("c_in");
        for k in 0..copies {
            let mut block = carry_skip_block(2, CsaDelays::default());
            block.set_name(format!("blk{k}"));
            design.add_leaf(block).unwrap();
            let mut ins = vec![carry];
            for i in 0..2 {
                ins.push(top.add_input(format!("a{k}_{i}")));
                ins.push(top.add_input(format!("b{k}_{i}")));
            }
            let s0 = top.add_net(format!("s{k}_0"));
            let s1 = top.add_net(format!("s{k}_1"));
            let c = top.add_net(format!("c{k}"));
            top.add_instance(format!("u{k}"), format!("blk{k}"), &ins, &[s0, s1, c]);
            top.mark_output(s0);
            top.mark_output(s1);
            carry = c;
        }
        top.mark_output(carry);
        design.add_composite(top).unwrap();
        design
    }

    /// Signature sharing must not perturb results whichever schedule
    /// produces the models: parallel characterization of a replicated
    /// design stays bit-identical to the serial path, per module and
    /// for the whole analysis.
    #[test]
    fn parallel_signature_sharing_equals_serial() {
        let copies = 4usize;
        let design = replicated_design(copies);
        let arrivals = vec![Time::ZERO; 4 * copies + 1];

        let mut serial =
            HierAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let s = serial.analyze(&arrivals).unwrap();

        let opts = AnalysisConfig::default()
            .with_threads(4)
            .with_thread_clamp(false);
        let mut parallel = HierAnalyzer::with_config(&design, "rep", &opts).unwrap();
        parallel.characterize_all().unwrap();
        let p = parallel.analyze(&arrivals).unwrap();

        assert_eq!(s.delay, p.delay);
        assert_eq!(s.output_arrivals, p.output_arrivals);
        for k in 0..copies {
            let name = format!("blk{k}");
            let sm = serial.module_timing(&name).unwrap().clone();
            let pm = parallel.module_timing(&name).unwrap().clone();
            assert_eq!(sm, pm, "models diverged for {name}");
        }
        // The serial path shares one characterization across all
        // copies. (The parallel path may alias fewer — workers race to
        // publish — which is why the equality above is on the models.)
        assert_eq!(s.stats.modules_aliased, copies as u64 - 1);
    }

    #[test]
    fn parallel_skips_cached_modules() {
        let design = multi_flavour_design();
        let mut an =
            HierAnalyzer::with_config(&design, "mixed", &AnalysisConfig::default().with_threads(2))
                .unwrap();
        an.characterize_all().unwrap();
        // Second call is a no-op.
        an.characterize_all().unwrap();
        let analysis = an.analyze(&[Time::ZERO; 17]).unwrap();
        assert_eq!(analysis.stats.modules_characterized, 4);
    }

    /// Tracing is an observer: with a sink installed the analysis stays
    /// bit-identical (serial and parallel), and the trace carries the
    /// promised `characterize_module` spans and `module_alias` events.
    #[test]
    fn traced_hier_is_bit_identical_and_records() {
        use hfta_trace::TraceSink;

        let copies = 4usize;
        let design = replicated_design(copies);
        let arrivals = vec![Time::ZERO; 4 * copies + 1];

        let mut plain =
            HierAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let want = plain.analyze(&arrivals).unwrap();

        for threads in [1usize, 4] {
            let sink = TraceSink::enabled();
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_trace(sink.clone());
            let mut traced = HierAnalyzer::with_config(&design, "rep", &config).unwrap();
            let got = traced.analyze(&arrivals).unwrap();
            assert_eq!(got.delay, want.delay, "threads={threads}");
            assert_eq!(got.output_arrivals, want.output_arrivals);
            let trace = sink.drain();
            let names: Vec<&str> = trace.records().iter().map(|r| r.name).collect();
            assert!(
                names
                    .iter()
                    .filter(|n| **n == "characterize_module")
                    .count()
                    >= 1,
                "threads={threads}: {names:?}"
            );
            if threads == 1 {
                // Serial sharing replays copies−1 modules from the
                // first characterization — each records an alias event.
                assert_eq!(
                    names.iter().filter(|n| **n == "module_alias").count(),
                    copies - 1
                );
            }
        }
    }
}
