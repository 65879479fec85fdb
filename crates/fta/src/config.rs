//! The analysis configuration.
//!
//! [`AnalysisConfig`] is the one options type of the workspace, and the
//! only way an option reaches an analyzer. Every entry point takes it:
//! flat timing reports
//! ([`TimingReport::generate`](crate::TimingReport::generate)), leaf
//! characterization ([`Characterizer`](crate::Characterizer),
//! [`ModuleTiming::characterize`](crate::ModuleTiming::characterize)),
//! [`derive_declared_delays`](crate::derive_declared_delays), the model
//! database key, and in `hfta-core` the two-step, demand-driven,
//! incremental and multi-level analyzers. Each reads only the fields it
//! needs; every field's documentation names its readers. Besides the
//! characterization parameters the config carries the [`TraceSink`]
//! that turns on structured tracing, an optional shared worker pool,
//! and where the persistent model database lives.
//!
//! The builder is plain `with_*` setters over a [`Default`] that
//! matches every engine's historical defaults, so
//! `AnalysisConfig::default()` reproduces existing behavior
//! bit-for-bit.

use std::path::PathBuf;

use hfta_sat::{SolveBudget, SolveEpisode};
use hfta_sched::Scheduler;
use hfta_trace::{TraceSink, Value};

/// The canonical trace-field encoding of one SAT [`SolveEpisode`] —
/// shared by every layer that emits `sat_episode` events, so the JSONL
/// schema stays uniform.
#[must_use]
pub fn solve_episode_fields(ep: &SolveEpisode) -> Vec<(&'static str, Value)> {
    vec![
        ("outcome", ep.outcome.into()),
        ("conflicts", ep.conflicts.into()),
        ("propagations", ep.propagations.into()),
        ("decisions", ep.decisions.into()),
        ("restarts", ep.restarts.into()),
        ("learnt_clauses", ep.learnt_clauses.into()),
        ("max_learnts", ep.max_learnts.into()),
        ("budgeted", ep.budgeted.into()),
        ("dur_ns", ep.dur_ns.into()),
    ]
}

/// An optional [`Scheduler`] handle riding inside [`AnalysisConfig`].
///
/// Like [`TraceSink`], the seat is an *observer-style* passenger:
/// which worker pool executes an analysis cannot change its result
/// (parallel analyses are bit-identical to serial ones), so the seat
/// compares equal to any other seat — configs differing only in their
/// scheduler are the same configuration.
///
/// Passing one pool to several analyzers (via
/// [`AnalysisConfig::with_scheduler`]) is how `HierAnalyzer` and
/// `DemandDrivenAnalyzer` calls share one set of persistent workers
/// instead of each spawning their own.
#[derive(Clone, Default)]
pub struct SchedulerSeat(Option<Scheduler>);

impl SchedulerSeat {
    /// An empty seat (analyzers create their own pool on demand).
    #[must_use]
    pub fn none() -> SchedulerSeat {
        SchedulerSeat(None)
    }

    /// A seat carrying `pool`.
    #[must_use]
    pub fn with(pool: Scheduler) -> SchedulerSeat {
        SchedulerSeat(Some(pool))
    }

    /// The seated pool, if any.
    #[must_use]
    pub fn get(&self) -> Option<&Scheduler> {
        self.0.as_ref()
    }
}

impl PartialEq for SchedulerSeat {
    /// All seats are equal: the executing pool is invisible in results.
    fn eq(&self, _other: &SchedulerSeat) -> bool {
        true
    }
}

impl Eq for SchedulerSeat {}

impl std::fmt::Debug for SchedulerSeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(s) => write!(f, "SchedulerSeat({} threads)", s.threads()),
            None => write!(f, "SchedulerSeat(none)"),
        }
    }
}

/// How hierarchical analysis obtains each module's timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ModelSource {
    /// Functional (false-path-aware) characterization — the paper's
    /// two-step algorithm. The default.
    #[default]
    Functional,
    /// Topological longest-path delays only (cheap, conservative).
    Topological,
}

/// Where a persistent model database lives, carried by
/// [`AnalysisConfig`].
///
/// This is only a *specification* — directory paths plus an optional
/// record limit. The analyzers (in `hfta-core`) open the actual
/// `hfta_modeldb::ModelDb` handles from it, keeping this crate free of
/// any on-disk dependency. `read` and `write` may name the same
/// directory (the common warm-start setup) or different ones (e.g.
/// consuming a vendor database while emitting to a local cache).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ModelDbSpec {
    /// Directory to warm-start from (`--use-models DIR`). Probed
    /// before every characterization; need not exist (all probes then
    /// miss).
    pub read: Option<PathBuf>,
    /// Directory to store freshly characterized, undegraded models
    /// into (`--emit-models DIR`). Created on first use.
    pub write: Option<PathBuf>,
    /// Cap on model records kept in the `write` directory;
    /// least-recently-used records are evicted past it.
    pub limit: Option<usize>,
}

impl ModelDbSpec {
    /// Whether the spec names no database at all (the default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read.is_none() && self.write.is_none()
    }
}

/// Builder-style configuration for every HFTA analysis entry point.
///
/// "Characterization" below means required-time characterization of
/// leaf modules: [`Characterizer`](crate::Characterizer) and everything
/// built on it (`ModuleTiming::characterize*`, the two-step
/// `HierAnalyzer`, `IncrementalAnalyzer`, multi-level composition).
///
/// ```
/// use hfta_fta::{AnalysisConfig, ModelSource, SolveBudget};
///
/// let cfg = AnalysisConfig::new()
///     .with_source(ModelSource::Functional)
///     .with_threads(4)
///     .with_budget(SolveBudget::default().with_conflicts(10_000))
///     .with_cone_sig(true);
/// assert_eq!(cfg.threads, 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnalysisConfig {
    /// Where module timing models come from (functional vs
    /// topological). Read by `ModuleTiming::characterize*`, the
    /// two-step `HierAnalyzer`, `IncrementalAnalyzer`, multi-level
    /// composition and the model-database key. The demand-driven
    /// analyzer always starts from topological weights and ignores it.
    pub source: ModelSource,
    /// Worker threads for characterization / refinement fan-out
    /// (1 = serial; results are bit-identical either way). Read by
    /// `HierAnalyzer` (step-1 characterization), `DemandDrivenAnalyzer`
    /// (refinement rounds) and `analyze_multilevel` (wavefronts);
    /// `IncrementalAnalyzer` ignores it.
    pub threads: usize,
    /// Clamp [`AnalysisConfig::threads`] to
    /// [`hfta_sched::available_parallelism`] when an analyzer creates
    /// its own pool (on by default — `--threads 64` on a 4-core box
    /// would otherwise oversubscribe). Analyzers emit a
    /// `threads_clamped` trace event when the clamp bites. Turn off
    /// only to *measure* oversubscription or to exercise real
    /// multi-worker schedules on small machines. Read wherever
    /// [`AnalysisConfig::threads`] is; a seated
    /// [`AnalysisConfig::scheduler`] is used as-is.
    pub clamp_threads: bool,
    /// Worker pool to run parallel phases on. Empty by default — each
    /// analyzer then lazily creates its own pool of
    /// [`AnalysisConfig::threads`] workers and keeps it for its whole
    /// life (across refinement rounds and `analyze` calls). Seat one
    /// pool here to share workers across analyzers. Read by
    /// `HierAnalyzer`, `DemandDrivenAnalyzer` and `analyze_multilevel`;
    /// `IncrementalAnalyzer` ignores it.
    pub scheduler: SchedulerSeat,
    /// Per-query solver budget; analyses degrade soundly (never
    /// silently) when it runs out. Its deadline also bounds a whole
    /// characterization or refinement loop. Unlimited by default. Read
    /// by every analyzer.
    pub budget: SolveBudget,
    /// Share characterization and stability verdicts across
    /// structurally isomorphic cones (only where the replay is provably
    /// bit-identical). Read by characterization with a
    /// [`ConeSigCache`](crate::ConeSigCache) and by the demand-driven
    /// verdict memo.
    pub cone_sig: bool,
    /// Keep one persistent stability oracle per refined cone instead of
    /// a fresh solver per probe. Read only by `DemandDrivenAnalyzer`.
    pub reuse_oracle: bool,
    /// Shared-solver mode: one incremental SAT instance per
    /// module/signature class, with each stability query restricted to
    /// the variable domain of its cone's transitive fanin, cross-cone
    /// learnt sharing, and between-query inprocessing. On by default;
    /// only unlimited-budget paths use it (budgeted runs fall back to
    /// fresh per-cone solvers so degraded results stay bit-identical
    /// to the baseline). Verdicts are bit-identical either way. Read by
    /// characterization, `TimingReport::generate`,
    /// `DemandDrivenAnalyzer` (per signature class, so there it also
    /// needs [`AnalysisConfig::cone_sig`]) and the `hfta serve` what-if
    /// oracles.
    pub shared_solver: bool,
    /// Cap on demand-driven refinement rounds (`None` = run to
    /// fixpoint). Read only by `DemandDrivenAnalyzer`.
    pub max_rounds: Option<usize>,
    /// Greedy relaxation passes per characterized output, each seeded
    /// from a different most-critical input — the maximum number of
    /// incomparable tuples per model. `1` reproduces the single-tuple
    /// models of the paper's Section 4 example. Read by
    /// characterization and the model-database key.
    pub max_tuples: usize,
    /// Cap on distinct path lengths tracked per (output, input) pair
    /// (longest kept). Read by characterization, `DemandDrivenAnalyzer`
    /// and the model-database key.
    pub lengths_cap: usize,
    /// Try the final relaxation of an input to `−∞` ("not needed at
    /// all"). Read by characterization, `DemandDrivenAnalyzer` and the
    /// model-database key.
    pub try_irrelevant: bool,
    /// Structured trace destination; disabled (free) by default. Read
    /// by `TimingReport::generate`, `HierAnalyzer`,
    /// `DemandDrivenAnalyzer` and `hfta serve`; `IncrementalAnalyzer`
    /// ignores it.
    pub trace: TraceSink,
    /// Persistent model database to warm-start from and/or emit to;
    /// empty (no persistence) by default. Read by `HierAnalyzer`,
    /// `DemandDrivenAnalyzer` (stability verdicts) and
    /// `IncrementalAnalyzer`.
    pub model_db: ModelDbSpec,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            source: ModelSource::Functional,
            threads: 1,
            clamp_threads: true,
            scheduler: SchedulerSeat::none(),
            budget: SolveBudget::UNLIMITED,
            cone_sig: true,
            reuse_oracle: true,
            shared_solver: true,
            max_rounds: None,
            max_tuples: 4,
            lengths_cap: 32,
            try_irrelevant: true,
            trace: TraceSink::disabled(),
            model_db: ModelDbSpec::default(),
        }
    }
}

impl AnalysisConfig {
    /// The default configuration (alias for [`Default::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets where hierarchical analysis gets module timing models.
    #[must_use]
    pub fn with_source(mut self, source: ModelSource) -> Self {
        self.source = source;
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables clamping of [`AnalysisConfig::threads`] to
    /// the machine's available parallelism (on by default).
    #[must_use]
    pub fn with_thread_clamp(mut self, clamp: bool) -> Self {
        self.clamp_threads = clamp;
        self
    }

    /// Seats a worker pool for parallel phases, shared by every
    /// analyzer built from this config.
    #[must_use]
    pub fn with_scheduler(mut self, pool: Scheduler) -> Self {
        self.scheduler = SchedulerSeat::with(pool);
        self
    }

    /// Sets the per-query solver budget.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables or disables cone-signature sharing.
    #[must_use]
    pub fn with_cone_sig(mut self, on: bool) -> Self {
        self.cone_sig = on;
        self
    }

    /// Enables or disables the persistent per-cone stability oracle.
    #[must_use]
    pub fn with_reuse_oracle(mut self, on: bool) -> Self {
        self.reuse_oracle = on;
        self
    }

    /// Turns shared-solver mode on or off (see
    /// [`AnalysisConfig::shared_solver`]). Verdicts are bit-identical
    /// either way; only the work to reach them changes.
    #[must_use]
    pub fn with_shared_solver(mut self, on: bool) -> Self {
        self.shared_solver = on;
        self
    }

    /// Caps demand-driven refinement rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: Option<usize>) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the maximum incomparable tuples per characterized output.
    #[must_use]
    pub fn with_max_tuples(mut self, max_tuples: usize) -> Self {
        self.max_tuples = max_tuples;
        self
    }

    /// Sets the distinct-path-length cap.
    #[must_use]
    pub fn with_lengths_cap(mut self, lengths_cap: usize) -> Self {
        self.lengths_cap = lengths_cap;
        self
    }

    /// Enables or disables irrelevant-input probing.
    #[must_use]
    pub fn with_try_irrelevant(mut self, on: bool) -> Self {
        self.try_irrelevant = on;
        self
    }

    /// Attaches a trace sink (use [`TraceSink::enabled`] to collect).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Warm-starts analyzers from the model database at `dir`
    /// (probed before every characterization).
    #[must_use]
    pub fn with_use_models(mut self, dir: impl Into<PathBuf>) -> Self {
        self.model_db.read = Some(dir.into());
        self
    }

    /// Stores freshly characterized, undegraded models into the model
    /// database at `dir` (created on first use).
    #[must_use]
    pub fn with_emit_models(mut self, dir: impl Into<PathBuf>) -> Self {
        self.model_db.write = Some(dir.into());
        self
    }

    /// Caps the records kept in the emit database (LRU eviction past
    /// the cap).
    #[must_use]
    pub fn with_model_limit(mut self, limit: Option<usize>) -> Self {
        self.model_db.limit = limit;
        self
    }

    /// The configuration itself. Characterization reads its
    /// parameters straight from [`AnalysisConfig`]; this accessor only
    /// keeps the benchmark crate (`perfbench/src/modular.rs`, which
    /// passes the result to `ModelDb::probe`/`store`) building
    /// unchanged.
    #[must_use]
    pub fn characterize_options(&self) -> &AnalysisConfig {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_engine_defaults() {
        let cfg = AnalysisConfig::default();
        assert_eq!(cfg.source, ModelSource::Functional);
        assert_eq!(cfg.threads, 1);
        assert!(cfg.clamp_threads);
        assert!(cfg.budget.is_unlimited());
        assert!(cfg.cone_sig);
        assert!(cfg.reuse_oracle);
        assert!(cfg.shared_solver);
        assert_eq!(cfg.max_rounds, None);
        assert_eq!(cfg.max_tuples, 4);
        assert_eq!(cfg.lengths_cap, 32);
        assert!(cfg.try_irrelevant);
        assert!(!cfg.trace.is_enabled());
        assert!(cfg.model_db.is_empty());
    }

    #[test]
    fn builder_threads_clamp_and_views() {
        let cfg = AnalysisConfig::new()
            .with_threads(0)
            .with_max_tuples(2)
            .with_cone_sig(false);
        assert_eq!(cfg.threads, 1);
        assert_eq!(cfg.max_tuples, 2);
        assert!(!cfg.cone_sig);
    }
}
