//! The improved, demand-driven hierarchical analysis (Section 5).
//!
//! The two-step algorithm characterizes every pin-to-pin delay of every
//! leaf module even when the pin pair is never critical in any
//! instance, wasting CPU on accuracy that cannot influence the final
//! answer. The demand-driven algorithm instead:
//!
//! 1. builds a *timing graph* whose vertices are the top-level nets and
//!    whose edges are the module pin pairs, initially weighted with
//!    longest topological path lengths;
//! 2. runs forward (arrival) and backward (required) topological
//!    propagation, asserting the latest output arrival as the required
//!    time of every primary output, and computes slacks;
//! 3. picks *critical* edges (both endpoints at zero slack, edge
//!    tight) and refines each by one step: probe the next smaller
//!    distinct topological path length `l′` with a functional
//!    stability check of the module cone ("others at −lᵢ, the critical
//!    input at −l′"); accept the smaller weight in **all** instances of
//!    the module, or mark the edge accurate;
//! 4. repeats until every critical edge is marked.
//!
//! Weights only ever shrink and every accepted weight vector is
//! validated by a full XBD0 stability check, so the final delay remains
//! a conservative approximation of flat analysis (Theorem 1) while only
//! spending characterization effort where it matters.
//!
//! Probes against one `(module, output)` cone go through a persistent
//! [`StabilityOracle`] owned by that cone's refinement state, so the
//! SAT solver, its learnt clauses, and the settled-function caches are
//! shared by every probe of that cone — across rounds and across
//! `analyze` calls. Independent cones are probed in parallel when
//! [`AnalysisConfig::threads`] allows: a round's critical edges are
//! grouped by `(module, output)` (probes of one group interact through
//! its shared weights and must stay ordered; groups touch disjoint
//! state), and groups are distributed over scoped worker threads. The
//! grouping preserves the serial probe order within each cone, so the
//! parallel analysis is bit-identical to the serial one.
//!
//! Structurally identical cones (equal hash-consed
//! [`hfta_netlist::ConeSig`]) additionally share a *verdict memo*: a
//! probe whose canonical arrival vector was already decided for an
//! isomorphic cone is answered without touching a solver. Stability is
//! a semantic property of the cone function and the arrival vector, so
//! under an unlimited budget the memoized verdict is exactly what the
//! solver would have returned; under a limited budget verdicts depend
//! on solver heuristics and probe history, so sharing is switched off
//! to keep budgeted runs bit-identical to the memo-free analysis.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use hfta_fta::{
    solve_episode_fields, AnalysisConfig, BoolAlg, PhaseWall, SatAlg, SharedStabilityEngine,
    StabilityAnalyzer, StabilityOracle, StabilityStats, TopoSta,
};
use hfta_modeldb::{ModelDb, ModelDbStats};
use hfta_netlist::{
    cone_signature, Composite, ConeKey, Design, NetId, Netlist, NetlistError, Time,
};
use hfta_sched::Scheduler;
use hfta_trace::{Tracer, Value};

use crate::deadline::DeadlineToken;
use crate::hier::{open_model_dbs, split_config};

/// Work counters and result of a demand-driven analysis.
#[derive(Clone, PartialEq, Debug)]
pub struct DemandAnalysis {
    /// Arrival time of every top-level net.
    pub net_arrivals: Vec<Time>,
    /// Arrival times of the primary outputs, in output order.
    pub output_arrivals: Vec<Time>,
    /// The estimated circuit delay.
    pub delay: Time,
    /// Refinement rounds executed.
    pub rounds: u64,
    /// Edge-weight reductions accepted.
    pub refinements: u64,
    /// Functional stability checks performed.
    pub checks: u64,
    /// Stability/solver work aggregated over every cone's engine,
    /// cumulative across `analyze` calls on one analyzer (persistent
    /// oracles live as long as the analyzer).
    pub stability: StabilityStats,
}

/// Per-(module, output) refinement state.
#[derive(Debug)]
struct OutputState {
    /// The single-output cone of this module output.
    cone: Netlist,
    /// For each module input: its position among the cone's inputs, or
    /// `None` if the input does not reach this output.
    cone_pos: Vec<Option<usize>>,
    /// Current edge weights per module input (`−∞` = no influence).
    weights: Vec<Time>,
    /// Distinct path lengths per module input, descending.
    lists: Vec<Vec<Time>>,
    /// Cursor into `lists` per input (index of the current weight).
    cursor: Vec<usize>,
    /// Edges proven accurate (no further probes).
    marked: Vec<bool>,
    /// Canonical structural signature and input correspondence of the
    /// cone. Computed on the cone's first refinement (cones that never
    /// become critical never pay for hashing); `sig_done` distinguishes
    /// "not yet computed" from "computed, cone is cyclic/unhashable".
    sig: Option<ConeKey>,
    sig_done: bool,
    /// Persistent stability oracle for this cone (lazily created on
    /// first probe when [`AnalysisConfig::reuse_oracle`] is set).
    oracle: Option<StabilityOracle<SatAlg>>,
    /// Whether this cone identity has registered with its class's
    /// [`SharedStabilityEngine`] (shared-solver mode only).
    engine_attached: bool,
    /// Stability work of fresh (non-oracle) probes of this cone.
    fresh_stats: StabilityStats,
}

/// Outcome of one cone's probes within a refinement round.
#[derive(Clone, Copy, Default)]
struct RoundWork {
    checks: u64,
    refinements: u64,
}

/// The Section 5 analyzer.
///
/// # Example
///
/// ```
/// use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer};
/// use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = carry_skip_adder(8, 2, CsaDelays::default());
/// let config = AnalysisConfig::default();
/// let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config)?;
/// let result = an.analyze(&vec![Time::ZERO; 17])?;
/// assert_eq!(result.delay, Time::new(16)); // matches flat analysis
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DemandDrivenAnalyzer<'a> {
    top: &'a Composite,
    /// Instance order (topological) and resolved module names.
    order: Vec<usize>,
    /// Interned module names, index-aligned with `modules`.
    module_names: Vec<String>,
    /// Name → index into `module_names`/`modules`.
    module_index: HashMap<String, usize>,
    /// Per instance (by position in `top.instances()`): its module
    /// index.
    inst_module: Vec<usize>,
    /// Per distinct module: refinement state per output index. Each
    /// slot is `Some` except while its cone is checked out to a worker
    /// inside [`DemandDrivenAnalyzer::refine_round`] (persistent
    /// workers need owned tasks, so a round moves the probed states out
    /// and back).
    modules: Vec<Vec<Option<OutputState>>>,
    /// Decided stability verdicts per structural signature class, keyed
    /// by the canonical (slot-space) arrival vector. Persists across
    /// rounds and `analyze` calls, like the per-cone oracles.
    verdict_memo: HashMap<u128, HashMap<Vec<Time>, bool>>,
    /// One shared incremental SAT instance per signature class
    /// (shared-solver mode). Checked out to the class's worker for the
    /// duration of a round, like the verdict memo; persists across
    /// rounds and `analyze` calls, like the per-cone oracles.
    class_engines: HashMap<u128, SharedStabilityEngine>,
    /// Persistent verdict store probed once per signature class (see
    /// [`DemandDrivenAnalyzer::with_config`]).
    db_use: Option<ModelDb>,
    /// Persistent store the memo is flushed into after each `analyze`.
    db_emit: Option<ModelDb>,
    /// Signature classes whose persisted verdicts were already folded
    /// into `verdict_memo` this session (one disk read per class).
    verdicts_loaded: HashSet<u128>,
    /// The analyzer's configuration (its scheduler seat moved to
    /// `scheduler`), shared with parallel refinement tasks.
    config: Arc<AnalysisConfig>,
    checks: u64,
    refinements: u64,
    wall: PhaseWall,
    /// Persistent worker pool for parallel rounds: the one seated in the
    /// config, or created by the first parallel round; reused across
    /// rounds and across `analyze` calls — never re-spawned per round.
    scheduler: Option<Scheduler>,
    /// The `threads_clamped` event is emitted at most once.
    clamp_reported: bool,
}

/// Invariant message for the `Option<OutputState>` slots.
const STATE_PRESENT: &str = "cone state present (only checked out inside refine_round)";

fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl<'a> DemandDrivenAnalyzer<'a> {
    /// Creates an analyzer for module `top` of `design` (depth-1
    /// hierarchy, as in the paper). Budget, thread count, sharing
    /// switches, worker pool, trace sink and model databases all come
    /// from `config`.
    ///
    /// A database named in `config.model_db` warm-starts the verdict
    /// memo: each signature class's stored verdicts are folded in the
    /// first time the class is probed. Stored verdicts are exact (only
    /// unlimited-budget memos are ever persisted), so a warm run is
    /// bit-identical to a cold one. The memo is flushed to the emit
    /// side after every [`DemandDrivenAnalyzer::analyze`] (merged with
    /// whatever is already on disk) — only when verdict sharing is on,
    /// i.e. unlimited budget with [`AnalysisConfig::cone_sig`] set.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unknown`] for missing/non-leaf modules,
    /// validation errors, and [`NetlistError::Io`] when the emit
    /// database directory cannot be created.
    pub fn with_config(
        design: &'a Design,
        top: &str,
        config: &AnalysisConfig,
    ) -> Result<DemandDrivenAnalyzer<'a>, NetlistError> {
        design.validate()?;
        let top = design.composite(top).ok_or_else(|| NetlistError::Unknown {
            what: "top-level composite module",
            name: top.to_string(),
        })?;
        let order = top.instance_topo_order()?;
        let mut module_names: Vec<String> = Vec::new();
        let mut module_index: HashMap<String, usize> = HashMap::new();
        let mut modules: Vec<Vec<Option<OutputState>>> = Vec::new();
        let mut inst_module = Vec::with_capacity(top.instances().len());
        for inst in top.instances() {
            if let Some(&mi) = module_index.get(&inst.module) {
                inst_module.push(mi);
                continue;
            }
            let leaf = design
                .leaf(&inst.module)
                .ok_or_else(|| NetlistError::Unknown {
                    what: "leaf module (demand-driven analysis requires depth-1 hierarchy)",
                    name: inst.module.clone(),
                })?;
            let mut states = Vec::with_capacity(leaf.outputs().len());
            for &out in leaf.outputs() {
                states.push(Some(OutputState::new(leaf, out, config)?));
            }
            let mi = modules.len();
            module_index.insert(inst.module.clone(), mi);
            module_names.push(inst.module.clone());
            modules.push(states);
            inst_module.push(mi);
        }
        let (db_use, db_emit) = open_model_dbs(&config.model_db)?;
        let (config, scheduler) = split_config(config);
        Ok(DemandDrivenAnalyzer {
            top,
            order,
            module_names,
            module_index,
            inst_module,
            modules,
            verdict_memo: HashMap::new(),
            class_engines: HashMap::new(),
            db_use,
            db_emit,
            verdicts_loaded: HashSet::new(),
            config,
            checks: 0,
            refinements: 0,
            wall: PhaseWall::default(),
            scheduler,
            clamp_reported: false,
        })
    }

    /// Counters of the attached model-database handles, merged across
    /// the read and emit sides (all zero when no database is attached).
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

    /// The worker pool parallel rounds run on, if one exists yet
    /// (seated in the config or lazily created by the first parallel
    /// round).
    #[must_use]
    pub fn scheduler_handle(&self) -> Option<&Scheduler> {
        self.scheduler.as_ref()
    }

    /// Runs the refinement loop to fixpoint and returns the analysis.
    ///
    /// # Errors
    ///
    /// Returns netlist errors from the underlying stability analyses.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the top-level input
    /// count.
    pub fn analyze(&mut self, pi_arrivals: &[Time]) -> Result<DemandAnalysis, NetlistError> {
        assert_eq!(
            pi_arrivals.len(),
            self.top.inputs().len(),
            "arrival vector length mismatch"
        );
        let deadline = DeadlineToken::new(self.config.budget.deadline);
        let mut tracer = self.config.trace.tracer();
        let mut rounds = 0u64;
        let arrivals = loop {
            let graph_t0 = Instant::now();
            let (arrivals, _) = self.forward(pi_arrivals);
            let required = self.backward(&arrivals);
            let critical = self.critical_edges(&arrivals, &required);
            self.wall.propagate_micros += micros_since(graph_t0);
            if critical.is_empty() {
                break arrivals;
            }
            let capped = self
                .config
                .max_rounds
                .is_some_and(|max| rounds as usize >= max);
            if capped || deadline.expired() {
                // Cap or deadline hit: freeze the graph in its current
                // (still conservative) state — no further probes, this
                // call or later ones. The edges that were still being
                // chased count as degraded: their weights stay at the
                // last proven (possibly topological) value without the
                // accuracy mark a finished refinement earns.
                if tracer.is_enabled() {
                    tracer.event(
                        "refine_freeze",
                        vec![
                            (
                                "reason",
                                Value::from(if capped { "max_rounds" } else { "deadline" }),
                            ),
                            ("frozen_edges", Value::from(critical.len())),
                        ],
                    );
                }
                for &(mi, o, _) in &critical {
                    self.modules[mi][o]
                        .as_mut()
                        .expect(STATE_PRESENT)
                        .fresh_stats
                        .degraded += 1;
                }
                for states in &mut self.modules {
                    for s in states.iter_mut().flatten() {
                        s.marked.iter_mut().for_each(|m| *m = true);
                    }
                }
                break arrivals;
            }
            let span = tracer.is_enabled().then(|| tracer.begin("refine_round"));
            let (checks0, refinements0) = (self.checks, self.refinements);
            let refine_t0 = Instant::now();
            let refined = self.refine_round(&critical, &mut tracer);
            self.wall.refine_micros += micros_since(refine_t0);
            if let Some(span) = span {
                tracer.end_with(
                    span,
                    vec![
                        ("round", Value::from(rounds)),
                        ("critical_edges", Value::from(critical.len())),
                        ("checks", Value::from(self.checks - checks0)),
                        ("refinements", Value::from(self.refinements - refinements0)),
                    ],
                );
            }
            if let Err(e) = refined {
                self.config.trace.absorb(tracer);
                return Err(e);
            }
            rounds += 1;
        };
        if tracer.is_enabled() && self.config.shared_solver {
            let s = self.stability_stats();
            tracer.event(
                "shared_solver_stats",
                vec![
                    ("domains_built", Value::from(s.domains_built)),
                    ("clauses_subsumed", Value::from(s.clauses_subsumed)),
                    ("learnts_imported", Value::from(s.learnts_imported)),
                ],
            );
        }
        self.config.trace.absorb(tracer);
        // Flush decided verdicts to the persistent store (merged with
        // whatever is already on disk). The memo only ever fills under
        // an unlimited budget with sharing on, so everything flushed
        // here is exact and safe to replay in any later session.
        if let Some(db) = self.db_emit.as_mut() {
            for (&sig, memo) in &self.verdict_memo {
                db.store_verdicts(sig, memo);
            }
        }
        let output_arrivals: Vec<Time> = self
            .top
            .outputs()
            .iter()
            .map(|&n| arrivals[n.index()])
            .collect();
        let delay = output_arrivals
            .iter()
            .copied()
            .fold(Time::NEG_INF, Time::max);
        Ok(DemandAnalysis {
            net_arrivals: arrivals,
            output_arrivals,
            delay,
            rounds,
            refinements: self.refinements,
            checks: self.checks,
            stability: self.stability_stats(),
        })
    }

    /// Stability/solver work aggregated across every cone's engines
    /// (persistent oracles plus any fresh per-probe analyzers).
    #[must_use]
    pub fn stability_stats(&self) -> StabilityStats {
        let mut total = StabilityStats::default();
        for states in &self.modules {
            for st in states.iter().flatten() {
                if let Some(oracle) = &st.oracle {
                    total.merge(&oracle.stats());
                }
                total.merge(&st.fresh_stats);
            }
        }
        for engine in self.class_engines.values() {
            total.merge(&engine.stats());
        }
        total.wall = self.wall;
        total
    }

    /// The current weight of a module edge (for inspection/tests).
    #[must_use]
    pub fn edge_weight(&self, module: &str, out_idx: usize, in_idx: usize) -> Option<Time> {
        self.module_index
            .get(module)
            .and_then(|&mi| self.modules[mi].get(out_idx))
            .and_then(|s| s.as_ref())
            .map(|s| s.weights[in_idx])
    }

    /// A human-readable summary of what refinement did: for every
    /// module edge whose weight was tightened below its topological
    /// value, one line `module out<-in: topo -> refined [accurate]`.
    /// Call after [`DemandDrivenAnalyzer::analyze`].
    #[must_use]
    pub fn refinement_report(&self) -> String {
        use std::fmt::Write as _;
        let mut names: Vec<(&String, usize)> = self
            .module_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        names.sort();
        let mut s = String::new();
        for (name, mi) in names {
            for (o, st) in self.modules[mi].iter().enumerate() {
                let st = st.as_ref().expect(STATE_PRESENT);
                for (j, &w) in st.weights.iter().enumerate() {
                    let topo = st.lists[j].first().copied().unwrap_or(Time::NEG_INF);
                    if w < topo {
                        let _ = writeln!(
                            s,
                            "{name} out{o} <- in{j}: {topo} -> {w}{}",
                            if st.marked[j] { " [accurate]" } else { "" }
                        );
                    }
                }
            }
        }
        if s.is_empty() {
            s.push_str("no edges refined (topological weights were already accurate)\n");
        }
        s
    }

    /// Cones with probes abandoned by a budget or frozen by a cap:
    /// `(module name, output index, degraded probe count)`, sorted by
    /// module name. Empty when no budget/cap fired.
    #[must_use]
    pub fn degraded_cones(&self) -> Vec<(String, usize, u64)> {
        let mut names: Vec<(&String, usize)> = self
            .module_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        names.sort();
        let mut v = Vec::new();
        for (name, mi) in names {
            for (o, st) in self.modules[mi].iter().enumerate() {
                let st = st.as_ref().expect(STATE_PRESENT);
                if st.fresh_stats.degraded > 0 {
                    v.push((name.clone(), o, st.fresh_stats.degraded));
                }
            }
        }
        v
    }

    /// Forward arrival propagation over the timing graph. Also returns
    /// per-instance input arrival snapshots (unused by callers today
    /// but cheap).
    fn forward(&self, pi_arrivals: &[Time]) -> (Vec<Time>, Vec<Vec<Time>>) {
        let mut arrivals = vec![Time::NEG_INF; self.top.net_count()];
        for (k, &pi) in self.top.inputs().iter().enumerate() {
            arrivals[pi.index()] = pi_arrivals[k];
        }
        let mut snapshots = vec![Vec::new(); self.top.instances().len()];
        for &idx in &self.order {
            let inst = &self.top.instances()[idx];
            let states = &self.modules[self.inst_module[idx]];
            let in_arr: Vec<Time> = inst.inputs.iter().map(|n| arrivals[n.index()]).collect();
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                let st = states[o].as_ref().expect(STATE_PRESENT);
                let mut worst = Time::NEG_INF;
                for (j, &a) in in_arr.iter().enumerate() {
                    let w = st.weights[j];
                    if w == Time::NEG_INF {
                        continue;
                    }
                    let term = if a == Time::POS_INF {
                        Time::POS_INF
                    } else {
                        a + w
                    };
                    worst = worst.max(term);
                }
                arrivals[out_net.index()] = worst;
            }
            snapshots[idx] = in_arr;
        }
        (arrivals, snapshots)
    }

    /// Backward required-time propagation: the latest output arrival is
    /// asserted at every primary output.
    fn backward(&self, arrivals: &[Time]) -> Vec<Time> {
        let latest = self
            .top
            .outputs()
            .iter()
            .map(|&n| arrivals[n.index()])
            .fold(Time::NEG_INF, Time::max);
        let mut required = vec![Time::POS_INF; self.top.net_count()];
        for &po in self.top.outputs() {
            required[po.index()] = required[po.index()].min(latest);
        }
        for &idx in self.order.iter().rev() {
            let inst = &self.top.instances()[idx];
            let states = &self.modules[self.inst_module[idx]];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                let st = states[o].as_ref().expect(STATE_PRESENT);
                let r = required[out_net.index()];
                if r == Time::POS_INF {
                    continue;
                }
                for (j, &in_net) in inst.inputs.iter().enumerate() {
                    let w = st.weights[j];
                    if w == Time::NEG_INF {
                        continue;
                    }
                    required[in_net.index()] = required[in_net.index()].min(r - w);
                }
            }
        }
        required
    }

    /// Critical, unmarked, still-refinable edges, deduplicated at the
    /// module level: `(module index, output index, input index)`.
    fn critical_edges(&self, arrivals: &[Time], required: &[Time]) -> Vec<(usize, usize, usize)> {
        let slack_zero = |n: NetId| {
            arrivals[n.index()].is_finite()
                && required[n.index()].is_finite()
                && arrivals[n.index()] == required[n.index()]
        };
        let mut seen = HashSet::new();
        let mut edges = Vec::new();
        for (idx, inst) in self.top.instances().iter().enumerate() {
            let mi = self.inst_module[idx];
            let states = &self.modules[mi];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                if !slack_zero(out_net) {
                    continue;
                }
                let st = states[o].as_ref().expect(STATE_PRESENT);
                for (j, &in_net) in inst.inputs.iter().enumerate() {
                    if st.marked[j] || st.weights[j] == Time::NEG_INF {
                        continue;
                    }
                    if !slack_zero(in_net) {
                        continue;
                    }
                    // The edge must be tight to lie on a critical path.
                    if arrivals[in_net.index()] + st.weights[j] != arrivals[out_net.index()] {
                        continue;
                    }
                    let key = (mi, o, j);
                    if seen.insert(key) {
                        edges.push(key);
                    }
                }
            }
        }
        edges
    }

    /// The pool this round's classes run on, or `None` to probe
    /// serially. A seated pool wins unchanged; otherwise the first
    /// parallel round creates one with [`AnalysisConfig::threads`]
    /// workers — clamped to the machine's parallelism unless
    /// [`AnalysisConfig::clamp_threads`] is off — and the analyzer
    /// keeps it from then on.
    fn scheduler_for_round(&mut self, tracer: &mut Tracer) -> Option<Scheduler> {
        let threads = self.config.threads;
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

    /// Probes one round's critical edges. Edges are grouped by
    /// `(module, output)` — probes within a group read each other's
    /// accepted weights and stay in their serial order. Groups whose
    /// cones share a structural signature are bundled into one *class*
    /// so they can share that signature's verdict memo; a class stays
    /// on one worker and its groups are probed serially, in their
    /// serial order, so memo hits land identically however the classes
    /// are scheduled. Distinct classes touch disjoint state and run as
    /// owned tasks on the persistent pool when one is available (their
    /// `OutputState`s — oracles included — are checked out of
    /// `self.modules` for the duration and restored in class order).
    /// Either way the outcome is the same as probing all edges serially
    /// in `critical` order.
    fn refine_round(
        &mut self,
        critical: &[(usize, usize, usize)],
        tracer: &mut Tracer,
    ) -> Result<(), NetlistError> {
        // Group edge probes per (module, output), preserving order.
        let mut group_edges: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let mut group_order: Vec<(usize, usize)> = Vec::new();
        for &(mi, o, j) in critical {
            let entry = group_edges.entry((mi, o)).or_default();
            if entry.is_empty() {
                group_order.push((mi, o));
            }
            entry.push(j);
        }
        let pool = self.scheduler_for_round(tracer);
        // Check the probed cones out of their slots, in ascending
        // (module, output) order.
        group_order.sort_unstable();
        let mut work: Vec<(usize, usize, OutputState, Vec<usize>)> =
            Vec::with_capacity(group_order.len());
        for &(mi, o) in &group_order {
            let st = self.modules[mi][o].take().expect(STATE_PRESENT);
            let edges = group_edges.remove(&(mi, o)).expect("grouped above");
            work.push((mi, o, st, edges));
        }
        let config = Arc::clone(&self.config);
        // Bundle the groups into signature classes. Each class takes
        // its verdict memo out of the analyzer for the duration of the
        // round (workers need exclusive access) and hands it back
        // below.
        let memo_on = config.cone_sig && config.budget.is_unlimited();
        struct ClassTask {
            sig: Option<u128>,
            memo: HashMap<Vec<Time>, bool>,
            engine: Option<SharedStabilityEngine>,
            work: Vec<(usize, usize, OutputState, Vec<usize>)>,
            tracer: Tracer,
        }
        struct ClassDone {
            outcome: Result<RoundWork, NetlistError>,
            sig: Option<u128>,
            memo: HashMap<Vec<Time>, bool>,
            engine: Option<SharedStabilityEngine>,
            work: Vec<(usize, usize, OutputState, Vec<usize>)>,
            tracer: Tracer,
        }
        let mut class_of: HashMap<u128, usize> = HashMap::new();
        let mut classes: Vec<ClassTask> = Vec::new();
        for (mi, o, mut st, edges) in work {
            let sig = if memo_on {
                st.ensure_sig().map(|k| k.sig.0)
            } else {
                None
            };
            if let Some(ci) = sig.and_then(|s| class_of.get(&s).copied()) {
                classes[ci].work.push((mi, o, st, edges));
                continue;
            }
            if let Some(s) = sig {
                class_of.insert(s, classes.len());
            }
            // Each class probes into a forked tracer (worker = class
            // index + 1); buffers merge back in class order below, so
            // the trace is identical however classes are scheduled.
            let class_tracer = tracer.fork(classes.len() as u32 + 1);
            let mut memo = sig
                .and_then(|s| self.verdict_memo.remove(&s))
                .unwrap_or_default();
            // First touch of this signature class: fold in persisted
            // verdicts. They are exact (only unlimited-budget memos are
            // stored), so a warm start answers the same probes the
            // solver would — just without the solver.
            if let (Some(s), Some(db)) = (sig, self.db_use.as_mut()) {
                if self.verdicts_loaded.insert(s) {
                    let stored = db.load_verdicts(s);
                    let count = stored.len();
                    for (k, v) in stored {
                        memo.entry(k).or_insert(v);
                    }
                    if count > 0 && tracer.is_enabled() {
                        tracer.event(
                            "verdict_db_load",
                            vec![
                                ("sig", Value::from(format!("{s:032x}"))),
                                ("verdicts", Value::from(count)),
                            ],
                        );
                    }
                }
            }
            // The class's shared engine travels with its memo (both are
            // exclusive to the class's worker for the round).
            let engine = sig.and_then(|s| self.class_engines.remove(&s));
            classes.push(ClassTask {
                sig,
                memo,
                engine,
                work: vec![(mi, o, st, edges)],
                tracer: class_tracer,
            });
        }
        let run = move |mut class: ClassTask| -> ClassDone {
            let outcome = refine_class(
                &mut class.work,
                &mut class.memo,
                &mut class.engine,
                &config,
                &mut class.tracer,
            );
            ClassDone {
                outcome,
                sig: class.sig,
                memo: class.memo,
                engine: class.engine,
                work: class.work,
                tracer: class.tracer,
            }
        };
        let done: Vec<ClassDone> = match pool {
            Some(pool) if classes.len() > 1 => pool.run(classes, run),
            _ => classes.into_iter().map(run).collect(),
        };
        let mut first_err = None;
        for d in done {
            tracer.absorb(d.tracer);
            if let Some(sig) = d.sig {
                self.verdict_memo.insert(sig, d.memo);
                if let Some(engine) = d.engine {
                    self.class_engines.insert(sig, engine);
                }
            }
            // Restore the checked-out states — on the error path too,
            // so a failed round leaves the analyzer whole.
            for (mi, o, st, _) in d.work {
                debug_assert!(self.modules[mi][o].is_none());
                self.modules[mi][o] = Some(st);
            }
            match d.outcome {
                Ok(w) => {
                    self.checks += w.checks;
                    self.refinements += w.refinements;
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Rewinds every edge to its topological weight and clears shared
    /// verdicts and counters, as if the analyzer were freshly built —
    /// but keeps the expensive long-lived state: per-cone oracles and
    /// per-class shared engines (learnt clauses included), cone
    /// signatures, and the worker pool. Benchmarks use this to measure
    /// steady-state refinement without paying construction on every
    /// iteration.
    pub fn reset_refinement(&mut self) {
        for states in &mut self.modules {
            for st in states.iter_mut().flatten() {
                for j in 0..st.weights.len() {
                    st.weights[j] = st.lists[j].first().copied().unwrap_or(Time::NEG_INF);
                    st.cursor[j] = 0;
                    st.marked[j] = false;
                }
                st.fresh_stats = StabilityStats::default();
            }
        }
        self.verdict_memo.clear();
        self.verdicts_loaded.clear();
        self.checks = 0;
        self.refinements = 0;
        self.wall = PhaseWall::default();
    }
}

/// Probes every `(cone, edges)` group of one signature class, in
/// order, all sharing the class's verdict `memo` and (in shared-solver
/// mode) its one incremental SAT `engine`.
fn refine_class(
    work: &mut [(usize, usize, OutputState, Vec<usize>)],
    memo: &mut HashMap<Vec<Time>, bool>,
    engine: &mut Option<SharedStabilityEngine>,
    config: &AnalysisConfig,
    tracer: &mut Tracer,
) -> Result<RoundWork, NetlistError> {
    let mut round = RoundWork::default();
    for (_, _, st, edges) in work.iter_mut() {
        for &j in edges.iter() {
            st.refine_edge(j, config, &mut round, memo, engine, tracer)?;
        }
    }
    Ok(round)
}

impl OutputState {
    fn new(
        leaf: &Netlist,
        out: NetId,
        config: &AnalysisConfig,
    ) -> Result<OutputState, NetlistError> {
        let (cone, sources) = leaf.cone(out);
        let cone_out = cone.outputs()[0];
        let sta = TopoSta::new(&cone)?;
        let distinct = sta.distinct_lengths_to(cone_out, config.lengths_cap);
        let mut cone_pos = vec![None; leaf.inputs().len()];
        for (p, src) in sources.iter().enumerate() {
            let mod_pos = leaf
                .inputs()
                .iter()
                .position(|pi| pi == src)
                .expect("cone sources are primary inputs");
            cone_pos[mod_pos] = Some(p);
        }
        let mut weights = Vec::with_capacity(leaf.inputs().len());
        let mut lists = Vec::with_capacity(leaf.inputs().len());
        for pos in &cone_pos {
            match pos {
                Some(p) => {
                    let list = distinct[cone.inputs()[*p].index()].clone();
                    weights.push(list.first().copied().unwrap_or(Time::NEG_INF));
                    lists.push(list);
                }
                None => {
                    weights.push(Time::NEG_INF);
                    lists.push(Vec::new());
                }
            }
        }
        let n = leaf.inputs().len();
        Ok(OutputState {
            cone,
            cone_pos,
            weights,
            lists,
            cursor: vec![0; n],
            marked: vec![false; n],
            sig: None,
            sig_done: false,
            oracle: None,
            engine_attached: false,
            fresh_stats: StabilityStats::default(),
        })
    }

    /// The cone's structural signature, computed on first use.
    fn ensure_sig(&mut self) -> Option<&ConeKey> {
        if !self.sig_done {
            self.sig_done = true;
            self.sig = cone_signature(&self.cone).ok();
        }
        self.sig.as_ref()
    }

    /// One refinement step of the edge into input `in_idx`: probe the
    /// next smaller distinct path length; accept or mark accurate.
    /// `memo` is the verdict memo of this cone's signature class (an
    /// unused empty map when sharing is off).
    fn refine_edge(
        &mut self,
        in_idx: usize,
        config: &AnalysisConfig,
        round: &mut RoundWork,
        memo: &mut HashMap<Vec<Time>, bool>,
        engine: &mut Option<SharedStabilityEngine>,
        tracer: &mut Tracer,
    ) -> Result<(), NetlistError> {
        debug_assert!(!self.marked[in_idx]);
        let list = &self.lists[in_idx];
        let next = self.cursor[in_idx] + 1;
        let candidate = if next < list.len() {
            Some(list[next])
        } else if config.try_irrelevant && self.weights[in_idx] != Time::NEG_INF {
            Some(Time::NEG_INF)
        } else {
            None
        };
        let Some(candidate) = candidate else {
            self.marked[in_idx] = true;
            return Ok(());
        };
        // Build cone arrivals: input j arrives at −w_j, the probed
        // input at −candidate.
        let n_cone = self.cone.inputs().len();
        let mut cone_arrivals = vec![Time::POS_INF; n_cone];
        for (j, pos) in self.cone_pos.iter().enumerate() {
            if let Some(p) = *pos {
                let w = if j == in_idx {
                    candidate
                } else {
                    self.weights[j]
                };
                cone_arrivals[p] = -w;
            }
        }
        let cone_out = self.cone.outputs()[0];
        round.checks += 1;
        // Signature-class sharing: probe the memo under the canonical
        // (slot-space) arrival vector before spending solver time. Only
        // under an unlimited budget — then the verdict is semantic and
        // the solver would necessarily have returned the same answer.
        let memo_key = if config.cone_sig && config.budget.is_unlimited() {
            self.sig
                .as_ref()
                .map(|key| key.to_slots(&cone_arrivals, Time::POS_INF))
        } else {
            None
        };
        if let Some(canon) = &memo_key {
            if let Some(&verdict) = memo.get(canon) {
                self.fresh_stats.cone_sig_hits += 1;
                if tracer.is_enabled() {
                    tracer.event(
                        "refine_probe",
                        vec![
                            ("input", Value::from(in_idx)),
                            ("candidate", Value::from(candidate.to_string())),
                            ("verdict", Value::from(if verdict { "ok" } else { "fail" })),
                            ("memo", Value::from(true)),
                        ],
                    );
                }
                self.apply_verdict(in_idx, candidate, Some(verdict), round);
                return Ok(());
            }
            self.fresh_stats.cone_sig_misses += 1;
        }
        // Shared-solver mode: the whole signature class answers from
        // one incremental instance. Eligibility matches the memo's
        // (`memo_key` is `Some` exactly when the signature exists and
        // the budget is unlimited), so budgeted runs never touch the
        // engine and stay bit-identical to the per-cone baseline.
        let stable = if config.shared_solver && memo_key.is_some() {
            let key = self.sig.as_ref().expect("memo_key implies signature");
            if engine.is_none() {
                let mut fresh =
                    SharedStabilityEngine::new(self.cone.clone(), cone_out, key.clone())?;
                fresh.set_budget(config.budget);
                *engine = Some(fresh);
            }
            let engine = engine.as_mut().expect("just created");
            if !self.engine_attached {
                self.engine_attached = true;
                engine.attach();
            }
            if tracer.is_enabled() {
                engine.set_episode_recording(true);
            }
            let stable = engine.query_budgeted(key, &cone_arrivals, Time::ZERO);
            if tracer.is_enabled() {
                for ep in engine.take_episodes() {
                    tracer.event("sat_episode", solve_episode_fields(&ep));
                }
            }
            stable
        } else if config.reuse_oracle {
            if self.oracle.is_none() {
                let mut oracle = StabilityOracle::new_sat(self.cone.clone(), &cone_arrivals)?;
                oracle.set_budget(config.budget);
                self.oracle = Some(oracle);
            }
            let oracle = self.oracle.as_mut().expect("just created");
            if tracer.is_enabled() {
                oracle.set_episode_recording(true);
            }
            let stable = oracle.query_budgeted(&cone_arrivals, cone_out, Time::ZERO);
            if tracer.is_enabled() {
                for ep in oracle.take_episodes() {
                    tracer.event("sat_episode", solve_episode_fields(&ep));
                }
            }
            stable
        } else {
            let mut analyzer = StabilityAnalyzer::new(&self.cone, &cone_arrivals, SatAlg::new())?;
            analyzer.set_budget(config.budget);
            if tracer.is_enabled() {
                analyzer.alg_mut().set_episode_recording(true);
            }
            let stable = analyzer.try_is_stable_at(cone_out, Time::ZERO);
            if tracer.is_enabled() {
                for ep in analyzer.alg_mut().take_episodes() {
                    tracer.event("sat_episode", solve_episode_fields(&ep));
                }
            }
            self.fresh_stats.merge(&analyzer.stats());
            stable
        };
        if let (Some(canon), Some(verdict)) = (memo_key, stable) {
            memo.insert(canon, verdict);
        }
        if tracer.is_enabled() {
            tracer.event(
                "refine_probe",
                vec![
                    ("input", Value::from(in_idx)),
                    ("candidate", Value::from(candidate.to_string())),
                    (
                        "verdict",
                        Value::from(match stable {
                            Some(true) => "ok",
                            Some(false) => "fail",
                            None => "budget",
                        }),
                    ),
                    ("memo", Value::from(false)),
                ],
            );
        }
        self.apply_verdict(in_idx, candidate, stable, round);
        Ok(())
    }

    /// Applies a probe verdict to the edge into `in_idx`: accept the
    /// candidate weight, mark the edge accurate, or (on `None`, a
    /// budget interruption) mark it degraded at its proven weight.
    fn apply_verdict(
        &mut self,
        in_idx: usize,
        candidate: Time,
        stable: Option<bool>,
        round: &mut RoundWork,
    ) {
        match stable {
            Some(true) => {
                self.weights[in_idx] = candidate;
                if candidate == Time::NEG_INF {
                    self.marked[in_idx] = true; // nothing below −∞
                } else {
                    self.cursor[in_idx] += 1;
                }
                round.refinements += 1;
            }
            Some(false) => {
                self.marked[in_idx] = true;
            }
            None => {
                // Budget exhausted mid-probe: the candidate weight was
                // never proven, so keep the current (already validated)
                // weight and stop probing this edge — conservative, and
                // it cannot loop.
                self.marked[in_idx] = true;
                self.fresh_stats.degraded += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_fta::{functional_circuit_delay, SolveBudget};
    use hfta_netlist::gen::{carry_skip_adder, carry_skip_adder_flat, CsaDelays};
    use hfta_netlist::gen::{random_circuit, RandomCircuitSpec};
    use hfta_netlist::partition::cascade_bipartition;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn matches_flat_on_carry_skip_cascades() {
        for n in [4usize, 8, 12] {
            let name = format!("csa{n}.2");
            let design = carry_skip_adder(n, 2, CsaDelays::default());
            let mut an =
                DemandDrivenAnalyzer::with_config(&design, &name, &AnalysisConfig::default())
                    .unwrap();
            let result = an.analyze(&vec![t(0); 2 * n + 1]).unwrap();
            let flat = carry_skip_adder_flat(n, 2, CsaDelays::default()).unwrap();
            let exact = functional_circuit_delay(&flat).unwrap();
            assert_eq!(result.delay, exact, "n={n}");
            assert!(result.refinements > 0);
        }
    }

    #[test]
    fn refines_only_critical_edges() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let result = an.analyze(&[t(0); 17]).unwrap();
        // The refined carry edge: c_in (input 0) → c_out (output 2).
        assert_eq!(an.edge_weight("csa_block2", 2, 0), Some(t(2)));
        // A never-critical sum edge keeps its topological weight.
        assert_eq!(an.edge_weight("csa_block2", 0, 0), Some(t(2)));
        assert_eq!(an.edge_weight("csa_block2", 1, 1), Some(t(6)));
        // Only a handful of checks were needed (demand-driven!): far
        // fewer than full characterization of all 15 pin pairs.
        assert!(result.checks <= 12, "checks = {}", result.checks);
        // The refinement report names exactly the refined carry edge.
        let report = an.refinement_report();
        assert!(
            report.contains("csa_block2 out2 <- in0: 6 -> 2"),
            "{report}"
        );
        // The persistent oracle saw every probe.
        assert_eq!(result.stability.queries, result.checks);
        assert!(result.stability.sat_queries > 0);
    }

    #[test]
    fn conservative_on_partitioned_random_logic() {
        for seed in 0..4 {
            let spec = RandomCircuitSpec {
                inputs: 10,
                gates: 80,
                seed,
                locality: 12,
                global_fanin_prob: 0.2,
                mix: Default::default(),
            };
            let flat = random_circuit(&format!("r{seed}"), spec);
            let design = cascade_bipartition(&flat, 0.5).unwrap();
            let top_name = format!("r{seed}_top");
            let mut an =
                DemandDrivenAnalyzer::with_config(&design, &top_name, &AnalysisConfig::default())
                    .unwrap();
            let top = design.composite(&top_name).unwrap();
            let result = an.analyze(&vec![t(0); top.inputs().len()]).unwrap();
            let exact = functional_circuit_delay(&flat).unwrap();
            assert!(
                result.delay >= exact,
                "seed {seed}: demand-driven {} below flat {exact}",
                result.delay
            );
            // And no worse than pure topological analysis.
            let sta = TopoSta::new(&flat).unwrap();
            let topo = sta.circuit_delay(&vec![t(0); flat.inputs().len()]);
            assert!(result.delay <= topo, "seed {seed}");
        }
    }

    #[test]
    fn max_rounds_caps_work() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let opts = AnalysisConfig {
            max_rounds: Some(1),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &opts).unwrap();
        let result = an.analyze(&[t(0); 17]).unwrap();
        assert!(result.rounds <= 2);
        // Still conservative (between flat and topological).
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let exact = functional_circuit_delay(&flat).unwrap();
        assert!(result.delay >= exact);
    }

    /// Regression for the `max_rounds` fall-through: once the cap is
    /// hit the loop must stop probing, so `checks` stops growing — at
    /// the cap itself and on every later `analyze` call.
    #[test]
    fn max_rounds_stops_checks_deterministically() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());

        // Cap 0: the graph is frozen before any probe.
        let opts = AnalysisConfig {
            max_rounds: Some(0),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &opts).unwrap();
        let result = an.analyze(&[t(0); 17]).unwrap();
        assert_eq!(result.checks, 0);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.refinements, 0);

        // Cap 1: exactly one round of probes, then frozen — a second
        // analyze adds no checks.
        let opts = AnalysisConfig {
            max_rounds: Some(1),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &opts).unwrap();
        let first = an.analyze(&[t(0); 17]).unwrap();
        assert!(first.checks > 0);
        assert_eq!(first.rounds, 1);
        let second = an.analyze(&[t(0); 17]).unwrap();
        assert_eq!(
            second.checks, first.checks,
            "checks grew after the cap froze the graph"
        );

        // Uncapped needs more checks than one round: the cap really
        // cut the loop short rather than the loop having converged.
        let mut full =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let converged = full.analyze(&[t(0); 17]).unwrap();
        assert!(converged.checks > first.checks);
    }

    /// A zero-conflict budget interrupts every solver probe, yet the
    /// analysis terminates, stays sandwiched between flat and
    /// topological, and reports the abandoned edges as degraded.
    #[test]
    fn zero_budget_degrades_but_stays_conservative() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let opts = AnalysisConfig {
            budget: SolveBudget::default().with_conflicts(0),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &opts).unwrap();
        let capped = an.analyze(&[t(0); 17]).unwrap();
        let mut full =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let exact = full.analyze(&[t(0); 17]).unwrap();
        assert!(
            capped.delay >= exact.delay,
            "{} < {}",
            capped.delay,
            exact.delay
        );
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let sta = TopoSta::new(&flat).unwrap();
        assert!(capped.delay <= sta.circuit_delay(&[t(0); 17]));
        assert!(capped.stability.degraded > 0, "{:?}", capped.stability);
        assert!(capped.stability.budget_hits > 0, "{:?}", capped.stability);
        // No refinement was ever accepted without proof.
        assert_eq!(capped.refinements, 0);
        // The unbudgeted run saw no budget activity at all.
        assert_eq!(exact.stability.degraded, 0);
        assert_eq!(exact.stability.budget_hits, 0);
    }

    /// Both kinds of cap — a round cap and a wall-clock deadline — are
    /// visible in the stats as degraded edges.
    #[test]
    fn capped_runs_report_degraded_edges() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());

        let opts = AnalysisConfig {
            max_rounds: Some(0),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &opts).unwrap();
        let by_rounds = an.analyze(&[t(0); 17]).unwrap();
        assert!(
            by_rounds.stability.degraded > 0,
            "{:?}",
            by_rounds.stability
        );
        assert_eq!(by_rounds.checks, 0);

        let opts = AnalysisConfig {
            budget: SolveBudget::default().with_deadline(std::time::Instant::now()),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &opts).unwrap();
        let by_deadline = an.analyze(&[t(0); 17]).unwrap();
        assert!(
            by_deadline.stability.degraded > 0,
            "{:?}",
            by_deadline.stability
        );
        // Both froze the graph at its topological weights, so they
        // agree on the (conservative) answer.
        assert_eq!(by_deadline.delay, by_rounds.delay);
    }

    #[test]
    fn skewed_arrivals_supported() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let mut arrivals = vec![t(0); 9];
        arrivals[0] = t(5); // c_in late, as in Figure 5
        let result = an.analyze(&arrivals).unwrap();
        // Flat reference.
        let flat = carry_skip_adder_flat(4, 2, CsaDelays::default()).unwrap();
        let mut flat_arr = vec![t(0); 9];
        flat_arr[0] = t(5);
        let mut flat_an = hfta_fta::DelayAnalyzer::new_sat(&flat, &flat_arr).unwrap();
        let exact = flat_an.circuit_delay();
        assert!(result.delay >= exact);
        assert_eq!(result.delay, exact, "accuracy preserved on this example");
    }

    /// The persistent-oracle path and the fresh-solver path agree on
    /// everything observable.
    #[test]
    fn fresh_solver_path_matches_oracle_path() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut with_oracle =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let fresh_opts = AnalysisConfig {
            reuse_oracle: false,
            ..AnalysisConfig::default()
        };
        let mut with_fresh =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &fresh_opts).unwrap();
        let a = with_oracle.analyze(&[t(0); 17]).unwrap();
        let b = with_fresh.analyze(&[t(0); 17]).unwrap();
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.net_arrivals, b.net_arrivals);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.refinements, b.refinements);
        assert_eq!(
            with_oracle.refinement_report(),
            with_fresh.refinement_report()
        );
        // Both instrument their probes.
        assert_eq!(a.stability.queries, a.checks);
        assert_eq!(b.stability.queries, b.checks);
    }

    /// Parallel refinement is bit-identical to serial: same analysis
    /// (weights, delay, counters) and same refinement report.
    #[test]
    fn parallel_refinement_is_deterministic() {
        let specs: Vec<(Design, String, usize)> = {
            let mut v = Vec::new();
            let design = carry_skip_adder(12, 2, CsaDelays::default());
            v.push((design, "csa12.2".to_string(), 25));
            for seed in 0..2 {
                let spec = RandomCircuitSpec {
                    inputs: 10,
                    gates: 80,
                    seed,
                    locality: 12,
                    global_fanin_prob: 0.2,
                    mix: Default::default(),
                };
                let flat = random_circuit(&format!("r{seed}"), spec);
                let n = flat.inputs().len();
                let design = cascade_bipartition(&flat, 0.5).unwrap();
                v.push((design, format!("r{seed}_top"), n));
            }
            v
        };
        for (design, top, n_inputs) in &specs {
            let serial_opts = AnalysisConfig {
                threads: 1,
                ..AnalysisConfig::default()
            };
            // clamp off: the pool must really run multi-worker even on
            // machines with fewer cores than requested threads.
            let parallel_opts = AnalysisConfig {
                threads: 4,
                clamp_threads: false,
                ..AnalysisConfig::default()
            };
            let mut serial = DemandDrivenAnalyzer::with_config(design, top, &serial_opts).unwrap();
            let mut parallel =
                DemandDrivenAnalyzer::with_config(design, top, &parallel_opts).unwrap();
            let arrivals = vec![t(0); *n_inputs];
            let a = serial.analyze(&arrivals).unwrap();
            let b = parallel.analyze(&arrivals).unwrap();
            assert_eq!(a, b, "serial vs parallel diverged on {top}");
            assert_eq!(
                serial.refinement_report(),
                parallel.refinement_report(),
                "reports diverged on {top}"
            );
        }
    }

    /// Tracing is an observer: with a sink installed the analysis stays
    /// bit-identical (serial and parallel, counters included), and the
    /// trace carries `refine_round` spans with `refine_probe` and
    /// `sat_episode` events.
    #[test]
    fn traced_demand_is_bit_identical_and_records() {
        use hfta_trace::TraceSink;

        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let arrivals = vec![t(0); 17];
        let mut plain =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let want = plain.analyze(&arrivals).unwrap();

        for threads in [1usize, 4] {
            let sink = TraceSink::enabled();
            let config = AnalysisConfig::default()
                .with_threads(threads)
                .with_thread_clamp(false)
                .with_trace(sink.clone());
            let mut traced = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
            let got = traced.analyze(&arrivals).unwrap();
            assert_eq!(got, want, "threads={threads}");
            assert_eq!(plain.refinement_report(), traced.refinement_report());
            let trace = sink.drain();
            let names: Vec<&str> = trace.records().iter().map(|r| r.name).collect();
            for expected in ["refine_round", "refine_probe", "sat_episode"] {
                assert!(
                    names.contains(&expected),
                    "threads={threads}: missing {expected} in {names:?}"
                );
            }
        }

        // A frozen run records the freeze and its reason.
        let sink = TraceSink::enabled();
        let config = AnalysisConfig::default()
            .with_max_rounds(Some(0))
            .with_trace(sink.clone());
        let mut frozen = DemandDrivenAnalyzer::with_config(&design, "csa8.2", &config).unwrap();
        frozen.analyze(&arrivals).unwrap();
        let trace = sink.drain();
        assert!(
            trace.records().iter().any(|r| r.name == "refine_freeze"),
            "{:?}",
            trace.records()
        );
    }
}

#[cfg(test)]
mod cone_sig_tests {
    use super::*;
    use hfta_fta::SolveBudget;
    use hfta_netlist::gen::{carry_skip_adder_flat, carry_skip_block, CsaDelays};
    use hfta_netlist::{Composite, Design};

    /// A cascade of `copies` identical 2-bit carry-skip blocks under
    /// *distinct* module names — structurally csa(2·copies).2, but the
    /// analyzer cannot share anything by name.
    fn replicated_design(copies: usize) -> (Design, usize) {
        let mut design = Design::new();
        let mut top = Composite::new("rep");
        let mut carry = top.add_input("c_in");
        for k in 0..copies {
            let mut block = carry_skip_block(2, CsaDelays::default());
            block.set_name(format!("blk{k}"));
            design.add_leaf(block).expect("fresh design");
            let mut ins = vec![carry];
            for i in 0..2 {
                ins.push(top.add_input(format!("a{k}_{i}")));
                ins.push(top.add_input(format!("b{k}_{i}")));
            }
            let mut outs = Vec::new();
            for i in 0..2 {
                let s = top.add_net(format!("s{k}_{i}"));
                top.mark_output(s);
                outs.push(s);
            }
            let c = top.add_net(format!("c{k}"));
            outs.push(c);
            top.add_instance(format!("u{k}"), format!("blk{k}"), &ins, &outs);
            carry = c;
        }
        top.mark_output(carry);
        let n = top.inputs().len();
        design.add_composite(top).expect("fresh design");
        (design, n)
    }

    /// The verdict memo shares probes across renamed block copies, and
    /// the analysis is bit-identical to a memo-free run.
    #[test]
    fn memo_shares_verdicts_across_isomorphic_modules() {
        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];
        let mut with_memo =
            DemandDrivenAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let a = with_memo.analyze(&arrivals).unwrap();
        let off = AnalysisConfig {
            cone_sig: false,
            ..AnalysisConfig::default()
        };
        let mut without = DemandDrivenAnalyzer::with_config(&design, "rep", &off).unwrap();
        let b = without.analyze(&arrivals).unwrap();

        // Identical blocks, identical initial weights: the later blocks
        // answer their carry-chain probes from the memo.
        assert!(
            a.stability.cone_sig_hits > 0,
            "no memo hits: {:?}",
            a.stability
        );
        assert_eq!(b.stability.cone_sig_hits, 0);
        assert_eq!(b.stability.cone_sig_misses, 0);

        // The analysis itself is bit-identical either way; only solver
        // effort differs (memo hits skip SAT queries entirely).
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.net_arrivals, b.net_arrivals);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.refinements, b.refinements);
        assert_eq!(with_memo.refinement_report(), without.refinement_report());
        assert!(a.stability.sat_queries < b.stability.sat_queries);

        // Sanity: this is csa8.2 in disguise; the skip false path must
        // still be discovered through shared verdicts.
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let exact = hfta_fta::functional_circuit_delay(&flat).unwrap();
        assert_eq!(a.delay, exact);
    }

    /// Serial and parallel schedules agree on everything observable,
    /// including the memo hit/miss counters: one signature class stays
    /// on one worker.
    #[test]
    fn memo_sharing_is_deterministic_under_threads() {
        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];
        let mut serial =
            DemandDrivenAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        let parallel_opts = AnalysisConfig {
            threads: 4,
            clamp_threads: false,
            ..AnalysisConfig::default()
        };
        let mut parallel =
            DemandDrivenAnalyzer::with_config(&design, "rep", &parallel_opts).unwrap();
        let a = serial.analyze(&arrivals).unwrap();
        let b = parallel.analyze(&arrivals).unwrap();
        assert_eq!(a, b);
        assert_eq!(serial.refinement_report(), parallel.refinement_report());
        assert!(a.stability.cone_sig_hits > 0);
    }

    /// Verdicts persisted by one session warm-start the next: a cold
    /// analyzer answers probes from disk, bit-identically and with
    /// strictly fewer SAT queries.
    #[test]
    fn persisted_verdicts_warm_start_a_cold_session() {
        let dir = std::env::temp_dir().join(format!("hfta-demand-verdicts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];

        let emit_cfg = AnalysisConfig::default().with_emit_models(&dir);
        let mut emit = DemandDrivenAnalyzer::with_config(&design, "rep", &emit_cfg).unwrap();
        let a = emit.analyze(&arrivals).unwrap();
        assert!(emit.model_db_stats().verdicts_stored > 0, "nothing flushed");

        let warm_cfg = AnalysisConfig::default().with_use_models(&dir);
        let mut warm = DemandDrivenAnalyzer::with_config(&design, "rep", &warm_cfg).unwrap();
        let b = warm.analyze(&arrivals).unwrap();
        assert!(
            warm.model_db_stats().verdicts_loaded > 0,
            "no verdicts loaded: {:?}",
            warm.model_db_stats()
        );

        // Bit-identical analysis; the warm run answers from disk what
        // the cold run had to solve.
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.net_arrivals, b.net_arrivals);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.refinements, b.refinements);
        assert!(b.stability.sat_queries < a.stability.sat_queries);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A limited budget disables sharing: budgeted verdicts depend on
    /// solver history, so every probe must run its own solve.
    #[test]
    fn limited_budget_disables_memo_sharing() {
        let (design, n) = replicated_design(4);
        let arrivals = vec![Time::ZERO; n];
        let opts = AnalysisConfig {
            budget: SolveBudget::default().with_conflicts(1_000_000),
            ..AnalysisConfig::default()
        };
        let mut an = DemandDrivenAnalyzer::with_config(&design, "rep", &opts).unwrap();
        let capped = an.analyze(&arrivals).unwrap();
        assert_eq!(capped.stability.cone_sig_hits, 0);
        assert_eq!(capped.stability.cone_sig_misses, 0);
        // The budget is generous, so the answer still converges.
        let mut full =
            DemandDrivenAnalyzer::with_config(&design, "rep", &AnalysisConfig::default()).unwrap();
        assert_eq!(capped.delay, full.analyze(&arrivals).unwrap().delay);
    }
}

#[cfg(test)]
mod infinite_arrival_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    #[test]
    fn pos_inf_arrival_flows_through() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let mut arrivals = vec![Time::ZERO; 9];
        arrivals[1] = Time::POS_INF; // a0 never arrives
        let result = an.analyze(&arrivals).unwrap();
        // Outputs depending on a0 never stabilize; others stay finite.
        assert_eq!(result.output_arrivals[0], Time::POS_INF); // s0 needs a0
        assert_eq!(result.delay, Time::POS_INF);
        // s3 of the second block depends on the carry chain → +inf too,
        // but the analysis itself must terminate (this assertion is the
        // point of the test).
        assert!(result.rounds < 100);
    }

    #[test]
    fn neg_inf_arrival_is_benign() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let mut arrivals = vec![Time::ZERO; 9];
        arrivals[0] = Time::NEG_INF; // carry-in settled from forever
        let result = an.analyze(&arrivals).unwrap();
        assert!(result.delay.is_finite());
        // a0/b0 dominate: the usual 12.
        assert_eq!(result.delay, Time::new(12));
    }
}

#[cfg(test)]
mod reuse_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, carry_skip_adder_flat, CsaDelays};

    /// The Section 3.3 benefit applies to demand-driven refinement too:
    /// an accepted edge weight was validated by a required-time check
    /// (inputs at the negated weights), which does not depend on the
    /// top-level arrival condition — so refinement survives across
    /// `analyze` calls and later analyses start from the sharpened
    /// graph.
    #[test]
    fn refinement_is_reused_across_arrival_conditions() {
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .unwrap();
        let first = an.analyze(&[Time::ZERO; 17]).unwrap();
        assert!(first.checks > 0);

        // Second condition: skewed carry-in. The carry edge is already
        // refined, so few (often zero) new checks are needed.
        let mut skewed = vec![Time::ZERO; 17];
        skewed[0] = Time::new(9);
        let checks_before = an.checks;
        let second = an.analyze(&skewed).unwrap();
        let new_checks = second.checks - checks_before;
        assert!(
            new_checks <= first.checks,
            "reuse failed: {new_checks} new checks vs {} initially",
            first.checks
        );

        // And the result is still sandwiched against flat analysis.
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let mut flat_an = hfta_fta::DelayAnalyzer::new_sat(&flat, &skewed).unwrap();
        let exact = flat_an.circuit_delay();
        assert!(second.delay >= exact);
        let sta = TopoSta::new(&flat).unwrap();
        assert!(second.delay <= sta.circuit_delay(&skewed));
    }
}

impl DemandDrivenAnalyzer<'_> {
    /// Renders the current timing graph as Graphviz `dot`: one node per
    /// top-level net, one edge per module pin pair labelled with its
    /// current weight. Refined edges (below topological) are drawn in
    /// red; `−∞` edges are omitted.
    #[must_use]
    pub fn timing_graph_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.top.name());
        let _ = writeln!(s, "  rankdir=LR;");
        for &pi in self.top.inputs() {
            let _ = writeln!(s, "  \"{}\" [shape=diamond];", self.top.net_name(pi));
        }
        for &po in self.top.outputs() {
            let _ = writeln!(s, "  \"{}\" [shape=doublecircle];", self.top.net_name(po));
        }
        for (idx, inst) in self.top.instances().iter().enumerate() {
            let states = &self.modules[self.inst_module[idx]];
            for (o, &out_net) in inst.outputs.iter().enumerate() {
                let st = states[o].as_ref().expect(STATE_PRESENT);
                for (j, &in_net) in inst.inputs.iter().enumerate() {
                    let w = st.weights[j];
                    if w == Time::NEG_INF {
                        continue;
                    }
                    let topo = st.lists[j].first().copied().unwrap_or(Time::NEG_INF);
                    let refined = w < topo;
                    let _ = writeln!(
                        s,
                        "  \"{}\" -> \"{}\" [label=\"{}:{}\"{}];",
                        self.top.net_name(in_net),
                        self.top.net_name(out_net),
                        inst.name,
                        w,
                        if refined { ", color=red" } else { "" }
                    );
                }
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    #[test]
    fn timing_graph_dot_marks_refined_edges() {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        let mut an =
            DemandDrivenAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default())
                .unwrap();
        let _ = an.analyze(&[Time::ZERO; 9]).unwrap();
        let dot = an.timing_graph_dot();
        assert!(dot.starts_with("digraph"));
        assert!(
            dot.contains("color=red"),
            "refined carry edge flagged:\n{dot}"
        );
        assert!(dot.contains("shape=diamond"));
        assert!(dot.ends_with("}\n"));
    }
}
