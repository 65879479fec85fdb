//! Approximate required-time analysis (Kukimoto & Brayton, DAC 1997) —
//! the leaf-module characterization engine.
//!
//! Given a module output with required time 0, the analysis finds
//! maximal (loosest) tuples of input required times under which the
//! output is still guaranteed stable, expressed as delay tuples (the
//! negated required times). The approximate algorithm follows the
//! paper: starting from the topological tuple, each input's delay is
//! relaxed down the list of *distinct topological path lengths* (then,
//! optionally, to `−∞` — "not needed at all"), each step validated by
//! a full XBD0 stability check. Monotone speedup makes each walk
//! monotone, so the first failure stops it.
//!
//! Several greedy passes seeded from different inputs yield the
//! incomparable tuples the paper exploits (`T` may hold more than one
//! tuple); dominated results are pruned by
//! [`TimingModel::from_tuples`].

use std::collections::HashMap;

use hfta_netlist::strash::{cone_signature, exact_fingerprint, ConeKey};
use hfta_netlist::{NetId, Netlist, NetlistError, Time};

use hfta_trace::Tracer;

use crate::boolalg::{BoolAlg, SatAlg};
use crate::config::AnalysisConfig;
use crate::model::{TimingModel, TimingTuple};
use crate::sta::TopoSta;
use crate::stability::{StabilityAnalyzer, StabilityStats};

/// A cache of per-cone characterization results keyed by structural
/// signature ([`ConeSig`](hfta_netlist::strash::ConeSig)).
///
/// A stored entry is replayed for a candidate cone only when the replay
/// is provably bit-identical to characterizing the candidate from
/// scratch:
///
/// * equal signature — the cones are isomorphic, so path-length lists,
///   topological tuples and exact stability verdicts all correspond
///   through the input permutation;
/// * equal criticality order (expressed in canonical slots) — the
///   greedy relaxation visits inputs in the same canonical sequence,
///   so every pass replays move for move;
/// * under a *limited* budget, additionally a verbatim structural match
///   ([`exact_fingerprint`]) — solver heuristics depend on clause
///   ordering, so only a literally identical cone (modulo names)
///   guarantees identical budget outcomes;
/// * under an *unlimited* budget, never a budget-degraded entry — a
///   fresh unlimited run never degrades, so replaying one would not be
///   bit-identical (this matters when one cache outlives a budget
///   change, as in incremental sessions).
///
/// The persistent on-disk model database (`hfta-modeldb`) enforces the
/// same predicate, with "never degraded" strengthened to "never even
/// stored".
///
/// Entries produced under different [`AnalysisConfig`]s are not
/// interchangeable; a cache must only be reused with the config that
/// filled it (as the hierarchical analyzer in `hfta-core` does).
#[derive(Debug, Default)]
pub struct ConeSigCache {
    entries: HashMap<u128, SigEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct SigEntry {
    /// Unpruned cone tuples (greedy passes + topological floor) with
    /// delays indexed by canonical slot.
    slot_tuples: Vec<Vec<Time>>,
    /// The characterizing cone's criticality order, as canonical slots.
    crit_slots: Vec<usize>,
    /// Whether the characterization hit its budget (replayed on hit so
    /// degradation accounting matches a fresh run).
    degraded: bool,
    /// Name-independent verbatim structure hash of the characterizing
    /// cone, for budget-limited sharing.
    exact_fp: u64,
    /// Module that paid for the characterization (alias observability).
    owner: String,
}

impl ConeSigCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> ConeSigCache {
        ConeSigCache::default()
    }

    /// Number of characterizations answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of characterizations that ran fresh (and seeded entries).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Folds `other` into `self`: counters add, entries merge with
    /// existing ones winning (deterministic given a deterministic merge
    /// order).
    pub fn merge(&mut self, other: ConeSigCache) {
        self.hits += other.hits;
        self.misses += other.misses;
        for (k, v) in other.entries {
            self.entries.entry(k).or_insert(v);
        }
    }
}

/// The topological delay tuple of `output`: longest path from every
/// primary input ([`Time::NEG_INF`] for inputs with no path).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn topological_delays(netlist: &Netlist, output: NetId) -> Result<Vec<Time>, NetlistError> {
    let sta = TopoSta::new(netlist)?;
    let long = sta.longest_to(output);
    Ok(netlist.inputs().iter().map(|pi| long[pi.index()]).collect())
}

/// Characterizes module outputs into [`TimingModel`]s via repeated
/// functional timing analysis.
///
/// # Example
///
/// ```
/// use hfta_fta::{AnalysisConfig, Characterizer};
/// use hfta_netlist::gen::{carry_skip_block, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let block = carry_skip_block(2, CsaDelays::default());
/// let config = AnalysisConfig::default();
/// let mut ch = Characterizer::new(&block, &config);
/// let c_out = block.find_net("c_out").expect("exists");
/// let model = ch.output_model(c_out)?;
/// // The paper's T_cout = {(2, 8, 8, 6, 6)}: the c_in→c_out false path
/// // is captured (topological delay would be 6).
/// assert_eq!(model.tuples()[0].delay(0), Time::new(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Characterizer<'a> {
    netlist: &'a Netlist,
    config: &'a AnalysisConfig,
    checks: u64,
    stability: StabilityStats,
    /// Receives characterization spans/events (relaxation steps,
    /// cone-signature hits, SAT episodes) from
    /// [`characterize_module_traced`]; disabled otherwise.
    tracer: Tracer,
    /// Shared-solver mode's one module-wide analyzer: every candidate
    /// tuple of every cone is validated against this single incremental
    /// SAT instance, each check domain-restricted to the queried
    /// output's transitive fanin. Built lazily on the first
    /// characterization; `None` when shared mode is off.
    shared: Option<StabilityAnalyzer<'a, SatAlg>>,
}

impl<'a> Characterizer<'a> {
    /// Creates a characterizer for `netlist`. It reads `max_tuples`
    /// (greedy passes), `lengths_cap`, `try_irrelevant`, `budget`,
    /// `cone_sig` and `shared_solver` from `config`.
    #[must_use]
    pub fn new(netlist: &'a Netlist, config: &'a AnalysisConfig) -> Characterizer<'a> {
        Characterizer {
            netlist,
            config,
            checks: 0,
            stability: StabilityStats::default(),
            tracer: Tracer::disabled(),
            shared: None,
        }
    }

    /// Number of stability (validity) checks performed so far.
    #[must_use]
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Number of outputs whose characterization was degraded by the
    /// budget (also available as
    /// [`StabilityStats::degraded`] in [`Characterizer::stability_stats`]).
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.stability.degraded
    }

    /// Stability/solver work accumulated over all characterizations so
    /// far. One persistent per-cone analyzer backs each
    /// [`Characterizer::output_model`] call (or, in shared-solver mode,
    /// one module-wide analyzer backs all of them), so these counters
    /// reflect the amortized (not per-probe) cost.
    #[must_use]
    pub fn stability_stats(&self) -> StabilityStats {
        let mut s = self.stability;
        if let Some(shared) = &self.shared {
            s.merge(&shared.stats());
        }
        s
    }

    /// The timing model of one output over the module's full input
    /// list.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn output_model(&mut self, output: NetId) -> Result<TimingModel, NetlistError> {
        self.output_model_inner(output, None).map(|(m, _)| m)
    }

    /// Like [`Characterizer::output_model`], consulting (and feeding) a
    /// [`ConeSigCache`] when [`AnalysisConfig::cone_sig`] is on.
    ///
    /// On a cache hit the second component names the module that
    /// originally paid for the shared cone (possibly this one, for
    /// isomorphic outputs within a module); on a miss it is `None`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn output_model_cached(
        &mut self,
        output: NetId,
        cache: &mut ConeSigCache,
    ) -> Result<(TimingModel, Option<String>), NetlistError> {
        self.output_model_inner(output, Some(cache))
    }

    fn output_model_inner(
        &mut self,
        output: NetId,
        cache: Option<&mut ConeSigCache>,
    ) -> Result<(TimingModel, Option<String>), NetlistError> {
        if !self.tracer.is_enabled() {
            return self.output_model_impl(output, cache);
        }
        let span = self.tracer.begin("characterize_output");
        let checks_before = self.checks;
        let degraded_before = self.stability.degraded;
        let result = self.output_model_impl(output, cache);
        let fields = vec![
            ("output", self.netlist.net_name(output).into()),
            ("checks", (self.checks - checks_before).into()),
            (
                "degraded",
                (self.stability.degraded > degraded_before).into(),
            ),
        ];
        self.tracer.end_with(span, fields);
        result
    }

    fn output_model_impl(
        &mut self,
        output: NetId,
        cache: Option<&mut ConeSigCache>,
    ) -> Result<(TimingModel, Option<String>), NetlistError> {
        let (cone, sources) = self.netlist.cone(output);
        let cone_out = cone.outputs()[0];
        let n_cone = cone.inputs().len();
        if n_cone == 0 {
            // Constant cone: no input matters.
            let full = vec![Time::NEG_INF; self.netlist.inputs().len()];
            return Ok((TimingModel::from_tuples(vec![TimingTuple::new(full)]), None));
        }
        let sta = TopoSta::new(&cone)?;
        let distinct = sta.distinct_lengths_to(cone_out, self.config.lengths_cap);
        let lists: Vec<Vec<Time>> = cone
            .inputs()
            .iter()
            .map(|pi| distinct[pi.index()].clone())
            .collect();
        let topo: Vec<Time> = lists
            .iter()
            .map(|l| l.first().copied().unwrap_or(Time::NEG_INF))
            .collect();

        // Input order by descending criticality (topological delay).
        let mut by_criticality: Vec<usize> = (0..n_cone).collect();
        by_criticality.sort_by(|&a, &b| topo[b].cmp(&topo[a]));

        // Expands cone tuples to the module's full input list.
        let positions: Vec<usize> = sources
            .iter()
            .map(|src| {
                self.netlist
                    .inputs()
                    .iter()
                    .position(|pi| pi == src)
                    .expect("cone sources are primary inputs")
            })
            .collect();
        let full_len = self.netlist.inputs().len();
        let expand = |tuples: Vec<TimingTuple>| {
            let expanded = tuples
                .into_iter()
                .map(|t| {
                    let mut full = vec![Time::NEG_INF; full_len];
                    for (i, &p) in positions.iter().enumerate() {
                        full[p] = t.delay(i);
                    }
                    TimingTuple::new(full)
                })
                .collect();
            TimingModel::from_tuples(expanded)
        };

        let cache = cache.filter(|_| self.config.cone_sig);
        let key = match &cache {
            Some(_) => Some(cone_signature(&cone)?),
            None => None,
        };
        if let (Some(cache), Some(key)) = (cache, key) {
            let crit_slots: Vec<usize> = by_criticality.iter().map(|&i| key.perm[i]).collect();
            if let Some(entry) = self.probe(cache, &key, &crit_slots, &cone) {
                let tuples = entry
                    .slot_tuples
                    .iter()
                    .map(|st| TimingTuple::new(key.from_slots(st)))
                    .collect();
                let owner = entry.owner.clone();
                if entry.degraded {
                    self.stability.degraded += 1;
                }
                cache.hits += 1;
                self.stability.cone_sig_hits += 1;
                if self.tracer.is_enabled() {
                    self.tracer
                        .event("cone_sig_hit", vec![("owner", owner.as_str().into())]);
                }
                return Ok((expand(tuples), Some(owner)));
            }
            cache.misses += 1;
            self.stability.cone_sig_misses += 1;
            if self.tracer.is_enabled() {
                self.tracer.event("cone_sig_miss", vec![]);
            }
            let (tuples, hit_budget) = self.characterize_cone(
                &cone,
                cone_out,
                output,
                &positions,
                &lists,
                &topo,
                &by_criticality,
            )?;
            let slot_tuples = tuples
                .iter()
                .map(|t| {
                    let vals: Vec<Time> = (0..n_cone).map(|i| t.delay(i)).collect();
                    key.to_slots(&vals, Time::NEG_INF)
                })
                .collect();
            cache.entries.entry(key.sig.0).or_insert_with(|| SigEntry {
                slot_tuples,
                crit_slots,
                degraded: hit_budget,
                exact_fp: exact_fingerprint(&cone),
                owner: self.netlist.name().to_string(),
            });
            return Ok((expand(tuples), None));
        }

        let (tuples, _) = self.characterize_cone(
            &cone,
            cone_out,
            output,
            &positions,
            &lists,
            &topo,
            &by_criticality,
        )?;
        Ok((expand(tuples), None))
    }

    /// Looks up a replayable entry: equal signature, equal canonical
    /// criticality order, and — under a limited budget — a verbatim
    /// structural match (see [`ConeSigCache`]).
    fn probe<'c>(
        &self,
        cache: &'c ConeSigCache,
        key: &ConeKey,
        crit_slots: &[usize],
        cone: &Netlist,
    ) -> Option<&'c SigEntry> {
        let entry = cache.entries.get(&key.sig.0)?;
        if entry.crit_slots != crit_slots {
            return None;
        }
        if self.config.budget.is_unlimited() {
            // A fresh unlimited run never degrades, so replaying a
            // budget-degraded entry (stored by a budgeted filler)
            // would not be bit-identical — refuse it.
            if entry.degraded {
                return None;
            }
        } else if entry.exact_fp != exact_fingerprint(cone) {
            return None;
        }
        Some(entry)
    }

    /// The uncached core: greedy relaxation passes plus the topological
    /// floor, returning the unpruned cone tuples and whether the budget
    /// interfered.
    #[allow(clippy::too_many_arguments)]
    fn characterize_cone(
        &mut self,
        cone: &Netlist,
        cone_out: NetId,
        output: NetId,
        positions: &[usize],
        lists: &[Vec<Time>],
        topo: &[Time],
        by_criticality: &[usize],
    ) -> Result<(Vec<TimingTuple>, bool), NetlistError> {
        if self.config.shared_solver && self.config.budget.is_unlimited() {
            // Shared-solver mode: one module-wide analyzer validates
            // every candidate tuple of every cone. Each check is
            // domain-restricted to the queried output's transitive
            // fanin, so cones don't pay for each other's logic, while
            // learnt clauses, the Tseitin cache, and between-query
            // inprocessing are shared across all of them. Both decision
            // procedures are exact, so verdicts — and therefore tuples
            // — are bit-identical to the per-cone path.
            let mut analyzer = match self.shared.take() {
                Some(a) => a,
                None => {
                    let far = vec![Time::POS_INF; self.netlist.inputs().len()];
                    let mut a = StabilityAnalyzer::new(self.netlist, &far, SatAlg::new_shared())?;
                    a.set_budget(self.config.budget);
                    a
                }
            };
            if self.tracer.is_enabled() {
                analyzer.alg_mut().set_episode_recording(true);
            }
            let query = QueryShape {
                net: output,
                map: Some((positions, self.netlist.inputs().len())),
            };
            let result = self.run_passes(&mut analyzer, &query, lists, topo, by_criticality);
            // Cumulative shared-analyzer stats are folded in by
            // `stability_stats` — merging per cone would double-count.
            self.shared = Some(analyzer);
            result
        } else {
            // One persistent analyzer validates every candidate tuple
            // of this cone: each check rebinds the arrivals but keeps
            // the SAT solver (learnt clauses, Tseitin cache) and the
            // settled-function memo warm.
            let topo_arrivals: Vec<Time> = topo.iter().map(|&d| -d).collect();
            let mut analyzer = StabilityAnalyzer::new(cone, &topo_arrivals, SatAlg::new())?;
            analyzer.set_budget(self.config.budget);
            if self.tracer.is_enabled() {
                analyzer.alg_mut().set_episode_recording(true);
            }
            let query = QueryShape {
                net: cone_out,
                map: None,
            };
            let result = self.run_passes(&mut analyzer, &query, lists, topo, by_criticality);
            self.stability.merge(&analyzer.stats());
            result
        }
    }

    /// The greedy relaxation passes shared by both analyzer shapes.
    fn run_passes(
        &mut self,
        analyzer: &mut StabilityAnalyzer<'_, SatAlg>,
        query: &QueryShape<'_>,
        lists: &[Vec<Time>],
        topo: &[Time],
        by_criticality: &[usize],
    ) -> Result<(Vec<TimingTuple>, bool), NetlistError> {
        let n_cone = lists.len();
        let passes = self.config.max_tuples.max(1).min(n_cone);
        let mut tuples = Vec::with_capacity(passes + 1);
        let mut hit_budget = false;
        for seed in 0..passes {
            let mut order = by_criticality.to_vec();
            order.rotate_left(seed);
            tuples.push(self.greedy_pass(analyzer, query, lists, topo, &order, &mut hit_budget)?);
        }
        if hit_budget {
            self.stability.degraded += 1;
        }
        // The topological tuple is always valid; keep it as a floor (it
        // will be pruned if any pass improved on it).
        tuples.push(TimingTuple::new(topo.to_vec()));
        Ok((tuples, hit_budget))
    }

    /// One greedy relaxation pass over the cone inputs in `order`.
    /// A budget-exhausted validity check stops that input's walk (as an
    /// invalid candidate would — every *accepted* step was proven, so
    /// the partial tuple stays sound) and sets `hit_budget`.
    fn greedy_pass(
        &mut self,
        analyzer: &mut StabilityAnalyzer<'_, SatAlg>,
        query: &QueryShape<'_>,
        lists: &[Vec<Time>],
        topo: &[Time],
        order: &[usize],
        hit_budget: &mut bool,
    ) -> Result<TimingTuple, NetlistError> {
        let mut delays: Vec<Time> = topo.to_vec();
        for &i in order {
            let list = &lists[i];
            let mut reached_bottom = true;
            for &l in &list[1..] {
                let mut candidate = delays.clone();
                candidate[i] = l;
                match self.tuple_is_valid(analyzer, query, &candidate) {
                    Some(true) => {
                        delays[i] = l;
                        self.trace_relax(i, l, "ok");
                    }
                    verdict => {
                        if verdict.is_none() {
                            *hit_budget = true;
                            self.trace_relax(i, l, "budget");
                        } else {
                            self.trace_relax(i, l, "fail");
                        }
                        reached_bottom = false;
                        break;
                    }
                }
            }
            if reached_bottom && self.config.try_irrelevant {
                let mut candidate = delays.clone();
                candidate[i] = Time::NEG_INF;
                match self.tuple_is_valid(analyzer, query, &candidate) {
                    Some(true) => {
                        delays[i] = Time::NEG_INF;
                        self.trace_relax(i, Time::NEG_INF, "ok");
                    }
                    Some(false) => self.trace_relax(i, Time::NEG_INF, "fail"),
                    None => {
                        *hit_budget = true;
                        self.trace_relax(i, Time::NEG_INF, "budget");
                    }
                }
            }
        }
        Ok(TimingTuple::new(delays))
    }

    /// Records one relaxation-walk step (no-op when tracing is off).
    fn trace_relax(&mut self, input: usize, candidate: Time, verdict: &'static str) {
        if self.tracer.is_enabled() {
            self.tracer.event(
                "relax_step",
                vec![
                    ("input", input.into()),
                    ("candidate", candidate.to_string().into()),
                    ("verdict", verdict.into()),
                ],
            );
        }
    }

    /// Validity oracle: with required time 0 at the output and inputs
    /// arriving at `−delay`, is the output stable at 0? `None` when the
    /// budget ran out before the check was decided.
    fn tuple_is_valid(
        &mut self,
        analyzer: &mut StabilityAnalyzer<'_, SatAlg>,
        query: &QueryShape<'_>,
        delays: &[Time],
    ) -> Option<bool> {
        self.checks += 1;
        let arrivals: Vec<Time> = match query.map {
            None => delays.iter().map(|&d| -d).collect(),
            // Module-level check: cone inputs arrive at −delay; inputs
            // outside the cone never arrive, which cannot change the
            // verdict (they are outside the queried net's support).
            Some((positions, full_len)) => {
                let mut arrivals = vec![Time::POS_INF; full_len];
                for (i, &p) in positions.iter().enumerate() {
                    arrivals[p] = -delays[i];
                }
                arrivals
            }
        };
        analyzer.set_arrivals(&arrivals);
        let verdict = analyzer.try_is_stable_at(query.net, Time::ZERO);
        if self.tracer.is_enabled() {
            for ep in analyzer.alg_mut().take_episodes() {
                self.tracer
                    .event("sat_episode", crate::config::solve_episode_fields(&ep));
            }
        }
        verdict
    }
}

/// Where a candidate tuple's validity check lands: the cone-local
/// output of a per-cone analyzer (`map: None`), or a module-level net
/// of the shared analyzer together with the cone→module input mapping
/// needed to place the arrival condition (`map: Some((positions,
/// module_input_count))`).
struct QueryShape<'p> {
    net: NetId,
    map: Option<(&'p [usize], usize)>,
}

/// Convenience: characterizes every output of a module.
///
/// Returns one model per primary output, in output order.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn characterize_module(
    netlist: &Netlist,
    config: &AnalysisConfig,
) -> Result<Vec<TimingModel>, NetlistError> {
    characterize_module_with_stats(netlist, config).map(|(models, _)| models)
}

/// Like [`characterize_module`], also returning the stability/solver
/// work the characterization cost.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn characterize_module_with_stats(
    netlist: &Netlist,
    config: &AnalysisConfig,
) -> Result<(Vec<TimingModel>, StabilityStats), NetlistError> {
    let mut ch = Characterizer::new(netlist, config);
    let models = netlist
        .outputs()
        .iter()
        .map(|&o| ch.output_model(o))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((models, ch.stability_stats()))
}

/// What [`characterize_module_cached`] produces: per-output models, the
/// stability work spent, and — per output — the module that originally
/// characterized the shared cone (`None` for fresh characterizations).
pub type CachedCharacterization = (Vec<TimingModel>, StabilityStats, Vec<Option<String>>);

/// Like [`characterize_module_with_stats`], sharing work through a
/// [`ConeSigCache`] (isomorphic outputs within the module, and across
/// modules when the same cache is reused).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn characterize_module_cached(
    netlist: &Netlist,
    config: &AnalysisConfig,
    cache: &mut ConeSigCache,
) -> Result<CachedCharacterization, NetlistError> {
    let mut tracer = Tracer::disabled();
    characterize_module_traced(netlist, config, Some(cache), &mut tracer)
}

/// The fully-instrumented characterization entry point: like
/// [`characterize_module_cached`] (pass `None` to skip the signature
/// cache), recording spans and events (`characterize_output`,
/// `relax_step`, `cone_sig_hit`/`cone_sig_miss`, `sat_episode`) into
/// `tracer`. With a disabled tracer this performs exactly the work of
/// the untraced path — tracing only ever appends to the side buffer.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn characterize_module_traced(
    netlist: &Netlist,
    config: &AnalysisConfig,
    cache: Option<&mut ConeSigCache>,
    tracer: &mut Tracer,
) -> Result<CachedCharacterization, NetlistError> {
    let mut ch = Characterizer::new(netlist, config);
    ch.tracer = std::mem::take(tracer);
    let result = (|| {
        let mut models = Vec::with_capacity(netlist.outputs().len());
        let mut owners = Vec::with_capacity(netlist.outputs().len());
        match cache {
            Some(cache) => {
                for &o in netlist.outputs() {
                    let (model, owner) = ch.output_model_cached(o, cache)?;
                    models.push(model);
                    owners.push(owner);
                }
            }
            None => {
                for &o in netlist.outputs() {
                    models.push(ch.output_model(o)?);
                    owners.push(None);
                }
            }
        }
        Ok((models, owners))
    })();
    *tracer = std::mem::take(&mut ch.tracer);
    let (models, owners) = result?;
    Ok((models, ch.stability_stats(), owners))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::GateKind;
    use hfta_sat::SolveBudget;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    /// Section 4 of the paper: the timing models of the 2-bit
    /// carry-skip block, inputs ordered c_in < a0 < b0 < a1 < b1.
    #[test]
    fn paper_models_for_carry_skip_block() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        // T_s0 = {(2, 4, 4, −∞, −∞)} (topological).
        let s0 = &models[0];
        assert_eq!(
            s0.tuples(),
            &[TimingTuple::new(vec![
                t(2),
                t(4),
                t(4),
                Time::NEG_INF,
                Time::NEG_INF
            ])]
        );
        // T_s1 = {(4, 6, 6, 4, 4)} (topological).
        let s1 = &models[1];
        assert_eq!(
            s1.tuples(),
            &[TimingTuple::new(vec![t(4), t(6), t(6), t(4), t(4)])]
        );
        // T_cout = {(2, 8, 8, 6, 6)}: more accurate than topological
        // (the longest c_in→c_out path has length 6).
        let cout = &models[2];
        assert_eq!(
            cout.tuples(),
            &[TimingTuple::new(vec![t(2), t(8), t(8), t(6), t(6)])]
        );
    }

    /// Models are conservative: for random arrival patterns the min–max
    /// stable time is never earlier than the true functional delay.
    #[test]
    fn model_is_conservative_vs_flat() {
        use crate::delay::DelayAnalyzer;
        let nl = carry_skip_block(2, CsaDelays::default());
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        let patterns: Vec<Vec<Time>> = vec![
            vec![t(0); 5],
            vec![t(8), t(0), t(0), t(0), t(0)],
            vec![t(5), t(0), t(0), t(0), t(0)],
            vec![t(0), t(3), t(1), t(-2), t(7)],
            vec![t(-4), t(2), t(2), t(9), t(0)],
        ];
        for arrivals in patterns {
            let mut flat = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
            for (k, &out) in nl.outputs().iter().enumerate() {
                let exact = flat.output_arrival(out);
                let modeled = models[k].stable_time(&arrivals);
                assert!(
                    modeled >= exact,
                    "model optimistic for {} under {:?}: {} < {}",
                    nl.net_name(out),
                    arrivals,
                    modeled,
                    exact
                );
            }
        }
    }

    /// The AND-gate warm-up: the vector-independent approximate model
    /// cannot drop either input (the paper's incomparable tuples are
    /// per-vector), so it equals topological.
    #[test]
    fn and_gate_approximate_model() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(models[0].tuples(), &[TimingTuple::new(vec![t(1), t(1)])]);
    }

    /// An input that is functionally irrelevant relaxes to −∞.
    #[test]
    fn irrelevant_input_dropped() {
        // z = Mux(s, a, a): s is irrelevant (consensus).
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, a], z, 2).unwrap();
        nl.mark_output(z);
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(
            models[0].tuples(),
            &[TimingTuple::new(vec![Time::NEG_INF, t(2)])]
        );
    }

    #[test]
    fn constant_output_has_all_neg_inf() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], z, 1).unwrap();
        nl.mark_output(z);
        let models = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(models[0].tuples(), &[TimingTuple::new(vec![Time::NEG_INF])]);
    }

    #[test]
    fn checks_are_counted() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let config = AnalysisConfig::default();
        let mut ch = Characterizer::new(&nl, &config);
        let c_out = nl.find_net("c_out").unwrap();
        let _ = ch.output_model(c_out).unwrap();
        assert!(ch.checks() > 0);
    }

    /// A zero budget degrades every solver-dependent relaxation: the
    /// models collapse to their topological tuples (still sound) and
    /// the degradation is counted.
    #[test]
    fn zero_budget_degrades_to_topological() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let config =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(0));
        let (models, stats) = characterize_module_with_stats(&nl, &config).unwrap();
        assert!(stats.budget_hits > 0, "{stats:?}");
        assert!(stats.degraded > 0, "{stats:?}");
        // c_out loses the false-path refinement (2 → 6 on the c_in pin)
        // but keeps the sound topological tuple.
        let cout = &models[2];
        assert_eq!(
            cout.tuples(),
            &[TimingTuple::new(vec![t(6), t(8), t(8), t(6), t(6)])]
        );
        // Budgeted models are conservative versus the exact ones.
        let exact = characterize_module(&nl, &AnalysisConfig::default()).unwrap();
        let patterns: Vec<Vec<Time>> = vec![
            vec![t(0); 5],
            vec![t(8), t(0), t(0), t(0), t(0)],
            vec![t(0), t(3), t(1), t(-2), t(7)],
        ];
        for arrivals in &patterns {
            for (m, e) in models.iter().zip(&exact) {
                assert!(m.stable_time(arrivals) >= e.stable_time(arrivals));
            }
        }
        // An unlimited budget leaves the results and counters untouched.
        let (unbudgeted, s) =
            characterize_module_with_stats(&nl, &AnalysisConfig::default()).unwrap();
        assert_eq!(unbudgeted, exact);
        assert_eq!(s.budget_hits, 0);
        assert_eq!(s.degraded, 0);
    }

    /// Renamed copies of a module share every characterization through
    /// the signature cache, bit-identically to fresh analysis.
    #[test]
    fn signature_cache_shares_across_copies_bit_identically() {
        let a = carry_skip_block(2, CsaDelays::default());
        let mut b = carry_skip_block(2, CsaDelays::default());
        b.set_name("renamed_copy");
        let opts = &AnalysisConfig::default();
        let mut cache = ConeSigCache::new();
        let (ma, _, owners_a) = characterize_module_cached(&a, opts, &mut cache).unwrap();
        let (mb, sb, owners_b) = characterize_module_cached(&b, opts, &mut cache).unwrap();
        assert_eq!(ma, characterize_module(&a, opts).unwrap());
        assert_eq!(mb, characterize_module(&b, opts).unwrap());
        // The three output cones of the block are structurally distinct,
        // so the first module misses three times and the copy hits three
        // times, each hit crediting the original module.
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
        assert!(owners_a.iter().all(Option::is_none));
        assert_eq!(sb.cone_sig_hits, 3);
        assert!(owners_b.iter().all(|o| o.as_deref() == Some(a.name())));
        // Turning the toggle off bypasses the cache entirely.
        let off = AnalysisConfig::default().with_cone_sig(false);
        let mut cold = ConeSigCache::new();
        let (moff, soff, _) = characterize_module_cached(&b, &off, &mut cold).unwrap();
        assert_eq!(moff, mb);
        assert_eq!((cold.hits(), cold.misses()), (0, 0));
        assert_eq!(soff.cone_sig_hits + soff.cone_sig_misses, 0);
    }

    /// Under a limited budget only verbatim-identical cones (modulo
    /// names) may share: solver heuristics depend on clause order, so a
    /// merely isomorphic cone could exhaust the budget differently.
    #[test]
    fn limited_budget_restricts_sharing_to_verbatim_cones() {
        let aoi = |order: &[&str]| {
            let mut nl = Netlist::new(format!("aoi_{}", order.join("")));
            let mut ids = std::collections::HashMap::new();
            for &n in order {
                ids.insert(n, nl.add_input(n));
            }
            let t = nl.add_net("t");
            let z = nl.add_net("z");
            nl.add_gate(GateKind::And, &[ids["a"], ids["b"]], t, 2)
                .unwrap();
            nl.add_gate(GateKind::Or, &[t, ids["c"]], z, 3).unwrap();
            nl.mark_output(z);
            nl
        };
        let base = aoi(&["a", "b", "c"]);
        let permuted = aoi(&["c", "a", "b"]);

        // Unlimited budget: the permuted isomorph shares.
        let opts = &AnalysisConfig::default();
        let mut cache = ConeSigCache::new();
        let _ = characterize_module_cached(&base, opts, &mut cache).unwrap();
        let (mp, _, _) = characterize_module_cached(&permuted, opts, &mut cache).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(mp, characterize_module(&permuted, opts).unwrap());

        // Limited budget: the permuted isomorph must re-run, a verbatim
        // renamed copy may still share.
        let tight =
            AnalysisConfig::default().with_budget(SolveBudget::default().with_conflicts(1_000_000));
        let mut cache = ConeSigCache::new();
        let _ = characterize_module_cached(&base, &tight, &mut cache).unwrap();
        let _ = characterize_module_cached(&permuted, &tight, &mut cache).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let mut copy = aoi(&["a", "b", "c"]);
        copy.set_name("copy");
        let _ = characterize_module_cached(&copy, &tight, &mut cache).unwrap();
        assert_eq!(cache.hits(), 1);
    }

    /// max_tuples = 1 reproduces the paper's single-tuple models.
    #[test]
    fn single_pass_option() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let config = AnalysisConfig::default().with_max_tuples(1);
        let models = characterize_module(&nl, &config).unwrap();
        for m in &models {
            assert_eq!(m.tuples().len(), 1);
        }
    }
}
