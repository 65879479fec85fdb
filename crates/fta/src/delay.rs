//! Exact XBD0 delay computation (flat functional timing analysis).
//!
//! This is the paper's comparator `[6]`: given a flat netlist and
//! primary-input arrival times, compute for each output the earliest
//! time it is guaranteed stable under the XBD0 model. Monotone speedup
//! makes stability monotone in `t`, so each delay is a search over
//! integer times between a time at which the net is proved unstable
//! and one at which it is proved stable, every probe answered by the
//! [`StabilityAnalyzer`]. Two things keep the probes few and cheap:
//!
//! * **Witness-bounded start.** On first need the analyzer simulates
//!   64 fixed-seed random input vectors through the
//!   floating-mode evaluator [`sim::floating_settle_times`], which
//!   shares no code with the stability recursion. An output's latest
//!   simulated settle time `L` is a lower bound on its delay — but it
//!   is only *used* after the backend confirms, under that very
//!   vector, that the net is unstable at `L − 1`. The search then
//!   starts there instead of at the earliest conceivable event,
//!   skipping the expensive "unstable" probes far below the answer.
//! * **Best-first circuit delay.** [`DelayAnalyzer::circuit_delay`]
//!   visits outputs by decreasing topological arrival and tests each
//!   later one once at the running maximum: an output stable there
//!   cannot raise the maximum and is skipped.
//!
//! Every bound the search moves on is proved by the backend (or is the
//! topological arrival), so delays do not depend on the simulation; a
//! wrong or unlucky vector can only cost probes.

use hfta_netlist::{sim, NetId, Netlist, NetlistError, Time};
use hfta_sat::SolveBudget;

use crate::boolalg::{BoolAlg, SatAlg};
use crate::sta::TopoSta;
use crate::stability::{StabilityAnalyzer, StabilityStats};

/// Random input vectors simulated per analyzer for the search's
/// starting bounds.
const HINT_VECTORS: usize = 64;

/// Seed of the hint vectors: fixed, so the probe sequence of an
/// analysis is reproducible.
const HINT_SEED: u64 = 0x5eed_ba5e_d1a7_0001;

/// The verdict on a net at the floor of its delay search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Floor {
    /// Proved stable at the floor.
    Stable,
    /// Proved unstable at this time, at or above the floor.
    Unstable(i64),
    /// The budget ran out.
    Undecided,
}

impl Floor {
    /// The floor verdict of a budgeted stability probe at `t`.
    #[must_use]
    pub fn probed(t: i64, stable: Option<bool>) -> Floor {
        match stable {
            Some(true) => Floor::Stable,
            Some(false) => Floor::Unstable(t),
            None => Floor::Undecided,
        }
    }
}

/// How the XBD0 delay search of one net begins; see [`start_search`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchStart {
    /// Decided without bisection.
    Arrival(Time),
    /// Proved unstable at this time: the arrival lies above it.
    Above(i64),
    /// The budget ran out: report the topological arrival.
    Degraded,
}

/// Begins the XBD0 delay search of a net whose topological arrival is
/// `topo` and whose earliest finite event is `first_event` (see
/// [`first_events`]); `decide(floor)` returns the net's [`Floor`]
/// verdict at `floor`.
///
/// Below the first event the stability predicate is constant, so the
/// net is stable from the beginning of time exactly when it is stable
/// at `first_event − 1`. When no finite event reaches the net at all,
/// stability is the same at every finite time, so one verdict at 0
/// decides between `−∞` and `+∞` — the topological bound is not exact
/// there, since a late input can still be masked.
pub fn start_search(
    topo: Time,
    first_event: Time,
    decide: impl FnOnce(i64) -> Floor,
) -> SearchStart {
    let (floor, events) = match first_event.finite() {
        Some(first) => (first - 1, true),
        None if topo == Time::NEG_INF => return SearchStart::Arrival(topo),
        None => (0, false),
    };
    match decide(floor) {
        Floor::Stable => SearchStart::Arrival(Time::NEG_INF),
        Floor::Unstable(lo) if events => SearchStart::Above(lo),
        Floor::Unstable(_) => SearchStart::Arrival(Time::POS_INF),
        Floor::Undecided => SearchStart::Degraded,
    }
}

/// Earliest finite event per net: the min over finite-arrival support
/// inputs of (arrival + shortest path), `POS_INF` where no finite event
/// reaches the net.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `pi_arrivals.len()` differs from the input count.
pub fn first_events(netlist: &Netlist, pi_arrivals: &[Time]) -> Result<Vec<Time>, NetlistError> {
    let mut first = vec![Time::POS_INF; netlist.net_count()];
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        if pi_arrivals[k].is_finite() {
            first[pi.index()] = pi_arrivals[k];
        }
    }
    for &g in &netlist.topo_gates()? {
        let gate = netlist.gate(g);
        let best = gate
            .inputs
            .iter()
            .map(|n| first[n.index()])
            .fold(Time::POS_INF, Time::min);
        if best != Time::POS_INF {
            first[gate.output.index()] = best + Time::from(gate.delay);
        }
    }
    Ok(first)
}

/// Functional (XBD0) delay analysis of one netlist under fixed arrival
/// times.
///
/// # Example
///
/// ```
/// use hfta_fta::DelayAnalyzer;
/// use hfta_netlist::gen::{carry_skip_block, CsaDelays};
/// use hfta_netlist::Time;
///
/// # fn main() -> Result<(), hfta_netlist::NetlistError> {
/// let block = carry_skip_block(2, CsaDelays::default());
/// let arrivals = vec![Time::ZERO; 5];
/// let mut an = DelayAnalyzer::new_sat(&block, &arrivals)?;
/// // With all inputs at 0 the skip mux hides the long ripple path:
/// // c_out settles at 8 topologically… and functionally too for this
/// // arrival pattern (a0/b0 are critical), matching the paper.
/// let c_out = block.find_net("c_out").expect("exists");
/// assert_eq!(an.output_arrival(c_out), Time::new(8));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DelayAnalyzer<'a, A: BoolAlg> {
    stability: StabilityAnalyzer<'a, A>,
    sta: TopoSta<'a>,
    topo_arrival: Vec<Time>,
    /// Earliest finite event per net: min over finite-arrival support
    /// inputs of (arrival + shortest path). `POS_INF` when no finite
    /// events reach the net.
    first_event: Vec<Time>,
    /// Outputs whose search was abandoned by the budget and reported
    /// at their (sound) topological arrival.
    degraded: u64,
    /// Simulated lower bounds, built on the first search that needs
    /// them (construction stays free of simulation).
    hints: Option<sim::SampledSettle>,
}

impl<'a> DelayAnalyzer<'a, SatAlg> {
    /// Convenience constructor with the default SAT backend, which runs
    /// in shared-solver mode ([`SatAlg::new_shared`]): every stability
    /// probe of the netlist goes through one incremental SAT instance,
    /// and each solve searches only the probed net's transitive-fanin
    /// domain — it decides and propagates nothing outside it above
    /// decision level 0 — with subsumption inprocessing between
    /// probes. Arrivals and verdicts are bit-identical to a fresh
    /// solver per probe; budgeted callers that need degradations to
    /// match the isolated backend exactly pass [`SatAlg::new`] to
    /// [`DelayAnalyzer::new`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new_sat(netlist: &'a Netlist, pi_arrivals: &[Time]) -> Result<Self, NetlistError> {
        DelayAnalyzer::new(netlist, pi_arrivals, SatAlg::new_shared())
    }
}

impl<'a, A: BoolAlg> DelayAnalyzer<'a, A> {
    /// Prepares a delay analysis over backend `alg`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    ///
    /// # Panics
    ///
    /// Panics if `pi_arrivals.len()` differs from the input count.
    pub fn new(netlist: &'a Netlist, pi_arrivals: &[Time], alg: A) -> Result<Self, NetlistError> {
        let sta = TopoSta::new(netlist)?;
        let topo_arrival = sta.arrival_times(pi_arrivals);
        let first_event = first_events(netlist, pi_arrivals)?;
        let stability = StabilityAnalyzer::new(netlist, pi_arrivals, alg)?;
        Ok(DelayAnalyzer {
            stability,
            sta,
            topo_arrival,
            first_event,
            degraded: 0,
            hints: None,
        })
    }

    /// Sets the per-query resource budget. When a stability probe runs
    /// out of budget, [`DelayAnalyzer::output_arrival`] reports that
    /// output at its topological arrival — always a sound upper bound
    /// under XBD0 — and counts it in [`StabilityStats::degraded`].
    /// Unlimited by default.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.stability.set_budget(budget);
    }

    /// Access to the Boolean backend (e.g. for episode recording).
    pub fn alg_mut(&mut self) -> &mut A {
        self.stability.alg_mut()
    }

    /// The earliest time `net` is guaranteed stable under XBD0.
    ///
    /// Returns [`Time::NEG_INF`] for nets stable from the beginning of
    /// time (constant cones, or cones fed only by `−∞` arrivals) and
    /// [`Time::POS_INF`] for nets that never stabilize (cones depending
    /// on inputs that never arrive).
    pub fn output_arrival(&mut self, net: NetId) -> Time {
        let topo = self.topo_arrival[net.index()];
        let first = self.first_event[net.index()];
        match start_search(topo, first, |floor| self.probe_floor(net, floor)) {
            SearchStart::Arrival(t) => t,
            SearchStart::Above(lo) => self.search_above(net, lo),
            SearchStart::Degraded => self.degrade(topo),
        }
    }

    /// Decides `net` at `floor`: stable there, or proved unstable at
    /// some `lo ≥ floor` — by a confirmed hint when one reaches that
    /// high, else by a probe at `floor` itself.
    fn probe_floor(&mut self, net: NetId, floor: i64) -> Floor {
        if let Some(lo) = self.confirmed_hint(net, floor) {
            return Floor::Unstable(lo);
        }
        Floor::probed(
            floor,
            self.stability.try_is_stable_at(net, Time::new(floor)),
        )
    }

    /// The earliest stable time of `net`, given that it is proved
    /// unstable at `lo`. Bisects between `lo` and the topological
    /// arrival (or, when that is `+∞`, the latest finite event).
    fn search_above(&mut self, net: NetId, lo: i64) -> Time {
        let topo = self.topo_arrival[net.index()];
        let hi = match topo.finite() {
            Some(h) => h,
            None => {
                debug_assert_eq!(topo, Time::POS_INF);
                // Some arrivals are +∞. Probe the latest finite event:
                // if unstable there, the net needs the missing inputs.
                let hi = self.latest_finite_event(net);
                if lo >= hi {
                    return Time::POS_INF;
                }
                match self.stability.try_is_stable_at(net, Time::new(hi)) {
                    Some(true) => hi,
                    Some(false) => return Time::POS_INF,
                    None => return self.degrade(topo),
                }
            }
        };
        // Invariant: proved unstable at lo, stable at hi.
        let (mut lo, mut hi) = (lo, hi);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match self.stability.try_is_stable_at(net, Time::new(mid)) {
                Some(true) => hi = mid,
                Some(false) => lo = mid,
                // Budget gone mid-search: abandon the refinement and
                // report the topological arrival (≥ the true answer).
                None => return self.degrade(topo),
            }
        }
        Time::new(hi)
    }

    /// `L − 1`, where `L` is the latest settle time of `net` over the
    /// hint vectors, once the backend confirms the net is unstable at
    /// `L − 1` under the vector reaching it. `None` — leaving the
    /// caller's bound alone — when `L − 1 < floor`, when `L` is not
    /// finite, or when the confirmation is rejected or runs out of
    /// budget.
    fn confirmed_hint(&mut self, net: NetId, floor: i64) -> Option<i64> {
        let stability = &mut self.stability;
        let hints = self.hints.get_or_insert_with(|| {
            sim::sampled_floating_settle(
                stability.netlist(),
                stability.arrivals(),
                HINT_VECTORS,
                HINT_SEED,
            )
            .expect("acyclicity checked at construction")
        });
        let (latest, k) = hints.latest[net.index()];
        let bound = latest.finite()? - 1;
        if bound < floor {
            return None;
        }
        let confirmed =
            stability.try_is_unstable_under(net, Time::new(bound), &hints.vectors[k]) == Some(true);
        confirmed.then_some(bound)
    }

    fn degrade(&mut self, topo: Time) -> Time {
        self.degraded += 1;
        topo
    }

    /// Latest finite event reaching `net`: max over finite-arrival
    /// support inputs of (arrival + longest path).
    fn latest_finite_event(&self, net: NetId) -> i64 {
        let netlist = self.stability.netlist();
        let long = self.sta.longest_to(net);
        let mut latest = i64::MIN / 4;
        for (k, &pi) in netlist.inputs().iter().enumerate() {
            if let (Some(a), Some(d)) = (
                self.stability.arrivals()[k].finite(),
                long[pi.index()].finite(),
            ) {
                latest = latest.max(a + d);
            }
        }
        latest
    }

    /// Functional arrival time of every primary output, in output
    /// order.
    pub fn output_arrivals(&mut self) -> Vec<Time> {
        let outputs: Vec<NetId> = self.stability.netlist().outputs().to_vec();
        outputs
            .into_iter()
            .map(|o| self.output_arrival(o))
            .collect()
    }

    /// The circuit's functional delay: the latest output arrival.
    ///
    /// Outputs are visited in decreasing topological arrival order. The
    /// first is searched in full; every later one is tested once at the
    /// running maximum `best` — stable there, it cannot raise the
    /// maximum and is skipped; otherwise only `(best, topo]` is
    /// searched. Once no topological bound exceeds `best` the rest are
    /// skipped outright.
    pub fn circuit_delay(&mut self) -> Time {
        let mut outputs: Vec<NetId> = self.stability.netlist().outputs().to_vec();
        outputs.sort_by(|a, b| self.topo_arrival[b.index()].cmp(&self.topo_arrival[a.index()]));
        let mut best = Time::NEG_INF;
        for o in outputs {
            let topo = self.topo_arrival[o.index()];
            if topo <= best {
                break; // sorted: nothing later can beat `best`
            }
            // An output with no finite events is decided by one probe
            // in `output_arrival`; the rest are decided at `best`.
            let arrival = match best.finite() {
                Some(b) if self.first_event[o.index()].is_finite() => {
                    match self.probe_floor(o, b) {
                        Floor::Stable => continue,
                        Floor::Unstable(lo) => self.search_above(o, lo),
                        Floor::Undecided => self.degrade(topo),
                    }
                }
                _ => self.output_arrival(o),
            };
            best = best.max(arrival);
        }
        best
    }

    /// Stability probe (exposed for the refinement algorithms).
    pub fn is_stable_at(&mut self, net: NetId, t: Time) -> bool {
        self.stability.is_stable_at(net, t)
    }

    /// An input vector sensitizing a *true* critical path of `net`: a
    /// vector under which the net is still unsettled one time unit
    /// before its functional arrival. Returns `None` for nets that are
    /// stable from the beginning of time.
    pub fn sensitizing_vector(&mut self, net: NetId) -> Option<Vec<bool>> {
        let arrival = self.output_arrival(net);
        let probe = arrival.finite()?;
        self.stability
            .instability_witness(net, Time::new(probe - 1))
    }

    /// Work counters of the underlying stability analyzer, with this
    /// analyzer's degraded-output count folded in.
    #[must_use]
    pub fn stats(&self) -> StabilityStats {
        let mut s = self.stability.stats();
        s.degraded += self.degraded;
        s
    }

    /// How many [`DelayAnalyzer::output_arrival`] calls so far were
    /// degraded to the topological arrival by the budget. Sample before
    /// and after a call to learn whether *that* output degraded.
    #[must_use]
    pub fn degraded_count(&self) -> u64 {
        self.degraded
    }
}

/// One-shot convenience: the functional circuit delay with all inputs
/// arriving at `t = 0`, using the SAT backend.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn functional_circuit_delay(netlist: &Netlist) -> Result<Time, NetlistError> {
    let arrivals = vec![Time::ZERO; netlist.inputs().len()];
    let mut an = DelayAnalyzer::new_sat(netlist, &arrivals)?;
    Ok(an.circuit_delay())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolalg::BddAlg;
    use hfta_netlist::gen::{
        carry_skip_adder_flat, carry_skip_block, ripple_carry_adder, CsaDelays,
    };
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn simple_gate_delay() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Xor, &[a, b], z, 2).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(1), t(5)]).unwrap();
        assert_eq!(an.output_arrival(z), t(7));
    }

    /// Paper Section 4: the 2-bit block with all inputs at 0 — outputs
    /// stabilize at their topological times (s0: 4, s1: 6, c_out: 8).
    #[test]
    fn block_delays_all_zero_arrivals() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0); 5]).unwrap();
        let arr = an.output_arrivals();
        assert_eq!(arr, vec![t(4), t(6), t(8)]);
    }

    /// Paper Figure 5: under arr(c_in)=5, others 0, the delay of c_out
    /// is 8 (the c_in→c_out path is false), not the topological 11.
    #[test]
    fn figure5_skewed_arrivals() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(5), t(0), t(0), t(0), t(0)]).unwrap();
        assert_eq!(an.output_arrival(c_out), t(8));
        // Topological says 11.
        let sta = TopoSta::new(&nl).unwrap();
        let arr = sta.arrival_times(&[t(5), t(0), t(0), t(0), t(0)]);
        assert_eq!(arr[c_out.index()], t(11));
    }

    /// Paper Section 4 / Table 1: with all inputs at 0 the last carry
    /// of a B-block cascade settles at 2B + 6. The circuit-wide delay
    /// is dominated by the last *sum* bit instead: its block's carry-in
    /// arrives at 2B + 4 and feeds a 4-deep sum path, giving 2B + 8
    /// for B ≥ 2 (8 for the single block).
    #[test]
    fn cascade_flat_delay_formula() {
        for n in [2usize, 4, 6, 8] {
            let flat = carry_skip_adder_flat(n, 2, CsaDelays::default()).unwrap();
            let blocks = (n / 2) as i64;

            let arrivals = vec![t(0); flat.inputs().len()];
            let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).unwrap();
            let carry = flat.find_net(&format!("c{n}")).unwrap();
            assert_eq!(an.output_arrival(carry), t(2 * blocks + 6), "carry, n={n}");

            let delay = functional_circuit_delay(&flat).unwrap();
            let expect = if blocks == 1 { 8 } else { 2 * blocks + 8 };
            assert_eq!(delay, t(expect), "circuit, n={n}");
        }
    }

    /// The last carry output alone also follows 2·blocks + 6, and is
    /// *below* its topological arrival for ≥ 2 blocks (false paths).
    #[test]
    fn cascade_carry_output_beats_topological() {
        let flat = carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap();
        let c8 = flat.find_net("c8").unwrap();
        let arrivals = vec![t(0); flat.inputs().len()];
        let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).unwrap();
        let functional = an.output_arrival(c8);
        assert_eq!(functional, t(14)); // 2·4 + 6
        let sta = TopoSta::new(&flat).unwrap();
        let topo = sta.arrival_times(&arrivals)[c8.index()];
        assert!(topo > functional, "topo {topo} vs functional {functional}");
        // Longest path: a0 → c2 (8), then three ripple-through-block
        // segments of 6 each.
        assert_eq!(topo, t(26));
    }

    /// Ripple-carry adder has no false paths: functional == topological.
    #[test]
    fn ripple_carry_has_no_false_paths() {
        let nl = ripple_carry_adder(3, CsaDelays::default());
        let arrivals = vec![t(0); nl.inputs().len()];
        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let sta = TopoSta::new(&nl).unwrap();
        let topo = sta.arrival_times(&arrivals);
        for &out in nl.outputs() {
            assert_eq!(an.output_arrival(out), topo[out.index()]);
        }
    }

    #[test]
    fn constant_cone_is_neg_inf() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const0, &[], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0)]).unwrap();
        assert_eq!(an.output_arrival(z), Time::NEG_INF);
    }

    #[test]
    fn never_arriving_input_gives_pos_inf() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Xor, &[a, b], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0), Time::POS_INF]).unwrap();
        assert_eq!(an.output_arrival(z), Time::POS_INF);
    }

    #[test]
    fn masked_never_arriving_input_is_finite() {
        // z = AND(a, ā): constant 0 regardless of b…
        // Use Mux(s, a, a) with s never arriving: consensus masks s.
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Mux, &[s, a, a], z, 2).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[Time::POS_INF, t(3)]).unwrap();
        assert_eq!(an.output_arrival(z), t(5));
    }

    #[test]
    fn neg_inf_arrivals_can_make_output_always_stable() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Buf, &[a], z, 4).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[Time::NEG_INF]).unwrap();
        assert_eq!(an.output_arrival(z), Time::NEG_INF);
    }

    /// A zero budget degrades every solver-dependent output to its
    /// topological arrival — never below the true functional time.
    #[test]
    fn zero_budget_degrades_to_topological_arrival() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let mut exact = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let mut capped = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        capped.set_budget(SolveBudget::default().with_conflicts(0));
        // Figure 5: functional 8 vs topological 11.
        assert_eq!(exact.output_arrival(c_out), t(8));
        assert_eq!(capped.output_arrival(c_out), t(11));
        let s = capped.stats();
        assert!(s.degraded > 0, "{s:?}");
        assert!(s.budget_hits > 0, "{s:?}");
        // Every output stays sandwiched: functional ≤ budgeted ≤ topo.
        let sta = TopoSta::new(&nl).unwrap();
        let topo = sta.arrival_times(&arrivals);
        for &out in nl.outputs() {
            let b = capped.output_arrival(out);
            assert!(b >= exact.output_arrival(out));
            assert!(b <= topo[out.index()]);
        }
        // And the exact analyzer saw no budget activity.
        assert_eq!(exact.stats().degraded, 0);
        assert_eq!(exact.stats().budget_hits, 0);
    }

    /// A hint whose bound the net is actually stable at is rejected by
    /// the backend and leaves the delay untouched — in the output
    /// search and in the best-first circuit search alike.
    #[test]
    fn stable_hint_is_rejected_and_delay_unchanged() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = [t(5), t(0), t(0), t(0), t(0)];
        let mut exact = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let truth = exact.output_arrivals();
        let delay = exact.circuit_delay();
        // Claim each output settles one unit *after* its delay under the
        // all-zero vector: the bound (the delay itself) is a time the
        // output is stable at, so every confirmation must fail.
        let mut latest = vec![(Time::NEG_INF, 0); nl.net_count()];
        for (&o, &a) in nl.outputs().iter().zip(&truth) {
            latest[o.index()] = (a + t(1), 0);
        }
        let hints = || sim::SampledSettle {
            vectors: vec![vec![false; 5]],
            latest: latest.clone(),
        };

        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        an.hints = Some(hints());
        for &o in nl.outputs() {
            assert_eq!(an.confirmed_hint(o, i64::MIN), None, "{}", nl.net_name(o));
        }
        assert_eq!(an.output_arrivals(), truth);
        // Figure 5: c_out settles by 8 (topologically 11), and its
        // injected bound 8 lies below the topological arrival, so the
        // backend itself rejected it.
        let c_out = nl.find_net("c_out").unwrap();
        assert_eq!(an.output_arrival(c_out), t(8));

        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        an.hints = Some(hints());
        assert_eq!(an.circuit_delay(), delay);
    }

    /// The simulated hints are confirmed on a circuit with false paths,
    /// and the probe sequence depends only on backend verdicts: the
    /// isolated and the shared SAT backend issue exactly the same
    /// stability and SAT queries.
    #[test]
    fn probe_sequence_is_the_same_under_isolated_and_shared_sat() {
        let circuits = [
            carry_skip_adder_flat(8, 2, CsaDelays::default()).unwrap(),
            carry_skip_block(2, CsaDelays::default()),
            ripple_carry_adder(4, CsaDelays::default()),
        ];
        for nl in &circuits {
            let arrivals: Vec<Time> = (0..nl.inputs().len() as i64).map(|k| t(k % 3)).collect();
            let mut isolated = DelayAnalyzer::new(nl, &arrivals, SatAlg::new()).unwrap();
            let mut shared = DelayAnalyzer::new(nl, &arrivals, SatAlg::new_shared()).unwrap();
            assert_eq!(isolated.circuit_delay(), shared.circuit_delay());
            assert_eq!(isolated.output_arrivals(), shared.output_arrivals());
            let (i, s) = (isolated.stats(), shared.stats());
            assert_eq!(i.queries, s.queries, "{}", nl.name());
            assert_eq!(i.sat_queries, s.sat_queries, "{}", nl.name());
            // Every output with a finite simulated bound has it
            // confirmed, identically by both backends.
            let mut confirmed = 0;
            for &o in nl.outputs() {
                let hint = isolated.confirmed_hint(o, i64::MIN);
                assert_eq!(hint, shared.confirmed_hint(o, i64::MIN));
                let simulated = isolated.hints.as_ref().unwrap().latest[o.index()].0;
                assert_eq!(hint.is_some(), simulated.is_finite(), "{}", nl.name());
                confirmed += usize::from(hint.is_some());
            }
            assert!(confirmed > 0, "{}", nl.name());
        }
    }

    #[test]
    fn bdd_backend_matches_sat_backend() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = vec![t(7), t(0), t(2), t(1), t(0)];
        let mut sat = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        let mut bdd = DelayAnalyzer::new(&nl, &arrivals, BddAlg::new()).unwrap();
        assert_eq!(sat.output_arrivals(), bdd.output_arrivals());
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::boolalg::BddAlg;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};
    use hfta_netlist::GateKind;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn and_gate_witness() {
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::And, &[a, b], z, 2).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0), t(0)]).unwrap();
        // Arrival is 2; every vector is unsettled at 1.
        let w = an.sensitizing_vector(z).unwrap();
        assert_eq!(w.len(), 2);
        // Stable at the arrival itself: no witness.
        assert!(an
            .is_stable_at(z, t(2))
            .then(|| an.stability.instability_witness(z, t(2)))
            .unwrap()
            .is_none());
    }

    #[test]
    fn carry_skip_witness_avoids_skip_condition() {
        // With only c_in late, the unsettled vectors just before the
        // functional arrival (2) must include the skip condition
        // p0 = p1 = 1 — the path c_in actually drives.
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
        let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).unwrap();
        assert_eq!(an.output_arrival(c_out), t(2));
        let w = an.sensitizing_vector(c_out).unwrap();
        // Inputs: c_in a0 b0 a1 b1. p_i = a_i XOR b_i must be 1.
        assert_ne!(w[1], w[2], "p0 = 1 in witness {w:?}");
        assert_ne!(w[3], w[4], "p1 = 1 in witness {w:?}");
    }

    #[test]
    fn witness_none_for_constant_cone() {
        let mut nl = Netlist::new("m");
        let _a = nl.add_input("a");
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Const1, &[], z, 1).unwrap();
        nl.mark_output(z);
        let mut an = DelayAnalyzer::new_sat(&nl, &[t(0)]).unwrap();
        assert!(an.sensitizing_vector(z).is_none());
    }

    #[test]
    fn bdd_backend_also_produces_witnesses() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_out = nl.find_net("c_out").unwrap();
        let arrivals = vec![t(0), t(-10), t(-10), t(-10), t(-10)];
        let mut an = DelayAnalyzer::new(&nl, &arrivals, BddAlg::new()).unwrap();
        let w = an.sensitizing_vector(c_out).unwrap();
        assert_ne!(w[1], w[2]);
        assert_ne!(w[3], w[4]);
    }
}
