//! Topological analysis under *known false pin pairs* — the
//! Belkhale & Suess approach (reference \[1\] of the paper), plus the
//! automation the paper proposes.
//!
//! Belkhale & Suess assume designers declare which subgraphs are false
//! and run topological analysis excluding them. The paper's critique:
//! "the falsity of a subgraph is in many cases relative to arrival
//! times at primary inputs. Characterizing manually the correct
//! condition … is error-prone. Our approach can be thought of as a way
//! of automating this process."
//!
//! This module implements both halves:
//!
//! * [`arrivals_with_declared_delays`] — topological propagation where
//!   declared (input, output) pin pairs carry a *tighter declared
//!   delay* instead of their longest topological path (declaring a pair
//!   completely false sets its delay to `−∞`);
//! * [`derive_declared_delays`] — derives those declarations
//!   automatically from functional characterization, so the declared
//!   set is provably safe (each declared delay comes from a validated
//!   timing tuple).

use std::collections::HashMap;

use hfta_netlist::{NetId, Netlist, NetlistError, Time};

use crate::config::AnalysisConfig;
use crate::required::Characterizer;
use crate::sta::TopoSta;

/// A set of declared pin-to-pin delays overriding topological ones.
///
/// Keys are `(primary input, primary output)` pairs; a value of
/// [`Time::NEG_INF`] declares the pair completely false.
pub type DeclaredDelays = HashMap<(NetId, NetId), Time>;

/// Per-output arrival times by topological analysis with declared
/// pin-pair delays.
///
/// For each output the arrival is `max_i (a_i + d_i)` where `d_i` is
/// the declared delay if present, the longest topological path
/// otherwise. **Soundness is the caller's responsibility** — this is
/// the Belkhale–Suess trust model; pair it with
/// [`derive_declared_delays`] for declarations that are guaranteed
/// safe.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
///
/// # Panics
///
/// Panics if `pi_arrivals.len()` differs from the input count.
pub fn arrivals_with_declared_delays(
    netlist: &Netlist,
    pi_arrivals: &[Time],
    declared: &DeclaredDelays,
) -> Result<Vec<Time>, NetlistError> {
    assert_eq!(
        pi_arrivals.len(),
        netlist.inputs().len(),
        "arrival vector length mismatch"
    );
    let sta = TopoSta::new(netlist)?;
    let mut result = Vec::with_capacity(netlist.outputs().len());
    for &out in netlist.outputs() {
        let long = sta.longest_to(out);
        let mut worst = Time::NEG_INF;
        for (k, &pi) in netlist.inputs().iter().enumerate() {
            let d = declared
                .get(&(pi, out))
                .copied()
                .unwrap_or(long[pi.index()]);
            if d == Time::NEG_INF {
                continue;
            }
            let term = if pi_arrivals[k] == Time::POS_INF {
                Time::POS_INF
            } else {
                pi_arrivals[k] + d
            };
            worst = worst.max(term);
        }
        result.push(worst);
    }
    Ok(result)
}

/// Automatically derives safe declared delays: every (input, output)
/// pair whose *functional* effective delay (from a validated timing
/// tuple) is tighter than its topological delay gets a declaration.
///
/// This is the paper's "automating this process": the output feeds
/// [`arrivals_with_declared_delays`] and is conservative by
/// construction.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
pub fn derive_declared_delays(
    netlist: &Netlist,
    config: &AnalysisConfig,
) -> Result<DeclaredDelays, NetlistError> {
    let sta = TopoSta::new(netlist)?;
    let mut ch = Characterizer::new(netlist, config);
    let mut declared = DeclaredDelays::new();
    for &out in netlist.outputs() {
        let long = sta.longest_to(out);
        let model = ch.output_model(out)?;
        // The per-pin maximum over the model's tuples is a safe
        // pin-pair bound: every tuple is jointly valid, so the
        // component-wise max of any single tuple is valid per pin —
        // here we use the FIRST (most relaxed overall) tuple's delays
        // but take the max across tuples per pin to stay safe when the
        // model holds incomparable tuples.
        for (k, &pi) in netlist.inputs().iter().enumerate() {
            let pin_delay = model
                .tuples()
                .iter()
                .map(|t| t.delay(k))
                .fold(Time::NEG_INF, Time::max);
            if pin_delay < long[pi.index()] {
                declared.insert((pi, out), pin_delay);
            }
        }
    }
    Ok(declared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayAnalyzer;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn manual_declaration_tightens_estimate() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_in = nl.find_net("c_in").unwrap();
        let c_out = nl.find_net("c_out").unwrap();
        // Designer knowledge: c_in→c_out is effectively 2 (skip mux).
        let mut declared = DeclaredDelays::new();
        declared.insert((c_in, c_out), t(2));
        // arr(c_in)=5, others 0: plain topological says 11; declared
        // analysis says 8, matching flat functional analysis.
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let plain = arrivals_with_declared_delays(&nl, &arrivals, &DeclaredDelays::new()).unwrap();
        let with = arrivals_with_declared_delays(&nl, &arrivals, &declared).unwrap();
        assert_eq!(plain[2], t(11));
        assert_eq!(with[2], t(8));
    }

    #[test]
    fn derived_declarations_match_functional_analysis() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let declared = derive_declared_delays(&nl, &AnalysisConfig::default()).unwrap();
        let c_in = nl.find_net("c_in").unwrap();
        let c_out = nl.find_net("c_out").unwrap();
        assert_eq!(declared.get(&(c_in, c_out)), Some(&t(2)));
        // Using the derived set reproduces the Figure 5 result…
        let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];
        let with = arrivals_with_declared_delays(&nl, &arrivals, &declared).unwrap();
        assert_eq!(with[2], t(8));
        // …and stays conservative under other skews.
        for skew in [vec![t(0); 5], vec![t(9), t(1), t(0), t(4), t(0)]] {
            let est = arrivals_with_declared_delays(&nl, &skew, &declared).unwrap();
            let mut flat = DelayAnalyzer::new_sat(&nl, &skew).unwrap();
            for (k, &out) in nl.outputs().iter().enumerate() {
                assert!(
                    est[k] >= flat.output_arrival(out),
                    "output {k} skew {skew:?}"
                );
            }
        }
    }

    #[test]
    fn false_declaration_drops_pin() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let c_in = nl.find_net("c_in").unwrap();
        let c_out = nl.find_net("c_out").unwrap();
        let mut declared = DeclaredDelays::new();
        declared.insert((c_in, c_out), Time::NEG_INF);
        // Even an infinitely-late c_in no longer affects c_out.
        let arrivals = vec![t(1000), t(0), t(0), t(0), t(0)];
        let with = arrivals_with_declared_delays(&nl, &arrivals, &declared).unwrap();
        assert_eq!(with[2], t(8));
    }

    #[test]
    fn empty_declarations_equal_topological() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let arrivals = vec![t(0); 5];
        let est = arrivals_with_declared_delays(&nl, &arrivals, &DeclaredDelays::new()).unwrap();
        let sta = TopoSta::new(&nl).unwrap();
        let topo = sta.arrival_times(&arrivals);
        for (k, &out) in nl.outputs().iter().enumerate() {
            assert_eq!(est[k], topo[out.index()]);
        }
    }
}
