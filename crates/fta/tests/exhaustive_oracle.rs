//! Exhaustive ground truth for the XBD0 delay search: on random
//! netlists with at most 12 inputs, every output's functional arrival
//! must equal the latest settle time over all `2^n` input vectors of the
//! floating-mode evaluator `hfta_netlist::sim::floating_settle_times`.
//!
//! The evaluator applies the per-gate floating-mode rules to one vector
//! at a time and shares no code with the characteristic-function
//! recursion in `stability.rs`, so agreement here is an independent
//! check of every backend (isolated SAT, shared SAT and BDD) and of the
//! search built on them — including the hint vectors it simulates.

use hfta_fta::{BddAlg, BoolAlg, DelayAnalyzer, SatAlg};
use hfta_netlist::{sim, GateKind, NetId, Netlist, Time};
use hfta_testkit::{prop, vec_of, Rng};

const MAX_INPUTS: usize = 12;

/// A random netlist over every gate kind, with delays 0..=3, repeated
/// fanins allowed (e.g. `Mux(s, a, a)`) and every fanout-free gate
/// output marked as a primary output, plus a few inner nets.
fn random_netlist(seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut rng = Rng::seed_from_u64(seed);
    let mut nl = Netlist::new("oracle");
    let mut pool: Vec<NetId> = (0..inputs).map(|i| nl.add_input(format!("i{i}"))).collect();
    for g in 0..gates {
        let kind = *rng.choose(GateKind::all());
        let fanin = match kind {
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => rng.gen_range(2..5),
            _ => kind.arity().0,
        };
        let ins: Vec<NetId> = (0..fanin)
            .map(|_| {
                // Mostly recent nets, for depth and reconvergence.
                let window = pool.len().min(6);
                if rng.gen_bool(0.7) {
                    pool[pool.len() - 1 - rng.gen_range(0..window)]
                } else {
                    *rng.choose(&pool)
                }
            })
            .collect();
        let out = nl.add_net(format!("g{g}"));
        nl.add_gate(kind, &ins, out, rng.gen_range(0u32..4))
            .expect("arity drawn from the kind");
        pool.push(out);
    }
    let fanouts = nl.fanouts();
    let outputs: Vec<NetId> = nl
        .net_ids()
        .filter(|&n| {
            nl.driver(n).is_some() && (fanouts[n.index()].is_empty() || rng.gen_bool(0.15))
        })
        .collect();
    for o in outputs {
        nl.mark_output(o);
    }
    nl
}

/// Arrival codes: the two lowest mean `−∞`, the two highest `+∞`.
fn arrival_of(code: i64) -> Time {
    match code {
        ..=-7 => Time::NEG_INF,
        14.. => Time::POS_INF,
        c => Time::new(c),
    }
}

/// The latest floating-mode settle time of every net over all vectors.
fn exhaustive_worst(nl: &Netlist, arrivals: &[Time]) -> Vec<Time> {
    let n = nl.inputs().len();
    let mut worst = vec![Time::NEG_INF; nl.net_count()];
    for v in 0u32..1 << n {
        let vector: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
        let settle = sim::floating_settle_times(nl, arrivals, &vector).expect("acyclic");
        for (w, &s) in worst.iter_mut().zip(&settle) {
            *w = (*w).max(s);
        }
    }
    worst
}

/// Checks one backend against the exhaustive maximum: every output
/// arrival, then the circuit delay on a fresh analyzer (so the
/// best-first search runs from scratch).
fn check_backend<A: BoolAlg>(
    nl: &Netlist,
    arrivals: &[Time],
    worst: &[Time],
    make: impl Fn() -> A,
    label: &str,
) {
    let mut an = DelayAnalyzer::new(nl, arrivals, make()).expect("acyclic");
    let mut latest = Time::NEG_INF;
    for &o in nl.outputs() {
        let got = an.output_arrival(o);
        assert_eq!(
            got,
            worst[o.index()],
            "{label}: output {} under {arrivals:?}",
            nl.net_name(o)
        );
        latest = latest.max(got);
    }
    let mut fresh = DelayAnalyzer::new(nl, arrivals, make()).expect("acyclic");
    assert_eq!(fresh.circuit_delay(), latest, "{label}: circuit delay");
}

prop!(cases = 96, fn delay_search_matches_exhaustive_floating_mode(
    seed in 0u64..=u64::MAX,
    inputs in 1usize..=MAX_INPUTS,
    gates in 1usize..28,
    codes in vec_of(-8i64..16, MAX_INPUTS..=MAX_INPUTS),
) {
    let nl = random_netlist(seed, inputs, gates);
    let arrivals: Vec<Time> = codes[..inputs].iter().map(|&c| arrival_of(c)).collect();
    let worst = exhaustive_worst(&nl, &arrivals);
    check_backend(&nl, &arrivals, &worst, SatAlg::new, "isolated SAT");
    check_backend(&nl, &arrivals, &worst, SatAlg::new_shared, "shared SAT");
    check_backend(&nl, &arrivals, &worst, BddAlg::new, "BDD");
});
