//! Every concrete number stated in the paper, verified end-to-end
//! through the public API.

use hfta::netlist::gen::{carry_skip_adder, carry_skip_adder_flat, carry_skip_block, CsaDelays};
use hfta::{AnalysisConfig, DelayAnalyzer, HierAnalyzer, ModuleTiming, Time, TimingTuple, TopoSta};

fn t(v: i64) -> Time {
    Time::new(v)
}

fn tuple(vs: &[i64]) -> TimingTuple {
    TimingTuple::new(
        vs.iter()
            .map(|&v| {
                if v == i64::MIN + 1 {
                    Time::NEG_INF
                } else {
                    t(v)
                }
            })
            .collect(),
    )
}

const NI: i64 = i64::MIN + 1; // shorthand for −∞ in the tables below

/// Section 4: "The approximate required time analysis of the 2-bit
/// carry-skip adder gives the timing models T_s0, T_s1 and T_cout as
/// follows" — with inputs ordered c_in < a0 < b0 < a1 < b1.
#[test]
fn section4_timing_models() {
    let block = carry_skip_block(2, CsaDelays::default());
    let timing =
        ModuleTiming::characterize(&block, &AnalysisConfig::default()).expect("characterizes");
    assert_eq!(
        timing.model(0).tuples(),
        &[tuple(&[2, 4, 4, NI, NI])],
        "T_s0"
    );
    assert_eq!(timing.model(1).tuples(), &[tuple(&[4, 6, 6, 4, 4])], "T_s1");
    assert_eq!(
        timing.model(2).tuples(),
        &[tuple(&[2, 8, 8, 6, 6])],
        "T_cout"
    );
}

/// Section 4: "the longest topological path is of length 6" for
/// c_in → c_out (the path the paper spells out through g6 g7 g9 g11 and
/// the mux).
#[test]
fn section4_topological_cin_cout_is_6() {
    let block = carry_skip_block(2, CsaDelays::default());
    let sta = TopoSta::new(&block).expect("acyclic");
    let c_out = block.find_net("c_out").expect("exists");
    let c_in = block.find_net("c_in").expect("exists");
    let long = sta.longest_to(c_out);
    assert_eq!(long[c_in.index()], t(6));
}

/// Section 4: "Since all the inputs of the first adder arrive
/// simultaneously at t = 0, the delay at tmp is determined as t = 8,
/// where a0 and b0 are critical… This gives the arrival time at c4
/// t = 8 + 2 = 10, which matches the result of flat analysis."
#[test]
fn section4_cascade_arrivals() {
    let design = carry_skip_adder(4, 2, CsaDelays::default());
    let mut hier =
        HierAnalyzer::with_config(&design, "csa4.2", &AnalysisConfig::default()).expect("valid");
    let analysis = hier.analyze(&[t(0); 9]).expect("analyzes");
    let top = design.composite("csa4.2").expect("exists");
    assert_eq!(
        analysis.net_arrivals[top.find_net("c2").unwrap().index()],
        t(8)
    );
    assert_eq!(
        analysis.net_arrivals[top.find_net("c4").unwrap().index()],
        t(10)
    );

    // Flat agreement.
    let flat = carry_skip_adder_flat(4, 2, CsaDelays::default()).expect("flattens");
    let mut an = DelayAnalyzer::new_sat(&flat, &[t(0); 9]).expect("valid");
    assert_eq!(an.output_arrival(flat.find_net("c4").unwrap()), t(10));
}

/// Section 4: "the delay of the last carry output of the circuit
/// composed of n adders is t = 8 + (n−1)·2 = 2n + 6… matches the
/// results of the flat analysis at least up to n = 8."
#[test]
fn section4_parametric_formula_to_n8() {
    for blocks in 1usize..=8 {
        let bits = 2 * blocks;
        let name = format!("csa{bits}.2");
        let design = carry_skip_adder(bits, 2, CsaDelays::default());
        let mut hier =
            HierAnalyzer::with_config(&design, &name, &AnalysisConfig::default()).expect("valid");
        let analysis = hier.analyze(&vec![t(0); 2 * bits + 1]).expect("analyzes");
        let top = design.composite(&name).expect("exists");
        let carry = analysis.net_arrivals[top.find_net(&format!("c{bits}")).unwrap().index()];
        assert_eq!(carry, t(2 * blocks as i64 + 6), "hier, {blocks} blocks");

        let flat = carry_skip_adder_flat(bits, 2, CsaDelays::default()).expect("flattens");
        let mut an = DelayAnalyzer::new_sat(&flat, &vec![t(0); 2 * bits + 1]).expect("valid");
        let flat_carry = an.output_arrival(flat.find_net(&format!("c{bits}")).unwrap());
        assert_eq!(
            flat_carry,
            t(2 * blocks as i64 + 6),
            "flat, {blocks} blocks"
        );
    }
}

/// Section 4 / Figure 5: "In [7] the circuit in Figure 1 is analyzed
/// under arr(c_in) = 5, arr(others) = 0… The delay of c_out is
/// t = 0 + 8 = 8, which is again the same as the result of flat
/// analysis… delaying c_in by one time unit does not change the signal
/// arrival time at c_out, i.e. the slack of c_in is 1… if the slack of
/// this input is computed topologically, it is −3."
#[test]
fn figure5_slacks() {
    let block = carry_skip_block(2, CsaDelays::default());
    let arrivals = vec![t(5), t(0), t(0), t(0), t(0)];

    let functional =
        ModuleTiming::characterize(&block, &AnalysisConfig::default()).expect("characterizes");
    let t_cout = functional.model(2);
    assert_eq!(t_cout.stable_time(&arrivals), t(8));

    let mut flat = DelayAnalyzer::new_sat(&block, &arrivals).expect("valid");
    assert_eq!(flat.output_arrival(block.find_net("c_out").unwrap()), t(8));

    assert_eq!(t_cout.input_slack(&arrivals, t(8), 0), t(1));

    let topological = ModuleTiming::topological(&block).expect("characterizes");
    assert_eq!(topological.model(2).input_slack(&arrivals, t(8), 0), t(-3));
}

/// Section 2: the AND-gate example. "If (x1, x2) = (0, 0), it is
/// enough to have either of the inputs by time t = −1. This can be
/// captured by two tuples (−1, ∞), (∞, −1), which are incomparable."
/// (Our delay tuples are the negated required times.)
#[test]
fn section2_and_gate_exact_relation() {
    use hfta::fta::{exact_vector_relation, ExactOptions};
    use hfta::GateKind;

    let mut nl = hfta::Netlist::new("and2");
    let a = nl.add_input("x1");
    let b = nl.add_input("x2");
    let z = nl.add_net("z");
    nl.add_gate(GateKind::And, &[a, b], z, 1).expect("valid");
    nl.mark_output(z);

    let rel = exact_vector_relation(&nl, z, &ExactOptions::default()).expect("small");
    let (vector, tuples) = &rel[0]; // (x1, x2) = (0, 0)
    assert_eq!(*vector, 0);
    assert_eq!(
        tuples,
        &vec![
            TimingTuple::new(vec![Time::NEG_INF, t(1)]),
            TimingTuple::new(vec![t(1), Time::NEG_INF]),
        ],
        "two incomparable tuples, as in the paper"
    );
}
