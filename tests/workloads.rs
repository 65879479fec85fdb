//! The extended workload family, end-to-end through the whole stack.

use hfta::netlist::event_sim::monte_carlo_settle;
use hfta::netlist::gen::{
    array_multiplier, carry_lookahead_adder, carry_select_adder, parity_tree, CsaDelays,
};
use hfta::netlist::partition::cascade_bipartition_min_cut;
use hfta::{AnalysisConfig, DelayAnalyzer, DemandDrivenAnalyzer, Time, TopoSta};

fn t(v: i64) -> Time {
    Time::new(v)
}

fn delays(nl: &hfta::Netlist) -> (Time, Time) {
    let arrivals = vec![t(0); nl.inputs().len()];
    let sta = TopoSta::new(nl).expect("acyclic");
    let topo = sta.circuit_delay(&arrivals);
    let mut an = DelayAnalyzer::new_sat(nl, &arrivals).expect("acyclic");
    (an.circuit_delay(), topo)
}

/// Carry-select adders are an instructive *contrast* to carry-skip:
/// the speculative chains feed the mux cascade as data, and when a
/// block's two speculative carries differ the mux output genuinely
/// follows its select — so the long spec-chain→mux-cascade path is
/// sensitizable and functional delay equals topological. (Carry-*skip*
/// gets its false path from bypassing a ripple chain that the mux
/// select provably masks.)
#[test]
fn carry_select_mux_cascade_is_a_true_path() {
    let nl = carry_select_adder(8, 2, CsaDelays::default());
    let (functional, topological) = delays(&nl);
    assert_eq!(functional, topological);
    // Spec chain (6) + four select muxes (2 each) = 14.
    assert_eq!(topological, t(14));
    // The analytical result is witnessed by an actual simulation run.
    let arrivals = vec![t(0); nl.inputs().len()];
    let observed = monte_carlo_settle(&nl, &arrivals, 256, 17).expect("simulates");
    let worst = observed.iter().copied().fold(Time::NEG_INF, Time::max);
    assert!(worst <= functional);
}

/// XOR never masks: the parity tree has no false paths at all.
#[test]
fn parity_tree_has_no_false_paths() {
    for n in [4usize, 8, 16] {
        let nl = parity_tree(n, 2);
        let (functional, topological) = delays(&nl);
        assert_eq!(functional, topological, "n={n}");
    }
}

/// The flat two-level CLA carry logic is fully sensitizable too.
#[test]
fn cla_sandwich() {
    let nl = carry_lookahead_adder(6, CsaDelays::default());
    let (functional, topological) = delays(&nl);
    assert!(functional <= topological);
    // Simulation witness stays below the functional bound.
    let arrivals = vec![t(0); nl.inputs().len()];
    let observed = monte_carlo_settle(&nl, &arrivals, 64, 3).expect("simulates");
    let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).expect("valid");
    for (k, &o) in nl.outputs().iter().enumerate() {
        assert!(observed[k] <= an.output_arrival(o));
    }
}

/// A 3×3 multiplier through flat analysis and the partition pipeline.
#[test]
fn multiplier_partitioned_hierarchically() {
    let nl = array_multiplier(3, CsaDelays::default());
    let (functional, topological) = delays(&nl);
    assert!(functional <= topological);
    let design = cascade_bipartition_min_cut(&nl, 0.3, 0.7).expect("partitions");
    let mut dd = DemandDrivenAnalyzer::with_config(&design, "mul3_top", &AnalysisConfig::default())
        .expect("valid");
    let est = dd
        .analyze(&vec![t(0); nl.inputs().len()])
        .expect("analyzes")
        .delay;
    assert!(est >= functional && est <= topological);
}

/// Carry-select beats ripple topologically but its *functional* carry
/// is mux-speed: the hierarchical pipeline sees it when each block is
/// a leaf module.
#[test]
fn carry_select_hierarchical_accuracy() {
    let nl = carry_select_adder(8, 4, CsaDelays::default());
    let design = cascade_bipartition_min_cut(&nl, 0.3, 0.7).expect("partitions");
    let arrivals = vec![t(0); nl.inputs().len()];
    let mut dd =
        DemandDrivenAnalyzer::with_config(&design, "csel8.4_top", &AnalysisConfig::default())
            .expect("valid");
    let est = dd.analyze(&arrivals).expect("analyzes").delay;
    let (functional, topological) = delays(&nl);
    assert!(est >= functional && est <= topological);
}
