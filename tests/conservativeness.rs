//! Theorem 1 (the paper's soundness guarantee), checked end-to-end:
//! for every workload and arrival condition,
//!
//! ```text
//! flat XBD0 delay ≤ hierarchical estimate ≤ topological delay
//! ```
//!
//! for both the two-step and the demand-driven analyzers.

use hfta::netlist::gen::{carry_skip_adder, random_circuit, GateMix, RandomCircuitSpec};
use hfta::netlist::partition::{cascade_bipartition, cascade_bipartition_min_cut};
use hfta::{
    AnalysisConfig, DelayAnalyzer, DemandDrivenAnalyzer, HierAnalyzer, ModelSource, Time, TopoSta,
};

fn t(v: i64) -> Time {
    Time::new(v)
}

/// Returns (flat functional, topological) delays of `flat` under
/// `arrivals`.
fn reference_delays(flat: &hfta::Netlist, arrivals: &[Time]) -> (Time, Time) {
    let mut an = DelayAnalyzer::new_sat(flat, arrivals).expect("acyclic");
    let functional = an.circuit_delay();
    let sta = TopoSta::new(flat).expect("acyclic");
    let topological = sta.circuit_delay(arrivals);
    (functional, topological)
}

#[test]
fn carry_skip_cascades_two_step() {
    for (n, m) in [(4usize, 2usize), (8, 2), (8, 4), (12, 4)] {
        let name = format!("csa{n}.{m}");
        let design = carry_skip_adder(n, m, Default::default());
        let flat = design.flatten(&name).expect("flattens");
        let arrivals = vec![t(0); 2 * n + 1];
        let (functional, topological) = reference_delays(&flat, &arrivals);

        let mut hier =
            HierAnalyzer::with_config(&design, &name, &AnalysisConfig::default()).expect("valid");
        let est = hier.analyze(&arrivals).expect("analyzes").delay;
        assert!(est >= functional, "{name}: {est} < flat {functional}");
        assert!(est <= topological, "{name}: {est} > topo {topological}");
        // On these regular circuits accuracy is fully preserved.
        assert_eq!(est, functional, "{name}");
    }
}

#[test]
fn carry_skip_cascades_demand_driven() {
    for (n, m) in [(4usize, 2usize), (8, 2), (16, 4)] {
        let name = format!("csa{n}.{m}");
        let design = carry_skip_adder(n, m, Default::default());
        let flat = design.flatten(&name).expect("flattens");
        let arrivals = vec![t(0); 2 * n + 1];
        let (functional, topological) = reference_delays(&flat, &arrivals);

        let mut an = DemandDrivenAnalyzer::with_config(&design, &name, &AnalysisConfig::default())
            .expect("valid");
        let est = an.analyze(&arrivals).expect("analyzes").delay;
        assert!(est >= functional && est <= topological, "{name}");
        assert_eq!(est, functional, "{name}: accuracy preserved");
    }
}

#[test]
fn skewed_arrival_conditions() {
    let design = carry_skip_adder(8, 2, Default::default());
    let flat = design.flatten("csa8.2").expect("flattens");
    let patterns: Vec<Vec<Time>> = vec![
        {
            let mut v = vec![t(0); 17];
            v[0] = t(9); // late carry-in
            v
        },
        (0..17).map(|i| t(i % 5)).collect(),
        {
            let mut v = vec![t(3); 17];
            v[1] = t(-4);
            v[2] = t(-4);
            v
        },
    ];
    for arrivals in patterns {
        let (functional, topological) = reference_delays(&flat, &arrivals);
        let mut hier = HierAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
            .expect("valid");
        let est = hier.analyze(&arrivals).expect("analyzes").delay;
        assert!(est >= functional && est <= topological, "{arrivals:?}");

        let mut dd =
            DemandDrivenAnalyzer::with_config(&design, "csa8.2", &AnalysisConfig::default())
                .expect("valid");
        let est = dd.analyze(&arrivals).expect("analyzes").delay;
        assert!(
            est >= functional && est <= topological,
            "demand {arrivals:?}"
        );
    }
}

#[test]
fn random_partitions_nand_heavy() {
    // False-path-rich logic: the hardest case for module abstraction.
    for seed in 0..6 {
        let spec = RandomCircuitSpec {
            inputs: 12,
            gates: 100,
            seed,
            locality: 14,
            global_fanin_prob: 0.2,
            mix: GateMix::NandHeavy,
        };
        let flat = random_circuit(&format!("n{seed}"), spec);
        let arrivals = vec![t(0); flat.inputs().len()];
        let (functional, topological) = reference_delays(&flat, &arrivals);
        let design = cascade_bipartition(&flat, 0.5).expect("partitions");
        let top = format!("n{seed}_top");

        let mut hier =
            HierAnalyzer::with_config(&design, &top, &AnalysisConfig::default()).expect("valid");
        let est = hier.analyze(&arrivals).expect("analyzes").delay;
        assert!(
            est >= functional && est <= topological,
            "two-step seed {seed}"
        );

        let mut dd = DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
            .expect("valid");
        let est_dd = dd.analyze(&arrivals).expect("analyzes").delay;
        assert!(
            est_dd >= functional && est_dd <= topological,
            "demand seed {seed}"
        );
    }
}

#[test]
fn random_partitions_xor_heavy_min_cut() {
    for seed in 0..4 {
        let spec = RandomCircuitSpec {
            inputs: 12,
            gates: 150,
            seed: seed + 100,
            locality: 16,
            global_fanin_prob: 0.05,
            mix: GateMix::XorHeavy,
        };
        let flat = random_circuit(&format!("x{seed}"), spec);
        let arrivals = vec![t(0); flat.inputs().len()];
        let (functional, topological) = reference_delays(&flat, &arrivals);
        let design = cascade_bipartition_min_cut(&flat, 0.3, 0.7).expect("partitions");
        let top = format!("x{seed}_top");
        let mut dd = DemandDrivenAnalyzer::with_config(&design, &top, &AnalysisConfig::default())
            .expect("valid");
        let est = dd.analyze(&arrivals).expect("analyzes").delay;
        assert!(est >= functional && est <= topological, "seed {seed}");
        // XOR-heavy logic: the hierarchical estimate stays close.
        let slack = est - functional;
        assert!(
            slack <= t(6),
            "seed {seed}: overestimation {slack} too large for XOR-heavy logic"
        );
    }
}

/// The hierarchical estimate with functional models is never worse than
/// with topological models.
#[test]
fn functional_models_dominate_topological_models() {
    for seed in 0..4 {
        let spec = RandomCircuitSpec {
            inputs: 10,
            gates: 90,
            seed: seed + 50,
            locality: 12,
            global_fanin_prob: 0.1,
            mix: GateMix::NandHeavy,
        };
        let flat = random_circuit(&format!("m{seed}"), spec);
        let design = cascade_bipartition(&flat, 0.5).expect("partitions");
        let top = format!("m{seed}_top");
        let arrivals = vec![t(0); flat.inputs().len()];

        let mut functional =
            HierAnalyzer::with_config(&design, &top, &AnalysisConfig::default()).expect("valid");
        let f = functional.analyze(&arrivals).expect("analyzes").delay;

        let topo_opts = AnalysisConfig {
            source: ModelSource::Topological,
            ..AnalysisConfig::default()
        };
        let mut topological = HierAnalyzer::with_config(&design, &top, &topo_opts).expect("valid");
        let tpo = topological.analyze(&arrivals).expect("analyzes").delay;
        assert!(f <= tpo, "seed {seed}: functional {f} vs topological {tpo}");
    }
}
