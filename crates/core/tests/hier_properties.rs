//! Property tests on the hierarchical analyzers: Theorem 1
//! conservativeness for both the two-step and demand-driven engines on
//! random partitioned circuits, model-source dominance, and
//! characterization self-consistency.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, ModelSource, ModuleTiming};
use hfta_fta::{DelayAnalyzer, TopoSta};
use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};
use hfta_netlist::partition::cascade_bipartition;
use hfta_netlist::Time;
use hfta_testkit::{from_fn_with_shrink, prop, Rng, Strategy};

/// Random partitionable circuits (≥ 2 gates); shrinking reduces gate
/// and input counts toward a minimal failing netlist.
fn spec_strategy() -> impl Strategy<Value = RandomCircuitSpec> {
    from_fn_with_shrink(
        |rng: &mut Rng| RandomCircuitSpec {
            inputs: rng.gen_range(3usize..9),
            gates: rng.gen_range(8usize..50),
            seed: rng.next_u64(),
            locality: rng.gen_range(4usize..14),
            global_fanin_prob: 0.15,
            mix: if rng.next_bool() {
                GateMix::XorHeavy
            } else {
                GateMix::NandHeavy
            },
        },
        |spec: &RandomCircuitSpec| {
            let mut out = Vec::new();
            if spec.gates > 8 {
                out.push(RandomCircuitSpec {
                    gates: 8.max(spec.gates / 2),
                    ..*spec
                });
                out.push(RandomCircuitSpec {
                    gates: spec.gates - 1,
                    ..*spec
                });
            }
            if spec.inputs > 3 {
                out.push(RandomCircuitSpec {
                    inputs: spec.inputs - 1,
                    ..*spec
                });
            }
            if spec.seed != 0 {
                out.push(RandomCircuitSpec { seed: 0, ..*spec });
            }
            out
        },
    )
}

// Theorem 1 for the two-step analyzer:
// flat functional ≤ hierarchical estimate ≤ topological.
prop!(cases = 64, fn two_step_is_conservative(spec in spec_strategy()) {
    let flat = random_circuit("h", spec);
    let arrivals = vec![Time::ZERO; flat.inputs().len()];
    let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).expect("acyclic");
    let exact = an.circuit_delay();
    let sta = TopoSta::new(&flat).expect("acyclic");
    let topo = sta.circuit_delay(&arrivals);

    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let mut hier = HierAnalyzer::with_config(&design, "h_top", &AnalysisConfig::default())
        .expect("valid");
    let est = hier.analyze(&arrivals).expect("analyzes").delay;
    assert!(est >= exact, "optimistic: {est} < {exact}");
    assert!(est <= topo, "worse than topological: {est} > {topo}");
});

// Two-step and demand-driven agree on the final delay estimate — they
// implement the same abstraction with different evaluation orders.
prop!(cases = 64, fn demand_driven_matches_two_step(spec in spec_strategy()) {
    let flat = random_circuit("h", spec);
    let arrivals = vec![Time::ZERO; flat.inputs().len()];
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");

    let mut hier = HierAnalyzer::with_config(&design, "h_top", &AnalysisConfig::default())
        .expect("valid");
    let two_step = hier.analyze(&arrivals).expect("analyzes").delay;

    let mut dd = DemandDrivenAnalyzer::with_config(&design, "h_top", &AnalysisConfig::default())
        .expect("valid");
    let demand = dd.analyze(&arrivals).expect("analyzes").delay;
    assert_eq!(demand, two_step, "engines disagree");
});

// Functional leaf models never give a worse hierarchical estimate
// than topological ones (they are pointwise tighter abstractions).
prop!(cases = 64, fn functional_models_dominate_topological(spec in spec_strategy()) {
    let flat = random_circuit("h", spec);
    let arrivals = vec![Time::ZERO; flat.inputs().len()];
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");

    let mut functional = HierAnalyzer::with_config(&design, "h_top", &AnalysisConfig::default())
        .expect("valid");
    let f = functional.analyze(&arrivals).expect("analyzes").delay;

    let topo_opts = AnalysisConfig {
        source: ModelSource::Topological,
        ..AnalysisConfig::default()
    };
    let mut topological = HierAnalyzer::with_config(&design, "h_top", &topo_opts).expect("valid");
    let t = topological.analyze(&arrivals).expect("analyzes").delay;
    assert!(f <= t, "functional {f} worse than topological {t}");
});

// A characterized module's models verify against their own netlist:
// `ModuleTiming::verify` finds no violations (tuple stable times are
// sound per-output abstractions of the leaf).
prop!(cases = 64, fn characterization_verifies_against_leaf(spec in spec_strategy()) {
    let nl = random_circuit("leaf", spec);
    let timing = ModuleTiming::characterize(&nl, &AnalysisConfig::default())
    .expect("characterizes");
    let violations = timing.verify(&nl).expect("verifies");
    assert!(violations.is_empty(), "violations: {violations:?}");
});

// The timing-model text format round-trips characterized modules.
prop!(cases = 64, fn module_timing_text_roundtrip(spec in spec_strategy()) {
    let nl = random_circuit("leaf", spec);
    let timing = ModuleTiming::characterize(&nl, &AnalysisConfig::default())
    .expect("characterizes");
    let text = timing.to_text();
    let parsed = ModuleTiming::from_text(&text).expect("parses");
    assert_eq!(parsed.module(), timing.module());
    assert_eq!(parsed.input_names(), timing.input_names());
    assert_eq!(parsed.output_names(), timing.output_names());
    assert_eq!(parsed.models().len(), timing.models().len());
    for (a, b) in parsed.models().iter().zip(timing.models()) {
        assert_eq!(a.tuples(), b.tuples());
    }
});
