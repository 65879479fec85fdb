//! Bit-identity property suite for shared-solver mode: one incremental
//! SAT instance per module (domain-restricted queries, cross-cone
//! learnt sharing, between-query inprocessing) must be observationally
//! indistinguishable from fresh per-cone solvers. Verdicts, arrival
//! times, delays, and refinement round/check counts must match exactly
//! — solver reuse may only change *how fast* an answer arrives, never
//! *which* answer, and never how the refinement loop walks the design.
//!
//! Budgeted runs are pinned too: a limited budget disables shared mode
//! on every path (degraded results must not contaminate shared state),
//! so the flag must be a no-op there.

use hfta_core::{AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer};
use hfta_fta::{SolveBudget, TimingReport};
use hfta_netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};
use hfta_netlist::partition::cascade_bipartition;
use hfta_netlist::Time;
use hfta_testkit::{from_fn_with_shrink, prop, Rng, Strategy};

/// Random partitionable circuits (≥ 2 gates); shrinking reduces gate
/// and input counts toward a minimal failing netlist.
fn spec_strategy() -> impl Strategy<Value = RandomCircuitSpec> {
    from_fn_with_shrink(
        |rng: &mut Rng| RandomCircuitSpec {
            inputs: rng.gen_range(3usize..8),
            gates: rng.gen_range(8usize..40),
            seed: rng.next_u64(),
            locality: rng.gen_range(4usize..12),
            global_fanin_prob: 0.2,
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

/// Random primary-input arrivals: a small finite window with an
/// occasional −∞ (unexercised pin).
fn arrivals_strategy(inputs: usize) -> impl Strategy<Value = Vec<Time>> {
    from_fn_with_shrink(
        move |rng: &mut Rng| {
            (0..inputs)
                .map(|_| {
                    if rng.gen_range(0..8) == 0 {
                        Time::NEG_INF
                    } else {
                        Time::new(rng.gen_range(-4i64..9))
                    }
                })
                .collect()
        },
        |v: &Vec<Time>| {
            let mut out = Vec::new();
            for i in 0..v.len() {
                if v[i] != Time::ZERO {
                    let mut w = v.clone();
                    w[i] = Time::ZERO;
                    out.push(w);
                }
            }
            out
        },
    )
}

fn hier_options(shared: bool) -> AnalysisConfig {
    AnalysisConfig::default().with_shared_solver(shared)
}

// Two-step characterization: the per-module shared instance answers
// every validity check exactly like a fresh per-cone analyzer, so the
// characterized models — and everything propagated from them — match.
prop!(cases = 32, fn two_step_shared_matches_per_cone(spec in spec_strategy()) {
    let flat = random_circuit("s", spec);
    let arrivals = vec![Time::ZERO; flat.inputs().len()];
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");

    let mut shared =
        HierAnalyzer::with_config(&design, "s_top", &hier_options(true)).expect("valid");
    let a = shared.analyze(&arrivals).expect("analyzes");
    let mut fresh =
        HierAnalyzer::with_config(&design, "s_top", &hier_options(false)).expect("valid");
    let b = fresh.analyze(&arrivals).expect("analyzes");

    assert_eq!(a.delay, b.delay, "delay diverged");
    assert_eq!(a.output_arrivals, b.output_arrivals, "output arrivals diverged");
    assert_eq!(a.net_arrivals, b.net_arrivals, "net arrivals diverged");
    assert_eq!(
        a.stats.modules_characterized, b.stats.modules_characterized,
        "characterization count diverged"
    );
});

// Demand-driven refinement walks the design one edge probe at a time;
// the per-class shared engine must return the exact verdict the
// per-cone oracle would, in the same order — pinned by comparing the
// full round/check/refinement trajectory, not just the answer.
prop!(cases = 32, fn demand_shared_matches_per_cone(
    spec in spec_strategy(),
) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let inputs = design.composite("s_top").expect("top").inputs().len();
    let mut cases = hfta_testkit::Rng::seed_from_u64(spec.seed ^ 0x5ead);
    let arrivals: Vec<Time> = (0..inputs)
        .map(|_| Time::new(cases.gen_range(-3i64..7)))
        .collect();

    let mut shared = DemandDrivenAnalyzer::with_config(
        &design,
        "s_top",
        &AnalysisConfig::default(),
    )
    .expect("valid");
    let a = shared.analyze(&arrivals).expect("analyzes");
    let mut fresh = DemandDrivenAnalyzer::with_config(
        &design,
        "s_top",
        &AnalysisConfig {
            shared_solver: false,
            ..Default::default()
        },
    )
    .expect("valid");
    let b = fresh.analyze(&arrivals).expect("analyzes");

    assert_eq!(a.delay, b.delay, "delay diverged");
    assert_eq!(a.output_arrivals, b.output_arrivals, "output arrivals diverged");
    assert_eq!(a.rounds, b.rounds, "round trajectory diverged");
    assert_eq!(a.checks, b.checks, "check count diverged");
    assert_eq!(a.refinements, b.refinements, "refinement count diverged");
});

// Flat report path under random arrival conditions: the whole-module
// shared instance and per-output fresh analyzers produce the same
// report (arrivals, false-path flags, circuit delays), in whatever
// query order the report generator uses.
prop!(cases = 32, fn report_shared_matches_per_cone(spec in spec_strategy()) {
    let nl = random_circuit("s", spec);
    let mut cases = hfta_testkit::Rng::seed_from_u64(spec.seed ^ 0x0f1a7);
    for _ in 0..2 {
        let arrivals: Vec<Time> = (0..nl.inputs().len())
            .map(|_| Time::new(cases.gen_range(-4i64..9)))
            .collect();
        let on = AnalysisConfig::default();
        let off = AnalysisConfig::default().with_shared_solver(false);
        let (a, _) = TimingReport::generate(&nl, &arrivals, Time::ZERO, &on).expect("analyzes");
        let (b, _) = TimingReport::generate(&nl, &arrivals, Time::ZERO, &off).expect("analyzes");
        assert_eq!(a, b, "reports diverged under arrivals {arrivals:?}");
    }
});

// Under a limited budget the shared flag must be inert: both settings
// fall back to per-cone solvers (degraded verdicts never touch shared
// state), so the budgeted analyses are bit-identical.
prop!(cases = 24, fn budgeted_runs_ignore_the_shared_flag(
    spec in spec_strategy(),
    conflicts in from_fn_with_shrink(
        |rng: &mut Rng| rng.gen_range(1u64..12),
        |c: &u64| if *c > 1 { vec![1, *c / 2] } else { vec![] },
    ),
) {
    let flat = random_circuit("s", spec);
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let inputs = design.composite("s_top").expect("top").inputs().len();
    let arrivals = vec![Time::ZERO; inputs];
    let budget = SolveBudget::default().with_conflicts(conflicts);

    let run = |shared: bool| {
        let mut an = DemandDrivenAnalyzer::with_config(
            &design,
            "s_top",
            &AnalysisConfig {
                budget,
                shared_solver: shared,
                ..Default::default()
            },
        )
        .expect("valid");
        an.analyze(&arrivals).expect("analyzes")
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a.delay, b.delay, "budgeted delay diverged");
    assert_eq!(a.output_arrivals, b.output_arrivals, "budgeted arrivals diverged");
    assert_eq!(a.rounds, b.rounds, "budgeted rounds diverged");
    assert_eq!(a.checks, b.checks, "budgeted checks diverged");

    // And the budgeted two-step path likewise.
    let hier = |shared: bool| {
        let opts = AnalysisConfig::default()
            .with_budget(budget)
            .with_shared_solver(shared);
        let mut an = HierAnalyzer::with_config(&design, "s_top", &opts).expect("valid");
        an.analyze(&arrivals).expect("analyzes")
    };
    let a = hier(true);
    let b = hier(false);
    assert_eq!(a.delay, b.delay, "budgeted two-step delay diverged");
    assert_eq!(a.output_arrivals, b.output_arrivals, "budgeted two-step arrivals diverged");
});

// The arrivals strategy is exercised on the flat path so −∞ pins and
// shifted windows hit the shared instance's slot mapping too.
prop!(cases = 24, fn report_shared_matches_under_random_conditions(
    spec in spec_strategy(),
    cond_seed in from_fn_with_shrink(
        |rng: &mut Rng| rng.next_u64(),
        |s: &u64| if *s == 0 { vec![] } else { vec![0] },
    ),
) {
    let nl = random_circuit("s", spec);
    let mut rng = hfta_testkit::Rng::seed_from_u64(cond_seed);
    let strat = arrivals_strategy(nl.inputs().len());
    let arrivals = strat.generate(&mut rng);
    let on = AnalysisConfig::default();
    let off = AnalysisConfig::default().with_shared_solver(false);
    let (a, _) = TimingReport::generate(&nl, &arrivals, Time::ZERO, &on).expect("analyzes");
    let (b, _) = TimingReport::generate(&nl, &arrivals, Time::ZERO, &off).expect("analyzes");
    assert_eq!(a, b, "reports diverged under arrivals {arrivals:?}");
});
