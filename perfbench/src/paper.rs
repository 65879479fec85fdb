//! `paper_tables`: the paper's own experiment. Every Table 1 row
//! (carry-skip adders `csa{8..64}.{2,4,8}`) and Table 2 row (six
//! ISCAS-like circuits, min-cut bipartitioned) is analyzed serially as
//! in the paper: demand-driven hierarchical analysis
//! (`DemandDrivenAnalyzer::analyze`) and flat XBD0 analysis
//! (`DelayAnalyzer::new_sat(..).circuit_delay()`). Between flat
//! analyses, demand sweeps analyze every row once more, each on a fresh
//! analyzer, so every row's demand-driven samples are spread over the
//! whole run instead of bunched in one moment of each pass.
//!
//! The circuits are fixed: they come from `hfta_bench`'s
//! `table1_configs` and `table2_workloads`, the sweep the repository's
//! `table1` and `table2` binaries run, because offsetting the Table 2
//! generator seeds by the workload seed moves the flat wall time by up
//! to 8x between seeds.
//! The workload seed draws the event-simulation vector pairs of the
//! independent lower-bound check.

use std::time::{Duration, Instant};

use hfta_bench::{build_iscas_like, table1_configs, table2_workloads};
use hfta_core::{AnalysisConfig, DemandAnalysis, DemandDrivenAnalyzer};
use hfta_fta::{DelayAnalyzer, StabilityStats, TopoSta};
use hfta_netlist::gen::carry_skip_adder;
use hfta_netlist::partition::cascade_bipartition_min_cut;
use hfta_netlist::{event_sim, hnl, Design, Time};

use crate::measure::{
    best, cone_sig_ms, median, overhead_pct, peak_rss_mb, ratio, stability_metrics, Metrics, Rng,
    SetupSamples, Spans,
};
use crate::{Ctx, Run};

/// One table row: its `.hnl` text and the delays pinned for it
/// (topological, demand-driven hierarchical, flat functional).
struct RowSpec {
    name: String,
    top: String,
    table1: bool,
    text: String,
    pinned: [i64; 3],
}

/// Delays the paper's experiment produces on these circuits (all
/// inputs at t = 0). Table 1 rows have hierarchical == flat, as in the
/// paper; three Table 2 rows overestimate by a little, as in the paper.
const PINNED: [(&str, [i64; 3]); 17] = [
    ("csa8.2", [26, 16, 16]),
    ("csa8.4", [22, 20, 20]),
    ("csa16.2", [50, 24, 24]),
    ("csa16.4", [42, 24, 24]),
    ("csa16.8", [38, 36, 36]),
    ("csa32.2", [98, 40, 40]),
    ("csa32.4", [82, 32, 32]),
    ("csa32.8", [74, 40, 40]),
    ("csa64.2", [194, 72, 72]),
    ("csa64.4", [162, 48, 48]),
    ("csa64.8", [146, 48, 48]),
    ("c432_like", [36, 34, 33]),
    ("c499_like", [37, 36, 33]),
    ("c880_like", [43, 42, 38]),
    ("c1355_like", [47, 46, 46]),
    ("c1908_like", [44, 44, 44]),
    ("c2670_like", [44, 44, 44]),
];

/// Event-simulation vector pairs per row for the lower-bound check:
/// fewer on the random Table 2 logic, where one pair's glitch storm
/// takes up to 0.2 s to simulate.
const SIM_PAIRS: [usize; 2] = [48, 8];

/// Set-up-only rounds before the passes, and again before each pass
/// (which also sets up once), so the median spans the whole run.
const SETUP_ROUNDS: usize = 2;

/// A demand sweep runs before a row's flat analysis when this much time
/// has passed since the last sweep ended (and before the first row), so
/// sweeps are spread over the pass in time, not in rows: the short
/// rows come in runs that take milliseconds, the long ones seconds.
const SWEEP_GAP: Duration = Duration::from_millis(400);

fn rows() -> Vec<RowSpec> {
    let pinned = |name: &str| {
        PINNED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, p)| p)
            .expect("every row has pinned delays")
    };
    let mut out = Vec::new();
    for cfg in table1_configs() {
        let name = cfg.name();
        let design = carry_skip_adder(cfg.bits, cfg.block, Default::default());
        out.push(RowSpec {
            text: hnl::write(&design, Some(&name)),
            top: name.clone(),
            pinned: pinned(&name),
            name,
            table1: true,
        });
    }
    for w in table2_workloads() {
        let design = cascade_bipartition_min_cut(&build_iscas_like(&w), 0.25, 0.75)
            .expect("generator output partitions");
        let top = format!("{}_top", w.name);
        out.push(RowSpec {
            text: hnl::write(&design, Some(&top)),
            top,
            pinned: pinned(&w.name),
            name: w.name,
            table1: false,
        });
    }
    assert_eq!(out.len(), PINNED.len(), "every pinned row is in the sweep");
    out
}

/// A row parsed once, for the demand sweeps.
struct Parsed<'a> {
    row: &'a RowSpec,
    design: Design,
    zeros: Vec<Time>,
}

fn parse_rows(rows: &[RowSpec]) -> Vec<Parsed<'_>> {
    rows.iter()
        .map(|row| {
            let (design, _) = hnl::parse(&row.text).expect("generated .hnl parses");
            let n = design
                .flatten(&row.top)
                .expect("generated design flattens")
                .inputs()
                .len();
            Parsed {
                row,
                design,
                zeros: vec![Time::ZERO; n],
            }
        })
        .collect()
}

/// What one pass over every row measured.
#[derive(Default)]
struct Pass {
    setup: Duration,
    parse: Duration,
    analyzer_new: Duration,
    /// Per row (by row index): demand-driven analysis times (one from
    /// the row itself, one from each demand sweep of the pass) and the
    /// flat analysis time.
    demand: Vec<Vec<f64>>,
    flat: Vec<f64>,
    demand_stats: StabilityStats,
    flat_stats: StabilityStats,
    rounds: u64,
    checks: u64,
    refinements: u64,
}

/// One demand-driven analysis of every row, each on a fresh analyzer
/// (construction is not timed), checked against the pinned delay.
fn demand_sweep(parsed: &[Parsed], p: &mut Pass, run: &mut Run, sp: &mut Spans) {
    let config = AnalysisConfig::default();
    for (i, x) in parsed.iter().enumerate() {
        let an = sp.time("core", "DemandDrivenAnalyzer::with_config", || {
            DemandDrivenAnalyzer::with_config(&x.design, &x.row.top, &config)
        });
        let Ok(mut an) = an else {
            run.check(false, || {
                format!("{}: analyzer construction failed", x.row.name)
            });
            continue;
        };
        run.attempted += 1;
        let t = Instant::now();
        let again = sp.time("core", "DemandDrivenAnalyzer::analyze", || {
            an.analyze(&x.zeros)
        });
        p.demand[i].push(t.elapsed().as_secs_f64());
        let hier = Time::new(x.row.pinned[1]);
        match again {
            Ok(d) => run.check(d.delay == hier, || {
                format!(
                    "{}: repeated demand-driven delay {} != pinned {hier}",
                    x.row.name, d.delay
                )
            }),
            Err(e) => {
                run.failed += 1;
                run.check(false, || {
                    format!("{}: demand-driven analysis failed: {e}", x.row.name)
                });
            }
        }
    }
}

/// Sets up every row (parse, flatten, build both analyzers) and, when
/// `sweep` is given, runs both analyses and checks their answers, with
/// demand sweeps between flat analyses (see [`SWEEP_GAP`]).
fn pass(rows: &[RowSpec], sweep: Option<&[Parsed]>, run: &mut Run, sp: &mut Spans) -> Pass {
    let mut p = Pass {
        demand: vec![Vec::new(); rows.len()],
        flat: vec![0.0; rows.len()],
        ..Pass::default()
    };
    let config = AnalysisConfig::default();
    let mut last_sweep: Option<Instant> = None;
    for (i, row) in rows.iter().enumerate() {
        let t = Instant::now();
        let parsed = sp.time("netlist", "hnl::parse", || hnl::parse(&row.text));
        p.parse += t.elapsed();
        let Ok((design, _)) = parsed else {
            run.check(false, || format!("{}: .hnl text does not parse", row.name));
            continue;
        };
        let Ok(flat) = sp.time("netlist", "Design::flatten", || design.flatten(&row.top)) else {
            run.check(false, || format!("{}: design does not flatten", row.name));
            continue;
        };
        // The flattened circuit keeps the top module's inputs, in order.
        let zeros = vec![Time::ZERO; flat.inputs().len()];
        let t_new = Instant::now();
        let demand_an = sp.time("core", "DemandDrivenAnalyzer::with_config", || {
            DemandDrivenAnalyzer::with_config(&design, &row.top, &config)
        });
        p.analyzer_new += t_new.elapsed();
        let flat_an = sp.time("fta", "DelayAnalyzer::new_sat", || {
            DelayAnalyzer::new_sat(&flat, &zeros)
        });
        p.setup += t.elapsed();
        let (Ok(mut demand_an), Ok(mut flat_an)) = (demand_an, flat_an) else {
            run.check(false, || {
                format!("{}: analyzer construction failed", row.name)
            });
            continue;
        };
        let Some(sweep) = sweep else {
            continue;
        };

        run.attempted += 2;
        let t = Instant::now();
        let demand: Result<DemandAnalysis, _> =
            sp.time("core", "DemandDrivenAnalyzer::analyze", || {
                demand_an.analyze(&zeros)
            });
        p.demand[i].push(t.elapsed().as_secs_f64());
        // Freed before the sweep, so it does not raise the peak memory.
        drop(demand_an);
        if last_sweep.is_none_or(|at| at.elapsed() >= SWEEP_GAP) {
            demand_sweep(sweep, &mut p, run, sp);
            last_sweep = Some(Instant::now());
        }
        let t = Instant::now();
        let flat_delay = sp.time("fta", "DelayAnalyzer::circuit_delay", || {
            flat_an.circuit_delay()
        });
        p.flat[i] = t.elapsed().as_secs_f64();
        p.flat_stats.merge(&flat_an.stats());
        drop(flat_an);
        let demand = match demand {
            Ok(d) => d,
            Err(e) => {
                run.failed += 1;
                run.check(false, || {
                    format!("{}: demand-driven analysis failed: {e}", row.name)
                });
                continue;
            }
        };
        p.demand_stats.merge(&demand.stability);
        p.rounds += demand.rounds;
        p.checks += demand.checks;
        p.refinements += demand.refinements;

        let [topo, hier, flat_pin] = row.pinned.map(Time::new);
        run.check(demand.delay == hier, || {
            format!(
                "{}: demand-driven delay {} != pinned {hier}",
                row.name, demand.delay
            )
        });
        run.check(flat_delay == flat_pin, || {
            format!("{}: flat delay {flat_delay} != pinned {flat_pin}", row.name)
        });
        if row.table1 {
            run.check(demand.delay == flat_delay, || {
                format!(
                    "{}: Table 1 row has demand {} != flat {flat_delay}",
                    row.name, demand.delay
                )
            });
        }
        match TopoSta::new(&flat) {
            Ok(sta) => {
                let topo_delay = sta.circuit_delay(&zeros);
                run.check(topo_delay == topo, || {
                    format!(
                        "{}: topological delay {topo_delay} != pinned {topo}",
                        row.name
                    )
                });
                run.check(
                    topo_delay >= demand.delay && demand.delay >= flat_delay,
                    || {
                        format!(
                            "{}: order topo {topo_delay} >= demand {} >= flat {flat_delay} broken",
                            row.name, demand.delay
                        )
                    },
                );
            }
            Err(e) => run.check(false, || {
                format!("{}: topological STA failed: {e}", row.name)
            }),
        }
    }
    p
}

/// The independent lower bound: the worst settle time of seeded
/// vector pairs under event simulation never exceeds the flat delay.
fn check_simulation(rows: &[RowSpec], seed: u64, run: &mut Run) {
    let mut rng = Rng::new(seed ^ 0x5157);
    for row in rows {
        let Ok((design, _)) = hnl::parse(&row.text) else {
            continue;
        };
        let Ok(flat) = design.flatten(&row.top) else {
            continue;
        };
        let n = flat.inputs().len();
        let zeros = vec![Time::ZERO; n];
        let mut worst = Time::NEG_INF;
        for _ in 0..SIM_PAIRS[usize::from(!row.table1)] {
            let from: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
            let to: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
            match event_sim::simulate_transition(&flat, &from, &to, &zeros) {
                Ok(out) => worst = worst.max(out.settle),
                Err(e) => {
                    run.check(false, || {
                        format!("{}: event simulation failed: {e}", row.name)
                    });
                    return;
                }
            }
        }
        let flat_pin = Time::new(row.pinned[2]);
        run.check(worst <= flat_pin, || {
            format!(
                "{}: simulated settle {worst} exceeds the flat delay {flat_pin}",
                row.name
            )
        });
    }
}

pub fn run(ctx: &Ctx, sp: &mut Spans) -> Result<Run, String> {
    let rows = rows();
    let parsed = parse_rows(&rows);
    let mut run = Run::default();

    let mut setup = SetupSamples::default();
    let set_up = |setup: &mut SetupSamples, run: &mut Run, sp: &mut Spans| {
        for _ in 0..SETUP_ROUNDS {
            let p = pass(&rows, None, run, sp);
            setup.push(p.setup, p.parse, p.analyzer_new);
        }
    };
    set_up(&mut setup, &mut run, sp);

    let traced = sp.enabled();
    let (mut work_on, mut work_off) = (Vec::new(), Vec::new());
    let mut demand = vec![Vec::new(); rows.len()];
    let mut flat = Vec::new();
    let mut last = Pass::default();
    let start = Instant::now();
    let mut k = 0usize;
    while k < 2 || ctx.time_left(start) {
        // Traced runs alternate recording on and off, so the recorder's
        // own cost shows as `bench.trace_overhead_pct`.
        let recording = traced && k.is_multiple_of(2);
        sp.set_enabled(recording);
        set_up(&mut setup, &mut run, sp);
        let p = pass(&rows, Some(&parsed), &mut run, sp);
        let w: f64 = p.demand.iter().flatten().chain(&p.flat).sum();
        if recording {
            work_on.push(w)
        } else {
            work_off.push(w)
        }
        setup.push(p.setup, p.parse, p.analyzer_new);
        for (row, samples) in demand.iter_mut().zip(&p.demand) {
            row.extend(samples);
        }
        flat.push(p.flat.clone());
        last = p;
        k += 1;
    }
    sp.set_enabled(traced);
    check_simulation(&rows, ctx.seed, &mut run);

    // A sweep's time is the sum over rows of each row's median sample:
    // a burst of host noise during one row of one pass does not move
    // it. But the host's speed also drifts over tens of seconds, and a
    // slow stretch moves a median, so `reuse_ms` sums each row's best
    // demand-driven sample instead, the one the host slowed least: the
    // sweeps sample every row at a few dozen moments spread over the
    // run. A row without samples has already failed the run.
    let per_row = |stat: fn(&[f64]) -> f64, samples: &[Vec<f64>]| -> Vec<f64> {
        samples
            .iter()
            .map(|xs| if xs.is_empty() { 0.0 } else { stat(xs) })
            .collect()
    };
    let flat_rows: Vec<Vec<f64>> = (0..rows.len())
        .map(|r| flat.iter().map(|pass| pass[r]).collect())
        .collect();
    let demand_s: f64 = per_row(median, &demand).iter().sum();
    let demand_best_s: f64 = per_row(best, &demand).iter().sum();
    let flat_median = per_row(median, &flat_rows);
    let flat_s: f64 = flat_median.iter().sum();
    let flat_max = flat_median.iter().copied().fold(0.0, f64::max);
    let m = &mut run.named;
    m.set("setup_s", median(&setup.setup), "s");
    m.set("demand_s", demand_s, "s");
    m.set("demand_best_s", demand_best_s, "s");
    m.set("flat_s", flat_s, "s");
    m.set("passes", k as f64, "count");
    let rss = peak_rss_mb(None).unwrap_or(0.0);
    m.set("peak_rss_mb", rss, "MiB");

    let mut out = Metrics::default();
    if traced {
        out.set("netlist.parse_ms", median(&setup.parse), "ms");
        let designs: Vec<Design> = rows
            .iter()
            .filter_map(|r| hnl::parse(&r.text).ok().map(|(d, _)| d))
            .collect();
        out.set("netlist.cone_sig_ms", cone_sig_ms(&designs, sp), "ms");
        stability_metrics(&mut out, "demand", &last.demand_stats);
        stability_metrics(&mut out, "flat", &last.flat_stats);
        out.set("fta.flat_max_ms", flat_max * 1e3, "ms");
        out.set(
            "core.refine_ms.demand",
            last.demand_stats.wall.refine_micros as f64 / 1e3,
            "ms",
        );
        out.set(
            "core.propagate_ms.demand",
            last.demand_stats.wall.propagate_micros as f64 / 1e3,
            "ms",
        );
        out.set("core.demand_rounds", last.rounds as f64, "count");
        out.set("core.demand_checks", last.checks as f64, "count");
        out.set(
            "core.check_yield",
            ratio(last.refinements, last.checks),
            "ratio",
        );
        out.set("core.analyzer_new_ms", median(&setup.analyzer_new), "ms");
        out.set(
            "bench.trace_overhead_pct",
            overhead_pct(&work_on, &work_off),
            "%",
        );
    } else {
        out.set("setup_s", median(&setup.setup), "s");
        out.set("work_s", demand_s + flat_s, "s");
        out.set("reuse_ms", demand_best_s * 1e3, "ms");
        out.set("peak_rss_mb", rss, "MiB");
    }
    run.metrics = out;
    Ok(run)
}
