//! `modular_20k`: characterize-once, answer-many on a 20k-gate modular
//! design (`ModularDesignSpec::sized(20_000, 41)`, the repository's
//! warm-start design), written to `.hnl` and parsed back. Each pass has
//! three phases on one pool of `threads` workers:
//!
//! * **cold** — the two-step `HierAnalyzer`, emitting every model into
//!   a fresh model database;
//! * **demand** — `DemandDrivenAnalyzer` (Section 5 refinement);
//! * **warm** — fresh analyzers that only read that database, under
//!   seeded primary-input arrivals.
//!
//! The design is fixed: with the generator seed set from the workload
//! seed, cold characterization ranged from 2.9 s to 9.1 s over four
//! seeds, because one straggler flavor bounds it. The workload seed
//! draws the warm phase's arrival vectors instead.

use std::path::Path;
use std::time::Instant;

use hfta_core::{
    AnalysisConfig, DemandDrivenAnalyzer, HierAnalyzer, HierOptions, ModelDb, Scheduler,
};
use hfta_netlist::gen::{modular_design, ModularDesignSpec};
use hfta_netlist::{hnl, Design, ModuleBody, Time};

use crate::measure::{
    best, cone_sig_ms, dir_bytes, median, ms, overhead_pct, peak_rss_mb, ratio, stability_metrics,
    Metrics, Rng, SetupSamples, Spans,
};
use crate::{Ctx, Run};

pub const DESIGN_SEED: u64 = 41;
const COLD_DELAY: i64 = 176;
const DEMAND_DELAY: i64 = 179;
const DEMAND_ROUNDS: u64 = 51;
const DEMAND_CHECKS: u64 = 1915;

/// Set-up rounds before the passes, and again before each pass.
const SETUP_ROUNDS: usize = 3;
/// Warm restarts per pass.
const WARM_RESTARTS: usize = 12;

/// The modular design, its top name and `.hnl` text.
pub fn design() -> (ModularDesignSpec, String, String) {
    let spec = ModularDesignSpec::sized(20_000, DESIGN_SEED);
    let top = spec.top_name();
    let text = hnl::write(&modular_design(spec), Some(&top));
    (spec, top, text)
}

/// Seeded primary-input arrivals: about one input in ten arrives late.
pub fn arrivals(rng: &mut Rng, n: usize) -> Vec<Time> {
    (0..n)
        .map(|_| {
            if rng.chance(0.1) {
                Time::new(1 + rng.below(6) as i64)
            } else {
                Time::ZERO
            }
        })
        .collect()
}

/// The distinct leaf modules of `design`, by name.
pub fn leaf_names(design: &Design) -> Vec<String> {
    design
        .modules()
        .iter()
        .filter(|d| matches!(d.body, ModuleBody::Leaf(_)))
        .map(|d| d.name.clone())
        .collect()
}

/// Per-layer probes run once per traced run, outside the passes.
fn layer_probes(design: &Design, top: &str, cold_db: &Path, out: &mut Metrics, sp: &mut Spans) {
    let names = leaf_names(design);
    out.set(
        "netlist.cone_sig_ms",
        cone_sig_ms(std::slice::from_ref(design), sp),
        "ms",
    );

    // Serial characterization on a separate analyzer: the per-leaf
    // cost whose maximum is the parallel straggler.
    let mut serial = HierAnalyzer::new(design, top, HierOptions::default()).expect("valid design");
    let (mut total, mut max) = (0.0f64, 0.0f64);
    let mut timings = Vec::new();
    for name in &names {
        let t = Instant::now();
        let timing = sp.time("fta", "characterize_module", || {
            serial.module_timing(name).cloned()
        });
        let dt = ms(t.elapsed());
        total += dt;
        max = max.max(dt);
        if let Ok(timing) = timing {
            timings.push((name, timing));
        }
    }
    out.set("fta.characterize_ms", total, "ms");
    out.set("fta.characterize_max_ms", max, "ms");

    let config = AnalysisConfig::default();
    let opts = config.characterize_options();
    let store_dir = cold_db.with_extension("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let t = Instant::now();
    let db = sp.time("modeldb", "ModelDb::open", || ModelDb::open(cold_db));
    out.set("modeldb.open_ms", ms(t.elapsed()), "ms");
    if let (Ok(mut db), Ok(mut fresh)) = (db, ModelDb::open(&store_dir)) {
        let t = Instant::now();
        sp.time("modeldb", "ModelDb::probe", || {
            for (name, _) in &timings {
                let nl = design.leaf(name).expect("listed leaf exists");
                let _ = std::hint::black_box(db.probe(nl, config.source, &opts));
            }
        });
        out.set("modeldb.probe_ms", ms(t.elapsed()), "ms");
        let t = Instant::now();
        sp.time("modeldb", "ModelDb::store", || {
            for (name, timing) in &timings {
                let nl = design.leaf(name).expect("listed leaf exists");
                fresh.store(nl, config.source, &opts, timing, false);
            }
        });
        out.set("modeldb.store_ms", ms(t.elapsed()), "ms");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Times one set-up round (parse, then both analyzers' construction)
/// and returns the parsed design.
fn set_up(
    samples: &mut SetupSamples,
    text: &str,
    top: &str,
    pooled: &AnalysisConfig,
    sp: &mut Spans,
) -> Result<Design, String> {
    let t = Instant::now();
    let parsed = sp.time("netlist", "hnl::parse", || hnl::parse(text));
    let parse = t.elapsed();
    let (d, _) = parsed.map_err(|e| format!("generated .hnl does not parse: {e}"))?;
    let t_new = Instant::now();
    let hier = sp.time("core", "HierAnalyzer::with_config", || {
        HierAnalyzer::with_config(&d, top, pooled).map(drop)
    });
    let analyzer_new = t_new.elapsed();
    let demand = sp.time("core", "DemandDrivenAnalyzer::with_config", || {
        DemandDrivenAnalyzer::with_config(&d, top, pooled).map(drop)
    });
    samples.push(t.elapsed(), parse, analyzer_new);
    hier.and(demand)
        .map_err(|e| format!("analyzer construction failed: {e}"))?;
    Ok(d)
}

pub fn run(ctx: &Ctx, sp: &mut Spans) -> Result<Run, String> {
    let (spec, top, text) = design();
    let mut run = Run::default();
    let mut rng = Rng::new(ctx.seed);
    let pool = Scheduler::new(ctx.threads);
    let pooled = AnalysisConfig::default()
        .with_threads(ctx.threads)
        .with_scheduler(pool.clone());

    // Set-up: parse plus analyzer construction, a few rounds first and
    // more between passes, so the median spans the whole run.
    let mut setup = SetupSamples::default();
    for _ in 0..SETUP_ROUNDS {
        set_up(&mut setup, &text, &top, &pooled, sp)?;
    }
    let design = set_up(&mut setup, &text, &top, &pooled, sp)?;
    let n_in = design.composite(&top).expect("top exists").inputs().len();
    let zeros = vec![Time::ZERO; n_in];

    let traced = sp.enabled();
    let sched_before = pool.stats();
    let (mut work_on, mut work_off) = (Vec::new(), Vec::new());
    let (mut cold, mut demand, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_stats, mut demand_stats, mut warm_prop) = (None, None, Vec::new());
    let mut db_stats = hfta_core::ModelDbStats::default();
    let cold_db = ctx.scratch("cold-db");
    let start = Instant::now();
    let mut k = 0usize;
    while k < 2 || ctx.time_left(start) {
        let recording = traced && k.is_multiple_of(2);
        sp.set_enabled(recording);
        for _ in 0..SETUP_ROUNDS {
            set_up(&mut setup, &text, &top, &pooled, sp)?;
        }

        // Cold: full characterization into a fresh database.
        ctx.scratch("cold-db");
        let cold_cfg = pooled.clone().with_emit_models(&cold_db);
        let mut cold_an = HierAnalyzer::with_config(&design, &top, &cold_cfg)
            .map_err(|e| format!("cold analyzer: {e}"))?;
        let t = Instant::now();
        let r = sp.time("core", "HierAnalyzer::analyze", || cold_an.analyze(&zeros));
        cold.push(t.elapsed().as_secs_f64());
        run.attempted += 1;
        let r = r.map_err(|e| format!("cold analysis failed: {e}"))?;
        run.check(r.delay == Time::new(COLD_DELAY), || {
            format!("cold delay {} != pinned {COLD_DELAY}", r.delay)
        });
        run.check(
            r.stats.modules_characterized > 0 && r.stats.modules_degraded == 0,
            || {
                format!(
                    "cold run characterized {} modules, {} degraded",
                    r.stats.modules_characterized, r.stats.modules_degraded
                )
            },
        );

        // Demand-driven refinement on the same pool.
        let mut demand_an = DemandDrivenAnalyzer::with_config(&design, &top, &pooled)
            .map_err(|e| format!("demand analyzer: {e}"))?;
        let t = Instant::now();
        let d = sp.time("core", "DemandDrivenAnalyzer::analyze", || {
            demand_an.analyze(&zeros)
        });
        demand.push(t.elapsed().as_secs_f64());
        run.attempted += 1;
        let d = d.map_err(|e| format!("demand analysis failed: {e}"))?;
        run.check(
            d.delay == Time::new(DEMAND_DELAY) && d.rounds == DEMAND_ROUNDS && d.checks == DEMAND_CHECKS,
            || {
                format!(
                    "demand: delay {} rounds {} checks {} != pinned {DEMAND_DELAY}/{DEMAND_ROUNDS}/{DEMAND_CHECKS}",
                    d.delay, d.rounds, d.checks
                )
            },
        );

        // Warm: fresh analyzers reading only the database.
        let warm_cfg = AnalysisConfig::default().with_use_models(&cold_db);
        let mut warm_wall = 0.0;
        for _ in 0..WARM_RESTARTS {
            let arr = arrivals(&mut rng, n_in);
            let t = Instant::now();
            let w = sp.time("core", "HierAnalyzer::warm_restart", || {
                HierAnalyzer::with_config(&design, &top, &warm_cfg)
                    .and_then(|mut an| an.analyze(&arr).map(|r| (r, an.model_db_stats())))
            });
            let dt = t.elapsed();
            warm.push(ms(dt));
            warm_wall += dt.as_secs_f64();
            run.attempted += 1;
            let (w, stats) = match w {
                Ok(x) => x,
                Err(e) => {
                    run.failed += 1;
                    run.check(false, || format!("warm restart failed: {e}"));
                    continue;
                }
            };
            db_stats.merge(&stats);
            warm_prop.push(w.stats.stability.wall.propagate_micros as f64 / 1e3);
            let expect = cold_an.analyze(&arr).map(|r| r.delay);
            run.check(
                w.stats.modules_characterized == 0
                    && w.stats.stability.sat_queries == 0
                    && expect.as_ref().is_ok_and(|&e| e == w.delay),
                || {
                    format!(
                        "warm restart: {} characterized, {} SAT queries, delay {} vs cold {:?}",
                        w.stats.modules_characterized,
                        w.stats.stability.sat_queries,
                        w.delay,
                        expect
                    )
                },
            );
        }
        let pass_work =
            cold.last().expect("cold ran") + demand.last().expect("demand ran") + warm_wall;
        if recording {
            work_on.push(pass_work)
        } else {
            work_off.push(pass_work)
        }
        cold_stats = Some(r.stats.stability);
        demand_stats = Some((d.stability, d.rounds, d.checks, d.refinements));
        k += 1;
    }
    sp.set_enabled(traced);
    let sched = pool.stats();

    let rss = peak_rss_mb(None).unwrap_or(0.0);
    let m = &mut run.named;
    m.set("setup_s", median(&setup.setup), "s");
    m.set("cold_s", median(&cold), "s");
    m.set("demand_s", median(&demand), "s");
    m.set("warm_ms", median(&warm), "ms");
    m.set("warm_best_ms", best(&warm), "ms");
    m.set("warm_samples", warm.len() as f64, "count");
    m.set("passes", k as f64, "count");
    m.set("peak_rss_mb", rss, "MiB");
    m.set("gates", spec.total_gates() as f64, "count");

    let mut out = Metrics::default();
    if traced {
        out.set("netlist.parse_ms", median(&setup.parse), "ms");
        out.set("core.analyzer_new_ms", median(&setup.analyzer_new), "ms");
        if let Some(s) = &cold_stats {
            stability_metrics(&mut out, "cold", s);
            out.set(
                "core.propagate_ms.cold",
                s.wall.propagate_micros as f64 / 1e3,
                "ms",
            );
        }
        if let Some((s, rounds, checks, refinements)) = &demand_stats {
            stability_metrics(&mut out, "demand", s);
            out.set(
                "core.refine_ms.demand",
                s.wall.refine_micros as f64 / 1e3,
                "ms",
            );
            out.set(
                "core.propagate_ms.demand",
                s.wall.propagate_micros as f64 / 1e3,
                "ms",
            );
            out.set("core.demand_rounds", *rounds as f64, "count");
            out.set("core.demand_checks", *checks as f64, "count");
            out.set("core.check_yield", ratio(*refinements, *checks), "ratio");
        }
        out.set("core.propagate_ms.warm", median(&warm_prop), "ms");
        out.set("modeldb.bytes", dir_bytes(&cold_db) as f64, "B");
        out.set(
            "modeldb.hit_ratio",
            ratio(db_stats.hits, db_stats.hits + db_stats.misses),
            "ratio",
        );
        out.set(
            "modeldb.invalidations",
            db_stats.invalidations as f64,
            "count",
        );
        let passes = k as f64;
        out.set(
            "sched.tasks",
            (sched.tasks_executed - sched_before.tasks_executed) as f64 / passes,
            "count",
        );
        out.set(
            "sched.steals",
            (sched.steals - sched_before.steals) as f64 / passes,
            "count",
        );
        out.set(
            "sched.batches",
            (sched.batches - sched_before.batches) as f64 / passes,
            "count",
        );
        layer_probes(&design, &top, &cold_db, &mut out, sp);
        let char_ms = out.get("fta.characterize_ms").unwrap_or(0.0);
        out.set(
            "sched.efficiency",
            char_ms / (ctx.threads as f64 * median(&cold) * 1e3),
            "ratio",
        );
        out.set(
            "bench.trace_overhead_pct",
            overhead_pct(&work_on, &work_off),
            "%",
        );
    } else {
        out.set("setup_s", median(&setup.setup), "s");
        // A pass's time as the sum of its phases' medians, so a burst of
        // host noise in one phase of one pass does not move it.
        let work = median(&cold) + median(&demand) + WARM_RESTARTS as f64 * median(&warm) / 1e3;
        out.set("work_s", work, "s");
        // The host's speed drifts over tens of seconds, and a slow
        // stretch moves the median of the short warm restarts; there are
        // over a hundred of them spread over the run, and the best is the
        // one the host slowed least.
        out.set("reuse_ms", best(&warm), "ms");
        out.set("peak_rss_mb", rss, "MiB");
    }
    run.metrics = out;
    Ok(run)
}
