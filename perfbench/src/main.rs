//! The repository benchmark: one workload per run, every answer
//! checked, end-to-end metrics on untraced runs and per-layer metrics
//! on traced ones. See `README.md` next to this crate for the
//! workloads, the metric table and how to read the traced-run export.
//!
//! ```text
//! hfta-perfbench --workload <paper_tables|modular_20k|serve_mixed>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--hfta <path to the hfta binary>] [--out <dir>] [--rev <text>]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; a wrong answer makes
//! the process exit with status 1.

mod measure;
mod modular;
mod paper;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{num, Metrics, Spans};

/// The end-to-end metrics every workload reports on an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("reuse_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// metric a workload does not exercise reads 0 there (see README).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    add("netlist.parse_ms".into(), "ms");
    add("netlist.cone_sig_ms".into(), "ms");
    for counter in [
        "queries",
        "conflicts",
        "propagations",
        "learnts_imported",
        "clauses_subsumed",
    ] {
        for phase in STABILITY_PHASES {
            add(format!("sat.{counter}.{phase}"), "count");
        }
    }
    add("fta.characterize_ms".into(), "ms");
    add("fta.characterize_max_ms".into(), "ms");
    for (counter, unit) in [
        ("stability_queries", "count"),
        ("pruned_ratio", "ratio"),
        ("memo_hits", "count"),
        ("cone_sig_hit_ratio", "ratio"),
    ] {
        for phase in STABILITY_PHASES {
            add(format!("fta.{counter}.{phase}"), unit);
        }
    }
    add("fta.flat_max_ms".into(), "ms");
    add("core.refine_ms.demand".into(), "ms");
    for phase in ["cold", "demand", "warm"] {
        add(format!("core.propagate_ms.{phase}"), "ms");
    }
    add("core.demand_rounds".into(), "count");
    add("core.demand_checks".into(), "count");
    add("core.check_yield".into(), "ratio");
    add("core.analyzer_new_ms".into(), "ms");
    add("core.snapshot_us".into(), "us");
    for name in ["store_ms", "open_ms", "probe_ms"] {
        add(format!("modeldb.{name}"), "ms");
    }
    add("modeldb.bytes".into(), "B");
    add("modeldb.hit_ratio".into(), "ratio");
    add("modeldb.invalidations".into(), "count");
    for name in ["tasks", "steals", "batches"] {
        add(format!("sched.{name}"), "count");
    }
    add("sched.efficiency".into(), "ratio");
    add("serve.parse_us".into(), "us");
    add("serve.encode_us".into(), "us");
    for kind in serve::READ_KINDS {
        add(format!("serve.dispatch_us.{kind}"), "us");
    }
    add("serve.dispatch_ms.eco".into(), "ms");
    add("serve.transport_us".into(), "us");
    for q in ["p50", "p99"] {
        for kind in serve::ALL_KINDS {
            add(format!("serve.latency_{q}_us.{kind}"), "us");
        }
    }
    add("serve.cache_hit_ratio".into(), "ratio");
    for name in [
        "queue_depth_hwm",
        "barrier_waits",
        "eco_recharacterized",
        "errors",
    ] {
        add(format!("serve.{name}"), "count");
    }
    for layer in measure::LAYERS {
        add(format!("{layer}.self_ms"), "ms");
    }
    add("bench.trace_overhead_pct".into(), "%");
    v
}

/// Phases whose stability counters are reported (`warm` does no SAT
/// work by construction; the modular workload checks that it stays 0).
pub const STABILITY_PHASES: [&str; 3] = ["cold", "demand", "flat"];

/// What one run of a workload hands back to `main`.
#[derive(Default)]
pub struct Run {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The workload's own named figures (`demand_s`, `query_p99_ms`, …),
    /// printed by name for people; not part of the result object.
    pub named: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Every wrong answer, described.
    pub wrong: Vec<String>,
}

impl Run {
    /// Records a failed answer check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

/// Run parameters shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Pool workers, daemon `--threads` and client connections: always
    /// `nproc`, so a run is never wider than the machine.
    pub threads: usize,
    pub hfta: Option<PathBuf>,
    /// Scratch and export directory (inside the checkout).
    pub out: PathBuf,
}

impl Ctx {
    /// Whether the measuring budget of this run is spent.
    pub fn time_left(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() < self.seconds
    }

    /// A per-run scratch directory under `out`, created empty.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self
            .out
            .join(format!("tmp-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is creatable");
        dir
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hfta: Option<PathBuf>,
    out: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        hfta: None,
        out: PathBuf::from("perfbench/out"),
        rev: "unknown".into(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} `{value}` (want {what})");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--hfta" => a.hfta = Some(PathBuf::from(value)),
            "--out" => a.out = PathBuf::from(value),
            "--rev" => a.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown-cpu".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        hfta: args.hfta,
        out: args.out,
    };
    let mut spans = Spans::new(args.trace);
    let run = match args.workload.as_str() {
        "paper_tables" => paper::run(&ctx, &mut spans),
        "modular_20k" => modular::run(&ctx, &mut spans),
        "serve_mixed" => serve::run(&ctx, &mut spans),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(ctx.out.join(format!("tmp-{}", std::process::id())));
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    // Every expected metric is present, and nothing else.
    let expected: Vec<(String, &str)> = if args.trace {
        let self_times = spans.self_times();
        for (layer, (t, _)) in &self_times {
            run.metrics.set(format!("{layer}.self_ms"), *t, "ms");
        }
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &expected {
        run.metrics.zero_if_unset(name, unit);
    }
    let names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    if let Some((extra, _)) = run
        .metrics
        .iter()
        .find(|(n, _)| !names.contains(&n.as_str()))
    {
        eprintln!("perfbench: internal error: unlisted metric `{extra}`");
        return ExitCode::from(2);
    }

    let provenance = format!(
        "{{\"rev\": \"{}\", \"machine\": \"{} x{nproc}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {threads}, \"connections\": {}}}",
        args.rev,
        cpu_model(),
        args.workload,
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        if args.workload == "serve_mixed" { threads } else { 0 },
    );
    println!("provenance {provenance}");
    for (name, (value, unit)) in run.named.iter() {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    if args.trace {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        match spans.export(&ctx.out, &stem) {
            Ok(()) => println!(
                "  spans: {}/{stem}.spans.jsonl, self times: {}/{stem}.layers.txt",
                ctx.out.display(),
                ctx.out.display()
            ),
            Err(e) => run.wrong.push(format!("span export failed: {e}")),
        }
    }
    for w in &run.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }
    let correct = run.wrong.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        run.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
