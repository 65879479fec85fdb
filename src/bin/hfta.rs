//! `hfta` — command-line hierarchical functional timing analysis.
//!
//! ```text
//! hfta report <file.bench|file.hnl> [--module NAME] [--arrival PIN=T]... [--budget-conflicts N] [--budget-ms MS] [--[no-]shared-solver] [--stats] [--trace] [--trace-json FILE]
//! hfta hier <file.hnl> --top NAME [--algo two-step|demand] [--threads N] [--no-thread-clamp] [--arrival PIN=T]... [--budget-conflicts N] [--budget-ms MS] [--no-cone-sig] [--[no-]shared-solver] [--use-models DIR] [--emit-models DIR] [--model-limit N] [--stats] [--trace] [--trace-json FILE]
//! hfta serve <file> [--top NAME] [--socket PATH] [--threads N] [--deadline-ms MS] [--budget-conflicts N] [--max-line BYTES] [--[no-]shared-solver] [--use-models DIR] [--no-write-through] [--emit-models DIR] [--model-limit N] [--stats] [--trace] [--trace-json FILE]
//! hfta characterize <file> [--module NAME] [--topological] [-o MODEL.hfta] [--emit-model DIR] [--use-models DIR] [--stats]
//! hfta models <DIR>
//! hfta sim <file> [--module NAME] --from BITS --to BITS
//! hfta check <file> [--module NAME]
//! hfta dot <file> [--module NAME] [-o GRAPH.dot]
//! hfta verify <file> --model MODEL.hfta [--module NAME]
//! hfta flatten <file.hnl> --top NAME [-o FLAT.bench]
//! hfta convert <file> [--module NAME] -o OUT.{bench|blif}
//! ```
//!
//! `.bench` files hold a single flat module; `.hnl` files hold
//! hierarchical designs (see the `hfta_netlist::hnl` docs). Unlisted
//! arrivals default to `t = 0`. `--stats` prints the stability-query
//! and SAT-solver counters the analysis accumulated, plus which
//! outputs/modules/edges a budget degraded and why.
//!
//! `--budget-conflicts N` caps each SAT query at `N` conflicts;
//! `--budget-ms MS` sets a wall-clock deadline for the whole analysis.
//! Queries a budget interrupts degrade their result to the topological
//! answer — conservative, never wrong — so the tool still exits 0 with
//! a complete (if less sharp) report.
//!
//! `hier` shares work across structurally identical logic cones by
//! default (hash-consed cone signatures): two-step characterization is
//! reused across renamed module copies, and demand-driven stability
//! verdicts across isomorphic cones. `--no-cone-sig` turns the sharing
//! off; `--stats` shows its effect as `cone signatures: H hits, M
//! misses` plus (two-step) the modules aliased to a structural twin.
//!
//! Unlimited-budget stability queries run by default in *shared-solver*
//! mode: one incremental SAT instance per module answers every cone's
//! queries, restricted to the cone's transitive-fanin variable domain,
//! so learnt clauses transfer across cones and queries (see
//! DESIGN.md, "Why domain-restricted sharing is sound"). Results are
//! bit-identical either way; `--no-shared-solver` (or `--shared-solver`
//! to spell the default) selects fresh per-cone solvers instead, and
//! `--stats` reports the sharing as `shared solver: D domains built, S
//! clauses subsumed, L learnts imported`. Budgeted runs always use
//! per-cone solvers so degraded verdicts never contaminate shared
//! state.
//!
//! `--use-models DIR` warm-starts an analysis from a persistent model
//! database: characterized models (and demand-driven stability
//! verdicts) stored by an earlier run are reloaded, validated against
//! the exact netlist structure, and served without re-characterizing.
//! `--emit-models DIR` stores this run's fresh, undegraded results into
//! the database (`--model-limit N` caps it, LRU). `hfta characterize
//! --emit-model DIR` seeds a database from every leaf of a design, and
//! `hfta models DIR` audits one. Warm-started results are bit-identical
//! to cold ones — a record is only served when its structural
//! signature, exact fingerprint and characterization options all match.
//!
//! `--trace` prints a human-readable span tree of the analysis to
//! stderr; `--trace-json FILE` (or the `HFTA_TRACE_JSON` env var)
//! writes the same structured trace as JSON Lines — one record per
//! span/event, covering SAT solve episodes, stability-oracle queries,
//! relaxation steps, refinement rounds and module characterizations.
//! Tracing is an observer: results are bit-identical with it on or
//! off, and stdout is unchanged.
//!
//! `serve` starts a long-lived daemon: the design is loaded and
//! characterized once (warm-started from `--use-models DIR` when
//! given), then newline-delimited JSON requests — full reports,
//! per-output delays, slacks, what-if arrival changes, ECO edits —
//! are answered from the warm caches on stdin/stdout (or `--socket
//! PATH`). `--deadline-ms MS` gives every request a default QoS
//! deadline: an expiring request degrades to the sound topological
//! answer (`"degraded":true`) instead of blocking the queue. With
//! `--socket PATH` any number of clients may connect concurrently:
//! responses stay in per-connection FIFO order and ECO edits run
//! behind a write barrier. A daemon started with `--use-models DIR`
//! also *writes through* to that database (fresh undegraded models —
//! e.g. ECO recharacterizations — are persisted, so a restart warm
//! starts with 0 characterizations even after edits); `--emit-models`
//! redirects the writes, `--no-write-through` disables them. See the
//! `hfta_serve` crate docs for the request/response schema.

use std::collections::HashMap;
use std::process::ExitCode;

use hfta::fta::TimingReport;
use hfta::netlist::event_sim::simulate_transition;
use hfta::netlist::stats::{to_dot, NetlistStats};
use hfta::netlist::{bench_format, blif, hnl};
use hfta::{
    AnalysisConfig, DemandDrivenAnalyzer, Design, HierAnalyzer, ModelDb, ModelSource, ModuleTiming,
    Netlist, SolveBudget, Time, TraceSink,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage());
    };
    match command.as_str() {
        "report" => cmd_report(rest),
        "hier" => cmd_hier(rest),
        "serve" => cmd_serve(rest),
        "characterize" => cmd_characterize(rest),
        "models" => cmd_models(rest),
        "sim" => cmd_sim(rest),
        "check" => cmd_check(rest),
        "dot" => cmd_dot(rest),
        "verify" => cmd_verify(rest),
        "flatten" => cmd_flatten(rest),
        "convert" => cmd_convert(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     hfta report <file> [--module NAME] [--arrival PIN=T]... [--budget-conflicts N] [--budget-ms MS] [--[no-]shared-solver] [--stats] [--trace] [--trace-json FILE]\n  \
     hfta hier <file.hnl> --top NAME [--algo two-step|demand] [--threads N] [--no-thread-clamp] [--arrival PIN=T]... [--budget-conflicts N] [--budget-ms MS] [--no-cone-sig] [--[no-]shared-solver] [--use-models DIR] [--emit-models DIR] [--model-limit N] [--stats] [--trace] [--trace-json FILE]\n  \
     hfta serve <file> [--top NAME] [--socket PATH] [--threads N] [--deadline-ms MS] [--budget-conflicts N] [--max-line BYTES] [--[no-]shared-solver] [--use-models DIR] [--no-write-through] [--emit-models DIR] [--model-limit N] [--stats] [--trace] [--trace-json FILE]\n  \
     hfta characterize <file> [--module NAME] [--topological] [-o MODEL.hfta] [--emit-model DIR] [--use-models DIR] [--stats]\n  \
     hfta models <DIR>\n  \
     hfta sim <file> [--module NAME] --from BITS --to BITS\n  \
     hfta check <file> [--module NAME]\n  \
     hfta dot <file> [--module NAME] [-o GRAPH.dot]\n  \
     hfta verify <file> --model MODEL.hfta [--module NAME]\n  \
     hfta flatten <file.hnl> --top NAME [-o FLAT.bench]\n  \
     hfta convert <file> [--module NAME] -o OUT.{bench|blif}"
        .to_string()
}

/// Minimal flag parser: positionals + `--key value` + `--flag`.
struct Opts {
    positionals: Vec<String>,
    values: HashMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// The flags `hfta COMMAND` accepts, read off its line in [`usage`]:
/// `(flag, takes_value)`. A flag takes a value when its usage entry
/// names one (`[--module NAME]`); `--[no-]X` stands for both `--X` and
/// `--no-X`. Reading the flags from the usage text keeps the two from
/// drifting apart.
fn command_flags(command: &str) -> Vec<(String, bool)> {
    let usage = usage();
    let Some(line) = usage
        .lines()
        .find(|l| l.split_whitespace().nth(1) == Some(command))
    else {
        return Vec::new();
    };
    let tokens: Vec<&str> = line
        .split_whitespace()
        .map(|t| {
            t.trim_start_matches('[')
                .trim_end_matches("...")
                .trim_end_matches(']')
        })
        .collect();
    let mut flags = Vec::new();
    for (i, t) in tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.starts_with('-'))
    {
        let takes_value = tokens.get(i + 1).is_some_and(|next| !next.starts_with('-'));
        match t.strip_prefix("--[no-]") {
            Some(name) => {
                flags.push((format!("--{name}"), takes_value));
                flags.push((format!("--no-{name}"), takes_value));
            }
            None => flags.push((t.to_string(), takes_value)),
        }
    }
    flags
}

/// How the user asked to observe the analysis: a shared sink (disabled
/// unless some trace output was requested), an optional JSONL path
/// (`--trace-json FILE`, falling back to `HFTA_TRACE_JSON`), and
/// whether to print the span tree (`--trace`).
struct TraceSetup {
    sink: TraceSink,
    json_path: Option<String>,
    tree: bool,
}

fn trace_setup(opts: &Opts) -> TraceSetup {
    let json_path = opts
        .value("--trace-json")
        .map(str::to_string)
        .or_else(|| std::env::var("HFTA_TRACE_JSON").ok());
    let tree = opts.has_flag("--trace");
    let sink = if tree || json_path.is_some() {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };
    TraceSetup {
        sink,
        json_path,
        tree,
    }
}

impl TraceSetup {
    /// Drains the sink once the analysis is done: writes JSONL and/or
    /// prints the span tree to stderr (stdout stays untouched, so
    /// piped reports are unaffected by tracing).
    fn emit(&self) -> Result<(), String> {
        if !self.sink.is_enabled() {
            return Ok(());
        }
        let trace = self.sink.drain();
        if let Some(path) = &self.json_path {
            std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("trace: wrote {} records to {path}", trace.len());
        }
        if self.tree {
            eprint!("{}", trace.render_tree());
        }
        Ok(())
    }
}

/// Resolves the `--shared-solver` / `--no-shared-solver` pair. Shared
/// mode is the default; the positive flag exists so scripts can spell
/// the default explicitly. When both are given the negative wins (it
/// is the conservative choice).
fn shared_solver_from(opts: &Opts) -> bool {
    !opts.has_flag("--no-shared-solver")
}

/// Builds the analysis budget from `--budget-conflicts N` (per-query
/// SAT conflict cap) and `--budget-ms MS` (wall-clock deadline for the
/// whole analysis, measured from now). Unlimited when neither is given.
fn budget_from(opts: &Opts) -> Result<SolveBudget, String> {
    let mut budget = SolveBudget::UNLIMITED;
    if let Some(n) = opts.value("--budget-conflicts") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("bad --budget-conflicts `{n}` (want a number)"))?;
        budget = budget.with_conflicts(n);
    }
    if let Some(ms) = opts.value("--budget-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --budget-ms `{ms}` (want milliseconds)"))?;
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
        budget = budget.with_deadline(deadline);
    }
    Ok(budget)
}

/// Applies `--use-models DIR`, `--emit-models DIR` and `--model-limit
/// N` to the analysis configuration.
fn apply_model_db(mut config: AnalysisConfig, opts: &Opts) -> Result<AnalysisConfig, String> {
    if let Some(dir) = opts.value("--use-models") {
        config = config.with_use_models(dir);
    }
    if let Some(dir) = opts.value("--emit-models") {
        config = config.with_emit_models(dir);
    }
    if let Some(n) = opts.value("--model-limit") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad --model-limit `{n}` (want a number)"))?;
        config = config.with_model_limit(Some(n));
    }
    Ok(config)
}

/// Splits `args` into positionals, `--key value` pairs and switches,
/// rejecting any flag `hfta command` does not accept (see
/// [`command_flags`]) instead of silently ignoring it.
fn parse_opts(args: &[String], command: &str) -> Result<Opts, String> {
    let accepted = command_flags(command);
    let mut opts = Opts {
        positionals: Vec::new(),
        values: HashMap::new(),
        flags: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let known = accepted.iter().find(|(flag, _)| flag == a);
        if let Some((_, true)) = known {
            let v = it
                .next()
                .ok_or_else(|| format!("flag `{a}` needs a value"))?;
            opts.values.entry(a.clone()).or_default().push(v.clone());
        } else if known.is_some() {
            opts.flags.push(a.clone());
        } else if a.starts_with('-') {
            return Err(format!(
                "`hfta {command}` does not take the flag `{a}`\n{}",
                usage()
            ));
        } else {
            opts.positionals.push(a.clone());
        }
    }
    Ok(opts)
}

impl Opts {
    fn value(&self, key: &str) -> Option<&str> {
        self.values
            .get(key)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    fn values_of(&self, key: &str) -> &[String] {
        self.values.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Loads a file as (design, default module name). `.hnl` files hold
/// hierarchical designs; `.blif` and `.bench` files hold one flat
/// module (BLIF latches are rejected here — use the library's
/// `SeqCircuit` API for sequential analysis).
fn load(path: &str) -> Result<(Design, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".hnl") {
        return hnl::parse(&text).map_err(|e| format!("{path}: {e}"));
    }
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist");
    let nl = if path.ends_with(".blif") {
        let seq = blif::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if !seq.registers().is_empty() {
            return Err(format!(
                "{path}: has {} latches; the CLI analyzes combinational cores only",
                seq.registers().len()
            ));
        }
        seq.core().clone()
    } else {
        bench_format::parse(&text, stem).map_err(|e| format!("{path}: {e}"))?
    };
    let name = nl.name().to_string();
    let mut design = Design::new();
    design.add_leaf(nl).map_err(|e| e.to_string())?;
    Ok((design, Some(name)))
}

fn pick_leaf<'a>(
    design: &'a Design,
    opts: &Opts,
    default: Option<&str>,
) -> Result<&'a Netlist, String> {
    let name = opts
        .value("--module")
        .or(default)
        .ok_or("no module named; pass --module NAME")?;
    design
        .leaf(name)
        .ok_or_else(|| format!("no leaf module `{name}` in the design"))
}

fn arrivals_for(netlist: &Netlist, opts: &Opts) -> Result<Vec<Time>, String> {
    let mut arrivals = vec![Time::ZERO; netlist.inputs().len()];
    for spec in opts.values_of("--arrival") {
        let (pin, t) = parse_arrival(spec)?;
        let pos = netlist
            .inputs()
            .iter()
            .position(|&n| netlist.net_name(n) == pin)
            .ok_or_else(|| format!("no primary input `{pin}`"))?;
        arrivals[pos] = t;
    }
    Ok(arrivals)
}

fn parse_arrival(spec: &str) -> Result<(String, Time), String> {
    let (pin, t) = spec
        .split_once('=')
        .ok_or_else(|| format!("bad --arrival `{spec}` (want PIN=T)"))?;
    let t: i64 = t
        .parse()
        .map_err(|_| format!("bad arrival time `{t}` in `{spec}`"))?;
    Ok((pin.to_string(), Time::new(t)))
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "report")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default) = load(path)?;
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    let arrivals = arrivals_for(nl, &opts)?;

    println!(
        "module {} — {} gates, {} inputs, {} outputs",
        nl.name(),
        nl.gate_count(),
        nl.inputs().len(),
        nl.outputs().len()
    );
    // First pass determines the functional circuit delay; the report
    // computes slacks against it (zero worst slack).
    let tr = trace_setup(&opts);
    let config = AnalysisConfig::default()
        .with_budget(budget_from(&opts)?)
        .with_shared_solver(shared_solver_from(&opts))
        .with_trace(tr.sink.clone());
    let (probe, probe_stats) =
        TimingReport::generate(nl, &arrivals, Time::ZERO, &config).map_err(|e| e.to_string())?;
    let (report, mut stats) =
        TimingReport::generate(nl, &arrivals, probe.circuit_functional, &config)
            .map_err(|e| e.to_string())?;
    tr.emit()?;
    print!("{report}");
    println!(
        "\ncircuit delay: topological {}, functional {}",
        report.circuit_topological, report.circuit_functional
    );
    if opts.has_flag("--stats") {
        stats.merge(&probe_stats);
        println!("{}", stats.summary());
        let degraded: Vec<&str> = report
            .outputs
            .iter()
            .filter(|r| r.degraded)
            .map(|r| r.name.as_str())
            .collect();
        if !degraded.is_empty() {
            println!(
                "degraded outputs (budget exhausted; reported at topological): {}",
                degraded.join(", ")
            );
        }
    }
    Ok(())
}

fn cmd_hier(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "hier")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default_top) = load(path)?;
    let top = opts
        .value("--top")
        .map(str::to_string)
        .or(default_top)
        .ok_or("no top module; pass --top NAME")?;
    let composite = design
        .composite(&top)
        .ok_or_else(|| format!("`{top}` is not a composite module"))?;
    let mut arrivals = vec![Time::ZERO; composite.inputs().len()];
    for spec in opts.values_of("--arrival") {
        let (pin, t) = parse_arrival(spec)?;
        let pos = composite
            .inputs()
            .iter()
            .position(|&n| composite.net_name(n) == pin)
            .ok_or_else(|| format!("no primary input `{pin}`"))?;
        arrivals[pos] = t;
    }
    let algo = opts.value("--algo").unwrap_or("demand");
    let want_stats = opts.has_flag("--stats");
    let tr = trace_setup(&opts);
    let mut config = apply_model_db(
        AnalysisConfig::default()
            .with_budget(budget_from(&opts)?)
            .with_cone_sig(!opts.has_flag("--no-cone-sig"))
            .with_shared_solver(shared_solver_from(&opts))
            .with_trace(tr.sink.clone()),
        &opts,
    )?;
    if let Some(threads) = opts.value("--threads") {
        let threads: usize = threads
            .parse()
            .map_err(|_| format!("bad --threads `{threads}` (want a number)"))?;
        config = config.with_threads(threads);
    }
    if opts.has_flag("--no-thread-clamp") {
        // By default --threads clamps to the machine's available
        // parallelism (a threads_clamped trace event records when it
        // bites); this opt-out forces the requested pool width.
        config = config.with_thread_clamp(false);
    }
    let (label, output_arrivals, delay) = match algo {
        "two-step" => {
            let mut an =
                HierAnalyzer::with_config(&design, &top, &config).map_err(|e| e.to_string())?;
            let r = an.analyze(&arrivals).map_err(|e| e.to_string())?;
            if want_stats {
                println!(
                    "two-step: {} modules characterized, {} instances propagated, {} modules aliased",
                    r.stats.modules_characterized,
                    r.stats.instances_propagated,
                    r.stats.modules_aliased
                );
                println!("{}", r.stats.stability.summary());
                if !config.model_db.is_empty() {
                    println!("{}", an.model_db_stats().summary());
                }
                for (alias, owner) in an.sig_aliases() {
                    println!("aliased module: {alias} -> {owner} (structurally identical)");
                }
                for (name, why) in an.degraded_modules() {
                    println!("degraded module: {name} ({why})");
                }
            }
            ("two-step", r.output_arrivals, r.delay)
        }
        "demand" => {
            let mut an = DemandDrivenAnalyzer::with_config(&design, &top, &config)
                .map_err(|e| e.to_string())?;
            let r = an.analyze(&arrivals).map_err(|e| e.to_string())?;
            println!(
                "demand-driven: {} refinement rounds, {} stability checks, {} refinements",
                r.rounds, r.checks, r.refinements
            );
            if want_stats {
                println!("{}", r.stability.summary());
                if !config.model_db.is_empty() {
                    println!("{}", an.model_db_stats().summary());
                }
                for (module, out, count) in an.degraded_cones() {
                    println!(
                        "degraded edges: {module} out{out} ({count} probe(s) stopped by budget/cap)"
                    );
                }
            }
            ("demand", r.output_arrivals, r.delay)
        }
        other => return Err(format!("unknown --algo `{other}` (two-step|demand)")),
    };
    tr.emit()?;
    println!("hierarchical analysis ({label}) of `{top}`:");
    for (k, &po) in composite.outputs().iter().enumerate() {
        println!("  {:<20} {}", composite.net_name(po), output_arrivals[k]);
    }
    println!("estimated delay: {delay}");
    Ok(())
}

/// `hfta serve`: load + characterize once, then answer timing queries
/// from the warm caches until EOF or a `shutdown` request.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use hfta::sched::Scheduler;
    use hfta::serve::{serve_lines, serve_unix_socket, wrap_flat, Action, ServeSession};

    let opts = parse_opts(args, "serve")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (loaded, default_top) = load(path)?;
    let top = opts
        .value("--top")
        .map(str::to_string)
        .or(default_top)
        .ok_or("no top module; pass --top NAME")?;
    // The daemon is hierarchy-shaped; a flat `.bench`/`.blif` input
    // (one leaf, no composite) is wrapped into a depth-1 design.
    let (design, top) = if loaded.composite(&top).is_some() {
        (loaded, top)
    } else {
        let leaf = loaded
            .leaf(&top)
            .ok_or_else(|| format!("no module `{top}` in the design"))?;
        wrap_flat(leaf.clone())
    };

    let threads = match opts.value("--threads") {
        Some(t) => t
            .parse::<usize>()
            .map_err(|_| format!("bad --threads `{t}` (want a number)"))?
            .max(1),
        None => 1,
    };
    let tr = trace_setup(&opts);
    let mut config = apply_model_db(
        AnalysisConfig::default()
            .with_budget(budget_from(&opts)?)
            .with_shared_solver(shared_solver_from(&opts))
            .with_trace(tr.sink.clone()),
        &opts,
    )?;
    if threads > 1 {
        config = config.with_threads(threads);
    }
    // Write-through model store: a daemon started from `--use-models`
    // persists its own fresh (ECO-recharacterized, undegraded) models
    // back into that database, so a restart after edits warm-starts
    // with 0 characterizations. `--emit-models` still redirects the
    // writes elsewhere; `--no-write-through` keeps the database
    // read-only.
    if let (Some(dir), None, false) = (
        opts.value("--use-models"),
        opts.value("--emit-models"),
        opts.has_flag("--no-write-through"),
    ) {
        config = config.with_emit_models(dir);
    }
    let mut session = ServeSession::new(design, &top, &config).map_err(|e| e.to_string())?;
    if let Some(ms) = opts.value("--deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad --deadline-ms `{ms}` (want milliseconds)"))?;
        session.set_default_deadline_ms(Some(ms));
    }
    if let Some(max) = opts.value("--max-line") {
        let max: usize = max
            .parse()
            .map_err(|_| format!("bad --max-line `{max}` (want bytes)"))?;
        session.set_max_line(max);
    }

    // Warm start: every leaf model is characterized (or served from
    // the model database) before the first request. The summary goes
    // to stderr so stdout stays a pure response stream; CI asserts a
    // DB-warmed daemon prints `0 modules characterized` here.
    let started = std::time::Instant::now();
    let warm = session.warm().map_err(|e| e.to_string())?;
    eprintln!(
        "serve: `{top}` warm in {:.1?} — {} modules characterized, all-zero delay {}",
        started.elapsed(),
        warm.stats.modules_characterized,
        warm.delay
    );

    let pool = (threads > 1).then(|| Scheduler::new(threads));
    let action = match opts.value("--socket") {
        Some(sock) => {
            eprintln!("serve: listening on unix socket `{sock}`");
            serve_unix_socket(
                &mut session,
                std::path::Path::new(sock),
                pool.as_ref(),
                &tr.sink,
            )
            .map_err(|e| format!("{sock}: {e}"))?;
            Action::Shutdown
        }
        None => {
            let reader = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout();
            serve_lines(&mut session, reader, stdout.lock(), pool.as_ref(), &tr.sink)
                .map_err(|e| format!("stdin: {e}"))?
        }
    };

    let how = match action {
        Action::Shutdown => "shutdown request",
        Action::Continue => "end of input",
    };
    let c = session.counters();
    eprintln!(
        "serve: exiting on {how} — {} request(s), {} error(s)",
        c.requests, c.errors
    );
    if opts.has_flag("--stats") {
        eprintln!(
            "serve: {} what-if quer(ies), {} ECO edit(s), {} live oracle(s), {} characterization(s) total",
            c.whatif_queries,
            c.eco_edits,
            session.oracle_count(),
            session.characterizations()
        );
        eprintln!(
            "serve: response cache {} hit(s), {} miss(es)",
            c.cache_hits, c.cache_misses
        );
        eprintln!(
            "serve: {} connection(s) accepted ({} still active), queue depth high-water {}, {} barrier wait(s)",
            c.connections_accepted, c.connections_active, c.queue_depth_hwm, c.barrier_waits
        );
    }
    tr.emit()?;
    Ok(())
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "characterize")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default) = load(path)?;
    let mut config = AnalysisConfig::default();
    if opts.has_flag("--topological") {
        config = config.with_source(ModelSource::Topological);
    }
    if let Some(dir) = opts.value("--emit-model") {
        return emit_models(&design, &opts, dir, &config);
    }
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    let timing = ModuleTiming::characterize(nl, &config).map_err(|e| e.to_string())?;
    let text = timing.to_text();
    match opts.value("-o") {
        Some(out) => {
            std::fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
            println!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Seeds a persistent model database: characterizes every leaf of the
/// design (or just `--module NAME`) and stores the undegraded models
/// under their sound cache key. Models already present — in the target
/// database or in a `--use-models DIR` — are served without solver
/// work, so re-seeding an unchanged design is cheap.
fn emit_models(
    design: &Design,
    opts: &Opts,
    dir: &str,
    config: &AnalysisConfig,
) -> Result<(), String> {
    use hfta::netlist::ModuleBody;

    let source = config.source;
    let mut emit = ModelDb::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut probe = opts.value("--use-models").map(ModelDb::open_read_only);
    let selected = opts.value("--module");
    let (mut characterized, mut served) = (0usize, 0usize);
    for def in design.modules() {
        let ModuleBody::Leaf(nl) = &def.body else {
            continue;
        };
        if selected.is_some_and(|m| m != def.name) {
            continue;
        }
        let reused = emit
            .probe(nl, source, config)
            .or_else(|| probe.as_mut().and_then(|db| db.probe(nl, source, config)));
        let timing = match reused {
            Some(t) => {
                served += 1;
                t
            }
            None => {
                characterized += 1;
                ModuleTiming::characterize(nl, config).map_err(|e| e.to_string())?
            }
        };
        emit.store(nl, source, config, &timing, false);
    }
    if characterized + served == 0 {
        return Err(match selected {
            Some(m) => format!("no leaf module `{m}` in the design"),
            None => "no leaf modules in the design".to_string(),
        });
    }
    println!(
        "model db `{dir}`: {characterized} characterized, {served} reused, {} record(s) total",
        emit.model_count()
    );
    if opts.has_flag("--stats") {
        println!("{}", emit.stats().summary());
    }
    Ok(())
}

/// Audits a model database directory: one line per record with the
/// module name and entry count, or the validation error that makes the
/// record unusable.
fn cmd_models(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "models")?;
    let dir = opts.positionals.first().ok_or_else(usage)?;
    let db = ModelDb::open_read_only(dir);
    let records = db.audit().map_err(|e| format!("{dir}: {e}"))?;
    if records.is_empty() {
        println!("model db `{dir}`: empty");
        return Ok(());
    }
    let (mut ok, mut bad) = (0usize, 0usize);
    for r in &records {
        match &r.error {
            Some(err) => {
                bad += 1;
                println!("  {:<40} INVALID: {err}", r.file);
            }
            None => {
                ok += 1;
                let what = r.module.as_deref().unwrap_or("(verdicts)");
                println!("  {:<40} {what} ({} entries)", r.file, r.entries);
            }
        }
    }
    println!("model db `{dir}`: {ok} valid record(s), {bad} invalid");
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "sim")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default) = load(path)?;
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    let from = parse_bits(opts.value("--from").ok_or("missing --from BITS")?, nl)?;
    let to = parse_bits(opts.value("--to").ok_or("missing --to BITS")?, nl)?;
    let arrivals = vec![Time::ZERO; nl.inputs().len()];
    let out = simulate_transition(nl, &from, &to, &arrivals).map_err(|e| e.to_string())?;
    println!("settle time: {}", out.settle);
    println!(
        "events: {}, output glitches: {}",
        out.events, out.output_glitches
    );
    for (k, &po) in nl.outputs().iter().enumerate() {
        println!(
            "  {:<20} -> {}  (last change {})",
            nl.net_name(po),
            u8::from(out.final_values[po.index()]),
            out.output_settle[k]
        );
    }
    Ok(())
}

fn parse_bits(bits: &str, nl: &Netlist) -> Result<Vec<bool>, String> {
    if bits.len() != nl.inputs().len() {
        return Err(format!(
            "vector `{bits}` has {} bits; module has {} inputs",
            bits.len(),
            nl.inputs().len()
        ));
    }
    bits.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("bad bit `{other}` in `{bits}`")),
        })
        .collect()
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "check")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default) = load(path)?;
    design.validate().map_err(|e| e.to_string())?;
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    nl.validate().map_err(|e| e.to_string())?;
    let stats = NetlistStats::collect(nl).map_err(|e| e.to_string())?;
    println!("{stats}");
    println!("\nvalidation: OK");
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "dot")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default) = load(path)?;
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    let dot = to_dot(nl);
    match opts.value("-o") {
        Some(out) => {
            std::fs::write(out, &dot).map_err(|e| format!("{out}: {e}"))?;
            println!("wrote {out}");
        }
        None => print!("{dot}"),
    }
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "verify")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let model_path = opts.value("--model").ok_or("missing --model MODEL.hfta")?;
    let (design, default) = load(path)?;
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    let text = std::fs::read_to_string(model_path).map_err(|e| format!("{model_path}: {e}"))?;
    let timing = ModuleTiming::from_text(&text).map_err(|e| e.to_string())?;
    let violations = timing.verify(nl).map_err(|e| e.to_string())?;
    if violations.is_empty() {
        println!("model `{model_path}` VERIFIED against `{}`", nl.name());
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} violation(s) found", violations.len()))
    }
}

fn cmd_flatten(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "flatten")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let (design, default_top) = load(path)?;
    let top = opts
        .value("--top")
        .map(str::to_string)
        .or(default_top)
        .ok_or("no top module; pass --top NAME")?;
    let flat = design.flatten(&top).map_err(|e| e.to_string())?;
    let text = bench_format::write(&flat);
    match opts.value("-o") {
        Some(out) => {
            std::fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
            println!("wrote {out} ({} gates)", flat.gate_count());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, "convert")?;
    let path = opts.positionals.first().ok_or_else(usage)?;
    let out = opts.value("-o").ok_or("missing -o OUT.{bench|blif}")?;
    let (design, default) = load(path)?;
    let nl = pick_leaf(&design, &opts, default.as_deref())?;
    let text = if out.ends_with(".blif") {
        blif::write(nl)
    } else if out.ends_with(".bench") {
        bench_format::write(nl)
    } else {
        return Err(format!("output `{out}` must end in .bench or .blif"));
    };
    std::fs::write(out, &text).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}
