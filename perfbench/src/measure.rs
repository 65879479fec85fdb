//! Measurement plumbing shared by the workloads: the metric sink, order
//! statistics, peak memory, and the in-memory span recorder of traced
//! runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use hfta_fta::StabilityStats;
use hfta_netlist::{Design, ModuleBody};

/// Named metrics with their units, in name order.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Sets `name` to zero unless it was measured: the layer does no
    /// such work in this workload (see the README's metric table).
    pub fn zero_if_unset(&mut self, name: &str, unit: &'static str) {
        self.0.entry(name.to_string()).or_insert((0.0, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values become 0, which JSON cannot otherwise carry).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Set-up samples of one run: the whole set-up (s), and its parse and
/// analyzer-construction parts (ms).
#[derive(Default, Debug)]
pub struct SetupSamples {
    pub setup: Vec<f64>,
    pub parse: Vec<f64>,
    pub analyzer_new: Vec<f64>,
}

impl SetupSamples {
    pub fn push(&mut self, setup: Duration, parse: Duration, analyzer_new: Duration) {
        self.setup.push(setup.as_secs_f64());
        self.parse.push(ms(parse));
        self.analyzer_new.push(ms(analyzer_new));
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The median of `xs` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`: for a time, the sample the host slowed least.
///
/// # Panics
///
/// Panics on an empty sample, as [`median`] does.
pub fn best(xs: &[f64]) -> f64 {
    quantile(xs, 0.0)
}

/// Linearly interpolated `q`-quantile of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Books one phase's solver and stability counters.
pub fn stability_metrics(out: &mut Metrics, phase: &str, s: &StabilityStats) {
    out.set(
        format!("sat.queries.{phase}"),
        s.sat_queries as f64,
        "count",
    );
    out.set(
        format!("sat.conflicts.{phase}"),
        s.solver_conflicts as f64,
        "count",
    );
    out.set(
        format!("sat.propagations.{phase}"),
        s.solver_propagations as f64,
        "count",
    );
    out.set(
        format!("sat.learnts_imported.{phase}"),
        s.learnts_imported as f64,
        "count",
    );
    out.set(
        format!("sat.clauses_subsumed.{phase}"),
        s.clauses_subsumed as f64,
        "count",
    );
    out.set(
        format!("fta.stability_queries.{phase}"),
        s.queries as f64,
        "count",
    );
    out.set(
        format!("fta.pruned_ratio.{phase}"),
        ratio(s.topological_hits + s.prune_hits, s.queries),
        "ratio",
    );
    out.set(
        format!("fta.memo_hits.{phase}"),
        s.memo_hits as f64,
        "count",
    );
    out.set(
        format!("fta.cone_sig_hit_ratio.{phase}"),
        ratio(s.cone_sig_hits, s.cone_sig_hits + s.cone_sig_misses),
        "ratio",
    );
}

/// Traced-minus-untraced pass time, as a percentage of the untraced
/// median (0 when a side has no sample).
pub fn overhead_pct(on: &[f64], off: &[f64]) -> f64 {
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    let base = median(off);
    100.0 * (median(on) - base) / base
}

/// Wall ms of `Netlist::cone` + `cone_signature` + `exact_fingerprint`
/// over every output of every leaf module in `designs` (per-layer
/// `netlist.cone_sig_ms`).
pub fn cone_sig_ms(designs: &[Design], sp: &mut Spans) -> f64 {
    let t = Instant::now();
    sp.time("netlist", "cone_signature", || {
        for design in designs {
            for def in design.modules() {
                if let ModuleBody::Leaf(nl) = &def.body {
                    for &out in nl.outputs() {
                        let (cone, _) = nl.cone(out);
                        let _ = std::hint::black_box(hfta_netlist::cone_signature(&cone));
                        let _ = std::hint::black_box(hfta_netlist::exact_fingerprint(&cone));
                    }
                }
            }
        }
    });
    ms(t.elapsed())
}

/// The layers a span can be booked to: the workspace crates on the
/// default path whose public functions the benchmark calls directly.
/// `sat` and `sched` are only ever reached *through* these calls, so
/// they have counters but no self time measurable from outside.
pub const LAYERS: [&str; 5] = ["netlist", "fta", "core", "modeldb", "serve"];

#[derive(Clone, Debug)]
struct Span {
    name: String,
    layer: &'static str,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. Disabled (untraced runs) it records
/// nothing; enabled, every `begin`/`end` pair becomes one span with its
/// parent, written out by [`Spans::export`] when the run ends.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    thread: usize,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (meaningless when recording is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            thread: 0,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread sharing this one's clock; merge it
    /// back with [`Spans::absorb`].
    pub fn fork(&self, thread: usize) -> Spans {
        Spans {
            enabled: self.enabled,
            thread,
            t0: self.t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, layer: &'static str, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        let now = self.now_ns();
        self.spans[id.0].end_ns = now;
        if self.open.last() == Some(&id.0) {
            self.open.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Appends the spans another thread's recorder made.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per layer in ms, and span count: a span's duration
    /// minus the time its (same-thread, hence disjoint) children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> =
            LAYERS.iter().map(|&l| (l, (0.0, 0))).collect();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(*c);
            let e = out.entry(s.layer).or_insert((0.0, 0));
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Writes `<stem>.spans.jsonl` (one span per line) and
    /// `<stem>.layers.txt` (the self-time table) under `dir`.
    pub fn export(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut jsonl = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                jsonl,
                "{{\"id\": {i}, \"parent\": {parent}, \"thread\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.thread,
                s.layer,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        std::fs::write(dir.join(format!("{stem}.spans.jsonl")), jsonl)?;
        let times = self.self_times();
        let total: f64 = times.values().map(|&(t, _)| t).sum();
        let mut table = format!(
            "{:<10} {:>12} {:>8} {:>8}\n",
            "layer", "self_ms", "share", "spans"
        );
        for (layer, (t, n)) in &times {
            let share = if total > 0.0 { 100.0 * t / total } else { 0.0 };
            let _ = writeln!(table, "{layer:<10} {t:>12.3} {share:>7.1}% {n:>8}");
        }
        std::fs::write(dir.join(format!("{stem}.layers.txt")), table)
    }
}

/// A small deterministic generator (SplitMix64) for the benchmark's own
/// seeded choices; the program under test never sees it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}
