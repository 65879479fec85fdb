//! A micro-benchmark timer harness.
//!
//! Replaces the `criterion` dependency for this workspace. Each
//! benchmark runs a closure for a few warmup iterations, then times a
//! batch of iterations individually and reports min / mean / median /
//! p95 wall times. Results print as a human-readable table line and,
//! when requested, append as JSON lines to a `BENCH_<harness>.json`
//! file so runs can be diffed and plotted.
//!
//! Environment knobs:
//!
//! * `HFTA_BENCH_WARMUP` — warmup iterations per benchmark (default 3).
//! * `HFTA_BENCH_ITERS` — timed iterations per benchmark (default 15).
//! * `HFTA_BENCH_JSON` — when set, where JSON records go. A value
//!   ending in `.json` names one file that records are **appended** to
//!   (so several bench binaries, or several runs over time, build one
//!   trajectory file); any other value is a directory that gets a
//!   fresh `BENCH_<harness>.json` per harness (`1` or an empty value
//!   means the current directory).
//! * `HFTA_GIT_REV` — overrides the `git_rev` stamped into each record
//!   (otherwise `git rev-parse --short HEAD`, or `unknown` outside a
//!   checkout).
//!
//! Each record also carries a `machine` tag — the CPU model name from
//! `/proc/cpuinfo` (or `unknown`) followed by `x<N>` for the available
//! parallelism — so records from different hosts are never compared by
//! accident.

use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Record {
    /// Harness (bench binary) name, e.g. `ablation`.
    pub bench: String,
    /// Group name (e.g. `table1_carry_skip`).
    pub group: String,
    /// Benchmark id within the group (e.g. `hier_demand/8`).
    pub id: String,
    /// Timed iterations.
    pub iters: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Mean iteration time.
    pub mean: Duration,
    /// Median iteration time.
    pub median: Duration,
    /// 95th-percentile iteration time.
    pub p95: Duration,
    /// Short git revision of the workspace being measured (`unknown`
    /// outside a checkout; override with `HFTA_GIT_REV`).
    pub git_rev: String,
    /// The host that measured it: CPU model and available parallelism,
    /// e.g. `Intel(R) Xeon(R) Processor x2`.
    pub machine: String,
}

impl Record {
    /// The record as one JSON line (no trailing newline). `case` is the
    /// fully qualified `group/id`, so a trajectory file mixing several
    /// bench binaries still keys cleanly on `(bench, case)`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"case\":\"{}/{}\",\
             \"group\":\"{}\",\"id\":\"{}\",\"iters\":{},\
             \"min_ns\":{},\"mean_ns\":{},\"median_ns\":{},\"p95_ns\":{},\
             \"git_rev\":\"{}\",\"machine\":\"{}\"}}",
            escape(&self.bench),
            escape(&self.group),
            escape(&self.id),
            escape(&self.group),
            escape(&self.id),
            self.iters,
            self.min.as_nanos(),
            self.mean.as_nanos(),
            self.median.as_nanos(),
            self.p95.as_nanos(),
            escape(&self.git_rev),
            escape(&self.machine),
        )
    }
}

/// The short git revision to stamp into records: `HFTA_GIT_REV` if
/// set, else `git rev-parse --short HEAD`, else `unknown`.
fn resolve_git_rev() -> String {
    if let Ok(rev) = std::env::var("HFTA_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host tag to stamp into records: `<CPU model> x<available
/// parallelism>`.
fn resolve_machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{model} x{cpus}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// A named collection of benchmark groups; writes the JSON report on
/// [`finish`](Harness::finish).
#[derive(Debug)]
pub struct Harness {
    name: String,
    warmup: u32,
    iters: u32,
    git_rev: String,
    machine: String,
    records: Vec<Record>,
}

impl Harness {
    /// Creates a harness named `name` (the `BENCH_<name>.json` stem),
    /// reading iteration counts from the environment.
    #[must_use]
    pub fn new(name: &str) -> Harness {
        let warmup = env_u32("HFTA_BENCH_WARMUP", 3);
        let iters = env_u32("HFTA_BENCH_ITERS", 15).max(1);
        Harness {
            name: name.to_string(),
            warmup,
            iters,
            git_rev: resolve_git_rev(),
            machine: resolve_machine(),
            records: Vec::new(),
        }
    }

    /// Opens a benchmark group; measurements print as they complete.
    pub fn group(&mut self, group: &str) -> Group<'_> {
        println!("\n== {} ==", group);
        Group {
            harness: self,
            group: group.to_string(),
        }
    }

    /// All measurements so far.
    #[must_use]
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Prints the summary and writes the JSON records if
    /// `HFTA_BENCH_JSON` is set: appended to the named file when the
    /// value ends in `.json`, else to a fresh `BENCH_<name>.json` in
    /// the named directory. Returns the records.
    ///
    /// # Panics
    ///
    /// Panics if the JSON file cannot be written.
    pub fn finish(self) -> Vec<Record> {
        if let Ok(dest) = std::env::var("HFTA_BENCH_JSON") {
            let dest = if dest.is_empty() || dest == "1" {
                ".".to_string()
            } else {
                dest
            };
            let (path, append) = if dest.ends_with(".json") {
                (std::path::PathBuf::from(&dest), true)
            } else {
                let p = std::path::Path::new(&dest).join(format!("BENCH_{}.json", self.name));
                (p, false)
            };
            let mut f = if append {
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
            } else {
                std::fs::File::create(&path)
            }
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
            for r in &self.records {
                writeln!(f, "{}", r.to_json()).expect("write JSON line");
            }
            println!(
                "\n{} {} record(s) to {}",
                if append { "appended" } else { "wrote" },
                self.records.len(),
                path.display()
            );
        }
        self.records
    }

    fn run_one<T>(
        &mut self,
        group: &str,
        id: &str,
        iters: u32,
        mut f: impl FnMut() -> T,
    ) -> Record {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples: Vec<Duration> = (0..iters)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        samples.sort_unstable();
        let n = samples.len();
        let total: Duration = samples.iter().sum();
        let record = Record {
            bench: self.name.clone(),
            group: group.to_string(),
            id: id.to_string(),
            iters,
            min: samples[0],
            mean: total / iters,
            median: samples[n / 2],
            p95: samples[(n * 95).div_ceil(100).saturating_sub(1).min(n - 1)],
            git_rev: self.git_rev.clone(),
            machine: self.machine.clone(),
        };
        println!(
            "{:<36} median {:>9}  p95 {:>9}  min {:>9}  (n={})",
            format!("{}/{}", group, id),
            fmt_duration(record.median),
            fmt_duration(record.p95),
            fmt_duration(record.min),
            record.iters,
        );
        self.records.push(record.clone());
        record
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    group: String,
}

impl Group<'_> {
    /// Times `f` and records the measurement under `id`.
    pub fn bench<T>(&mut self, id: &str, f: impl FnMut() -> T) -> Record {
        let group = self.group.clone();
        let iters = self.harness.iters;
        self.harness.run_one(&group, id, iters, f)
    }

    /// Like [`bench`](Group::bench) but guarantees at least `min_iters`
    /// timed iterations even when `HFTA_BENCH_ITERS` asks for fewer —
    /// for measurements whose medians must be statistically meaningful
    /// (e.g. CI gates comparing parallel against serial).
    pub fn bench_at_least<T>(&mut self, id: &str, min_iters: u32, f: impl FnMut() -> T) -> Record {
        let group = self.group.clone();
        let iters = self.harness.iters.max(min_iters).max(1);
        self.harness.run_one(&group, id, iters, f)
    }
}

fn env_u32(name: &str, default: u32) -> u32 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}={v} is not a valid integer")),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_monotone_sane() {
        let mut h = Harness::new("selftest");
        h.warmup = 1;
        h.iters = 9;
        let mut g = h.group("sanity");
        let r = g.bench("spin", || {
            // A workload long enough to rise above timer resolution.
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(r.min > Duration::ZERO);
        assert!(r.min <= r.median);
        assert!(r.median <= r.p95);
        assert!(r.mean >= r.min && r.mean <= r.p95.max(r.mean));
        assert_eq!(r.iters, 9);
    }

    #[test]
    fn json_line_shape() {
        let r = Record {
            bench: "selfbench".into(),
            group: "g".into(),
            id: "id/2".into(),
            iters: 5,
            min: Duration::from_nanos(100),
            mean: Duration::from_nanos(150),
            median: Duration::from_nanos(140),
            p95: Duration::from_nanos(200),
            git_rev: "abc1234".into(),
            machine: "Test CPU x2".into(),
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"group\":\"g\"",
            "\"id\":\"id/2\"",
            "\"iters\":5",
            "\"median_ns\":140",
            "\"bench\":\"selfbench\"",
            "\"case\":\"g/id/2\"",
            "\"git_rev\":\"abc1234\"",
            "\"machine\":\"Test CPU x2\"",
        ] {
            assert!(j.contains(key), "{j} missing {key}");
        }
    }

    /// A `.json`-suffixed `HFTA_BENCH_JSON` destination appends, so
    /// consecutive harness runs accumulate one trajectory file.
    #[test]
    fn json_file_destination_appends() {
        let dir = std::env::temp_dir().join(format!("hfta_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_smoke.json");
        let _ = std::fs::remove_file(&path);
        for round in 0..2 {
            let mut h = Harness::new("selftest_append");
            h.warmup = 0;
            h.iters = 1;
            h.git_rev = "deadbee".into();
            h.group("g").bench("x", || round);
            // finish() reads the env var; scope it tightly. Tests in
            // this module do not otherwise touch HFTA_BENCH_JSON.
            std::env::set_var("HFTA_BENCH_JSON", &path);
            h.finish();
            std::env::remove_var("HFTA_BENCH_JSON");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "append accumulated both runs:\n{text}");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            for key in [
                "\"bench\":\"selftest_append\"",
                "\"case\":\"g/x\"",
                "\"git_rev\":\"deadbee\"",
                "\"median_ns\":",
            ] {
                assert!(line.contains(key), "{line} missing {key}");
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn bench_at_least_raises_iteration_floor() {
        let mut h = Harness::new("selftest3");
        h.warmup = 0;
        h.iters = 2;
        let r = h.group("floor").bench_at_least("x", 10, || 1 + 1);
        assert_eq!(r.iters, 10);
        // The floor never lowers a higher environment setting.
        let mut h = Harness::new("selftest3");
        h.warmup = 0;
        h.iters = 12;
        let r = h.group("floor").bench_at_least("x", 10, || 1 + 1);
        assert_eq!(r.iters, 12);
    }

    #[test]
    fn harness_collects_records() {
        let mut h = Harness::new("selftest2");
        h.warmup = 0;
        h.iters = 3;
        {
            let mut g = h.group("a");
            g.bench("x", || 1 + 1);
            g.bench("y", || 2 + 2);
        }
        let records = h.records().to_vec();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].group, "a");
        assert_eq!(records[1].id, "y");
    }
}
