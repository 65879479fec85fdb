//! `serve_mixed`: a real `hfta serve --socket … --threads T
//! --use-models <fresh dir>` child process serves the `modular_20k`
//! design to `T` closed-loop client connections (each waits for its
//! reply before sending the next request). The seeded mix is about 70%
//! reads (report/delay/slack) and 30% what-ifs, half of them repeats of
//! an earlier request of the same connection, so the response cache
//! both hits and misses. Connection 0 also edits one gate delay per
//! pass (a fresh value, so the module is re-characterized and written
//! through to the model database) and later restores it (a database
//! hit). The ECO edits the gate driving the first output of the first
//! instance's module; the workload seed draws the requests and their
//! arrival times.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hfta_core::{AnalysisConfig, HierAnalyzer, IncrementalAnalyzer};
use hfta_netlist::{hnl, Design, Time};
use hfta_serve::json::{self, Json};
use hfta_serve::protocol::time_to_json;
use hfta_serve::{parse_request, ServeSession};

use crate::measure::{
    dir_bytes, median, overhead_pct, peak_rss_mb, quantile, ratio, us, Metrics, Rng, Spans,
};
use crate::modular::{design, leaf_names};
use crate::{Ctx, Run};

pub const READ_KINDS: [&str; 4] = ["report", "delay", "slack", "whatif"];
pub const ALL_KINDS: [&str; 5] = ["report", "delay", "slack", "whatif", "eco"];
const ECO: usize = 4;

/// Daemons spawned to measure set-up; the last one serves the load.
const SETUP_SPAWNS: usize = 5;
/// Requests per connection before the first ECO, checked byte for byte
/// against an in-process serial replay.
const VERIFY_REQUESTS: usize = 40;
/// Non-ECO requests per connection per pass.
const PASS_REQUESTS: usize = 60;
/// Probability that a request repeats an earlier one of its connection.
const REPEAT_SHARE: f64 = 0.5;
/// Distinct earlier requests a repeat is drawn from.
const HISTORY: usize = 48;

/// One request of the transcript: its kind, its JSON body without the
/// id, and (for top-level reads) the arrival vector it names.
#[derive(Clone, Debug)]
struct Req {
    kind: usize,
    body: String,
    arrivals: Option<Vec<Time>>,
    repeat: bool,
}

impl Req {
    fn line(&self, id: &str) -> String {
        format!("{{\"id\":\"{id}\",{}}}", self.body)
    }
}

/// Names the generator draws requests from.
struct Shape {
    inputs: Vec<String>,
    outputs: Vec<String>,
    /// Leaf modules with their input and output net names.
    leaves: Vec<(String, Vec<String>, Vec<String>)>,
}

impl Shape {
    fn of(design: &Design, top: &str) -> Shape {
        let c = design.composite(top).expect("top exists");
        let names = |nets: &[hfta_netlist::NetId]| {
            nets.iter().map(|&n| c.net_name(n).to_string()).collect()
        };
        let leaves = leaf_names(design)
            .into_iter()
            .map(|name| {
                let nl = design.leaf(&name).expect("listed leaf exists");
                let ins = nl
                    .inputs()
                    .iter()
                    .map(|&n| nl.net_name(n).to_string())
                    .collect();
                let outs = nl
                    .outputs()
                    .iter()
                    .map(|&n| nl.net_name(n).to_string())
                    .collect();
                (name, ins, outs)
            })
            .collect();
        Shape {
            inputs: names(c.inputs()),
            outputs: names(c.outputs()),
            leaves,
        }
    }
}

/// The seeded request stream of one connection.
struct Gen<'a> {
    rng: Rng,
    shape: &'a Shape,
    history: Vec<Req>,
}

impl Gen<'_> {
    fn next(&mut self) -> Req {
        if !self.history.is_empty() && self.rng.chance(REPEAT_SHARE) {
            let mut r = self.history[self.rng.below(self.history.len())].clone();
            r.repeat = true;
            return r;
        }
        let roll = self.rng.below(100);
        let r = if roll < 70 {
            let kind = roll * 3 / 70;
            let mut arr = vec![Time::ZERO; self.shape.inputs.len()];
            let mut named = Vec::new();
            for _ in 0..1 + self.rng.below(3) {
                let i = self.rng.below(arr.len());
                let t = 1 + self.rng.below(8) as i64;
                arr[i] = Time::new(t);
                named.push(i);
            }
            named.sort_unstable();
            named.dedup();
            let arrivals = named
                .iter()
                .map(|&i| format!("\"{}\":{}", self.shape.inputs[i], arr[i]))
                .collect::<Vec<_>>()
                .join(",");
            let po = &self.shape.outputs[self.rng.below(self.shape.outputs.len())];
            let body = match kind {
                0 => format!("\"kind\":\"report\",\"arrivals\":{{{arrivals}}}"),
                1 => format!("\"kind\":\"delay\",\"output\":\"{po}\",\"arrivals\":{{{arrivals}}}"),
                _ => format!(
                    "\"kind\":\"slack\",\"net\":\"{po}\",\"required\":{},\"arrivals\":{{{arrivals}}}",
                    170 + self.rng.below(30)
                ),
            };
            Req {
                kind,
                body,
                arrivals: Some(arr),
                repeat: false,
            }
        } else {
            let (module, ins, outs) = &self.shape.leaves[self.rng.below(self.shape.leaves.len())];
            let out = &outs[self.rng.below(outs.len())];
            let mut pins: Vec<usize> = (0..1 + self.rng.below(2))
                .map(|_| self.rng.below(ins.len()))
                .collect();
            pins.sort_unstable();
            pins.dedup();
            let arrivals = pins
                .iter()
                .map(|&p| format!("\"{}\":{}", ins[p], self.rng.below(7)))
                .collect::<Vec<_>>()
                .join(",");
            Req {
                kind: 3,
                body: format!(
                    "\"kind\":\"whatif\",\"module\":\"{module}\",\"output\":\"{out}\",\"arrivals\":{{{arrivals}}}"
                ),
                arrivals: None,
                repeat: false,
            }
        };
        if self.history.len() < HISTORY {
            self.history.push(r.clone());
        } else {
            let slot = self.rng.below(HISTORY);
            self.history[slot] = r.clone();
        }
        r
    }
}

fn eco_req(module: &str, gate: &str, delay: u32) -> Req {
    Req {
        kind: ECO,
        body: format!(
            "\"kind\":\"eco\",\"module\":\"{module}\",\"gate\":\"{gate}\",\"delay\":{delay}"
        ),
        arrivals: None,
        repeat: false,
    }
}

/// One client connection: closed loop, one line out, one line back.
struct Conn {
    out: UnixStream,
    inp: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &Path, deadline: Instant) -> Result<Conn, String> {
        loop {
            match UnixStream::connect(socket) {
                Ok(s) => {
                    let inp = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
                    return Ok(Conn { out: s, inp });
                }
                Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("daemon socket never came up: {e}")),
            }
        }
    }

    /// Sends one request and waits for its response line.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.out
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut resp = String::new();
        match self.inp.read_line(&mut resp) {
            Ok(0) => Err("daemon hung up".into()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

/// Whether `resp` is an `ok` response echoing `id`.
fn ok_with_id(resp: &str, id: &str) -> Option<Json> {
    let v = json::parse(resp).ok()?;
    (v.get("ok") == Some(&Json::Bool(true)) && v.get("id").and_then(Json::as_str) == Some(id))
        .then_some(v)
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(ctx: &Ctx, hfta: &Path, file: &Path, top: &str, dir: &Path) -> Result<Daemon, String> {
        let socket = dir.join("s.sock");
        let db = dir.join("db");
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let child = Command::new(hfta)
            .arg("serve")
            .arg(file)
            .args(["--top", top, "--threads", &ctx.threads.to_string()])
            .arg("--socket")
            .arg(&socket)
            .arg("--use-models")
            .arg(&db)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hfta.display()))?;
        Ok(Daemon { child, socket })
    }

    /// Asks the daemon to stop and waits for it; it must exit with
    /// status 0, and a reply that arrives must be `ok`. Returns whether
    /// the reply was lost: `hfta serve` can shut the connection down
    /// before its writer sends that reply (see README), so a missing
    /// reply is counted rather than failed.
    fn shutdown(mut self) -> Result<bool, String> {
        let asked =
            Conn::open(&self.socket, Instant::now() + Duration::from_secs(5)).and_then(|mut c| {
                c.out
                    .write_all(b"{\"id\":\"bye\",\"kind\":\"shutdown\"}\n")
                    .map_err(|e| format!("send failed: {e}"))?;
                let mut resp = String::new();
                match c.inp.read_line(&mut resp) {
                    Ok(0) => Ok(true),
                    Ok(_) if ok_with_id(resp.trim_end(), "bye").is_some() => Ok(false),
                    Ok(_) => Err(format!("shutdown answered {}", resp.trim_end())),
                    Err(e) => Err(format!("receive failed: {e}")),
                }
            });
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let lost = asked?;
        if !status.success() {
            return Err(format!("hfta serve exited with {status}"));
        }
        Ok(lost)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What one client connection measured.
#[derive(Default)]
struct ClientLog {
    /// (kind, latency µs, repeat) per non-ECO request in the passes.
    samples: Vec<(usize, f64, bool)>,
    /// ECO latencies (µs) and `recharacterized` counts.
    ecos: Vec<(f64, i64)>,
    /// Verification-phase requests and the daemon's answers.
    verify: Vec<(String, String)>,
    /// The first pass's requests, for the in-process replay.
    first_pass: Vec<Req>,
    sent: u64,
    failed: u64,
    wrong: Vec<String>,
}

/// The ECO plan: module, gate net, original delay.
struct EcoPlan {
    module: String,
    gate: String,
    delay: u32,
}

#[allow(clippy::too_many_arguments)]
fn client(
    c: usize,
    socket: &Path,
    seed: u64,
    shape: &Shape,
    eco: Option<&EcoPlan>,
    traced: bool,
    barrier: &Barrier,
    stop: &AtomicBool,
    mut sp: Spans,
) -> (ClientLog, Spans) {
    let mut log = ClientLog::default();
    let mut gen = Gen {
        rng: Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(c as u64)),
        shape,
        history: Vec::new(),
    };
    let conn = Conn::open(socket, Instant::now() + Duration::from_secs(30));
    let mut n = 0u64;
    // Sends `req` under a fresh id; returns the line sent, the answer
    // and the latency in µs.
    let mut send = |conn: &mut Conn,
                    req: &Req,
                    log: &mut ClientLog,
                    sp: &mut Spans|
     -> (String, String, f64) {
        let id = format!("c{c}-{n}");
        n += 1;
        let line = req.line(&id);
        log.sent += 1;
        let span = sp.begin("serve", ALL_KINDS[req.kind]);
        let t = Instant::now();
        let resp = conn.ask(&line);
        let dt = us(t.elapsed());
        sp.end(span);
        match resp {
            Ok(r) => {
                if ok_with_id(&r, &id).is_none() {
                    log.failed += 1;
                    if log.wrong.len() < 5 {
                        log.wrong.push(format!("request {line} answered {r}"));
                    }
                }
                (line, r, dt)
            }
            Err(e) => {
                log.failed += 1;
                if log.wrong.len() < 5 {
                    log.wrong.push(format!("request {line}: {e}"));
                }
                (line, String::new(), dt)
            }
        }
    };
    let mut conn = match conn {
        Ok(conn) => Some(conn),
        Err(e) => {
            log.wrong.push(e);
            None
        }
    };

    // Verification phase: reads only, before any ECO.
    barrier.wait();
    if let Some(conn) = conn.as_mut() {
        for _ in 0..VERIFY_REQUESTS {
            let req = gen.next();
            let (line, resp, _) = send(conn, &req, &mut log, &mut sp);
            log.verify.push((line, resp));
        }
    }
    barrier.wait();

    let mut pass = 0u32;
    loop {
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        sp.set_enabled(traced && pass.is_multiple_of(2));
        if let Some(conn) = conn.as_mut() {
            for i in 0..PASS_REQUESTS {
                let eco_at = eco.filter(|_| i == PASS_REQUESTS / 3 || i == 2 * PASS_REQUESTS / 3);
                if let Some(plan) = eco_at {
                    let delay = if i == PASS_REQUESTS / 3 {
                        plan.delay + 1 + pass
                    } else {
                        plan.delay
                    };
                    let req = eco_req(&plan.module, &plan.gate, delay);
                    let (_, resp, dt) = send(conn, &req, &mut log, &mut sp);
                    let rechar = json::parse(&resp)
                        .ok()
                        .and_then(|v| v.get("recharacterized").and_then(Json::as_i64))
                        .unwrap_or(0);
                    log.ecos.push((dt, rechar));
                    if pass == 0 {
                        log.first_pass.push(req);
                    }
                }
                let req = gen.next();
                let (_, _, dt) = send(conn, &req, &mut log, &mut sp);
                log.samples.push((req.kind, dt, req.repeat));
                if pass == 0 {
                    log.first_pass.push(req);
                }
            }
        }
        pass += 1;
        barrier.wait();
    }
    (log, sp)
}

/// Latency quantile in µs over the samples of `kind` (all non-ECO
/// kinds when `None`); 0 without samples.
fn latency(samples: &[(usize, f64, bool)], kind: Option<usize>, q: f64) -> f64 {
    let xs: Vec<f64> = samples
        .iter()
        .filter(|(k, _, _)| kind.is_none_or(|want| *k == want))
        .map(|&(_, t, _)| t)
        .collect();
    if xs.is_empty() {
        0.0
    } else {
        quantile(&xs, q)
    }
}

pub fn run(ctx: &Ctx, sp: &mut Spans) -> Result<Run, String> {
    let hfta = ctx
        .hfta
        .clone()
        .ok_or("serve_mixed needs --hfta <path to the hfta binary>")?;
    let (_, top, text) = design();
    let design = hnl::parse(&text).map_err(|e| e.to_string())?.0;
    let shape = Shape::of(&design, &top);
    let work_dir = ctx.scratch("serve");
    let file = work_dir.join("design.hnl");
    std::fs::write(&file, &text).map_err(|e| e.to_string())?;
    let mut run = Run::default();
    let traced = sp.enabled();

    // The ECO target is fixed, so every seed pays the same
    // re-characterization: the gate driving the first output of the
    // first instance's module.
    let eco = {
        let module = design.composite(&top).expect("top exists").instances()[0]
            .module
            .clone();
        let nl = design.leaf(&module).expect("instantiated leaf");
        let out = nl.outputs()[0];
        let g = nl.gate(nl.driver(out).expect("module outputs are gate-driven"));
        EcoPlan {
            module,
            gate: nl.net_name(out).to_string(),
            delay: g.delay,
        }
    };

    // Set-up: spawn to first answered request, with a fresh database
    // each time.
    let mut setup = Vec::new();
    let mut replies_lost = 0u64;
    let mut daemon = None;
    for i in 0..SETUP_SPAWNS {
        let dir = ctx.scratch(&format!("serve/d{i}"));
        let t = Instant::now();
        let d = Daemon::spawn(ctx, &hfta, &file, &top, &dir)?;
        let mut conn = Conn::open(&d.socket, Instant::now() + Duration::from_secs(120))?;
        let resp = sp.time("serve", "first_request", || {
            conn.ask(r#"{"id":"hello","kind":"report"}"#)
        })?;
        setup.push(t.elapsed().as_secs_f64());
        drop(conn);
        run.attempted += 1;
        run.check(ok_with_id(&resp, "hello").is_some(), || {
            format!("first request answered {resp}")
        });
        if i + 1 < SETUP_SPAWNS {
            replies_lost += u64::from(d.shutdown()?);
        } else {
            daemon = Some((d, dir));
        }
    }
    let (daemon, daemon_dir) = daemon.expect("set-up spawned a daemon");

    // Verification, then closed-loop passes until the time is spent.
    let conns = ctx.threads;
    let barrier = Barrier::new(conns + 1);
    let stop = AtomicBool::new(false);
    let logs = Mutex::new(Vec::new());
    let mut pass_wall = Vec::new();
    let (mut wall_on, mut wall_off) = (Vec::new(), Vec::new());
    thread::scope(|s| {
        for c in 0..conns {
            let (shape, eco, barrier, stop, logs) = (&shape, &eco, &barrier, &stop, &logs);
            let fork = sp.fork(c + 1);
            let socket = daemon.socket.clone();
            let seed = ctx.seed;
            s.spawn(move || {
                let plan = (c == 0).then_some(eco);
                let out = client(c, &socket, seed, shape, plan, traced, barrier, stop, fork);
                logs.lock()
                    .expect("no client panicked holding the log")
                    .push((c, out));
            });
        }
        barrier.wait();
        barrier.wait();
        let start = Instant::now();
        let mut k = 0usize;
        loop {
            stop.store(k >= 2 && !ctx.time_left(start), Ordering::SeqCst);
            barrier.wait();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let t = Instant::now();
            barrier.wait();
            let w = t.elapsed().as_secs_f64();
            pass_wall.push(w);
            if traced && k.is_multiple_of(2) {
                wall_on.push(w)
            } else {
                wall_off.push(w)
            }
            k += 1;
        }
    });
    let mut logs = logs
        .into_inner()
        .expect("no client panicked holding the log");
    logs.sort_by_key(|(c, _)| *c);

    // Final ECO (kept), final report, stats, peak memory, shutdown.
    let final_delay = eco.delay + 1000;
    let mut conn = Conn::open(&daemon.socket, Instant::now() + Duration::from_secs(10))?;
    let mut final_answers = Vec::new();
    for (id, line) in [
        (
            "final-eco",
            eco_req(&eco.module, &eco.gate, final_delay).line("final-eco"),
        ),
        (
            "final-report",
            r#"{"id":"final-report","kind":"report"}"#.to_string(),
        ),
        ("stats", r#"{"id":"stats","kind":"stats"}"#.to_string()),
    ] {
        let resp = conn.ask(&line)?;
        run.attempted += 1;
        let parsed = ok_with_id(&resp, id);
        if parsed.is_none() {
            run.failed += 1;
        }
        run.check(parsed.is_some(), || format!("{id} answered {resp}"));
        final_answers.push(parsed.unwrap_or(Json::Null));
    }
    drop(conn);
    let rss = peak_rss_mb(Some(daemon.child.id())).unwrap_or(0.0);
    let db_bytes = dir_bytes(&daemon_dir.join("db"));
    replies_lost += u64::from(daemon.shutdown()?);

    let (mut samples, mut ecos) = (Vec::new(), Vec::new());
    let (mut verify, mut first_pass) = (Vec::new(), Vec::new());
    for (_, (log, spans)) in logs {
        run.attempted += log.sent;
        run.failed += log.failed;
        run.wrong.extend(log.wrong);
        samples.extend(log.samples);
        ecos.extend(log.ecos);
        sp.absorb(spans);
        verify.extend(log.verify);
        first_pass.extend(log.first_pass);
    }

    // In-process reference: a fresh session, configured like the daemon
    // (a fresh database it reads and writes through), answers the
    // verification requests serially; every byte must match.
    let inproc_db = ctx.scratch("serve/inproc-db");
    let t = Instant::now();
    let parsed = sp
        .time("netlist", "hnl::parse", || hnl::parse(&text))
        .map_err(|e| e.to_string())?
        .0;
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let config = AnalysisConfig::default()
        .with_use_models(&inproc_db)
        .with_emit_models(&inproc_db);
    let mut session = ServeSession::new(parsed, &top, &config).map_err(|e| e.to_string())?;
    session.warm().map_err(|e| e.to_string())?;
    let mut mismatches = 0usize;
    for (line, resp) in &verify {
        let (mine, _) = session.handle_line(line);
        if mine.as_deref() != Some(resp.as_str()) {
            mismatches += 1;
            if mismatches <= 3 {
                run.wrong.push(format!(
                    "pre-ECO read {line}: daemon {resp} vs in-process {mine:?}"
                ));
            }
        }
    }
    run.check(!verify.is_empty(), || {
        "no pre-ECO reads were verified".into()
    });

    // The final report must equal a fresh analysis of the edited design.
    let mut edited = design.clone();
    let mut leaf = edited.leaf(&eco.module).expect("ECO module exists").clone();
    let gate = leaf
        .find_net(&eco.gate)
        .and_then(|n| leaf.driver(n))
        .expect("ECO gate exists");
    leaf.set_gate_delay(gate, final_delay);
    edited.replace_leaf(leaf).map_err(|e| e.to_string())?;
    let n_in = shape.inputs.len();
    let fresh = HierAnalyzer::with_config(
        &edited,
        &top,
        &AnalysisConfig::default().with_use_models(&inproc_db),
    )
    .and_then(|mut an| an.analyze(&vec![Time::ZERO; n_in]))
    .map_err(|e| format!("fresh analysis of the edited design: {e}"))?;
    let report = &final_answers[1];
    let outputs_match = shape
        .outputs
        .iter()
        .zip(&fresh.output_arrivals)
        .all(|(name, &t)| {
            report.get("outputs").and_then(|o| o.get(name)) == Some(&time_to_json(t))
        });
    run.check(
        report.get("delay") == Some(&time_to_json(fresh.delay)) && outputs_match,
        || {
            format!(
                "post-ECO report {report} differs from a fresh analysis (delay {})",
                fresh.delay
            )
        },
    );

    let stats = &final_answers[2];
    let stat = |k: &str| stats.get(k).and_then(Json::as_i64).unwrap_or(0) as u64;
    let total_pass: f64 = pass_wall.iter().sum();
    let all_lat: Vec<f64> = samples.iter().map(|&(_, t, _)| t).collect();
    if all_lat.is_empty() {
        return Err("no requests were timed".into());
    }
    let repeats = samples.iter().filter(|s| s.2).count();
    let eco_lat: Vec<f64> = ecos.iter().map(|&(t, _)| t).collect();
    let m = &mut run.named;
    m.set("setup_s", median(&setup), "s");
    m.set("query_p50_ms", median(&all_lat) / 1e3, "ms");
    m.set("query_p99_ms", quantile(&all_lat, 0.99) / 1e3, "ms");
    m.set("query_samples", all_lat.len() as f64, "count");
    m.set(
        "queries_per_s",
        (all_lat.len() + eco_lat.len()) as f64 / total_pass,
        "req/s",
    );
    m.set(
        "eco_ms",
        if eco_lat.is_empty() {
            0.0
        } else {
            median(&eco_lat) / 1e3
        },
        "ms",
    );
    m.set("eco_samples", eco_lat.len() as f64, "count");
    m.set(
        "repeat_share",
        ratio(repeats as u64, samples.len() as u64),
        "ratio",
    );
    m.set("passes", pass_wall.len() as f64, "count");
    m.set("verified_reads", verify.len() as f64, "count");
    m.set("shutdown_replies_lost", replies_lost as f64, "count");
    m.set("requests_sent", run.attempted as f64, "count");
    m.set(
        "requests_ok",
        run.attempted.saturating_sub(run.failed) as f64,
        "count",
    );
    m.set("requests_failed", run.failed as f64, "count");
    m.set("peak_rss_mb", rss, "MiB");

    let mut out = Metrics::default();
    if traced {
        for (k, kind) in ALL_KINDS.iter().enumerate() {
            let src: Vec<(usize, f64, bool)> = if k == ECO {
                ecos.iter().map(|&(t, _)| (ECO, t, false)).collect()
            } else {
                samples.clone()
            };
            out.set(
                format!("serve.latency_p50_us.{kind}"),
                latency(&src, Some(k), 0.5),
                "us",
            );
            out.set(
                format!("serve.latency_p99_us.{kind}"),
                latency(&src, Some(k), 0.99),
                "us",
            );
        }
        out.set(
            "serve.cache_hit_ratio",
            ratio(
                stat("cache_hits"),
                stat("cache_hits") + stat("cache_misses"),
            ),
            "ratio",
        );
        out.set(
            "serve.queue_depth_hwm",
            stat("queue_depth_hwm") as f64,
            "count",
        );
        out.set("serve.barrier_waits", stat("barrier_waits") as f64, "count");
        out.set("serve.errors", stat("errors") as f64, "count");
        out.set(
            "serve.eco_recharacterized",
            ecos.iter().map(|&(_, r)| r.max(0) as u64).sum::<u64>() as f64,
            "count",
        );
        out.set("modeldb.bytes", db_bytes as f64, "B");
        out.set("netlist.parse_ms", parse_ms, "ms");
        replay_layers(
            &mut run,
            &design,
            &top,
            &inproc_db,
            &first_pass,
            &mut session,
            &mut out,
            sp,
            median(&all_lat),
        );
        out.set(
            "bench.trace_overhead_pct",
            overhead_pct(&wall_on, &wall_off),
            "%",
        );
    } else {
        out.set("setup_s", median(&setup), "s");
        out.set("work_s", median(&pass_wall), "s");
        out.set("reuse_ms", median(&all_lat) / 1e3, "ms");
        out.set("peak_rss_mb", rss, "MiB");
    }
    run.metrics = out;
    Ok(run)
}

/// Per-layer serve and core costs from an in-process replay of the
/// first pass's transcript: `parse_request` → `ServeSession::dispatch`
/// → `Response::encode`, each timed; plus `warm_snapshot` +
/// `WarmSnapshot::analyze` per top-level read. A step that fails is
/// recorded as a wrong answer rather than timed.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    run: &mut Run,
    design: &Design,
    top: &str,
    db: &Path,
    transcript: &[Req],
    session: &mut ServeSession,
    out: &mut Metrics,
    sp: &mut Spans,
    client_p50_us: f64,
) {
    let (mut parse, mut encode) = (Vec::new(), Vec::new());
    let mut dispatch: Vec<Vec<f64>> = vec![Vec::new(); ALL_KINDS.len()];
    let mut service = Vec::new();
    for (i, req) in transcript.iter().enumerate() {
        let line = req.line(&format!("r{i}"));
        let t = Instant::now();
        let Ok(parsed) = sp.time("serve", "parse_request", || parse_request(&line)) else {
            run.check(false, || format!("replay: `{line}` does not parse"));
            continue;
        };
        let t_parse = us(t.elapsed());
        let t = Instant::now();
        let (resp, _) = sp.time("serve", "ServeSession::dispatch", || {
            session.dispatch(&parsed)
        });
        let t_dispatch = us(t.elapsed());
        let t = Instant::now();
        let _ = std::hint::black_box(sp.time("serve", "Response::encode", || resp.encode()));
        let t_encode = us(t.elapsed());
        parse.push(t_parse);
        encode.push(t_encode);
        dispatch[req.kind].push(t_dispatch);
        if req.kind != ECO {
            service.push(t_parse + t_dispatch + t_encode);
        }
    }
    let med = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    out.set("serve.parse_us", med(&parse), "us");
    out.set("serve.encode_us", med(&encode), "us");
    for (k, kind) in READ_KINDS.iter().enumerate() {
        out.set(format!("serve.dispatch_us.{kind}"), med(&dispatch[k]), "us");
    }
    out.set("serve.dispatch_ms.eco", med(&dispatch[ECO]) / 1e3, "ms");
    out.set("serve.transport_us", client_p50_us - med(&service), "us");

    let t = Instant::now();
    let an = sp.time("core", "IncrementalAnalyzer::with_config", || {
        IncrementalAnalyzer::with_config(
            design.clone(),
            top,
            &AnalysisConfig::default().with_use_models(db),
        )
    });
    out.set(
        "core.analyzer_new_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let Ok(mut an) = an else {
        run.check(false, || {
            "replay: IncrementalAnalyzer::with_config failed".into()
        });
        return;
    };
    let n_in = design.composite(top).map_or(0, |c| c.inputs().len());
    if an.analyze(&vec![Time::ZERO; n_in]).is_err() {
        run.check(false, || {
            "replay: IncrementalAnalyzer::analyze failed".into()
        });
        return;
    }
    let mut snap = Vec::new();
    for req in transcript {
        let Some(arr) = &req.arrivals else { continue };
        let t = Instant::now();
        let r = sp.time("core", "warm_snapshot+analyze", || {
            an.warm_snapshot().map(|s| s.analyze(arr))
        });
        let elapsed = us(t.elapsed());
        match r {
            Some(Ok(a)) => {
                snap.push(elapsed);
                let _ = std::hint::black_box(a);
            }
            Some(Err(e)) => run.check(false, || {
                format!("replay: WarmSnapshot::analyze failed: {e}")
            }),
            None => run.check(false, || {
                "replay: warm_snapshot() has no snapshot of the analyzed design".into()
            }),
        }
    }
    out.set("core.snapshot_us", med(&snap), "us");
}
