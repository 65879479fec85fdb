//! The daemon's I/O loops: newline-delimited JSON over any
//! reader/writer pair (stdin/stdout or unix-socket connections).
//!
//! **Batching.** A reader thread feeds lines into a channel; the
//! serving loop blocks on the first line, then drains whatever else has
//! already arrived — that drain is one *batch*. Within a batch,
//! contiguous runs of read-only requests (`report`/`delay`/`slack`/
//! `whatif`) are sharded across the `hfta-sched` pool: what-ifs group
//! by module (each module's oracle rides out to exactly one worker, so
//! per-module query order — and therefore every answer — is identical
//! to serial execution), while report/delay/slack queries run against
//! the session's shared [`ReadView`] from any worker. Responses are
//! written in submission order; out-of-order completion stays an
//! internal affair, which is what keeps golden transcripts byte-stable.
//!
//! **Concurrent clients.** [`serve_unix_socket`] accepts any number of
//! connections. Each connection gets a reader thread (feeding a
//! bounded, shared request queue) and a writer thread (draining that
//! connection's response channel), while the caller's thread runs the
//! dispatcher: it drains the queue in arrival order and serves each
//! drain as one batch. Because the queue preserves per-connection
//! order and batches answer in submission order, every connection sees
//! its responses in the order it sent its requests (per-connection
//! FIFO). Mutating requests (`eco`/`shutdown`) are never sharded: a
//! batch serves the reads preceding them first, so by the time the
//! mutation runs, everything that entered the queue ahead of it has
//! been answered — the write barrier.
//!
//! A client disconnect (EOF, possibly mid-line) is a clean shutdown of
//! that connection only: its complete buffered lines are answered, a
//! trailing partial line is answered with a structured error, and other
//! connections never notice. Responses to a client that vanished are
//! dropped silently.

use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use hfta_sched::Scheduler;
use hfta_trace::{TraceSink, Value};

use crate::json::Json;
use crate::protocol::{parse_request, Request, RequestKind, Response};
use crate::session::{kind_name, Action, ModuleOracle, PreparedWhatIf, ReadView, ServeSession};

/// Cap on one batch (and on the drain of the shared queue): bounds
/// memory under a firehose client.
const MAX_BATCH: usize = 4096;

/// Cap on the shared multi-client request queue; readers block (back
/// pressure) when it is full.
const QUEUE_CAP: usize = 1024;

/// Reads one line (up to `\n`, exclusive) without ever buffering more
/// than `max + 1` bytes: an oversized line is discarded to its newline
/// and reported as `Oversized`. `Eof` carries a final unterminated
/// fragment, if any.
enum CappedLine {
    /// A complete line (newline stripped).
    Line(String),
    /// A line longer than the cap (discarded; its length is unknown).
    Oversized,
    /// End of stream; the trailing unterminated fragment, if any.
    Eof(Option<String>),
}

fn read_capped_line(reader: &mut impl BufRead, max: usize) -> io::Result<CappedLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropping = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            if dropping {
                return Ok(CappedLine::Oversized);
            }
            if buf.is_empty() {
                return Ok(CappedLine::Eof(None));
            }
            return Ok(CappedLine::Eof(Some(lossless_utf8(buf)?)));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |p| p + 1);
        if !dropping {
            let line_bytes = newline.map_or(chunk.len(), |p| p);
            if buf.len() + line_bytes > max {
                dropping = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..line_bytes]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            if dropping {
                return Ok(CappedLine::Oversized);
            }
            return Ok(CappedLine::Line(lossless_utf8(buf)?));
        }
    }
}

fn lossless_utf8(bytes: Vec<u8>) -> io::Result<String> {
    String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "request line is not UTF-8"))
}

/// One unit a reader hands to the serving loop.
enum Feed {
    Line(String),
    Oversized,
    /// Final partial line (no trailing newline) before EOF.
    Partial(String),
}

/// Runs the serving loop over `reader`/`writer` until the client
/// disconnects or a `shutdown` request is answered. Returns the action
/// that ended the loop (`Shutdown` or, on EOF, `Continue`).
///
/// `pool` enables batched read-only sharding; `None` serves strictly
/// serially (bit-identical answers either way).
///
/// # Errors
///
/// Returns I/O errors from the transport. Protocol-level problems are
/// answered in-band and never end the loop.
pub fn serve_lines(
    session: &mut ServeSession,
    reader: impl BufRead + Send + 'static,
    mut writer: impl Write,
    pool: Option<&Scheduler>,
    trace: &TraceSink,
) -> io::Result<Action> {
    let max_line = session.max_line();
    let (tx, rx) = mpsc::channel::<io::Result<Feed>>();
    // The reader thread ends at EOF or when the receiver hangs up
    // (shutdown mid-stream); either way it needs no join handle.
    std::thread::spawn(move || {
        let mut reader = reader;
        loop {
            let item = read_capped_line(&mut reader, max_line);
            let (feed, done) = match item {
                Ok(CappedLine::Line(l)) => (Ok(Feed::Line(l)), false),
                Ok(CappedLine::Oversized) => (Ok(Feed::Oversized), false),
                Ok(CappedLine::Eof(Some(partial))) => (Ok(Feed::Partial(partial)), true),
                Ok(CappedLine::Eof(None)) => break,
                Err(e) => (Err(e), true),
            };
            if tx.send(feed).is_err() || done {
                break;
            }
        }
    });

    loop {
        // Block for the first request, then drain what else arrived:
        // one batch.
        let Ok(first) = rx.recv() else {
            return Ok(Action::Continue); // EOF: clean shutdown
        };
        let mut batch = vec![first?];
        while let Ok(more) = rx.try_recv() {
            batch.push(more?);
            if batch.len() >= MAX_BATCH {
                break;
            }
        }
        if trace.is_enabled() {
            let mut tracer = trace.tracer();
            tracer.event(
                "serve_batch",
                vec![
                    ("batch_size", Value::from(batch.len())),
                    ("queue_depth", Value::from(batch.len())),
                ],
            );
            trace.absorb(tracer);
        }
        let responses = serve_batch(session, batch, pool, trace);
        for (response, action) in responses {
            if let Some(line) = response {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            if action == Action::Shutdown {
                writer.flush()?;
                return Ok(Action::Shutdown);
            }
        }
        writer.flush()?;
    }
}

/// Serves one batch, in submission order (exactly one output entry per
/// input feed). Contiguous runs of valid read-only requests are sharded
/// across the pool; everything else runs serially (ECO and shutdown are
/// natural barriers — they see every earlier answer's side effects,
/// later requests see theirs).
fn serve_batch(
    session: &mut ServeSession,
    batch: Vec<Feed>,
    pool: Option<&Scheduler>,
    trace: &TraceSink,
) -> Vec<(Option<String>, Action)> {
    let mut out: Vec<(Option<String>, Action)> = Vec::with_capacity(batch.len());
    let mut i = 0;
    while i < batch.len() {
        // Gather a contiguous run of parallelizable read-only lines.
        if let Some(pool) = pool {
            // report/delay/slack shard only through the shared read
            // view, which exists exactly when the session is fully
            // warm; a cold/degraded session shards what-ifs only.
            let view = session.read_view();
            let mut run: Vec<Request> = Vec::new();
            let mut j = i;
            while j < batch.len() {
                let Feed::Line(line) = &batch[j] else { break };
                if line.len() > session.max_line() {
                    break;
                }
                let Ok(req) = parse_request(line.trim()) else {
                    break;
                };
                let shardable = match req.kind {
                    RequestKind::WhatIf { .. } => true,
                    RequestKind::Report { .. }
                    | RequestKind::Delay { .. }
                    | RequestKind::Slack { .. } => view.is_some(),
                    _ => false,
                };
                if !shardable {
                    break;
                }
                run.push(req);
                j += 1;
            }
            if run.len() > 1 {
                out.extend(serve_read_run(session, run, view, pool, trace));
                i = j;
                continue;
            }
        }
        match &batch[i] {
            Feed::Line(line) => out.push(session.handle_line(line)),
            Feed::Oversized => {
                let response = session.booked_error(
                    &Json::Null,
                    format!("request line exceeds {} bytes", session.max_line()),
                );
                out.push((Some(response.encode()), Action::Continue));
            }
            Feed::Partial(line) => {
                // A truncated final line: answer it (usually a JSON
                // error) and let the EOF that follows end the loop.
                out.push(session.handle_line(line));
            }
        }
        i += 1;
    }
    out
}

/// Shards a run of read-only requests across the pool. What-ifs group
/// by module (the module's oracle checks out to exactly one task, which
/// runs that module's queries in request order); report/delay/slack
/// queries each become a task over the shared read view. Answers are
/// bit-identical to serial execution: per-module oracle order is
/// preserved, and the view path *is* the serial path for a warm
/// session.
fn serve_read_run(
    session: &mut ServeSession,
    run: Vec<Request>,
    view: Option<Arc<ReadView>>,
    pool: &Scheduler,
    trace: &TraceSink,
) -> Vec<(Option<String>, Action)> {
    enum Work {
        WhatIf {
            module: String,
            oracle: Box<ModuleOracle>,
            queries: Vec<(usize, PreparedWhatIf)>, // (slot, query)
        },
        Read {
            view: Arc<ReadView>,
            slot: usize,
            request: Request,
        },
    }
    struct Task {
        work: Work,
        tracer: hfta_trace::Tracer,
    }
    enum Done {
        WhatIf {
            module: String,
            oracle: Box<ModuleOracle>,
            answers: Vec<(usize, Response)>,
        },
        Read {
            slot: usize,
            response: Response,
        },
    }
    // Prepare every query on this thread (needs the design); failures
    // answer in place without joining the fan-out.
    let mut slots: Vec<Option<Response>> = Vec::new();
    slots.resize_with(run.len(), || None);
    let mut tasks: Vec<Task> = Vec::new();
    for (slot, req) in run.iter().enumerate() {
        match &req.kind {
            RequestKind::WhatIf {
                module,
                output,
                arrivals,
            } => match session.prepare_whatif(req, module, output, arrivals) {
                Ok(prepared) => {
                    let existing = tasks.iter_mut().find_map(|t| match &mut t.work {
                        Work::WhatIf {
                            module: m, queries, ..
                        } if m == module => Some(queries),
                        _ => None,
                    });
                    if let Some(queries) = existing {
                        queries.push((slot, prepared));
                        continue;
                    }
                    match session.checkout_oracle(module) {
                        Ok(oracle) => {
                            let tracer = trace.tracer().fork(tasks.len() as u32 + 1);
                            tasks.push(Task {
                                work: Work::WhatIf {
                                    module: module.clone(),
                                    oracle: Box::new(oracle),
                                    queries: vec![(slot, prepared)],
                                },
                                tracer,
                            });
                        }
                        Err(message) => {
                            session.book(false, false);
                            slots[slot] = Some(Response::error(&req.id, message));
                        }
                    }
                }
                Err(message) => {
                    session.book(false, false);
                    slots[slot] = Some(Response::error(&req.id, message));
                }
            },
            RequestKind::Report { .. } | RequestKind::Delay { .. } | RequestKind::Slack { .. } => {
                let view = Arc::clone(view.as_ref().expect("gatherer required a view"));
                let tracer = trace.tracer().fork(tasks.len() as u32 + 1);
                tasks.push(Task {
                    work: Work::Read {
                        view,
                        slot,
                        request: req.clone(),
                    },
                    tracer,
                });
            }
            _ => unreachable!("run only holds read-only requests"),
        }
    }
    /// Worker-side request span around one answer.
    fn traced(
        tracer: &mut hfta_trace::Tracer,
        kind: &'static str,
        f: impl FnOnce() -> Response,
    ) -> Response {
        let span = tracer.is_enabled().then(|| tracer.begin("serve_request"));
        let response = f();
        if let Some(span) = span {
            tracer.end_with(
                span,
                vec![
                    ("kind", Value::from(kind)),
                    ("ok", Value::from(response.is_ok())),
                ],
            );
        }
        response
    }
    let results = pool.run(tasks, |mut task: Task| {
        let done = match task.work {
            Work::WhatIf {
                module,
                mut oracle,
                queries,
            } => {
                let answers: Vec<(usize, Response)> = queries
                    .iter()
                    .map(|(slot, q)| {
                        let response = traced(&mut task.tracer, "whatif", || q.run(&mut oracle));
                        (*slot, response)
                    })
                    .collect();
                Done::WhatIf {
                    module,
                    oracle,
                    answers,
                }
            }
            Work::Read {
                view,
                slot,
                request,
            } => {
                let response = traced(&mut task.tracer, kind_name(&request.kind), || {
                    view.respond(&request)
                });
                Done::Read { slot, response }
            }
        };
        (done, task.tracer)
    });
    for (done, tracer) in results {
        trace.absorb(tracer);
        match done {
            Done::WhatIf {
                module,
                oracle,
                answers,
            } => {
                session.checkin_oracle(module, *oracle);
                for (slot, response) in answers {
                    session.book(response.is_ok(), true);
                    slots[slot] = Some(response);
                }
            }
            Done::Read { slot, response } => {
                session.book(response.is_ok(), false);
                slots[slot] = Some(response);
            }
        }
    }
    slots
        .into_iter()
        .map(|response| {
            (
                Some(response.expect("every slot answered").encode()),
                Action::Continue,
            )
        })
        .collect()
}

/// One queued request from one connection: its payload plus the
/// channel its response must go back on.
#[cfg(unix)]
struct Envelope {
    payload: Feed,
    reply: mpsc::Sender<String>,
}

/// The bounded multi-client request queue: connection readers push,
/// the dispatcher drains. FIFO overall, which (with one reader per
/// connection) preserves per-connection order.
#[cfg(unix)]
struct SharedQueue {
    state: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    counters: Arc<crate::session::ConnCounters>,
}

#[cfg(unix)]
struct QueueInner {
    items: VecDeque<Envelope>,
    closed: bool,
}

#[cfg(unix)]
impl SharedQueue {
    fn new(counters: Arc<crate::session::ConnCounters>) -> SharedQueue {
        SharedQueue {
            state: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            counters,
        }
    }

    /// Enqueues one request, blocking while the queue is full (back
    /// pressure on that connection's reader). Returns `false` once the
    /// queue is closed (daemon shutting down).
    fn push(&self, env: Envelope) -> bool {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if st.closed {
                return false;
            }
            if st.items.len() < QUEUE_CAP {
                break;
            }
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        st.items.push_back(env);
        self.counters.note_queue_depth(st.items.len() as u64);
        drop(st);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues, blocking until an item arrives or the queue closes
    /// (`None`).
    fn pop_wait(&self) -> Option<Envelope> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(env) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(env);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }

    /// Non-blocking dequeue (batch draining).
    fn try_pop(&self) -> Option<Envelope> {
        let mut st = self.state.lock().expect("queue poisoned");
        let env = st.items.pop_front();
        drop(st);
        if env.is_some() {
            self.not_full.notify_one();
        }
        env
    }

    /// Closes the queue: wakes every blocked reader (push fails) and
    /// the dispatcher (pop returns `None`), and drops any unanswered
    /// envelopes so writer threads can drain and exit.
    fn close(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.closed = true;
        st.items.clear();
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Serves concurrent connections on a unix socket until a `shutdown`
/// request is answered. Each connection gets a reader thread (feeding
/// the shared bounded queue) and a writer thread (draining its response
/// channel); this thread runs the dispatcher. Per-connection response
/// order always matches that connection's request order, and mutating
/// requests run behind a write barrier (every request queued ahead of
/// them is answered first). The socket file is removed first (stale
/// sockets from a previous run) and on clean exit.
///
/// # Errors
///
/// Returns bind/setup errors. Per-connection transport errors only end
/// that connection.
#[cfg(unix)]
pub fn serve_unix_socket(
    session: &mut ServeSession,
    path: &std::path::Path,
    pool: Option<&Scheduler>,
    trace: &TraceSink,
) -> io::Result<()> {
    use std::sync::atomic::AtomicBool;

    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let counters = session.conn_counters();
    let queue = Arc::new(SharedQueue::new(Arc::clone(&counters)));
    let stop = Arc::new(AtomicBool::new(false));
    let max_line = session.max_line();
    let accept = {
        let queue = Arc::clone(&queue);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(&listener, &queue, &stop, &counters, max_line))
    };
    dispatch_loop(session, &queue, pool, trace);
    stop.store(true, Ordering::SeqCst);
    queue.close();
    accept.join().expect("accept thread panicked");
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// How long a connection's writer may block on a client that stops
/// reading before it gives the connection up; bounds the daemon's exit.
#[cfg(unix)]
const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Accepts connections until `stop`, spawning a reader/writer pair per
/// connection; on the way out, shuts down the read half of every live
/// stream (unblocking its reader) and joins all connection threads.
/// Only the read half: each writer still flushes the responses already
/// queued for it — the `shutdown` reply included — before its thread
/// ends, and [`WRITE_TIMEOUT`] bounds how long that can take.
#[cfg(unix)]
fn accept_loop(
    listener: &std::os::unix::net::UnixListener,
    queue: &Arc<SharedQueue>,
    stop: &std::sync::atomic::AtomicBool,
    counters: &Arc<crate::session::ConnCounters>,
    max_line: usize,
) {
    use std::time::Duration;

    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut streams: Vec<std::os::unix::net::UnixStream> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // The accepted stream must block (only the listener
                // polls), with writes bounded by WRITE_TIMEOUT; keep a
                // handle to force readers off `recv` at shutdown.
                if stream.set_nonblocking(false).is_err()
                    || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
                {
                    continue;
                }
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                counters.active.fetch_add(1, Ordering::Relaxed);
                streams.push(handle);
                let queue = Arc::clone(queue);
                let counters = Arc::clone(counters);
                conns.push(std::thread::spawn(move || {
                    connection_loop(stream, &queue, &counters, max_line);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for s in &streams {
        let _ = s.shutdown(std::net::Shutdown::Read);
    }
    for h in conns {
        let _ = h.join();
    }
}

/// One connection: reads capped lines into the shared queue and writes
/// responses back in order. The writer thread exits once the reader is
/// done *and* every queued envelope's response has been delivered (or
/// dropped by queue close).
#[cfg(unix)]
fn connection_loop(
    stream: std::os::unix::net::UnixStream,
    queue: &SharedQueue,
    counters: &crate::session::ConnCounters,
    max_line: usize,
) {
    let (tx, rx) = mpsc::channel::<String>();
    let writer = stream.try_clone().map(|write_half| {
        std::thread::spawn(move || {
            let mut w = io::BufWriter::new(write_half);
            while let Ok(line) = rx.recv() {
                let sent = w
                    .write_all(line.as_bytes())
                    .and_then(|()| w.write_all(b"\n"))
                    .and_then(|()| w.flush());
                if sent.is_err() {
                    break; // client gone: drain remaining sends as no-ops
                }
            }
        })
    });
    if writer.is_ok() {
        let mut reader = io::BufReader::new(stream);
        loop {
            let feed = match read_capped_line(&mut reader, max_line) {
                Ok(CappedLine::Line(l)) => Feed::Line(l),
                Ok(CappedLine::Oversized) => Feed::Oversized,
                Ok(CappedLine::Eof(Some(partial))) => {
                    let _ = queue.push(Envelope {
                        payload: Feed::Partial(partial),
                        reply: tx.clone(),
                    });
                    break;
                }
                Ok(CappedLine::Eof(None)) | Err(_) => break,
            };
            let queued = queue.push(Envelope {
                payload: feed,
                reply: tx.clone(),
            });
            if !queued {
                break; // daemon shutting down
            }
        }
    }
    drop(tx);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
    counters.active.fetch_sub(1, Ordering::Relaxed);
}

/// The dispatcher: drains the shared queue in arrival order, serves
/// each drain as one batch (sharded like the single-client loop), and
/// routes every response to its connection's writer. Returns after
/// answering a `shutdown` request.
#[cfg(unix)]
fn dispatch_loop(
    session: &mut ServeSession,
    queue: &SharedQueue,
    pool: Option<&Scheduler>,
    trace: &TraceSink,
) {
    let counters = session.conn_counters();
    loop {
        let Some(first) = queue.pop_wait() else {
            return; // queue closed externally
        };
        let mut batch: Vec<Envelope> = vec![first];
        while batch.len() < MAX_BATCH {
            match queue.try_pop() {
                Some(env) => batch.push(env),
                None => break,
            }
        }
        if trace.is_enabled() {
            let mut tracer = trace.tracer();
            tracer.event(
                "serve_batch",
                vec![
                    ("batch_size", Value::from(batch.len())),
                    ("queue_depth", Value::from(batch.len())),
                ],
            );
            trace.absorb(tracer);
        }
        // Write-barrier accounting: a mutating request that entered
        // the queue behind other requests waits for them to be served
        // first (serve_batch answers in submission order).
        for (i, env) in batch.iter().enumerate() {
            if i == 0 {
                continue;
            }
            if let Feed::Line(line) = &env.payload {
                if let Ok(req) = parse_request(line.trim()) {
                    if !req.is_read_only() {
                        counters.barrier_waits.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let (feeds, replies): (Vec<Feed>, Vec<mpsc::Sender<String>>) = batch
            .into_iter()
            .map(|env| (env.payload, env.reply))
            .unzip();
        let responses = serve_batch(session, feeds, pool, trace);
        debug_assert_eq!(responses.len(), replies.len());
        for (reply, (response, action)) in replies.iter().zip(responses) {
            if let Some(line) = response {
                // A vanished client must not poison the daemon: its
                // writer hung up, the response is simply dropped.
                let _ = reply.send(line);
            }
            if action == Action::Shutdown {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_fta::AnalysisConfig;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};

    fn session() -> ServeSession {
        let design = carry_skip_adder(4, 2, CsaDelays::default());
        ServeSession::new(design, "csa4.2", &AnalysisConfig::default()).unwrap()
    }

    fn serve(input: &str, pool: Option<&Scheduler>) -> (Vec<String>, Action) {
        let mut s = session();
        s.warm().unwrap();
        let mut out: Vec<u8> = Vec::new();
        let reader = io::BufReader::new(io::Cursor::new(input.as_bytes().to_vec()));
        let action = serve_lines(&mut s, reader, &mut out, pool, &TraceSink::disabled()).unwrap();
        let text = String::from_utf8(out).unwrap();
        (text.lines().map(str::to_string).collect(), action)
    }

    #[test]
    fn eof_is_clean_shutdown() {
        let (lines, action) = serve("", None);
        assert!(lines.is_empty());
        assert_eq!(action, Action::Continue);
    }

    #[test]
    fn partial_final_line_is_answered_then_eof() {
        let (lines, action) = serve(r#"{"id":1,"kind":"report"#, None);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains(r#""ok":false"#), "{lines:?}");
        assert_eq!(action, Action::Continue);
    }

    #[test]
    fn shutdown_request_ends_the_loop() {
        let input = "{\"id\":1,\"kind\":\"report\"}\n{\"id\":2,\"kind\":\"shutdown\"}\n{\"id\":3,\"kind\":\"report\"}\n";
        let (lines, action) = serve(input, None);
        assert_eq!(action, Action::Shutdown);
        // The post-shutdown request is never answered.
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[1].contains("shutdown"));
    }

    #[test]
    fn responses_preserve_submission_order_with_ids() {
        let input = "{\"id\":10,\"kind\":\"report\"}\n{\"id\":11,\"kind\":\"stats\"}\n";
        let (lines, _) = serve(input, None);
        assert!(lines[0].contains(r#""id":10"#));
        assert!(lines[1].contains(r#""id":11"#));
    }

    #[test]
    fn sharded_whatifs_match_serial() {
        let mut input = String::new();
        for (i, c_in) in [0i64, 3, 5, 7, 5, 0].iter().enumerate() {
            input.push_str(&format!(
                "{{\"id\":{i},\"kind\":\"whatif\",\"module\":\"csa_block2\",\"output\":\"c_out\",\"arrivals\":{{\"c_in\":{c_in}}}}}\n"
            ));
        }
        input.push_str("{\"id\":99,\"kind\":\"stats\"}\n");
        let (serial, _) = serve(&input, None);
        let pool = Scheduler::new(3);
        let (sharded, _) = serve(&input, Some(&pool));
        assert_eq!(serial, sharded, "sharding must be invisible in answers");
        assert!(serial.last().unwrap().contains(r#""whatif_queries":6"#));
    }

    #[test]
    fn sharded_mixed_reads_match_serial() {
        // A run mixing every shardable kind: report, delay, slack and
        // what-if, with repeats so the shared response cache is hit
        // from worker threads too.
        let mut input = String::new();
        for i in 0..3 {
            input.push_str(&format!("{{\"id\":{}, \"kind\":\"report\"}}\n", i * 10));
            input.push_str(&format!(
                "{{\"id\":{},\"kind\":\"delay\",\"output\":\"s3\"}}\n",
                i * 10 + 1
            ));
            input.push_str(&format!(
                "{{\"id\":{},\"kind\":\"slack\",\"net\":\"c4\",\"required\":12}}\n",
                i * 10 + 2
            ));
            input.push_str(&format!(
                "{{\"id\":{},\"kind\":\"whatif\",\"module\":\"csa_block2\",\"output\":\"c_out\",\"arrivals\":{{\"c_in\":{}}}}}\n",
                i * 10 + 3,
                i
            ));
        }
        let (serial, _) = serve(&input, None);
        let pool = Scheduler::new(4);
        let (sharded, _) = serve(&input, Some(&pool));
        assert_eq!(serial, sharded, "read sharding must be invisible");
        assert_eq!(serial.len(), 12);
    }

    #[test]
    fn oversized_line_is_skipped_without_buffering() {
        let mut s = session();
        s.set_max_line(128);
        let huge = format!(
            "{{\"id\":1,\"kind\":\"report\",\"pad\":\"{}\"}}\n{{\"id\":2,\"kind\":\"stats\"}}\n",
            "x".repeat(1 << 16)
        );
        let mut out: Vec<u8> = Vec::new();
        let reader = io::BufReader::new(io::Cursor::new(huge.into_bytes()));
        serve_lines(&mut s, reader, &mut out, None, &TraceSink::disabled()).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("exceeds 128 bytes"), "{lines:?}");
        assert!(
            lines[1].contains(r#""id":2"#),
            "good query after bad: {lines:?}"
        );
    }
}
