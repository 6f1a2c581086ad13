//! The TCP daemon: accept loop → bounded queue → batch workers →
//! per-connection reorder writers.
//!
//! ```text
//!  clients ──► accept loop ──► reader (per conn) ──► bounded MPSC queue
//!                                                        │
//!                              batch workers ×W ◄────────┘
//!                        (take what is queued, ≤ batch_max jobs,
//!                         then one PlanService::plan_batch over it)
//!                                    │ (seq, response line)
//!                              writer (per conn): reorders by seq,
//!                              writes responses in request order
//! ```
//!
//! A batch is whatever is queued when a worker frees up, capped at
//! `batch_max`: no timer, so an idle daemon answers a request at once.
//!
//! Ordering: each reader stamps requests with a per-connection sequence
//! number; workers answer out of order (batches interleave connections
//! freely) and the writer holds a reorder buffer, so every connection
//! sees responses in exactly request order no matter the batch size
//! or worker count.
//!
//! Graceful shutdown ([`Server::shutdown`], or SIGTERM/ctrl-c in the
//! binary): the accept loop closes the listener (new connections are
//! refused), readers keep draining already-open connections until EOF
//! or the drain deadline, workers finish the queue, writers flush every
//! response, and [`Server::join`] finally writes the Prometheus metrics
//! file. Every request read off a socket gets a response.

use crate::service::{PlanService, Query, ServiceConfig};
use crate::wire;
use rexec_obs::{counter, gauge, sketch, RollingWindow};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Batch worker threads.
    pub workers: usize,
    /// Most requests one batch takes from the queue.
    pub batch_max: usize,
    /// Bounded request-queue depth (readers block when full — TCP
    /// backpressure instead of unbounded memory).
    pub queue_cap: usize,
    /// How long shutdown waits for open connections to reach EOF
    /// before abandoning their sockets.
    pub drain_secs: f64,
    /// Planning-core tuning.
    pub service: ServiceConfig,
    /// Write the final Prometheus metrics exposition here on shutdown.
    pub metrics_prom: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            batch_max: 128,
            queue_cap: 1024,
            drain_secs: 5.0,
            service: ServiceConfig::default(),
            metrics_prom: None,
        }
    }
}

/// Final tallies returned by [`Server::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines read off sockets.
    pub requests: u64,
    /// Response lines written (success + error responses).
    pub responses: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Plan-cache counters.
    pub cache: crate::cache::CacheStats,
}

/// One queued request.
struct Job {
    resp: Sender<(u64, String)>,
    seq: u64,
    line: String,
    t: Instant,
}

struct Inner {
    service: PlanService,
    opts: ServeOptions,
    stop: AtomicBool,
    stop_at: Mutex<Option<Instant>>,
    started: Instant,
    latency: RollingWindow,
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    errors: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn drain_deadline(&self) -> Option<Instant> {
        let stop_at = (*self.stop_at.lock().expect("stop_at poisoned"))?;
        Some(stop_at + Duration::from_secs_f64(self.opts.drain_secs))
    }
}

/// A running daemon. Obtain with [`Server::start`]; stop with
/// [`Server::shutdown`] + [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and spawns the accept loop and worker pool.
    pub fn start(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            service: PlanService::new(opts.service.clone()),
            stop: AtomicBool::new(false),
            stop_at: Mutex::new(None),
            started: Instant::now(),
            latency: RollingWindow::new(8, 0.5),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            conn_threads: Mutex::new(Vec::new()),
            opts,
        });

        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(inner.opts.queue_cap.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..inner.opts.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, listener, job_tx))
                .expect("spawn accept loop")
        };
        Ok(Server {
            inner,
            local_addr,
            accept,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown: stop accepting, drain in-flight work.
    /// Idempotent; returns immediately — follow with [`Server::join`].
    pub fn shutdown(&self) {
        if !self.inner.stop.swap(true, Ordering::SeqCst) {
            *self.inner.stop_at.lock().expect("stop_at poisoned") = Some(Instant::now());
        }
    }

    /// Waits for the drain to complete (bounded by `drain_secs` past
    /// the shutdown request), flushes metrics, and reports tallies.
    pub fn join(self) -> ServeReport {
        self.accept.join().expect("accept loop panicked");
        // The accept loop has exited, so conn_threads is complete.
        let conns = std::mem::take(&mut *self.inner.conn_threads.lock().expect("threads"));
        for handle in conns {
            handle.join().expect("connection thread panicked");
        }
        for worker in self.workers {
            worker.join().expect("worker panicked");
        }
        publish_metrics(&self.inner);
        if let Some(path) = &self.inner.opts.metrics_prom {
            let text = rexec_obs::prometheus_text(rexec_obs::global());
            if let Err(e) = rexec_harness::atomic_write_simple(path, text.as_bytes()) {
                eprintln!("[rexec-serve] failed to write {}: {e}", path.display());
            }
        }
        ServeReport {
            connections: self.inner.connections.load(Ordering::Relaxed),
            requests: self.inner.requests.load(Ordering::Relaxed),
            responses: self.inner.responses.load(Ordering::Relaxed),
            errors: self.inner.errors.load(Ordering::Relaxed),
            cache: self.inner.service.cache_stats(),
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener, job_tx: SyncSender<Job>) {
    while !inner.stopped() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.connections.fetch_add(1, Ordering::Relaxed);
                counter!("serve.connections").incr();
                spawn_connection(inner, stream, job_tx.clone());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Dropping the listener here closes the socket: new connections are
    // refused while existing ones drain. Dropping job_tx lets workers
    // exit once every reader is done.
}

fn spawn_connection(inner: &Arc<Inner>, stream: TcpStream, job_tx: SyncSender<Job>) {
    stream.set_nodelay(true).ok();
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return, // connection already dead
    };
    let (resp_tx, resp_rx) = mpsc::channel::<(u64, String)>();
    let reader = {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("serve-conn-reader".into())
            .spawn(move || reader_loop(&inner, stream, job_tx, resp_tx))
            .expect("spawn reader")
    };
    let writer = {
        let inner = Arc::clone(inner);
        std::thread::Builder::new()
            .name("serve-conn-writer".into())
            .spawn(move || writer_loop(&inner, write_half, resp_rx))
            .expect("spawn writer")
    };
    let mut threads = inner.conn_threads.lock().expect("threads");
    threads.push(reader);
    threads.push(writer);
}

/// Reads newline-delimited requests until EOF (or the drain deadline
/// after shutdown) and queues them with per-connection sequence
/// numbers. Dropping `resp_tx` at exit is what lets the writer finish.
fn reader_loop(
    inner: &Arc<Inner>,
    mut stream: TcpStream,
    job_tx: SyncSender<Job>,
    resp_tx: Sender<(u64, String)>,
) {
    stream
        .set_read_timeout(Some(Duration::from_millis(10)))
        .ok();
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 8192];
    let mut seq = 0u64;
    let queue_line = |line: &[u8], seq: &mut u64| -> bool {
        let text = String::from_utf8_lossy(line);
        let text = text.trim_end_matches(['\r', '\n']);
        if text.trim().is_empty() {
            return true; // blank keep-alive lines are not requests
        }
        *seq += 1;
        inner.requests.fetch_add(1, Ordering::Relaxed);
        counter!("serve.requests").incr();
        job_tx
            .send(Job {
                resp: resp_tx.clone(),
                seq: *seq,
                line: text.to_string(),
                t: Instant::now(),
            })
            .is_ok()
    };
    loop {
        if let Some(deadline) = inner.drain_deadline() {
            if Instant::now() >= deadline {
                break; // shutdown drain expired; abandon the socket
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // EOF: client is done sending
            Ok(n) => {
                // The tail kept from earlier reads holds no newline.
                let mut scan = pending.len();
                pending.extend_from_slice(&buf[..n]);
                let mut start = 0;
                while let Some(off) = pending[scan..].iter().position(|&b| b == b'\n') {
                    scan += off + 1;
                    if !queue_line(&pending[start..scan], &mut seq) {
                        return; // workers are gone
                    }
                    start = scan;
                }
                pending.drain(..start);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // reset / broken pipe: nothing left to read
        }
    }
    // A final unterminated line still counts as a request.
    if !pending.is_empty() {
        queue_line(&pending, &mut seq);
    }
}

/// Receives `(seq, response)` pairs from the workers and writes them in
/// sequence order, holding out-of-order arrivals in a reorder buffer.
fn writer_loop(inner: &Arc<Inner>, stream: TcpStream, resp_rx: Receiver<(u64, String)>) {
    let mut out = std::io::BufWriter::new(stream);
    let mut next_seq = 1u64;
    let mut reorder: BTreeMap<u64, String> = BTreeMap::new();
    let write_ready = |reorder: &mut BTreeMap<u64, String>,
                       next_seq: &mut u64,
                       out: &mut std::io::BufWriter<TcpStream>|
     -> bool {
        while let Some(text) = reorder.remove(next_seq) {
            if out.write_all(text.as_bytes()).is_err() {
                return false;
            }
            inner.responses.fetch_add(1, Ordering::Relaxed);
            counter!("serve.responses").incr();
            *next_seq += 1;
        }
        true
    };
    'writer: while let Ok((seq, text)) = resp_rx.recv() {
        reorder.insert(seq, text);
        // Drain whatever else is already queued before flushing once.
        while let Ok((seq, text)) = resp_rx.try_recv() {
            reorder.insert(seq, text);
        }
        if !write_ready(&mut reorder, &mut next_seq, &mut out) {
            break 'writer;
        }
        if out.flush().is_err() {
            break 'writer;
        }
    }
    // Channel closed: reader finished and every job was answered.
    write_ready(&mut reorder, &mut next_seq, &mut out);
    out.flush().ok();
    if let Ok(stream) = out.into_inner() {
        stream.shutdown(std::net::Shutdown::Both).ok();
    }
}

/// Answers the queue batch by batch, each through one `plan_batch`
/// sweep, until every reader is gone and the queue is empty.
fn worker_loop(inner: &Arc<Inner>, rx: &Mutex<Receiver<Job>>) {
    let batch_max = inner.opts.batch_max.max(1);
    let mut batch: Vec<Job> = Vec::with_capacity(batch_max);
    let mut queries: Vec<Query> = Vec::new();
    let mut answers = Vec::new();
    // The guard is a temporary of the condition: the queue is free while solving.
    while next_batch(&rx.lock().expect("queue poisoned"), batch_max, &mut batch) {
        process_batch(inner, &batch, &mut queries, &mut answers);
        // Drop the jobs' response senders before waiting for the lock:
        // a connection's writer finishes only once every sender is gone.
        batch.clear();
    }
}

/// Blocks for one job, then adds what is already queued, up to
/// `batch_max` jobs. Returns `false` once the queue is closed and empty.
fn next_batch<T>(rx: &Receiver<T>, batch_max: usize, batch: &mut Vec<T>) -> bool {
    batch.clear();
    let Ok(first) = rx.recv() else { return false };
    batch.push(first);
    batch.extend(rx.try_iter().take(batch_max.saturating_sub(1)));
    true
}

fn process_batch(
    inner: &Arc<Inner>,
    batch: &[Job],
    queries: &mut Vec<Query>,
    answers: &mut Vec<crate::service::PlanAnswer>,
) {
    sketch!("serve.batch.occupancy").record(batch.len() as f64);
    // Parse and resolve every job; valid ones join the solve batch.
    queries.clear();
    let mut parsed: Vec<(Option<u64>, Result<usize, wire::WireError>)> =
        Vec::with_capacity(batch.len());
    for job in batch {
        let (id, result) = wire::parse_request(&job.line);
        match result {
            Ok(spec) => match inner.service.resolve(&spec) {
                Ok(query) => {
                    parsed.push((id, Ok(queries.len())));
                    queries.push(query);
                }
                Err(e) => parsed.push((id, Err(wire::wire_error_from_spec(&e)))),
            },
            Err(e) => parsed.push((id, Err(e))),
        }
    }
    inner.service.plan_batch(queries, answers);
    // Render and dispatch responses; record per-request latency.
    let mut line = String::new();
    for (job, (id, result)) in batch.iter().zip(&parsed) {
        line.clear();
        match result {
            Ok(query_idx) => wire::render_answer(&mut line, *id, &answers[*query_idx]),
            Err(e) => {
                inner.errors.fetch_add(1, Ordering::Relaxed);
                counter!("serve.wire_errors").incr();
                wire::render_error(&mut line, *id, e);
            }
        }
        line.push('\n');
        job.resp.send((job.seq, line.clone())).ok();
        let latency = job.t.elapsed().as_secs_f64();
        inner
            .latency
            .record_at(inner.started.elapsed().as_secs_f64(), latency);
    }
}

/// Publishes the rolling-window gauges: `serve.qps`,
/// `serve.latency.p50` / `.p99` / `.per_sec`, and the cache hit rate.
/// Merging the window is far costlier than recording into it, so it
/// runs when the gauges are read, not per batch.
fn publish_metrics(inner: &Arc<Inner>) {
    let stats = inner.latency.publish_at(
        rexec_obs::global(),
        "serve.latency",
        inner.started.elapsed().as_secs_f64(),
    );
    gauge!("serve.qps").set(stats.events_per_sec);
    let cache = inner.service.cache_stats();
    let lookups = cache.hits + cache.misses;
    if lookups > 0 {
        gauge!("serve.cache.hit_rate").set(cache.hits as f64 / lookups as f64);
    }
    gauge!("serve.cache.evictions").set(cache.evictions as f64);
}

/// SIGINT/SIGTERM → drain-and-exit flag for the daemon binary.
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_stop(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Installs SIGINT and SIGTERM handlers that set the stop flag
    /// (async-signal-safe: one atomic store).
    pub fn install() {
        unsafe {
            signal(SIGINT, on_stop as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_stop as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_batch_takes_what_is_queued_up_to_batch_max() {
        let (tx, rx) = mpsc::sync_channel(300);
        (0..300u32).for_each(|job| tx.send(job).expect("queue has room"));
        let mut batch = Vec::new();
        let sizes: Vec<usize> = (0..3)
            .map(|_| {
                assert!(next_batch(&rx, 128, &mut batch));
                batch.len()
            })
            .collect();
        assert_eq!(sizes, [128, 128, 44]);
        assert_eq!(batch, (256..300).collect::<Vec<_>>());
        // The sender is alive: a lone job must come back at once (a
        // drain that waited for company would hang here).
        tx.send(7).expect("queue has room");
        assert!(next_batch(&rx, 128, &mut batch));
        assert_eq!(batch, [7]);
        // A disconnected queue is drained first, then ends the loop.
        tx.send(8).expect("queue has room");
        drop(tx);
        assert!(next_batch(&rx, 128, &mut batch));
        assert_eq!(batch, [8]);
        assert!(!next_batch(&rx, 128, &mut batch));
    }
}
