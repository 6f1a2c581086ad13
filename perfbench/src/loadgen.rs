//! The benchmark's open-loop generator.
//!
//! One TCP connection, one sender thread and one receiver thread.
//! Request `i` of a phase at rate `r` is *due* at `t0 + i / r`; the
//! sender writes every request that is due (one `write` per wake-up) and
//! sleeps until the next one is due, whatever the server does. Each
//! response is timed from its request's due time, not from when it was
//! actually written, so a stall in the server or in the generator shows
//! as latency on every request that was due while it lasted. The sender
//! records how late it ran at each write, and a phase whose lateness
//! keeps growing (the server no longer drains what it is sent) is
//! reported as invalid instead of as a number.
//!
//! Responses arrive in request order on the connection, so response `k`
//! answers request `k`; the receiver compares it byte for byte with the
//! expected line.

use crate::stats;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A phase is invalid when the generator's median lateness over the
/// last third of the phase exceeds that over the first third by more
/// than this.
pub const LATENESS_GROWTH_LIMIT_US: f64 = 1_000.0;

/// The sender gives up on a phase once it runs this late: the server is
/// not keeping up and the rest of the phase would only measure a queue.
pub const ABORT_LATENESS: Duration = Duration::from_millis(250);

/// How long the receiver waits for outstanding responses after the last
/// request was sent.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// Newline-terminated lines stored back to back.
#[derive(Debug, Default, Clone)]
pub struct Lines {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl Lines {
    /// Appends one line; a trailing newline is added when missing.
    pub fn push(&mut self, line: &[u8]) {
        self.buf.extend_from_slice(line);
        if line.last() != Some(&b'\n') {
            self.buf.push(b'\n');
        }
        self.ends.push(self.buf.len());
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, i: usize) -> usize {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }

    /// Line `i`, newline included.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.buf[self.start(i)..self.ends[i]]
    }

    /// Lines `i..j` as one contiguous byte range.
    pub fn range(&self, i: usize, j: usize) -> &[u8] {
        if i >= j {
            return &[];
        }
        &self.buf[self.start(i)..self.ends[j - 1]]
    }

    /// Total bytes, newlines included.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests in the phase.
    pub planned: usize,
    /// Requests actually written.
    pub sent: usize,
    /// Responses received.
    pub answered: usize,
    /// Responses that differ from the expected line (error responses
    /// included).
    pub mismatched: usize,
    /// Responses carrying `"err"`.
    pub error_responses: usize,
    /// Per answered request: response time minus due time, µs, in
    /// request order.
    pub latency_us: Vec<f64>,
    /// Per write, in order: how late its first request was written, µs.
    pub lateness_us: Vec<f64>,
    /// The sender gave up (it ran [`ABORT_LATENESS`] behind).
    pub aborted: bool,
    /// Due time of request 0; request `i` is due at `t0 + i / rate`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub t0: Instant,
}

/// Latency figures of a valid phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// p50, ms: the median over the phase's windows of each window's p50.
    /// A window is one second of due times, or a quarter of a phase
    /// shorter than four seconds, so a burst of load from another tenant
    /// of the host that covers less than half the phase does not move it.
    pub p50_ms: f64,
    /// p90, ms, by the same rule.
    pub p90_ms: f64,
    /// p99, ms, by the same rule.
    pub p99_ms: f64,
    /// p99 of the generator's lateness, µs.
    pub late_p99_us: f64,
    /// Latency samples.
    pub samples: usize,
}

/// Why a phase gives no numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Invalid {
    /// Lateness grew by this much (µs) between the first and last third.
    LatenessGrowing(f64),
    /// The sender gave up.
    Aborted,
    /// Not every request was sent and answered.
    Incomplete {
        /// Requests planned.
        planned: usize,
        /// Responses received.
        answered: usize,
    },
}

impl std::fmt::Display for Invalid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invalid::LatenessGrowing(us) => {
                write!(f, "generator lateness grew by {us:.0} us over the phase")
            }
            Invalid::Aborted => write!(f, "generator fell {ABORT_LATENESS:?} behind and gave up"),
            Invalid::Incomplete { planned, answered } => {
                write!(f, "{answered} of {planned} requests answered")
            }
        }
    }
}

impl PhaseResult {
    /// Failed requests: sent but unanswered, or answered wrongly.
    pub fn failures(&self) -> usize {
        self.sent.saturating_sub(self.answered) + self.mismatched
    }

    /// Median lateness of the last third of writes minus that of the
    /// first third, µs.
    pub fn lateness_growth_us(&self) -> f64 {
        let n = self.lateness_us.len();
        if n < 3 {
            return 0.0;
        }
        let third = n / 3;
        let first = stats::median(&self.lateness_us[..third]).unwrap_or(0.0);
        stats::median(&self.lateness_us[n - third..]).unwrap_or(0.0) - first
    }

    /// The phase's latency figures, or why it has none: a phase that
    /// aborted, lost responses, or whose lateness kept growing measured
    /// a queue, not the server.
    pub fn summary(&self) -> Result<PhaseSummary, Invalid> {
        if self.aborted {
            return Err(Invalid::Aborted);
        }
        let growth = self.lateness_growth_us();
        if growth > LATENESS_GROWTH_LIMIT_US {
            return Err(Invalid::LatenessGrowing(growth));
        }
        if self.answered < self.planned {
            return Err(Invalid::Incomplete {
                planned: self.planned,
                answered: self.answered,
            });
        }
        let duration_s = self.planned as f64 / self.rate;
        let windows = duration_s.floor().max(4.0) as usize;
        let per_window = self.latency_us.len().div_ceil(windows).max(1);
        let mut per_quantile = [Vec::new(), Vec::new(), Vec::new()];
        for window in self.latency_us.chunks(per_window) {
            let mut sorted = window.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            for (q, out) in [0.50, 0.90, 0.99].iter().zip(&mut per_quantile) {
                out.push(stats::quantile_sorted(&sorted, *q).unwrap_or(0.0));
            }
        }
        let ms = |k: usize| stats::median(&per_quantile[k]).unwrap_or(0.0) / 1e3;
        Ok(PhaseSummary {
            p50_ms: ms(0),
            p90_ms: ms(1),
            p99_ms: ms(2),
            late_p99_us: stats::quantile(&self.lateness_us, 0.99).unwrap_or(0.0),
            samples: self.latency_us.len(),
        })
    }
}

/// Runs one open-loop phase: sends `requests` at `rate` per second over
/// one new connection to `addr` and checks every response against
/// `expected` (same length as `requests`).
pub fn run_phase(
    addr: SocketAddr,
    requests: &Arc<Lines>,
    expected: &Arc<Lines>,
    rate: f64,
) -> std::io::Result<PhaseResult> {
    assert_eq!(
        requests.len(),
        expected.len(),
        "one expected line per request"
    );
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    read_half.set_read_timeout(Some(Duration::from_millis(20)))?;
    let n = requests.len();
    let sent = Arc::new(AtomicUsize::new(0));
    let sender_done = Arc::new(AtomicBool::new(false));
    // A short lead so both threads are running before the first due time.
    let t0 = Instant::now() + Duration::from_millis(5);
    let interval = 1.0 / rate;

    let sender = {
        let requests = Arc::clone(requests);
        let sent = Arc::clone(&sent);
        let done = Arc::clone(&sender_done);
        std::thread::Builder::new()
            .name("perfbench-send".into())
            .spawn(move || {
                let result = send_loop(stream, &requests, t0, interval, &sent);
                done.store(true, Ordering::SeqCst);
                result
            })?
    };
    let receiver = {
        let expected = Arc::clone(expected);
        let sent = Arc::clone(&sent);
        let done = Arc::clone(&sender_done);
        std::thread::Builder::new()
            .name("perfbench-recv".into())
            .spawn(move || receive_loop(read_half, &expected, t0, interval, &sent, &done))?
    };
    let (lateness_us, aborted) = sender.join().expect("sender thread panicked");
    let recv = receiver.join().expect("receiver thread panicked");
    Ok(PhaseResult {
        rate,
        planned: n,
        sent: sent.load(Ordering::SeqCst),
        answered: recv.latency_us.len(),
        mismatched: recv.mismatched,
        error_responses: recv.error_responses,
        latency_us: recv.latency_us,
        lateness_us,
        aborted,
        t0,
    })
}

fn send_loop(
    stream: TcpStream,
    requests: &Lines,
    t0: Instant,
    interval: f64,
    sent: &AtomicUsize,
) -> (Vec<f64>, bool) {
    let n = requests.len();
    let mut writer = stream;
    let mut lateness = Vec::with_capacity(n / 4 + 1);
    let mut aborted = false;
    let mut i = 0usize;
    while i < n {
        let due = t0 + Duration::from_secs_f64(i as f64 * interval);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            continue;
        }
        let late = now - due;
        if late > ABORT_LATENESS {
            aborted = true;
            break;
        }
        // Everything due by now goes out in one write.
        let elapsed = (now - t0).as_secs_f64();
        let j = ((elapsed / interval).floor() as usize + 1).clamp(i + 1, n);
        if writer.write_all(requests.range(i, j)).is_err() {
            break;
        }
        lateness.push(late.as_secs_f64() * 1e6);
        i = j;
        sent.store(i, Ordering::SeqCst);
    }
    // Half-close: the server answers what it has and then closes.
    writer.shutdown(Shutdown::Write).ok();
    (lateness, aborted)
}

struct Received {
    latency_us: Vec<f64>,
    mismatched: usize,
    error_responses: usize,
}

fn receive_loop(
    mut stream: TcpStream,
    expected: &Lines,
    t0: Instant,
    interval: f64,
    sent: &AtomicUsize,
    sender_done: &AtomicBool,
) -> Received {
    let mut out = Received {
        latency_us: Vec::with_capacity(expected.len()),
        mismatched: 0,
        error_responses: 0,
    };
    let mut buf = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let k = out.latency_us.len();
        if sender_done.load(Ordering::SeqCst) {
            if k >= sent.load(Ordering::SeqCst) {
                break;
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
            if Instant::now() >= deadline {
                break;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(got) => {
                let now = Instant::now();
                pending.extend_from_slice(&buf[..got]);
                let mut start = 0;
                while let Some(pos) = pending[start..].iter().position(|&b| b == b'\n') {
                    let line = &pending[start..start + pos + 1];
                    start += pos + 1;
                    let k = out.latency_us.len();
                    let due = t0 + Duration::from_secs_f64(k as f64 * interval);
                    out.latency_us
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                    if k >= expected.len() || line != expected.get(k) {
                        out.mismatched += 1;
                        if line.windows(5).any(|w| w == b"\"err\"") {
                            out.error_responses += 1;
                        }
                    }
                }
                pending.drain(..start);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::Mutex;

    fn lines(n: usize, text: impl Fn(usize) -> String) -> Arc<Lines> {
        let mut l = Lines::default();
        for i in 0..n {
            l.push(text(i).as_bytes());
        }
        Arc::new(l)
    }

    /// A one-connection echo server answering `ok <i>` per line; before
    /// answering request `stall_at` it sleeps `stall`, recording when
    /// the stall started and ended.
    /// When the server's stall started and ended.
    type StallWindow = Arc<Mutex<Option<(Instant, Instant)>>>;

    fn echo_server(
        stall_at: Option<usize>,
        stall: Duration,
    ) -> (SocketAddr, StallWindow, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let window = Arc::new(Mutex::new(None));
        let w = Arc::clone(&window);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut out = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            for (i, line) in reader.lines().enumerate() {
                let line = line.unwrap();
                if Some(i) == stall_at {
                    let start = Instant::now();
                    std::thread::sleep(stall);
                    *w.lock().unwrap() = Some((start, Instant::now()));
                }
                let id = line.trim_start_matches("req ");
                out.write_all(format!("ok {id}\n").as_bytes()).unwrap();
            }
        });
        (addr, window, handle)
    }

    #[test]
    fn steady_phase_is_valid_and_correct() {
        let (addr, _, server) = echo_server(None, Duration::ZERO);
        let req = lines(400, |i| format!("req {i}"));
        let exp = lines(400, |i| format!("ok {i}"));
        let r = run_phase(addr, &req, &exp, 2_000.0).unwrap();
        server.join().unwrap();
        assert_eq!((r.sent, r.answered, r.mismatched), (400, 400, 0));
        let s = r.summary().expect("a steady phase is valid");
        assert_eq!(s.samples, 400);
        assert!(s.p50_ms > 0.0 && s.p50_ms < 50.0, "{s:?}");
    }

    #[test]
    fn wrong_responses_count_as_failures() {
        let (addr, _, server) = echo_server(None, Duration::ZERO);
        let req = lines(50, |i| format!("req {i}"));
        let exp = lines(50, |i| {
            if i == 7 {
                "ok x".into()
            } else {
                format!("ok {i}")
            }
        });
        let r = run_phase(addr, &req, &exp, 1_000.0).unwrap();
        server.join().unwrap();
        assert_eq!(r.mismatched, 1);
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn a_stall_shows_on_every_request_due_during_it() {
        let stall = Duration::from_millis(50);
        let rate = 2_000.0;
        // Request 200 is due 100 ms in; the server stalls before answering it.
        let (addr, window, server) = echo_server(Some(200), stall);
        let req = lines(800, |i| format!("req {i}"));
        let exp = lines(800, |i| format!("ok {i}"));
        let r = run_phase(addr, &req, &exp, rate).unwrap();
        server.join().unwrap();
        assert_eq!((r.answered, r.mismatched), (800, 0));
        let (stall_start, stall_end) = window.lock().unwrap().expect("server stalled");
        // Every request due during the stall can only be answered after
        // it, so its latency must cover the rest of the stall.
        let mut covered = 0;
        for (k, &lat_us) in r.latency_us.iter().enumerate() {
            let due = r.t0 + Duration::from_secs_f64(k as f64 / rate);
            if due < stall_start || due >= stall_end {
                continue;
            }
            let lat = Duration::from_secs_f64(lat_us / 1e6);
            assert!(
                lat >= stall_end - due,
                "request {k} due {:?} before the stall ended shows only {lat:?}",
                stall_end - due
            );
            covered += 1;
        }
        assert!(
            covered >= 90,
            "about 100 requests fall due in 50 ms at 2k/s: {covered}"
        );
        // Requests due well after the stall are back to normal.
        let late = Duration::from_secs_f64(r.latency_us[700] / 1e6);
        assert!(late < Duration::from_millis(20), "{late:?}");
    }

    #[test]
    fn growing_lateness_is_invalid_not_a_number() {
        // The server reads nothing for 1.5 s: the socket buffers fill, the
        // sender blocks, and each write runs later than the one before.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(1_500));
            let mut sink = Vec::new();
            stream.read_to_end(&mut sink).ok();
        });
        let big = "x".repeat(4_000);
        let req = lines(30_000, |i| format!("req {i} {big}"));
        let exp = lines(30_000, |i| format!("ok {i}"));
        let r = run_phase(addr, &req, &exp, 20_000.0).unwrap();
        server.join().unwrap();
        assert!(r.aborted || r.lateness_growth_us() > LATENESS_GROWTH_LIMIT_US);
        assert!(r.summary().is_err(), "an overrun phase reports no numbers");
    }

    #[test]
    fn lateness_growth_rule() {
        let mut r = PhaseResult {
            rate: 1_000.0,
            planned: 0,
            sent: 0,
            answered: 0,
            mismatched: 0,
            error_responses: 0,
            latency_us: vec![],
            lateness_us: vec![50.0; 90],
            aborted: false,
            t0: Instant::now(),
        };
        // One spike in the middle is not growth.
        r.lateness_us[45] = 40_000.0;
        assert!(r.summary().is_ok());
        // A ramp is.
        for (k, l) in r.lateness_us.iter_mut().enumerate() {
            *l = 50.0 + 100.0 * k as f64;
        }
        assert!(matches!(r.summary(), Err(Invalid::LatenessGrowing(_))));
    }
}
