//! The `serve-hot` and `serve-cold` workloads: a `rexec-serve` daemon
//! with default flags on a loopback ephemeral port, driven open loop at
//! two fixed rates and up a rate ladder.

use crate::loadgen::{run_phase, Lines, PhaseResult, PhaseSummary};
use crate::proc::{self, STEAL_LIMIT};
use crate::report::Record;
use crate::stats;
use rexec_platforms::{configuration, ConfigId, PlatformId, ProcessorId};
use rexec_serve::{parse_request, render_answer, PlanService, ServiceConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ladder rung passes when its p99 stays within this limit. On a
/// 2-vCPU host the p99 near the knee swings between 5 and 30 ms from one
/// rung to the next, so a 10 ms limit makes the knee a coin toss; at
/// 50 ms the limit sits where the backlog starts to grow.
pub const P99_LIMIT_MS: f64 = 50.0;

/// The ladder moves from `hi` in steps of this ratio (up while rates are
/// met, down while they are missed)...
pub const LADDER_STEP: f64 = 1.5;
/// ...(at most this many steps)...
pub const LADDER_MAX_RUNGS: usize = 8;
/// ...then runs a staircase of this many rungs from the middle of the
/// bracket: up one step after a rung that meets its rate, down one step
/// after a miss. The step starts at 1.5^(1/4) ≈ 11 % and is square-rooted
/// at every reversal, down to [`STAIRCASE_MIN_STEP`].
pub const STAIRCASE_RUNGS: usize = 14;
/// The smallest staircase step (2.5 %).
pub const STAIRCASE_MIN_STEP: f64 = 1.025;
/// The knee is the median rate of the staircase's last this many rungs.
pub const STAIRCASE_TAIL: usize = 8;

/// Attempts per fixed-rate phase; see [`fixed_rate`].
pub const PHASE_ATTEMPTS: usize = 3;

/// Daemons started per run before a retry; `setup_s` is the median
/// set-up time of every daemon the run starts.
pub const SETUPS: usize = 5;

/// The query mix a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Profile {
    /// 90 % of queries from a 128-plan hot pool over the 8 paper tables.
    Hot,
    /// Every ρ fresh, over 96 synthetic K = 20 tables.
    Cold,
}

impl Profile {
    /// `(lo, hi)` offered rates, requests per second.
    pub fn rates(self) -> (f64, f64) {
        match self {
            Profile::Hot => (10_000.0, 40_000.0),
            Profile::Cold => (5_000.0, 15_000.0),
        }
    }
}

const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
const COLD_TABLES: usize = 96;
const COLD_SPEEDS: usize = 20;

/// Set-up requests of a `serve-cold` daemon: fresh plans over the cold
/// tables, as many as one plan-cache shard holds. A plan's shard is its
/// `plan_hash` modulo the shard count. Every word that hash mixes in is
/// a quantized float whose low bits are zero, so the hash's low bits
/// depend only on how many words it mixed: all K = 20 plans share one
/// shard. Once set-up has filled it, every plan a measured phase
/// inserts evicts one.
fn cold_prefill_len() -> usize {
    let config = ServiceConfig::default();
    config
        .plan_cache_capacity
        .div_ceil(config.plan_cache_shards)
}

/// xorshift64* — the generator `rexec-loadgen` and `rexec-bench` use.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// The seeded request stream of one run. Fresh ρ values count up from
/// a seed-dependent base in steps far above the service's quantization
/// step, so none repeats within a run.
pub struct Stream {
    profile: Profile,
    rng: u64,
    next_id: u64,
    fresh: u64,
    fresh_base: f64,
    cold_tables: Vec<String>,
}

impl Stream {
    /// The stream of `profile` for `seed`.
    pub fn new(profile: Profile, seed: u64) -> Stream {
        let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        next_rand(&mut rng);
        Stream {
            profile,
            rng,
            next_id: 1,
            fresh: 0,
            fresh_base: 4.0 + (seed % 1000) as f64 * 1e-3,
            cold_tables: if profile == Profile::Cold {
                cold_tables()
            } else {
                Vec::new()
            },
        }
    }

    fn fresh_rho(&mut self) -> f64 {
        self.fresh += 1;
        self.fresh_base + self.fresh as f64 * 1e-6
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// The next request line (no newline).
    pub fn next_line(&mut self) -> String {
        let r = next_rand(&mut self.rng);
        match self.profile {
            Profile::Hot => {
                let table = (r % 8) as usize;
                let rho = if (r >> 8) % 100 < 90 {
                    1.5 + 0.125 * ((r >> 16) % 16) as f64
                } else {
                    self.fresh_rho()
                };
                self.paper_line(table, rho)
            }
            Profile::Cold => {
                let table = (r % COLD_TABLES as u64) as usize;
                let rho = self.fresh_rho();
                let id = self.id();
                format!("{{\"id\":{id},{},\"rho\":{rho}}}", self.cold_tables[table])
            }
        }
    }

    fn paper_line(&mut self, table: usize, rho: f64) -> String {
        let id = self.id();
        format!(
            "{{\"id\":{id},\"platform\":\"{}\",\"processor\":\"{}\",\"rho\":{rho}}}",
            PLATFORMS[table % 4],
            PROCESSORS[table / 4]
        )
    }

    /// `n` request lines.
    pub fn take(&mut self, n: usize) -> Lines {
        let mut lines = Lines::default();
        for _ in 0..n {
            lines.push(self.next_line().as_bytes());
        }
        lines
    }

    /// Set-up traffic: every plan of the hot pool once (Hot), or the
    /// first [`cold_prefill_len`] requests of the stream (Cold). The
    /// fresh ρ values of the measured phases come after these, so none
    /// of them hits.
    pub fn warmup(&mut self) -> Lines {
        let mut lines = Lines::default();
        match self.profile {
            Profile::Hot => {
                for table in 0..8 {
                    for k in 0..16 {
                        let line = self.paper_line(table, 1.5 + 0.125 * k as f64);
                        lines.push(line.as_bytes());
                    }
                }
            }
            Profile::Cold => {
                for _ in 0..cold_prefill_len() {
                    lines.push(self.next_line().as_bytes());
                }
            }
        }
        lines
    }
}

/// The 96 synthetic K = 20 tables as request-field fragments: Hera/XScale
/// with λ scaled by 1 + i/100 and a 20-speed ladder over [0.2, 1].
fn cold_tables() -> Vec<String> {
    let model = configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
    .silent_model()
    .expect("Hera/XScale is a valid model");
    let speeds: Vec<String> = (0..COLD_SPEEDS)
        .map(|i| format!("{}", 0.2 + 0.8 * i as f64 / (COLD_SPEEDS - 1) as f64))
        .collect();
    (0..COLD_TABLES)
        .map(|i| {
            format!(
                "\"lambda\":{},\"checkpoint\":{},\"verification\":{},\"recovery\":{},\
                 \"kappa\":{},\"pidle\":{},\"pio\":{},\"speeds\":[{}]",
                model.lambda * (1.0 + i as f64 / 100.0),
                model.costs.checkpoint,
                model.costs.verification,
                model.costs.recovery,
                model.power.kappa,
                model.power.p_idle,
                model.power.p_io,
                speeds.join(",")
            )
        })
        .collect()
}

/// The expected response of every request: the same line through
/// `parse_request`, a fresh default `PlanService`, and `render_answer`.
pub fn reference(requests: &Lines) -> Lines {
    let service = PlanService::new(ServiceConfig::default());
    let mut ids = Vec::with_capacity(requests.len());
    let mut queries = Vec::with_capacity(requests.len());
    let mut errors = Vec::new();
    for i in 0..requests.len() {
        let text = std::str::from_utf8(requests.get(i)).expect("generated lines are UTF-8");
        let (id, spec) = parse_request(text.trim_end());
        match spec
            .map_err(|e| e.msg)
            .and_then(|s| service.resolve(&s).map_err(|e| e.to_string()))
        {
            Ok(q) => {
                ids.push(id);
                queries.push(q);
            }
            Err(e) => errors.push(format!("request {i}: {e}")),
        }
    }
    assert!(
        errors.is_empty(),
        "generated requests must be valid: {errors:?}"
    );
    let mut answers = Vec::new();
    service.plan_batch(&queries, &mut answers);
    let mut out = Lines::default();
    let mut line = String::new();
    for (id, answer) in ids.iter().zip(&answers) {
        line.clear();
        render_answer(&mut line, *id, answer);
        out.push(line.as_bytes());
    }
    out
}

/// Counters and gauges of a Prometheus text exposition (`_total`
/// suffixes kept, quantile series keyed with their label).
#[derive(Debug, Default, Clone)]
pub struct Exposition(pub BTreeMap<String, f64>);

impl Exposition {
    /// Parses the text format; unparsable lines are skipped.
    pub fn parse(text: &str) -> Exposition {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(name.to_string(), v);
                }
            }
        }
        Exposition(map)
    }

    /// A series' value; 0 when the daemon never registered it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// A running daemon.
pub struct Daemon {
    child: Option<Child>,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Its listening address.
    pub addr: SocketAddr,
    prom: PathBuf,
}

impl Daemon {
    /// Starts `rexec-serve` with default flags on an ephemeral port and
    /// waits for its `listening on` line.
    pub fn start(bin: &Path, prom: PathBuf) -> std::io::Result<Daemon> {
        let _ = std::fs::remove_file(&prom);
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--metrics-prom"])
            .arg(&prom)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        stdout.read_line(&mut first)?;
        let mut daemon = Daemon {
            child: Some(child),
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal"),
            prom,
        };
        daemon.addr = first
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("rexec-serve said {first:?}")))?;
        Ok(daemon)
    }

    /// The daemon's pid.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// SIGTERM, wait for the drain, and read the exposition it wrote.
    pub fn stop(mut self) -> std::io::Result<Exposition> {
        let mut child = self.child.take().expect("running");
        proc::terminate(&child);
        let status = proc::reap(&mut child, Duration::from_secs(10));
        if !status.is_some_and(|s| s.success()) {
            return Err(std::io::Error::other(format!(
                "rexec-serve did not drain cleanly: {status:?}"
            )));
        }
        Ok(Exposition::parse(&std::fs::read_to_string(&self.prom)?))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Sends `lines` over one connection, a writer thread sending while this
/// thread reads, and reads every answer; returns (failures, time of the
/// last answer).
fn send_all(addr: SocketAddr, lines: &Lines, expected: &Lines) -> std::io::Result<(u64, Instant)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut got = Vec::new();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            writer.write_all(lines.range(0, lines.len()))?;
            writer.shutdown(std::net::Shutdown::Write)
        });
        let read = stream.read_to_end(&mut got);
        sender.join().expect("set-up writer panicked")?;
        read.map(drop)
    })?;
    let at = Instant::now();
    let answers: Vec<&[u8]> = got.split_inclusive(|&b| b == b'\n').collect();
    let mut failed = lines.len().saturating_sub(answers.len()) as u64;
    for (k, answer) in answers.iter().enumerate() {
        if k >= expected.len() || *answer != expected.get(k) {
            failed += 1;
        }
    }
    Ok((failed, at))
}

/// Starts the daemons of one run. Every daemon is fresh and gets the
/// same set-up traffic, so every phase runs against the same state.
pub struct Daemons<'a> {
    bin: &'a Path,
    out: &'a Path,
    warm: Lines,
    expected: Lines,
    started: usize,
    /// Spawn → last set-up answer of every daemon started, seconds.
    pub setup_s: Vec<f64>,
}

impl<'a> Daemons<'a> {
    /// Daemons of `bin` that write their expositions under `out`, set up
    /// with `stream`'s set-up traffic.
    pub fn new(bin: &'a Path, out: &'a Path, stream: &mut Stream) -> Daemons<'a> {
        let warm = stream.warmup();
        let expected = reference(&warm);
        Daemons {
            bin,
            out,
            warm,
            expected,
            started: 0,
            setup_s: Vec::new(),
        }
    }

    /// Starts a daemon and sends it the set-up traffic.
    pub fn start(&mut self, rec: &mut Record) -> std::io::Result<Daemon> {
        self.started += 1;
        let prom = self.out.join(format!("serve-{}.prom", self.started));
        let spawned = Instant::now();
        let daemon = Daemon::start(self.bin, prom)?;
        let (failed, at) = send_all(daemon.addr, &self.warm, &self.expected)?;
        rec.count(self.warm.len() as u64, failed);
        self.setup_s.push((at - spawned).as_secs_f64());
        Ok(daemon)
    }
}

/// One measured phase and what the daemon spent on it.
pub struct Measured {
    /// Generator outcome.
    pub result: PhaseResult,
    /// Daemon CPU seconds during the phase.
    pub cpu_s: f64,
    /// Request lines sent.
    pub requests: Arc<Lines>,
}

/// A fixed-rate phase on a daemon of its own.
pub struct Phase {
    /// The measurement.
    pub measured: Measured,
    /// Its latency figures.
    pub summary: PhaseSummary,
    /// The daemon's `VmHWM` after the phase, KiB.
    pub rss_kib: f64,
    /// The exposition the daemon wrote when it stopped.
    pub expo: Exposition,
}

/// Runs `secs` seconds at `rate` against `daemon`.
pub fn measure(
    daemon: &Daemon,
    stream: &mut Stream,
    rate: f64,
    secs: f64,
) -> std::io::Result<Measured> {
    let requests = Arc::new(stream.take((rate * secs).round() as usize));
    let expected = Arc::new(reference(&requests));
    let cpu0 = proc::cpu_seconds(daemon.pid())?;
    let result = run_phase(daemon.addr, &requests, &expected, rate)?;
    let cpu_s = proc::cpu_seconds(daemon.pid())? - cpu0;
    Ok(Measured {
        result,
        cpu_s,
        requests,
    })
}

/// Phase lengths for a run of `seconds`: (lo, hi, one ladder rung).
pub fn phase_secs(seconds: f64) -> (f64, f64, f64) {
    (0.3 * seconds, 0.2 * seconds, (0.04 * seconds).max(0.4))
}

/// The end-to-end run of a serve workload.
pub fn run(
    bin: &Path,
    out: &Path,
    profile: Profile,
    seed: u64,
    seconds: f64,
) -> std::io::Result<Record> {
    let mut rec = Record::new();
    let mut stream = Stream::new(profile, seed);
    let (lo, hi) = profile.rates();
    let (lo_s, hi_s, rung_s) = phase_secs(seconds);
    let mut daemons = Daemons::new(bin, out, &mut stream);

    // Extra set-ups first, so setup_s is a median over several daemons.
    for _ in 0..SETUPS - 3 {
        daemons.start(&mut rec)?.stop()?;
    }
    let lo_p = fixed_rate(&mut daemons, &mut stream, &mut rec, lo, lo_s, "lo")?;
    let hi_p = fixed_rate(&mut daemons, &mut stream, &mut rec, hi, hi_s, "hi")?;
    let (lo_sum, hi_sum) = (lo_p.summary, hi_p.summary);

    let d = daemons.start(&mut rec)?;
    let mut rungs = Vec::new();
    let max_qps = knee_rate(hi, passes(&hi_p.measured.result), |rate| {
        let m = measure(&d, &mut stream, rate, rung_s)?;
        // A rung above capacity may leave requests unanswered; only
        // wrong answers count as failures here.
        rec.count(m.result.answered as u64, m.result.mismatched as u64);
        rungs.push(format!(
            "{rate:.0}:{}",
            match m.result.summary() {
                Ok(s) => format!("p99={:.2}ms", s.p99_ms),
                Err(e) => format!("invalid({e})"),
            }
        ));
        Ok(passes(&m.result))
    })?;
    d.stop()?;

    let hi_m = &hi_p.measured;
    let cpu_us = hi_m.cpu_s / hi_m.result.answered.max(1) as f64 * 1e6;
    rec.metric(
        "setup_s",
        stats::median(&daemons.setup_s).unwrap_or(0.0),
        "s",
    );
    // Latency is gated at `lo`: at `hi` the generator, the daemon and
    // other tenants contend for the host's cores and the run-to-run
    // spread is several times larger. The `hi` figures are properties.
    rec.metric("p50_ms", lo_sum.p50_ms, "ms");
    rec.metric("tail_ms", lo_sum.p90_ms, "ms");
    rec.metric("max_ops_per_s", max_qps, "1/s");
    rec.metric("cpu_us_per_op", cpu_us, "us");
    rec.metric("rss_peak_mib", hi_p.rss_kib / 1024.0, "MiB");

    rec.note(format!(
        "{} daemons, each set up with {} requests",
        daemons.setup_s.len(),
        daemons.warm.len()
    ));
    for (name, rate, sum) in [("lo", lo, &lo_sum), ("hi", hi, &hi_sum)] {
        rec.note(format!(
            "{name} {rate:.0}/s: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, {} samples, \
             generator late p99 {:.0} us",
            sum.p50_ms, sum.p90_ms, sum.p99_ms, sum.samples, sum.late_p99_us
        ));
    }
    for (name, p) in [("lo", &lo_p), ("hi", &hi_p)] {
        let (m, e) = (&p.measured, &p.expo);
        let r = &m.result;
        rec.note(format!(
            "{name}: {} sent, {} answered, {} wrong ({} error responses), daemon cpu {:.2} s; \
             daemon plan cache after set-up and phase: {} hits, {} misses, {} evictions",
            r.sent,
            r.answered,
            r.mismatched,
            r.error_responses,
            m.cpu_s,
            e.get("rexec_serve_cache_hits_total"),
            e.get("rexec_serve_cache_misses_total"),
            e.get("rexec_serve_cache_evictions"),
        ));
    }
    rec.note(format!("ladder from {hi:.0}/s: {}", rungs.join(" ")));
    // The figures behind them, under the names the serve layer's users
    // know; `run.py` prints them, only the metrics above are gated.
    for (name, sum) in [("lo", &lo_sum), ("hi", &hi_sum)] {
        rec.metric(&format!("p50_ms_{name}"), sum.p50_ms, "ms");
        rec.metric(&format!("p90_ms_{name}"), sum.p90_ms, "ms");
        rec.metric(&format!("p99_ms_{name}"), sum.p99_ms, "ms");
        rec.property(&format!("samples_{name}"), sum.samples as f64);
    }
    rec.metric("max_qps", max_qps, "1/s");
    rec.metric("cpu_us_per_req", cpu_us, "us");
    // The plan-cache ratio of the `hi` phase alone: every set-up
    // request is a distinct plan, so a miss.
    let hi_expo = &hi_p.expo;
    let hits = hi_expo.get("rexec_serve_cache_hits_total");
    let misses = hi_expo.get("rexec_serve_cache_misses_total") - daemons.warm.len() as f64;
    rec.property("plan_cache_hit_ratio", hits / (hits + misses).max(1.0));
    let builds = hi_expo.get("rexec_serve_solver_builds_total");
    let shits = hi_expo.get("rexec_serve_solver_hits_total");
    rec.property("solver_cache_hit_ratio", shits / (builds + shits).max(1.0));
    rec.property(
        "distinct_tables",
        match profile {
            Profile::Hot => 8.0,
            Profile::Cold => COLD_TABLES as f64,
        },
    );
    rec.property(
        "req_bytes_mean",
        hi_m.requests.bytes() as f64 / hi_m.requests.len().max(1) as f64,
    );
    Ok(rec)
}

/// Runs a fixed-rate phase, each attempt on a fresh daemon, until it is
/// valid and undisturbed, at most [`PHASE_ATTEMPTS`] times. An invalid
/// attempt (the generator fell behind, its lateness grew, or responses
/// were lost) measured a queue, not the server. A disturbed one ran
/// while the hypervisor gave more than [`STEAL_LIMIT`] of the machine's
/// CPU time to other guests: the host, not the program, set its
/// latency. Both are noted and measured again; when every attempt is
/// disturbed, the valid attempt with the least steal is kept. Wrong or
/// missing answers of every attempt count as failures.
pub fn fixed_rate(
    daemons: &mut Daemons,
    stream: &mut Stream,
    rec: &mut Record,
    rate: f64,
    secs: f64,
    name: &str,
) -> std::io::Result<Phase> {
    let mut best: Option<(f64, Phase)> = None;
    for attempt in 1..=PHASE_ATTEMPTS {
        let d = daemons.start(rec)?;
        let before = proc::steal_ticks()?;
        let measured = measure(&d, stream, rate, secs)?;
        let steal = proc::steal_share_since(before)?;
        let rss_kib = proc::vm_hwm_kib(d.pid())?;
        let expo = d.stop()?;
        rec.count(
            measured.result.sent as u64,
            measured.result.failures() as u64,
        );
        match measured.result.summary() {
            Ok(summary) => {
                let phase = Phase {
                    measured,
                    summary,
                    rss_kib,
                    expo,
                };
                if steal <= STEAL_LIMIT {
                    return Ok(phase);
                }
                rec.note(format!(
                    "{name} attempt {attempt} disturbed: host steal {:.1} %",
                    steal * 100.0
                ));
                if best.as_ref().is_none_or(|b| steal < b.0) {
                    best = Some((steal, phase));
                }
            }
            Err(e) => rec.note(format!("{name} attempt {attempt} invalid: {e}")),
        }
    }
    best.map(|(_, p)| p).ok_or_else(|| {
        std::io::Error::other(format!(
            "{name}: no valid phase in {PHASE_ATTEMPTS} attempts"
        ))
    })
}

/// The knee of the ladder, searched from `start` (whose outcome is
/// `start_met`); `rung(rate)` runs one rung and says whether it met its
/// rate. The search climbs or descends by [`LADDER_STEP`] until the
/// outcome changes, a rate counting as met when either of two rungs
/// meets it. A staircase then runs from the geometric middle of that
/// bracket (see [`STAIRCASE_RUNGS`]), and the knee is the median rate of
/// its last [`STAIRCASE_TAIL`] rungs: the rate that rungs meet about
/// half the time. Every rung of the tail counts, so one noisy rung moves
/// the knee by about a step, where it would move a bisection by half its
/// bracket. Without a bracket within [`LADDER_MAX_RUNGS`] steps, the
/// last rate reached is returned.
pub fn knee_rate(
    start: f64,
    start_met: bool,
    mut rung: impl FnMut(f64) -> std::io::Result<bool>,
) -> std::io::Result<f64> {
    let (mut good, mut bad) = (start, start);
    let step = if start_met {
        LADDER_STEP
    } else {
        1.0 / LADDER_STEP
    };
    let mut bracketed = false;
    for _ in 0..LADDER_MAX_RUNGS {
        let rate = if start_met { good } else { bad } * step;
        if rung(rate)? || rung(rate)? {
            good = rate;
            if !start_met {
                bracketed = true;
                break;
            }
        } else {
            bad = rate;
            if start_met {
                bracketed = true;
                break;
            }
        }
    }
    if !bracketed {
        return Ok(if start_met { good } else { bad });
    }
    let mut rate = (good * bad).sqrt();
    let mut step = LADDER_STEP.powf(0.25);
    let mut last = None;
    let mut rates = Vec::with_capacity(STAIRCASE_RUNGS);
    for _ in 0..STAIRCASE_RUNGS {
        rates.push(rate);
        let met = rung(rate)?;
        if last.is_some_and(|l| l != met) {
            step = step.sqrt().max(STAIRCASE_MIN_STEP);
        }
        last = Some(met);
        rate = if met { rate * step } else { rate / step };
    }
    Ok(stats::median(&rates[STAIRCASE_RUNGS - STAIRCASE_TAIL..]).unwrap_or(good))
}

/// A rate is met when the phase is valid, complete and correct, and its
/// p99 (median over the phase's windows) is within [`P99_LIMIT_MS`].
fn passes(r: &PhaseResult) -> bool {
    r.failures() == 0 && r.summary().is_ok_and(|s| s.p99_ms <= P99_LIMIT_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search(start: f64, capacity: f64) -> (f64, usize) {
        let mut rungs = 0;
        let got = knee_rate(start, start <= capacity, |r| {
            rungs += 1;
            Ok(r <= capacity)
        })
        .unwrap();
        (got, rungs)
    }

    /// Whether `got` is within one smallest staircase step of `capacity`.
    fn near(got: f64, capacity: f64) -> bool {
        (got / capacity).ln().abs() <= STAIRCASE_MIN_STEP.ln() + 1e-9
    }

    #[test]
    fn ladder_climbs_to_the_knee() {
        let (got, rungs) = search(40_000.0, 150_000.0);
        assert!(near(got, 150_000.0), "{got}");
        // Climbing rungs, the miss confirmed once, then the staircase.
        assert_eq!(rungs, 5 + STAIRCASE_RUNGS);
    }

    #[test]
    fn ladder_descends_when_the_start_is_missed() {
        let (got, _) = search(40_000.0, 25_000.0);
        assert!(near(got, 25_000.0), "{got}");
    }

    #[test]
    fn ladder_stops_at_its_range() {
        let (top, _) = search(1.0, f64::INFINITY);
        assert!((top / LADDER_STEP.powi(LADDER_MAX_RUNGS as i32) - 1.0).abs() < 1e-9);
        let (bottom, _) = search(1.0, 0.0);
        assert!((bottom * LADDER_STEP.powi(LADDER_MAX_RUNGS as i32) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_noisy_rung_moves_the_knee_by_at_most_a_step() {
        let capacity = 150_000.0;
        let clean = search(40_000.0, capacity).0;
        for flipped in 0..5 + STAIRCASE_RUNGS {
            let mut k = 0;
            let noisy = knee_rate(40_000.0, true, |r| {
                k += 1;
                Ok((r <= capacity) != (k - 1 == flipped))
            })
            .unwrap();
            assert!(
                (noisy / clean).ln().abs() <= STAIRCASE_MIN_STEP.ln() + 1e-9,
                "rung {flipped}: {noisy} against {clean}"
            );
        }
    }

    #[test]
    fn exposition_lines_parse() {
        let e = Exposition::parse(
            "# TYPE x counter\nrexec_serve_requests_total 12\nrexec_serve_batch_occupancy{quantile=\"0.5\"} 7.5\n",
        );
        assert_eq!(e.get("rexec_serve_requests_total"), 12.0);
        assert_eq!(e.get("rexec_serve_batch_occupancy{quantile=\"0.5\"}"), 7.5);
        assert_eq!(e.get("absent"), 0.0);
    }
}
