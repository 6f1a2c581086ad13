//! `rexec-loadgen` — open-loop load generator for `rexec-serve`.
//!
//! Pipelines a deterministic, seeded query stream (a mixed hit/miss
//! distribution over the paper's platform tables) over one or more
//! connections without waiting for responses, then reports plan
//! queries/sec and latency quartiles as a JSON summary line. With
//! `--dump` (single connection) it also records the raw response byte
//! stream, which CI diffs across server batch sizes and worker counts
//! to pin determinism end to end.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const USAGE: &str = "\
rexec-loadgen — open-loop load generator for rexec-serve

USAGE:
  rexec-loadgen --addr HOST:PORT [options]

OPTIONS:
  --addr A        server address (required)
  --requests N    total requests to send (default 10000)
  --conns C       parallel connections (default 1)
  --hit-pct P     percent of queries drawn from the hot (table, rho)
                  pool; the rest carry fresh rho values (default 90)
  --seed S        stream seed (default 1)
  --dump PATH     write the raw response stream (requires --conns 1)
  --min-qps Q     exit 1 unless measured queries/sec >= Q
  --check         exit 1 on any error response or missing response
  --help          this text

Prints one JSON summary line:
  {\"requests\":...,\"responses\":...,\"errors\":...,\"elapsed_secs\":...,
   \"qps\":...,\"latency_us\":{\"p25\":...,\"p50\":...,\"p75\":...,\"p99\":...}}
";

fn fail(msg: &str) -> ! {
    eprintln!("rexec-loadgen: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2)
}

struct Args {
    addr: String,
    requests: u64,
    conns: usize,
    hit_pct: u32,
    seed: u64,
    dump: Option<String>,
    min_qps: Option<f64>,
    check: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: String::new(),
        requests: 10_000,
        conns: 1,
        hit_pct: 90,
        seed: 1,
        dump: None,
        min_qps: None,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, opt: &str| -> String {
        args.next()
            .unwrap_or_else(|| fail(&format!("option {opt} requires a value")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0)
            }
            "--addr" => out.addr = value(&mut args, &arg),
            "--requests" => out.requests = parse(&value(&mut args, &arg), &arg),
            "--conns" => out.conns = parse(&value(&mut args, &arg), &arg),
            "--hit-pct" => out.hit_pct = parse(&value(&mut args, &arg), &arg),
            "--seed" => out.seed = parse(&value(&mut args, &arg), &arg),
            "--dump" => out.dump = Some(value(&mut args, &arg)),
            "--min-qps" => out.min_qps = Some(parse(&value(&mut args, &arg), &arg)),
            "--check" => out.check = true,
            other => fail(&format!("unknown option {other}")),
        }
    }
    if out.addr.is_empty() {
        fail("--addr is required");
    }
    if out.dump.is_some() && out.conns != 1 {
        fail("--dump needs --conns 1 (a single ordered response stream)");
    }
    out
}

fn parse<T: std::str::FromStr>(text: &str, opt: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("cannot parse value `{text}` for option {opt}")))
}

/// xorshift64* — deterministic, seedable, std-only.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];

/// The deterministic query stream: `hit_pct`% of requests reuse a hot
/// pool of (platform table, ρ) pairs; the rest carry a fresh ρ (unique
/// far beyond the quantization step), forcing a solve.
fn request_line(id: u64, rng: &mut u64, hit_pct: u32, fresh_counter: &mut u64) -> String {
    let r = next_rand(rng);
    let table = (r % 8) as usize;
    let platform = PLATFORMS[table % 4];
    let processor = PROCESSORS[table / 4];
    let rho = if (r >> 8) % 100 < hit_pct as u64 {
        // Hot pool: 16 rho values per table.
        1.5 + 0.125 * ((r >> 16) % 16) as f64
    } else {
        *fresh_counter += 1;
        // Fresh rho, unique at ~1e-4 granularity (quantization step is
        // ~1.5e-8 relative, so these never coalesce).
        4.0 + *fresh_counter as f64 * 1e-4
    };
    format!(
        "{{\"id\":{id},\"platform\":\"{platform}\",\"processor\":\"{processor}\",\"rho\":{rho}}}\n"
    )
}

struct ConnOutcome {
    responses: u64,
    errors: u64,
    latencies_us: Vec<f64>,
    dump: Vec<u8>,
}

fn run_conn(
    args: &Args,
    conn_index: usize,
    requests: u64,
    first_id: u64,
) -> std::io::Result<ConnOutcome> {
    let stream = TcpStream::connect(&args.addr)?;
    stream.set_nodelay(true).ok();
    let read_half = stream.try_clone()?;
    let sent_at: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));
    let want_dump = args.dump.is_some();

    let reader = {
        let sent_at = Arc::clone(&sent_at);
        std::thread::spawn(move || {
            let mut out = ConnOutcome {
                responses: 0,
                errors: 0,
                latencies_us: Vec::new(),
                dump: Vec::new(),
            };
            let mut lines = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let now = Instant::now();
                        out.responses += 1;
                        if line.contains("\"err\"") {
                            out.errors += 1;
                        }
                        if let Some(t) = sent_at.lock().expect("sent_at").pop_front() {
                            out.latencies_us.push((now - t).as_secs_f64() * 1e6);
                        }
                        if want_dump {
                            out.dump.extend_from_slice(line.as_bytes());
                        }
                    }
                    Err(_) => break,
                }
            }
            out
        })
    };

    // Open loop: pipeline every request without waiting for responses.
    let mut rng = args
        .seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(conn_index as u64 + 1);
    let mut fresh = (conn_index as u64) << 32;
    let mut writer = std::io::BufWriter::new(stream);
    for k in 0..requests {
        let line = request_line(first_id + k, &mut rng, args.hit_pct, &mut fresh);
        sent_at.lock().expect("sent_at").push_back(Instant::now());
        writer.write_all(line.as_bytes())?;
        // Flush in small groups so latency reflects service time, not
        // client-side buffering of the entire stream.
        if k % 64 == 63 {
            writer.flush()?;
        }
    }
    writer.flush()?;
    // Half-close: tells the server this connection is done sending, so
    // it drains our in-flight requests and closes once all are answered.
    writer
        .into_inner()
        .expect("flushed")
        .shutdown(std::net::Shutdown::Write)
        .ok();
    Ok(reader.join().expect("reader thread panicked"))
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos.min(sorted.len() - 1)]
}

fn main() {
    let args = Arc::new(parse_args());
    let conns = args.conns.max(1);
    let per_conn = args.requests / conns as u64;
    let remainder = args.requests % conns as u64;

    let started = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let args = Arc::clone(&args);
            let requests = per_conn + u64::from((c as u64) < remainder);
            let first_id = c as u64 * 10_000_000;
            std::thread::spawn(move || run_conn(&args, c, requests, first_id))
        })
        .collect();

    let mut responses = 0u64;
    let mut errors = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut dump: Vec<u8> = Vec::new();
    for handle in handles {
        match handle.join().expect("connection thread panicked") {
            Ok(outcome) => {
                responses += outcome.responses;
                errors += outcome.errors;
                latencies.extend(outcome.latencies_us);
                dump.extend(outcome.dump);
            }
            Err(e) => {
                eprintln!("rexec-loadgen: connection failed: {e}");
                std::process::exit(1)
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    if let Some(path) = &args.dump {
        if let Err(e) = std::fs::write(path, &dump) {
            eprintln!("rexec-loadgen: cannot write {path}: {e}");
            std::process::exit(1)
        }
    }

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let qps = responses as f64 / elapsed.max(1e-9);
    println!(
        "{{\"requests\":{},\"responses\":{responses},\"errors\":{errors},\
         \"elapsed_secs\":{elapsed:.6},\"qps\":{qps:.1},\"latency_us\":{{\
         \"p25\":{:.1},\"p50\":{:.1},\"p75\":{:.1},\"p99\":{:.1}}}}}",
        args.requests,
        quantile(&latencies, 0.25),
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.75),
        quantile(&latencies, 0.99),
    );

    let mut ok = true;
    if args.check && (errors > 0 || responses != args.requests) {
        eprintln!(
            "rexec-loadgen: check failed ({errors} errors, {responses}/{} responses)",
            args.requests
        );
        ok = false;
    }
    if let Some(floor) = args.min_qps {
        if qps < floor {
            eprintln!("rexec-loadgen: qps {qps:.1} below required floor {floor:.1}");
            ok = false;
        }
    }
    std::process::exit(i32::from(!ok))
}
