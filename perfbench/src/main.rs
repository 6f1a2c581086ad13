//! `perfbench` — measures one workload and prints one JSON record.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --experiments-bin PATH --out DIR
//! ```
//!
//! Workloads: `serve-hot`, `serve-cold`, `mc-validation`. `--trace 0`
//! measures the end-to-end metrics with no instrumentation; `--trace 1`
//! times each layer's public functions from this crate and reads the
//! counters the programs export. Notes go to stdout line by line; the
//! last line is the record as JSON.

mod experiments;
mod loadgen;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

/// What a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// A `rexec-serve` daemon with this query mix.
    Serve(serve::Profile),
    /// Repeated `experiments` runs of these ids.
    Experiments(&'static [&'static str]),
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    experiments_bin: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut experiments_bin = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("option {flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--experiments-bin" => experiments_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        experiments_bin: experiments_bin.ok_or("--experiments-bin is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2)
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1)
    }
    let workload = match args.workload.as_str() {
        "serve-hot" => Workload::Serve(serve::Profile::Hot),
        "serve-cold" => Workload::Serve(serve::Profile::Cold),
        "mc-validation" => Workload::Experiments(experiments::MC_VALIDATION),
        name => {
            eprintln!("perfbench: unknown workload {name}");
            std::process::exit(2)
        }
    };
    let steal_before = proc::steal_ticks().ok();
    let result = if args.trace {
        trace::run(&trace::Setup {
            workload,
            serve_bin: &args.serve_bin,
            experiments_bin: &args.experiments_bin,
            out: &args.out,
            seed: args.seed,
            seconds: args.seconds,
        })
    } else {
        match workload {
            Workload::Serve(p) => {
                serve::run(&args.serve_bin, &args.out, p, args.seed, args.seconds)
            }
            Workload::Experiments(ids) => experiments::run(
                &args.experiments_bin,
                &args.out,
                ids,
                args.seed,
                args.seconds,
            ),
        }
    };
    match result {
        Ok(mut rec) => {
            // How much of the machine's CPU time the hypervisor gave to
            // other guests during the run: the host contention that no
            // benchmark setting controls.
            if let Some(Ok(share)) = steal_before.map(proc::steal_share_since) {
                rec.property("host_steal_share", share);
                rec.note(format!(
                    "host steal share during the run: {:.1} %",
                    share * 100.0
                ));
            }
            for note in &rec.notes {
                println!("# {note}");
            }
            println!("{}", rec.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1)
        }
    }
}
