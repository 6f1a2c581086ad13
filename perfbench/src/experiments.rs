//! The `mc-validation` workload: repeated `experiments` runs, one at a
//! time, each into a fresh output directory, with
//! `RAYON_NUM_THREADS=2`. The traced run also spawns `experiments` over
//! the deterministic paper artefacts, checked the same way.

use crate::proc::{self, STEAL_LIMIT};
use crate::report::Record;
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The deterministic paper artefacts, in CLI order: the probe ids of
/// the traced run's sweep and harness layers.
pub const PAPER_FIGURES: &[&str] = &[
    "T-rho8",
    "T-rho3",
    "T-rho1.775",
    "T-rho1.4",
    "F1",
    "F2",
    "F3",
    "F4",
    "F5",
    "F6",
    "F7",
    "F8",
    "F9",
    "F10",
    "F11",
    "F12",
    "F13",
    "F14",
    "X-thm2",
    "X-validity",
    "X-ablation",
    "X-pairs",
    "X-robust",
    "X-pareto",
    "X-continuous",
    "X-heatmap",
];

/// The Monte Carlo validations.
pub const MC_VALIDATION: &[&str] = &["X-mc", "X-mc-mixed", "X-laws", "X-multiverif"];

/// `RAYON_NUM_THREADS` for every `experiments` run.
pub const RAYON_THREADS: &str = "2";

/// First invocations per run; `setup_s` is their median wall time.
pub const SETUPS: usize = 3;

/// One `experiments` invocation.
pub struct Invocation {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exit code and rusage.
    pub usage: proc::Usage,
    /// Artefact name → digest, from the run's manifest.
    pub digests: BTreeMap<String, String>,
    /// Bytes of every file the run left in its output directory.
    pub bytes: u64,
    /// The run's `metrics.json`.
    pub metrics: Value,
}

/// The derived `--seed` passed to `experiments` for a benchmark seed.
pub fn program_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E3779B97F4A7C15) >> 16
}

/// Runs `experiments --out dir --seed s ids...` into a fresh `dir`.
pub fn invoke(bin: &Path, dir: &Path, ids: &[&str], seed: u64) -> std::io::Result<Invocation> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let t = Instant::now();
    let child = Command::new(bin)
        .arg("--out")
        .arg(dir)
        .arg("--seed")
        .arg(program_seed(seed).to_string())
        .args(ids)
        .env("RAYON_NUM_THREADS", RAYON_THREADS)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let usage = proc::wait_usage(child)?;
    let wall_s = t.elapsed().as_secs_f64();
    let (digests, metrics) = if usage.code == Some(0) {
        (
            manifest_digests(dir)?,
            read_json(&dir.join("metrics.json"))?,
        )
    } else {
        (BTreeMap::new(), Value::Null)
    };
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    Ok(Invocation {
        wall_s,
        usage,
        digests,
        bytes,
        metrics,
    })
}

fn read_json(path: &Path) -> std::io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text)
        .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
}

fn manifest_digests(dir: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let manifest = read_json(&dir.join("manifest.json"))?;
    let mut out = BTreeMap::new();
    if let Some(Value::Array(units)) = manifest.get("units") {
        for unit in units {
            if let Some(Value::Array(artifacts)) = unit.get("artifacts") {
                for a in artifacts {
                    if let (Some(Value::String(name)), Some(Value::String(digest))) =
                        (a.get("name"), a.get("digest"))
                    {
                        out.insert(name.clone(), digest.clone());
                    }
                }
            }
        }
    }
    Ok(out)
}

/// A numeric field of `metrics.json` under `metrics.<section>.<name>`;
/// 0 when absent.
pub fn metric(metrics: &Value, section: &str, name: &str) -> f64 {
    match metrics
        .get("metrics")
        .and_then(|m| m.get(section))
        .and_then(|s| s.get(name))
    {
        Some(Value::Number(n)) => n.as_f64(),
        _ => 0.0,
    }
}

/// Whether `report_T-rho3.txt` states the paper's optimum: σ₁ = σ₂ =
/// 0.4, Wopt 2764, E/W 416.
pub fn has_paper_optimum(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("report_T-rho3.txt")).is_ok_and(|text| {
        text.lines().any(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            t.len() >= 4 && t[..4] == ["0.4", "0.4", "2764", "416"] && l.contains("best")
        })
    })
}

/// Checks one invocation against the first one's digests; returns
/// whether it is correct.
pub fn check(
    inv: &Invocation,
    dir: &Path,
    ids: &[&str],
    reference: &BTreeMap<String, String>,
) -> bool {
    inv.usage.code == Some(0)
        && !inv.digests.is_empty()
        && inv.digests == *reference
        && (!ids.contains(&"T-rho3") || has_paper_optimum(dir))
}

/// One timed `experiments` run.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    rss_kib: f64,
    /// Share of the machine's CPU time stolen during the run.
    steal: f64,
}

/// The runs that the time metrics use. A run during which the
/// hypervisor gave more than [`STEAL_LIMIT`] of the machine's CPU time to
/// other guests timed the host, not the program, and is left out; when
/// that leaves fewer than a third of the runs, the third with the least
/// steal is kept.
fn least_disturbed(mut runs: Vec<Timed>) -> Vec<Timed> {
    let keep = runs
        .iter()
        .filter(|r| r.steal <= STEAL_LIMIT)
        .count()
        .max(runs.len().div_ceil(3));
    runs.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    runs.truncate(keep);
    runs
}

/// The end-to-end run of an experiments workload.
pub fn run(
    bin: &Path,
    out: &Path,
    ids: &[&str],
    seed: u64,
    seconds: f64,
) -> std::io::Result<Record> {
    let mut rec = Record::new();
    // Every invocation gets a directory of its own; all are removed, and
    // the removal flushed to disk, after the last one, so no timed
    // invocation shares the disk with the deletion of another's
    // artefacts.
    let runs = out.join("experiments-runs");
    let mut next_dir = 0usize;
    let mut fresh_dir = || {
        next_dir += 1;
        runs.join(next_dir.to_string())
    };
    let mut setups = Vec::new();
    let mut reference = BTreeMap::new();
    let mut first: Option<Invocation> = None;
    for _ in 0..SETUPS {
        let dir = fresh_dir();
        let inv = invoke(bin, &dir, ids, seed)?;
        if reference.is_empty() {
            reference = inv.digests.clone();
        }
        let ok = check(&inv, &dir, ids, &reference);
        rec.count(1, u64::from(!ok));
        setups.push(inv.wall_s);
        first.get_or_insert(inv);
    }
    let first = first.expect("at least one set-up run");

    let mut timed = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let dir = fresh_dir();
        let before = proc::steal_ticks()?;
        let inv = invoke(bin, &dir, ids, seed)?;
        let steal = proc::steal_share_since(before)?;
        let ok = check(&inv, &dir, ids, &reference);
        rec.count(1, u64::from(!ok));
        timed.push(Timed {
            wall_s: inv.wall_s,
            cpu_s: inv.usage.cpu_s,
            rss_kib: inv.usage.maxrss_kib,
            steal,
        });
    }
    std::fs::remove_dir_all(&runs)?;
    proc::sync_all();
    let all = timed.len();
    let timed = least_disturbed(timed);
    if timed.len() < all {
        rec.note(format!(
            "{} of {all} runs disturbed (host steal over {:.0} %), left out",
            all - timed.len(),
            STEAL_LIMIT * 100.0
        ));
    }
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = timed.iter().map(|r| r.cpu_s).collect();
    let rss: Vec<f64> = timed.iter().map(|r| r.rss_kib).collect();
    let total: f64 = walls.iter().sum();
    rec.metric("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    rec.metric("p50_ms", stats::median(&walls).unwrap_or(0.0) * 1e3, "ms");
    rec.metric(
        "tail_ms",
        stats::quantile(&walls, 0.90).unwrap_or(0.0) * 1e3,
        "ms",
    );
    rec.metric("max_ops_per_s", walls.len() as f64 / total.max(1e-9), "1/s");
    rec.metric(
        "cpu_us_per_op",
        stats::median(&cpus).unwrap_or(0.0) * 1e6,
        "us",
    );
    rec.metric(
        "rss_peak_mib",
        stats::median(&rss).unwrap_or(0.0) / 1024.0,
        "MiB",
    );

    let (q1, med, q3) = stats::quartiles(&walls).unwrap_or_default();
    rec.note(format!(
        "{} runs of {} ids: run_s median {med:.4} (IQR {q1:.4}..{q3:.4}), cpu_s median {:.4}, \
         RAYON_NUM_THREADS={RAYON_THREADS}",
        walls.len(),
        ids.len(),
        stats::median(&cpus).unwrap_or(0.0),
    ));
    let atomic_writes = metric(&first.metrics, "counters", "harness.atomic_writes") + 1.0;
    rec.property("units", ids.len() as f64);
    rec.property("artifacts", first.digests.len() as f64);
    rec.property("bytes_written", first.bytes as f64);
    rec.property("atomic_writes", atomic_writes);
    rec.property("fsyncs", 2.0 * atomic_writes);
    rec.metric("run_s", med, "s");
    rec.metric("cpu_s", stats::median(&cpus).unwrap_or(0.0), "s");
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(steal: f64) -> Timed {
        Timed {
            wall_s: 1.0,
            cpu_s: 1.0,
            rss_kib: 1.0,
            steal,
        }
    }

    #[test]
    fn disturbed_runs_are_left_out() {
        let kept = least_disturbed(vec![run(0.01), run(0.2), run(0.0), run(0.05)]);
        let steals: Vec<f64> = kept.iter().map(|r| r.steal).collect();
        assert_eq!(steals, [0.0, 0.01, 0.05]);
    }

    #[test]
    fn the_least_disturbed_third_is_kept_when_most_are_disturbed() {
        let kept = least_disturbed([0.3, 0.1, 0.2, 0.6, 0.5, 0.4].map(run).into());
        let steals: Vec<f64> = kept.iter().map(|r| r.steal).collect();
        assert_eq!(steals, [0.1, 0.2]);
    }
}
