//! The traced run: per-layer metrics, timed from this crate around
//! calls into each layer's public functions, plus the counters the
//! programs already export (the daemon's `--metrics-prom` exposition,
//! an `experiments` run's `metrics.json`). Nothing is instrumented
//! inside the programs.
//!
//! Every traced run reports every layer. The layers on the workload's
//! own path are measured on its own inputs; the others on a probe:
//! experiments workloads drive a short `serve-hot` phase, and serve
//! workloads run the paper-figure ids ([`PAPER_FIGURES`]) and the
//! `mc-validation` ids in-process, the paper-figure harness writes, and
//! spawned `experiments` runs of the paper-figure ids. Probe figures are
//! marked in the notes; they should not move with the workload's own
//! metrics.

use crate::experiments::{self, MC_VALIDATION, PAPER_FIGURES};
use crate::loadgen::Lines;
use crate::report::Record;
use crate::serve::{self, Profile, Stream};
use crate::stats;
use crate::Workload;
use rexec_core::{BiCritSolver, SpeedSet};
use rexec_harness::{atomic_write, digest_bytes, FaultInjector, RetryPolicy};
use rexec_platforms::{configuration, ConfigId, PlatformId, ProcessorId};
use rexec_serve::{parse_request, render_answer, PlanService, Query, ServiceConfig};
use rexec_sweep::experiments::{parse_id, run_experiment_seeded};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What a traced run needs.
pub struct Setup<'a> {
    /// The workload.
    pub workload: Workload,
    /// `rexec-serve` binary.
    pub serve_bin: &'a Path,
    /// `experiments` binary.
    pub experiments_bin: &'a Path,
    /// Directory for this run's files.
    pub out: &'a Path,
    /// Workload seed.
    pub seed: u64,
    /// Run length, seconds.
    pub seconds: f64,
}

/// Requests replayed for the per-layer timings...
const REPLAY_MAX: usize = 30_000;
/// ...and for each side of a tracing-overhead pair.
const OVERHEAD_REPLAY: usize = 8_000;
/// Traced/untraced pairs behind `obs.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 5;
/// In-process passes over the experiment ids.
const EXPERIMENT_PASSES: usize = 3;
/// Spawned `experiments` runs behind `harness.residual_s`.
const RESIDUAL_RUNS: usize = 3;

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn p50(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Runs the traced measurement of `s.workload`.
pub fn run(s: &Setup) -> std::io::Result<Record> {
    let mut rec = Record::new();
    core_layers(&mut rec, s.seed);
    let overhead = match s.workload {
        Workload::Serve(profile) => {
            let overhead = serve_layers(&mut rec, s, profile, 0.4 * s.seconds, true)?;
            experiment_layers(&mut rec, s, PAPER_FIGURES, false)?;
            rec.note(
                "sweep/sim/harness figures are a probe: the paper-figure and mc-validation ids",
            );
            overhead
        }
        Workload::Experiments(ids) => {
            serve_layers(&mut rec, s, Profile::Hot, 0.15 * s.seconds, false)?;
            rec.note("loadgen/serve figures are a probe: a serve-hot phase at its hi rate");
            experiment_layers(&mut rec, s, ids, true)?
        }
    };
    let (q1, med, q3) = overhead;
    rec.metric("obs.trace_overhead_pct", med, "%");
    rec.note(format!(
        "obs: traced minus untraced, {OVERHEAD_PAIRS} pairs: median {med:+.2} % (IQR {q1:+.2} .. {q3:+.2} %)"
    ));
    Ok(rec)
}

/// `core.bicrit` and `harness.digest` micro-measurements on seeded inputs.
fn core_layers(rec: &mut Record, seed: u64) {
    let config = configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    });
    let model = config.silent_model().expect("Hera/XScale is valid");
    let k5 = config.speed_set().expect("XScale speeds are valid");
    let k20 = SpeedSet::new((0..20).map(|i| 0.2 + 0.8 * f64::from(i) / 19.0).collect())
        .expect("valid ladder");
    for (name, speeds) in [("k5", &k5), ("k20", &k20)] {
        let builds: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                black_box(BiCritSolver::new(model, speeds.clone()));
                ns(t)
            })
            .collect();
        rec.metric(
            &format!("core.bicrit.table_build_ns_{name}"),
            p50(&builds),
            "ns",
        );
    }
    let solver = BiCritSolver::new(model, k20);
    let mut rng = seed | 1;
    let rhos: Vec<f64> = (0..512)
        .map(|_| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            1.4 + 6.6 * (rng >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let solves: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            for &rho in &rhos {
                black_box(solver.solve(rho));
            }
            ns(t) / rhos.len() as f64
        })
        .collect();
    rec.metric("core.bicrit.solve_ns", p50(&solves), "ns");
    let mut out = Vec::new();
    let many: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            solver.solve_many_into(&rhos, &mut out);
            black_box(&out);
            ns(t) / rhos.len() as f64
        })
        .collect();
    rec.metric("core.bicrit.solve_many_ns_per_rho", p50(&many), "ns");
}

/// Per-call timings of one in-process replay.
#[derive(Default)]
struct Replay {
    parse_ns: Vec<f64>,
    resolve_ns: Vec<f64>,
    render_ns: Vec<f64>,
    batch_miss_ns: Vec<f64>,
    batch_hit_ns: Vec<f64>,
    /// First-pass `plan_batch` time over all batches.
    plan_ns: f64,
    errors: BTreeMap<&'static str, u64>,
    total_ns: f64,
}

/// A warmed service, as the daemon is after set-up.
fn warmed_service(profile: Profile, seed: u64) -> PlanService {
    let service = PlanService::new(ServiceConfig::default());
    let warm = Stream::new(profile, seed).warmup();
    let queries: Vec<Query> = (0..warm.len())
        .filter_map(|i| {
            let line = std::str::from_utf8(warm.get(i)).ok()?;
            service
                .resolve(&parse_request(line.trim_end()).1.ok()?)
                .ok()
        })
        .collect();
    service.plan_batch(&queries, &mut Vec::new());
    service
}

/// Replays the first `n` of `requests` through `parse_request` → `PlanService::resolve`
/// → `plan_batch` → `render_answer` in batches of `batch`, as the
/// daemon's workers do. With `traced`, every call is timed. With
/// `hit_pass`, each batch is then planned a second time from the warm
/// cache to time the all-hit path; that pass is extra work, so the
/// tracing-overhead pairs leave it out.
fn replay(
    service: &PlanService,
    requests: &Lines,
    n: usize,
    batch: usize,
    traced: bool,
    hit_pass: bool,
) -> Replay {
    let mut r = Replay::default();
    let mut queries: Vec<Query> = Vec::with_capacity(batch);
    let mut ids = Vec::with_capacity(batch);
    let mut answers = Vec::new();
    let mut line = String::new();
    let start = Instant::now();
    let n = requests.len().min(n);
    for first in (0..n).step_by(batch) {
        queries.clear();
        ids.clear();
        for i in first..(first + batch).min(n) {
            let text = std::str::from_utf8(requests.get(i))
                .unwrap_or("")
                .trim_end();
            let t = traced.then(Instant::now);
            let (id, spec) = parse_request(text);
            if let Some(t) = t {
                r.parse_ns.push(ns(t));
            }
            let spec = match spec {
                Ok(spec) => spec,
                Err(e) => {
                    *r.errors.entry(e.kind).or_default() += 1;
                    continue;
                }
            };
            let t = traced.then(Instant::now);
            let query = service.resolve(&spec);
            if let Some(t) = t {
                r.resolve_ns.push(ns(t));
            }
            match query {
                Ok(q) => {
                    ids.push(id);
                    queries.push(q);
                }
                Err(e) => {
                    *r.errors
                        .entry(rexec_serve::wire::wire_error_from_spec(&e).kind)
                        .or_default() += 1
                }
            }
        }
        let misses = service.cache_stats().misses;
        let t = traced.then(Instant::now);
        service.plan_batch(&queries, &mut answers);
        if let Some(t) = t {
            let took = ns(t);
            r.plan_ns += took;
            if service.cache_stats().misses > misses {
                r.batch_miss_ns.push(took);
            } else {
                r.batch_hit_ns.push(took);
            }
        }
        if hit_pass {
            // The same batch again, now from the warm cache.
            let t = Instant::now();
            service.plan_batch(&queries, &mut answers);
            r.batch_hit_ns.push(ns(t));
        }
        for (id, answer) in ids.iter().zip(&answers) {
            line.clear();
            let t = traced.then(Instant::now);
            render_answer(&mut line, *id, answer);
            if let Some(t) = t {
                r.render_ns.push(ns(t));
            }
            black_box(&line);
        }
    }
    r.total_ns = ns(start);
    r
}

/// One (traced, untraced) timing pair; pair `k` runs the untraced side
/// first when `k` is even, so neither side always runs warm.
fn alternate(
    k: usize,
    mut time: impl FnMut(bool) -> std::io::Result<f64>,
) -> std::io::Result<(f64, f64)> {
    Ok(if k.is_multiple_of(2) {
        let plain = time(false)?;
        (time(true)?, plain)
    } else {
        let traced = time(true)?;
        (traced, time(false)?)
    })
}

/// Signed overhead of the traced replay over the untraced one, as
/// (q1, median, q3) percent over alternating pairs, never clamped.
fn overhead(pairs: &[(f64, f64)]) -> (f64, f64, f64) {
    let pct: Vec<f64> = pairs
        .iter()
        .map(|(traced, plain)| (traced - plain) / plain * 100.0)
        .collect();
    stats::quartiles(&pct).unwrap_or_default()
}

/// The serve layers: one daemon phase at the profile's `hi` rate, its
/// exposition, and an in-process replay of the same lines. Returns the
/// replay's tracing overhead.
fn serve_layers(
    rec: &mut Record,
    s: &Setup,
    profile: Profile,
    secs: f64,
    own: bool,
) -> std::io::Result<(f64, f64, f64)> {
    let mut stream = Stream::new(profile, s.seed);
    let (_, hi) = profile.rates();
    let mut daemons = serve::Daemons::new(s.serve_bin, s.out, &mut stream);
    let phase = serve::fixed_rate(&mut daemons, &mut stream, rec, hi, secs, "traced hi")?;
    let (m, sum, expo) = (&phase.measured, phase.summary, &phase.expo);

    rec.metric("loadgen.late_p99_us", sum.late_p99_us, "us");
    rec.metric("loadgen.sent", m.result.sent as f64, "count");
    rec.metric("loadgen.answered", m.result.answered as f64, "count");

    let occupancy = expo.get("rexec_serve_batch_occupancy{quantile=\"0.5\"}");
    let q2d_us = expo.get("rexec_serve_latency_p50") * 1e6;
    rec.metric("serve.server.batch_occupancy_p50", occupancy, "count");
    rec.metric("serve.server.queue_to_dispatch_p50_us", q2d_us, "us");
    rec.metric(
        "serve.server.requests",
        expo.get("rexec_serve_requests_total"),
        "count",
    );
    rec.metric(
        "serve.server.responses",
        expo.get("rexec_serve_responses_total"),
        "count",
    );
    let hits = expo.get("rexec_serve_cache_hits_total");
    let misses = expo.get("rexec_serve_cache_misses_total");
    rec.metric("serve.cache.hits", hits, "count");
    rec.metric("serve.cache.misses", misses, "count");
    rec.metric(
        "serve.cache.evictions",
        expo.get("rexec_serve_cache_evictions"),
        "count",
    );
    rec.metric(
        "serve.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let builds = expo.get("rexec_serve_solver_builds_total");
    let solver_hits = expo.get("rexec_serve_solver_hits_total");
    rec.metric("serve.service.solver_builds", builds, "count");
    rec.metric(
        "serve.service.solver_hit_ratio",
        solver_hits / (builds + solver_hits).max(1.0),
        "ratio",
    );
    rec.metric(
        "serve.wire.errors",
        expo.get("rexec_serve_wire_errors_total"),
        "count",
    );
    rec.metric(
        "serve.wire.req_bytes_mean",
        m.requests.bytes() as f64 / m.requests.len().max(1) as f64,
        "bytes",
    );
    if own {
        rec.metric(
            "core.bicrit.pairs_evaluated",
            expo.get("rexec_bicrit_pairs_evaluated_total"),
            "count",
        );
        rec.metric(
            "core.bicrit.pairs_pruned",
            expo.get("rexec_solver_batch_pairs_pruned_total"),
            "count",
        );
    }

    // Replay the phase's lines in batches of the occupancy the daemon saw.
    let batch = (occupancy.round() as usize).max(1);
    let traced = replay(
        &warmed_service(profile, s.seed),
        &m.requests,
        REPLAY_MAX,
        batch,
        true,
        true,
    );
    let parse = p50(&traced.parse_ns);
    let resolve = p50(&traced.resolve_ns);
    let render = p50(&traced.render_ns);
    let batch_miss = p50(&traced.batch_miss_ns);
    let batch_hit = p50(&traced.batch_hit_ns);
    rec.metric("serve.wire.parse_ns_p50", parse, "ns");
    rec.metric("serve.wire.render_ns_p50", render, "ns");
    rec.metric("serve.resolve_ns_p50", resolve, "ns");
    rec.metric("serve.service.batch_hit_ns_p50", batch_hit, "ns");
    rec.metric("serve.service.batch_miss_ns_p50", batch_miss, "ns");

    // Reconciliation. The daemon's queue-to-dispatch clock runs from
    // enqueue to the response handed to the writer, so it already holds
    // the in-process layers; the residual is the rest of the end-to-end
    // p50: generator wake-up, socket I/O both ways, framing, reorder
    // writer.
    let e2e_us = sum.p50_ms * 1e3;
    let in_process_us =
        (parse + resolve + render + traced.plan_ns / traced.parse_ns.len().max(1) as f64) / 1e3;
    let residual = e2e_us - q2d_us;
    rec.metric("serve.server.residual_p50_us", residual, "us");
    rec.note(format!(
        "serve reconciliation ({}{:?} at {hi:.0}/s, batch {batch}): end-to-end p50 {e2e_us:.1} us = \
         queue-to-dispatch p50 {q2d_us:.1} us (of which in-process layers ~{in_process_us:.1} us/request, \
         queue+batch wait ~{:.1} us) + residual {residual:.1} us (framing, sockets, writer, generator)",
        if own { "" } else { "probe " },
        profile,
        q2d_us - in_process_us,
    ));
    rec.note(format!(
        "serve replay: {} requests, errors by kind {:?}; daemon wire errors {}",
        traced.parse_ns.len(),
        traced.errors,
        expo.get("rexec_serve_wire_errors_total")
    ));

    let mut pairs = Vec::new();
    for k in 0..OVERHEAD_PAIRS {
        pairs.push(alternate(k, |traced| {
            let service = warmed_service(profile, s.seed);
            Ok(replay(&service, &m.requests, OVERHEAD_REPLAY, batch, traced, false).total_ns)
        })?);
    }
    Ok(overhead(&pairs))
}

/// Layer group of an experiment id.
fn group(id: &str) -> &'static str {
    match id {
        "X-mc" => "sim.mc_s",
        "X-mc-mixed" => "sim.mc_mixed_s",
        "X-laws" => "sim.laws_s",
        "X-multiverif" => "sim.multiverif_s",
        "X-heatmap" => "sweep.heatmap_s",
        _ if id.starts_with("T-rho") => "sweep.tables_s",
        _ if id.starts_with('F') && id != "F1" => "sweep.figures_s",
        _ => "sweep.extensions_s",
    }
}

/// One in-process pass: per-id seconds, points and artefacts.
struct Pass {
    secs: BTreeMap<&'static str, f64>,
    points: BTreeMap<&'static str, f64>,
    patterns: f64,
    artifacts: Vec<(String, Vec<u8>)>,
    own_s: f64,
    total_s: f64,
}

fn pass(ids: &[&str], own: &[&str], seed: u64, traced: bool) -> std::io::Result<Pass> {
    let patterns = rexec_obs::global().counter("sim.patterns");
    let before = patterns.get();
    let mut p = Pass {
        secs: BTreeMap::new(),
        points: BTreeMap::new(),
        patterns: 0.0,
        artifacts: Vec::new(),
        own_s: 0.0,
        total_s: 0.0,
    };
    let start = Instant::now();
    for &id in ids {
        let parsed =
            parse_id(id).ok_or_else(|| std::io::Error::other(format!("unknown id {id}")))?;
        let t = traced.then(Instant::now);
        let result = run_experiment_seeded(parsed, seed)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        if let Some(t) = t {
            let took = t.elapsed().as_secs_f64();
            *p.secs.entry(group(id)).or_default() += took;
            *p.points.entry(group(id)).or_default() += result.point_count() as f64;
            if own.contains(&id) {
                p.own_s += took;
            }
        }
        if own.contains(&id) {
            for (name, csv) in result.datasets {
                p.artifacts.push((format!("{name}.csv"), csv.into_bytes()));
            }
            p.artifacts.push((
                format!("report_{}.txt", result.id),
                result.report.into_bytes(),
            ));
        }
    }
    p.total_s = start.elapsed().as_secs_f64();
    p.patterns = (patterns.get() - before) as f64;
    Ok(p)
}

/// The sweep, sim and harness layers. Returns the tracing overhead of
/// in-process passes over `own` when `own_path`.
fn experiment_layers(
    rec: &mut Record,
    s: &Setup,
    own: &[&str],
    own_path: bool,
) -> std::io::Result<(f64, f64, f64)> {
    let seed = experiments::program_seed(s.seed);
    let mut ids: Vec<&str> = own.to_vec();
    ids.extend(
        PAPER_FIGURES
            .iter()
            .chain(MC_VALIDATION)
            .filter(|id| !own.contains(id)),
    );
    let passes: Vec<Pass> = (0..EXPERIMENT_PASSES)
        .map(|_| pass(&ids, own, seed, true))
        .collect::<std::io::Result<_>>()?;
    let median_of = |f: &dyn Fn(&Pass) -> f64| p50(&passes.iter().map(f).collect::<Vec<_>>());
    let groups = [
        "sweep.figures_s",
        "sweep.tables_s",
        "sweep.heatmap_s",
        "sweep.extensions_s",
        "sim.mc_s",
        "sim.mc_mixed_s",
        "sim.laws_s",
        "sim.multiverif_s",
    ];
    for g in groups {
        rec.metric(
            g,
            median_of(&|p| p.secs.get(g).copied().unwrap_or(0.0)),
            "s",
        );
    }
    let sweep_points: f64 = passes[0]
        .points
        .iter()
        .filter(|(g, _)| g.starts_with("sweep."))
        .map(|(_, n)| n)
        .sum();
    let sweep_s = median_of(&|p| {
        p.secs
            .iter()
            .filter(|(g, _)| g.starts_with("sweep."))
            .map(|(_, t)| t)
            .sum()
    });
    rec.metric(
        "sweep.points_per_s",
        sweep_points / sweep_s.max(1e-12),
        "1/s",
    );
    let sim_s = median_of(&|p| {
        p.secs
            .iter()
            .filter(|(g, _)| g.starts_with("sim."))
            .map(|(_, t)| t)
            .sum()
    });
    rec.metric(
        "sim.patterns_per_s",
        passes[0].patterns / sim_s.max(1e-12),
        "1/s",
    );
    let compute_own_s = median_of(&|p| p.own_s);

    // Harness: every artefact of the own ids plus a manifest, through
    // the same atomic write the pipeline uses, into a fresh directory.
    let dir = s.out.join("trace-artifacts");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    let artifacts = &passes[0].artifacts;
    let mut manifest = String::from("{\"units\":[");
    for (i, (name, bytes)) in artifacts.iter().enumerate() {
        if i > 0 {
            manifest.push(',');
        }
        manifest.push_str(&format!(
            "{{\"name\":\"{name}\",\"bytes\":{},\"digest\":\"{}\"}}",
            bytes.len(),
            digest_bytes(bytes)
        ));
    }
    manifest.push_str("]}");
    let policy = RetryPolicy::default();
    let injector = FaultInjector::none();
    let mut writes = 0u64;
    let mut bytes_written = 0u64;
    let t = Instant::now();
    for (name, bytes) in artifacts.iter().chain(std::iter::once(&(
        "manifest.json".to_string(),
        manifest.into_bytes(),
    ))) {
        atomic_write(&dir.join(name), bytes, &policy, &injector)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        writes += 1;
        bytes_written += bytes.len() as u64;
    }
    let write_s = t.elapsed().as_secs_f64();
    rec.metric("harness.write_s", write_s, "s");
    rec.metric("harness.bytes_written", bytes_written as f64, "bytes");
    // One fsync of the file and one of its directory per atomic write.
    rec.metric("harness.fsyncs", 2.0 * writes as f64, "count");
    let mut blob: Vec<u8> = artifacts
        .iter()
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    while blob.len() < 4 << 20 {
        blob.extend_from_within(..);
    }
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(digest_bytes(&blob));
            blob.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    rec.metric("harness.digest_mb_per_s", p50(&rates), "MB/s");

    // Residual: a whole `experiments` run of the own ids minus its
    // compute and its writes: process start, pipeline lifecycle,
    // manifest bookkeeping.
    let run_dir = s.out.join("trace-run");
    // Each run is checked as in the end-to-end run: a zero exit, the
    // first run's artefact digests, and the paper optimum when T-rho3
    // is among the ids.
    let mut walls = Vec::new();
    let mut counters = serde::Value::Null;
    let mut reference = BTreeMap::new();
    for _ in 0..RESIDUAL_RUNS {
        let inv = experiments::invoke(s.experiments_bin, &run_dir, own, s.seed)?;
        if reference.is_empty() {
            reference = inv.digests.clone();
        }
        let ok = experiments::check(&inv, &run_dir, own, &reference);
        rec.count(1, u64::from(!ok));
        walls.push(inv.wall_s);
        counters = inv.metrics;
    }
    let run_s = p50(&walls);
    let residual = run_s - compute_own_s - write_s;
    rec.metric("harness.residual_s", residual, "s");
    rec.note(format!(
        "harness reconciliation ({}{} ids): run_s {run_s:.4} s = compute {compute_own_s:.4} s + \
         writes {write_s:.4} s ({writes} atomic writes, {bytes_written} bytes) + residual {residual:.4} s",
        if own_path { "" } else { "probe, " },
        own.len()
    ));
    if own_path {
        rec.metric(
            "core.bicrit.pairs_evaluated",
            experiments::metric(&counters, "counters", "bicrit.pairs_evaluated"),
            "count",
        );
        rec.metric(
            "core.bicrit.pairs_pruned",
            experiments::metric(&counters, "counters", "solver.batch.pairs_pruned"),
            "count",
        );
        let mut pairs = Vec::new();
        for k in 0..OVERHEAD_PAIRS {
            pairs.push(alternate(k, |traced| {
                pass(own, &[], seed, traced).map(|p| p.total_s)
            })?);
        }
        return Ok(overhead(&pairs));
    }
    Ok((0.0, 0.0, 0.0))
}
