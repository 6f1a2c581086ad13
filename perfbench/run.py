#!/usr/bin/env python3
"""Builds rexec from source and measures one benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Workloads: serve-hot, serve-cold, mc-validation (see
perfbench/README.md). The first run in a checkout builds `rexec-serve`,
`experiments` and the `perfbench` binary in release mode into
$CARGO_TARGET_DIR (default `.bench_build`). `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` its per-layer metrics.

Standard output: the notes of `perfbench`, a host fingerprint line, a table of
every metric with its unit, and as the last line one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. Every record is
also appended, with the fingerprint, to `.bench_out/history.jsonl`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-hot", "serve-cold", "mc-validation"]
# Everything the build reads; the fingerprint hashes it because a
# benchmark checkout need not be a git repository.
SOURCE_PATHS = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench"]
MEASURE_TIMEOUT_S = 170
# The end-to-end figures by the names users of each program know. The
# gated metrics of BENCHMARK.json are defined on every workload; these
# are printed where they apply.
NAMED_METRICS = ["setup_s", "p50_ms_lo", "p99_ms_lo", "p50_ms_hi", "p99_ms_hi", "max_qps",
                 "cpu_us_per_req", "rss_peak_mib", "fail_share", "run_s", "cpu_s"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, **kw):
    """Runs a command with its output on stderr, so stdout stays ours."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT, **kw)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "rexec-serve", "--bin", "rexec-serve",
         "-p", "rexec-sweep", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if run_quiet(cmd, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return "sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def rustflags():
    try:
        with open(os.path.join(ROOT, ".cargo", "config.toml")) as fh:
            text = fh.read()
    except OSError:
        return "default"
    return "target-cpu=native" if "target-cpu=native" in text else "default"


def fingerprint(workload):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "unavailable (not a git checkout)",
        "source_digest": source_digest(),
        "rayon_num_threads": "2" if workload == "mc-validation"
        else "unset (the daemon runs its own 2 batch workers)",
        "rustflags": rustflags() + " (figures compare only on the same host)",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed non-negative")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    for needed in ["Cargo.toml", "crates/serve/Cargo.toml", "crates/sweep/Cargo.toml"]:
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full source checkout")

    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "rexec-serve"),
        "--experiments-bin", os.path.join(release, "experiments"),
        "--out", out_dir,
    ]
    try:
        # The traced run calls the experiments in-process: same thread
        # count as the spawned `experiments` runs.
        env = dict(os.environ, RAYON_NUM_THREADS="2")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {MEASURE_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    record = json.loads(lines[-1])
    shutil.rmtree(out_dir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    fp = fingerprint(args.workload)
    for line in lines[:-1]:
        print(line)
    print("# host " + json.dumps(fp, sort_keys=True))
    for name, p in sorted(record.get("properties", {}).items()):
        print(f"# property {name} = {p}")
    attempted, failed = record["attempted"], record["failed"]
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_share = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    if not args.trace:
        for name in NAMED_METRICS:
            if name not in record["metrics"] and name != "fail_share":
                print(f"# {name} = n/a on {args.workload}")

    history = os.path.join(ROOT, ".bench_out", "history.jsonl")
    with open(history, "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                             "trace": args.trace, "host": fp, "record": record}, sort_keys=True) + "\n")

    print(json.dumps({"correct": bool(record["correct"]) and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
