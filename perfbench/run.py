#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_open --seed 1 --seconds 10 --trace 0 \
        --nominal-qps Q --overload-qps Q --dev-seed N --heldout-seed N

Run from the root of a checkout. The library (../src) and the benchmark
(perfbench/) are built from source into .bench_build/, the benchmark's own
tests run, then the workload runs. The metrics it prints are checked
against BENCHMARK.json: an untraced run (--trace 0) reports every
end_to_end metric, a traced run (--trace 1) every per_layer metric
(perfbench/layer_targets.json says which end-to-end metric each should
move). The full record (host, seed, per-phase counts, spans) is written
to .bench_build/results/. The last line of output is the run's JSON
result.
Exits non-zero, without a result line, when the sources are missing, the
build or the self-test fails, or a metric is missing; exits non-zero after
the result line when an output check failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over the library and benchmark sources (path and bytes)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def check_metrics(reported, expected, idle_layers, end_to_end):
    """Returns the metrics in BENCHMARK.json order, or the first problem."""
    metrics = {}
    for spec in expected:
        name, unit = spec["name"], spec["unit"]
        if name not in reported:
            if not end_to_end and any(name.startswith(p) for p in idle_layers):
                metrics[name] = {"value": 0.0, "unit": unit}
                continue
            return None, f"metric {name} was not reported"
        value = reported[name].get("value")
        if reported[name].get("unit") != unit:
            return None, f"metric {name} has unit {reported[name].get('unit')}, expected {unit}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None, f"metric {name} is not a finite number"
        if end_to_end and value == 0:
            return None, f"end-to-end metric {name} is 0"
        metrics[name] = {"value": value, "unit": unit}
    extra = sorted(set(reported) - {spec["name"] for spec in expected})
    if extra:
        return None, "metrics not declared in BENCHMARK.json: " + ", ".join(extra)
    return metrics, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nominal-qps", type=float, required=True)
    parser.add_argument("--overload-qps", type=float, required=True)
    parser.add_argument("--dev-seed", type=int, required=True)
    parser.add_argument("--heldout-seed", type=int, required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    targets = json.loads((BENCH_DIR / "layer_targets.json").read_text())["metrics"]
    if set(targets) != {m["name"] for m in spec["per_layer"]}:
        fail("perfbench/layer_targets.json and the per_layer metrics of "
             "BENCHMARK.json name different metrics")

    build()
    selftest = subprocess.run([str(BUILD_DIR / "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        fail("benchmark self-test failed")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = BUILD_DIR / "work" / tag
    results_dir = BUILD_DIR / "results"
    shutil.rmtree(work_dir, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--nominal-qps", str(args.nominal_qps),
               "--overload-qps", str(args.overload_qps),
               "--work-dir", str(work_dir)]
    try:
        run = subprocess.run(command, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    spans = work_dir / "spans.json"
    if spans.is_file():
        shutil.move(str(spans), results_dir / f"{tag}-spans.json")
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"workload printed no result (exit code {run.returncode})")
    result = json.loads(lines[-1])

    end_to_end = args.trace == 0
    record = result["record"]
    metrics, problem = check_metrics(
        result["metrics"], spec["end_to_end" if end_to_end else "per_layer"],
        record.get("idle_layers", []), end_to_end)
    if problem:
        fail(problem)
    record.update({"nominal_qps": args.nominal_qps,
                   "overload_qps": args.overload_qps,
                   "dev_seed": args.dev_seed,
                   "heldout_seed": args.heldout_seed})
    summary = {"correct": bool(result["correct"]) and run.returncode == 0,
               "attempted": int(result["attempted"]),
               "failed": int(result["failed"]),
               "metrics": metrics}
    record_path = results_dir / f"{tag}.json"
    record_path.write_text(json.dumps(dict(summary, record=record), indent=2) + "\n")

    for failure in record.get("check_failures", []):
        print(f"check failed: {failure}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
