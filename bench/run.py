"""mslab benchmark: run one workload at one seed and report its metrics.

    python3 bench/run.py --workload {suite,saturate,verify} --seed N --seconds S --trace {0,1}

Run from anywhere; the mslab sources are taken from `src/` next to this
directory. Every workload runs in its own fresh, single-threaded Python
process (bench/worker.py). Output: a table with every metric by name, its
unit, sample count and quartiles, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 measures with no tracing and reports the end-to-end metrics.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass plus trace.overhead_ratio. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_build" / "mslab"
WORKLOADS = ("suite", "saturate", "verify")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
# Printed for the workloads that define them, but not part of the result
# line: on a shared 2-vCPU virtual machine their spread between runs of
# identical code exceeds the timing bound (see bench/README.md).
REPORTED_ONLY = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"))
# Set-up is measured in these extra import-only processes, half before and
# half after the workload's own, and in the workload's process; the median
# of all of them is reported. Spreading them over the run matters because
# on a shared virtual machine the CPU speed drifts by up to a quarter over
# tens of seconds.
SETUP_PROBES = 10
# Every child must be done by then, so that a run ends within 180 s.
DEADLINE_S = 170


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn_worker(args: list[str], deadline: float) -> float:
    """Run bench/worker.py to completion; return its set-up time: from
    process start until it reports that mslab.cli is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return setup


def run_workload(args: list[str], tag: str, deadline: float) -> dict:
    result_path = OUT / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    setup = spawn_worker([*args, "--result", str(result_path)], deadline)
    result = json.loads(result_path.read_text())
    result["setup_s"] = setup
    return result


def _quartiles(xs: list[float]) -> str:
    return f"n={len(xs)} q1={percentile(xs, 0.25):.6g} q3={percentile(xs, 0.75):.6g}"


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values and, per metric, its sample count and quartiles."""
    passes = result["passes"]
    timings = {"setup_s": setups, "wall_s": [p["wall"] for p in passes], "cpu_s": [p["cpu"] for p in passes]}
    values = {name: percentile(xs, 0.5) for name, xs in timings.items()}
    notes = {name: _quartiles(xs) for name, xs in timings.items()}
    values["peak_rss_mb"] = result["peak_rss_kb"] / 1024
    notes["peak_rss_mb"] = "n=1"
    ops = sum(p.get("ops", 0) for p in passes)
    ops_seconds = sum(p.get("ops_seconds", 0.0) for p in passes)
    if ops_seconds > 0:
        values["ops_per_s"] = ops / ops_seconds
        notes["ops_per_s"] = f"n={ops}"
    latencies = [ms for p in passes for ms in p.get("latencies_ms", ())]
    if latencies:
        values["op_p50_ms"] = percentile(latencies, 0.5)
        values["op_p90_ms"] = percentile(latencies, 0.9)
        notes["op_p50_ms"] = notes["op_p90_ms"] = _quartiles(latencies)
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mslab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mslab" / "__init__.py").is_file():
        print(f"error: no mslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.workload == "verify":
        fixtures_dir = OUT / "fixtures"
        shutil.rmtree(fixtures_dir, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(BENCH / "fixtures.py"), "--seed", str(args.seed), "--out", str(fixtures_dir)],
            cwd=ROOT, env=_env(), check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        common += ["--fixtures", str(fixtures_dir)]

    if args.trace:
        base = run_workload([*common, "--seconds", "0"], "untraced", deadline)
        spans = OUT / f"spans-{args.workload}.jsonl"
        traced = run_workload([*common, "--trace", "1", "--spans", str(spans)], "traced", deadline)
        results = [base, traced]
        values = traced["layers"]
        values["trace.overhead_ratio"] = traced["passes"][0]["wall"] / base["passes"][0]["wall"]
        units = tracer.metric_units()
        rows = [(name, values[name], unit, "") for name, unit in units.items()]
    else:
        setups = [spawn_worker(["--probe"], deadline) for _ in range(SETUP_PROBES // 2)]
        result = run_workload([*common, "--seconds", str(args.seconds)], "run", deadline)
        setups.append(result["setup_s"])
        setups += [spawn_worker(["--probe"], deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        results = [result]
        values, notes = end_to_end(result, setups)
        units = dict(END_TO_END)
        rows = [(name, values[name], unit, notes[name]) for name, unit in END_TO_END]
        rows += [(name, values[name], unit, notes[name] + " (not gated)")
                 for name, unit in REPORTED_ONLY if name in values]

    passes = [p for r in results for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            print(f"error: {error}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    for name, value, unit, extra in rows:
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
