"""One benchmark process: set up, run one workload, write its result.

Started by run.py in a fresh interpreter. It prints `ready` as soon as
`mslab.cli` (and with it numpy) is imported, which ends set-up. With
`--probe` it exits there. Otherwise it runs whole passes of the workload
for as long as another pass, at the mean pass time so far, still ends
within --seconds (at least one pass; exactly one when traced). It checks
every output and writes the result JSON to --result.
"""

import mslab.cli  # set-up is interpreter start plus this import

print("ready", flush=True)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from mslab import metric, serialization, suite, urysohn  # noqa: E402

import fixtures  # noqa: E402
from tracer import Tracer  # noqa: E402

# Recorded from the seed commit. The whole-stdout hash is the ROADMAP's
# standing invariant; the per-battery hashes name which battery moved.
SUITE_SHA_42 = "9662e91542f5e4624f82a388584cb998a83260d772e3f42aaa8f0b19a143245a"
BATTERY_SHA_42 = {
    "1-extension-batteries": "97d976dc3e1404bcfd6abd84be1b71cae53b7b2cc08fe956e8345640cf4f4831",
    "2-kuratowski-gromov": "0b8b568c9c1e0e037046e93cedfff0773b975b27f4f1dc01ef849eaf027e2b1e",
    "3-lp-separation": "6271a3475688dbe209b4fca1703a6cbd1495f700ba1aa1fe2266859fa87b6ac3",
    "4-hilbert-pairing-gap": "fb6156f459c2ddc319c1683474e0b2da1486135253825de45239d4646fa0538e",
    "5-profiles": "912fc3fd760a1b47b455ab0b6e372b3aaee67eb08ee53077eab839673486ac8d",
    "6-disjoint-support": "c9521a56cddc2a97855d7cdbe44f604904f4ce66afcc1775deda7a311c1b44fb",
    "7-rado-model": "76cbc7d140095961e889523ae3edefa1d08c48f6563784debfed5ebfa45494a6",
    "8-urysohn-approximant": "e056776503f39868989fb676f93beb2d9e9606ea0281bb9bb856036b23cb9a16",
    "9-nonproper-witness": "fe8cedfafe15351e7e360dd02cbb907184036d3316adadbf38eccb869a01fc61",
    "10-injectivity-chain": "fe5d449dbd570c30befc70867542883436872681383a4d7770be4fda29ddcae1",
}
SATURATE_ROUND_SIZES = [2, 6, 18, 106, 4274]
SATURATE_LOG_SHA = {
    1: "f9cbc6898ba45cd430e4209f3443f30c50be4f957c9a5d9cae21153a7e505f75",
    2: "497856e503816e5001fe57a803c9fc51fda01091be1bb5914124c24d042cfdc6",
    3: "8e9cb962354af841be9698433fd423a95bd331eb3e6372f2a56128ae9119b852",
    4: "f992f2fa59a4671a0081b64f346b4d30e562a00b2f1bd741ab7fa6a40e654f50",
}
# Katetov profiles over <=2-subsets of round 3 at denom 2: the functions
# round 4 had to realize.
SATURATE_ROUND4_PROFILES = 33708
SATURATE_SAMPLE = 300
HALF = Fraction(1, 2)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def log_fingerprint(log, round_no: int) -> str:
    """Hash of the (round, subset, values, point) records of one round."""
    lines = (
        f"{rec.round}|{','.join(str(int(s)) for s in rec.subset)}|"
        f"{','.join(str(int(v)) for v in rec.values)}|{rec.point}\n"
        for rec in log
        if rec.round == round_no
    )
    return _sha("".join(lines))


def suite_pass(seed: int, pass_index: int, ctx) -> dict:
    """`mslab --seed S suite` through cli.main; one operation per battery."""
    out, err = io.StringIO(), io.StringIO()
    errors = []
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = mslab.cli.main(["--seed", str(seed), "suite"])
    except Exception as exc:  # an unexpected raise fails every battery
        code = None
        errors.append(repr(exc))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    attempted = len(suite.ACCEPTANCE_BATTERIES)
    failed = attempted
    if code is not None:
        text = out.getvalue()
        payload = json.loads(text)
        failed = 0
        for entry in payload["suite"]:
            bad = entry["report"]["verdict"] != "pass"
            if seed == 42:
                canon = json.dumps(entry, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
                bad = bad or _sha(canon) != BATTERY_SHA_42.get(entry["name"])
            if bad:
                errors.append(f"battery {entry['name']} failed or differs from its seed-42 golden")
            failed += bad
        if seed == 42 and _sha(text) != SUITE_SHA_42:
            failed = max(failed, 1)
            errors.append("suite stdout differs from the seed-42 golden")
        if code != 0 or not payload["all_pass"]:
            failed = max(failed, 1)
    return {"wall": wall, "cpu": cpu, "attempted": attempted, "failed": failed, "errors": errors}


def saturate_pass(seed: int, pass_index: int, ctx) -> dict:
    """Four denom-2 rounds from the two-point seed, then the injectivity
    check on round 3 and validate_metric on a seeded 300-point sample.
    Operations: the four rounds and the two post-checks. Throughput counts
    added points per second of round time."""
    seed_space = metric.MetricSpace(("a", "b"), ((0, HALF), (HALF, 0)), 1)
    steps = 6
    done = 0
    round_walls = []
    errors = []
    a = check = verdict = None

    def run():
        nonlocal a, check, verdict, done
        a = urysohn.Approximant.from_space(seed_space, 2, 2)
        for _ in range(4):
            r0 = time.perf_counter()
            a = urysohn.fraisse_step(a)
            round_walls.append(time.perf_counter() - r0)
            done += 1
        check = urysohn.finite_injectivity_check(a, a.snapshot(3), 2, 2)
        done += 1
        rng = random.Random(seed)
        sample = a.restrict_space(sorted(rng.sample(range(a.n_points), SATURATE_SAMPLE)))
        verdict = metric.validate_metric(sample.d, sample.diam_bound)
        done += 1

    w0, c0 = time.perf_counter(), time.process_time()
    try:
        run()
    except Exception as exc:
        errors.append(repr(exc))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0

    failed = steps - done
    sizes = list(a.round_sizes) if a is not None else []
    for k in range(1, len(round_walls) + 1):
        good = sizes[: k + 1] == SATURATE_ROUND_SIZES[: k + 1] and log_fingerprint(a.log, k) == SATURATE_LOG_SHA[k]
        if not good:
            failed += 1
            errors.append(f"round {k} differs from the golden sizes or log")
    if check is not None and (check.verdict != "pass" or check.counts["functions"] != SATURATE_ROUND4_PROFILES):
        failed += 1
        errors.append(f"injectivity check: {check.verdict} {check.counts}")
    if verdict is not None and not verdict:
        failed += 1
        errors.append(f"sample validation: {verdict}")
    return {"wall": wall, "cpu": cpu, "ops": sizes[-1] - sizes[0] if sizes else 0,
            "ops_seconds": sum(round_walls), "attempted": steps, "failed": failed, "errors": errors}


def _verify_job(job: dict, path: Path):
    if not job["kind"].startswith("approx"):
        space = serialization.load_space(path)
        return metric.validate_metric(space.d, space.diam_bound), None
    a = serialization.load_approximant(path)
    space = a.as_metric_space()
    verdict = metric.validate_metric(space.d, space.diam_bound)
    check = urysohn.finite_injectivity_check(a, a.snapshot(job["prev_round"]), 2, job["denom"])
    x, z = job["probe"]
    st = urysohn.back_and_forth_extend(urysohn.BFState.create(a, [(x, x)], Fraction(1, job["denom"])), z)
    return verdict, (a, check, st.pairs[-1][1])


def _verify_ok(job: dict, verdict, extra) -> bool:
    expect = job["expect"]
    got = {"ok": verdict.ok, "reason": verdict.reason,
           "witness": None if verdict.witness is None else [int(i) for i in verdict.witness]}
    if got != expect:
        return False
    if extra is None:
        return True
    a, check, w = extra
    x, z = job["probe"]
    eps = Fraction(1, job["denom"])
    return check.verdict == "pass" and a.dist(z, w) <= eps and a.dist(w, x) == a.dist(z, x)


def verify_pass(seed: int, pass_index: int, ctx) -> dict:
    """A closed-loop stream of load-and-check jobs, one client."""
    jobs = fixtures.job_stream(ctx.manifest, pass_index)
    latencies = []
    failed = 0
    errors = []
    w0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            verdict, extra = _verify_job(job, ctx.fixtures / job["file"])
        except Exception as exc:
            verdict = None
            errors.append(f"{job['file']}: {exc!r}")
        latencies.append((time.perf_counter() - t0) * 1000)
        if verdict is not None and not _verify_ok(job, verdict, extra):
            errors.append(f"{job['file']}: wrong verdict or witness {verdict}")
            verdict = None
        failed += verdict is None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return {"wall": wall, "cpu": cpu, "ops": len(jobs), "ops_seconds": wall, "latencies_ms": latencies,
            "attempted": len(jobs), "failed": failed, "errors": errors}


PASSES = {"suite": suite_pass, "saturate": saturate_pass, "verify": verify_pass}


class Context:
    def __init__(self, fixtures_dir: Path | None):
        self.fixtures = fixtures_dir
        self.manifest = None
        if fixtures_dir is not None:
            self.manifest = json.loads((fixtures_dir / "manifest.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--probe", action="store_true", help="exit once set-up is done")
    parser.add_argument("--workload", choices=sorted(PASSES))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixtures", type=Path, default=None)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.probe:
        return 0
    ctx = Context(args.fixtures)
    run_pass = PASSES[args.workload]
    passes = []
    layers = None
    if args.trace:
        with Tracer() as tracer:
            passes.append(run_pass(args.seed, 0, ctx))
        layers = tracer.layer_metrics(overhead_ratio=0.0)
        if args.spans is not None:
            tracer.write_jsonl(args.spans)
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(args.seed, len(passes), ctx))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
