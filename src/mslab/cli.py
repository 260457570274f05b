"""Batch command-line surface over all modules.

One JSON report per invocation on stdout (deterministic bytes for a given
seed), a one-line human summary with wall-clock timing on stderr. Exit
codes: 0 = verdict pass, 1 = verdict fail, 2 = malformed input or a
violated precondition.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

from . import banach, rado, suite
from .errors import MetricFailureError, MslabError
from .metric import (
    KatetovFn,
    MetricSpace,
    enumerate_katetov,
    extend_by_katetov,
    is_katetov,
    require_metric,
    truncate_katetov,
    validate_metric,
)
from .randgen import random_sphere_point
from .rationals import parse_rational
from .report import WitnessReport, canonical_json, jsonable, report_json
from .serialization import (
    FormatError,
    approximant_to_dict,
    katetov_to_dict,
    load_approximant,
    load_katetov,
    load_profile,
    load_space,
    load_stepfn2d,
    space_to_dict,
    _dump_json,
)
from .urysohn import (
    Approximant,
    BFState,
    MARequest,
    back_and_forth_extend,
    finite_injectivity_check,
    fraisse_step,
    injectivity_chain,
    ma_extension,
    nonproper_witness,
    prop53_extension,
    uwmt_extension,
)
from .weak import LandmarkSet, gromov_net_indices, proximity_test, restrict_katetov, weak_seminorm


def _indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(chunk) for chunk in text.split(",")]


def _pairs(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.strip().split(","):
        a, _, b = chunk.partition(":")
        out.append((int(a), int(b)))
    return out


def _span(text: str) -> range:
    """Parse 'a..b' (inclusive) or a single count 'n' meaning 0..n-1."""
    if ".." in text:
        a, _, b = text.partition("..")
        return range(int(a), int(b) + 1)
    return range(int(text))


def _at_least(low: int):
    """An argparse type for integers >= low; anything else exits 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its message
    return parse


_count = _at_least(0)


def _vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(chunk) for chunk in text.split(","))


def _verdict_report(check: str, params: dict, verdict, result=None) -> WitnessReport:
    ok = bool(verdict)
    return WitnessReport(
        check=check,
        params=params,
        verdict="pass" if ok else "fail",
        witness=None if ok else {"reason": verdict.reason, "at": list(verdict.witness)},
        result=result,
    )


def _built(check: str, params: dict, space: MetricSpace, extra: dict | None = None) -> WitnessReport:
    result = {"space": space_to_dict(space)}
    if extra:
        result.update(extra)
    return WitnessReport(check=check, params=params, verdict="pass", result=result)


def _metric_from(path: str, space: MetricSpace) -> MetricSpace:
    """A space read from a file, refused as malformed input (exit 2) unless
    it is a metric; only `validate` reports a non-metric as a verdict."""
    try:
        return require_metric(space, f"{path} does not hold a metric space")
    except MetricFailureError as exc:
        raise FormatError(str(exc)) from exc


def _load_space(path: str) -> MetricSpace:
    return _metric_from(path, load_space(path))


def _load_values(path: str) -> KatetovFn:
    """A Katetov file's values over a metric space, not yet checked."""
    fn = load_katetov(path)
    _metric_from(path, fn.space)
    return fn


def _load_katetov(path: str) -> KatetovFn:
    """A Katetov file, refused (exit 2) unless its values are Katetov."""
    fn = _load_values(path)
    return KatetovFn.over(fn.space, fn.values)


def _load_profile_arg(arg: str) -> banach.RadialProfile:
    if arg.startswith("builtin:"):
        name = arg.split(":", 1)[1]
        if name not in banach.BUILTIN_PROFILES:
            raise FormatError(f"unknown builtin profile {name!r}; have {sorted(banach.BUILTIN_PROFILES)}")
        return banach.BUILTIN_PROFILES[name]()
    return load_profile(arg)


# -- handlers ------------------------------------------------------------------


def cmd_validate(args) -> WitnessReport:
    space = load_space(args.space)
    verdict = validate_metric(space.grid.rows, space.grid.bound)
    return _verdict_report("validate", {"points": space.n_points, "diam": space.diam_bound}, verdict)


def cmd_katetov(args) -> WitnessReport:
    if args.katetov_cmd == "check":
        fn_data = _load_values(args.fn)
        verdict = is_katetov(fn_data.values, fn_data.space)
        return _verdict_report("katetov-check", {"points": fn_data.space.n_points}, verdict)
    if args.katetov_cmd == "extend":
        fn_data = _load_katetov(args.fn)
        out, idx = extend_by_katetov(fn_data.space, fn_data)
        rep = _built("katetov-extend", {"new_index": idx}, out)
        if args.out:
            _dump_json(space_to_dict(out), args.out)
        return rep
    if args.katetov_cmd == "enumerate":
        space = _load_space(args.space)
        fns = []
        total = 0
        for fn in enumerate_katetov(space, args.denom):
            total += 1
            if args.limit is None or len(fns) < args.limit:
                fns.append(list(fn.values))
        return WitnessReport(
            check="katetov-enumerate",
            params={"denom": args.denom, "limit": args.limit},
            verdict="pass",
            counts={"functions": total},
            result={"values": jsonable(fns)},
        )
    if args.katetov_cmd == "truncate":
        fn_data = _load_katetov(args.fn)
        vec = truncate_katetov(fn_data, parse_rational(args.level), args.mode)
        still = is_katetov(vec, fn_data.space) if args.mode == "max" else None
        return WitnessReport(
            check="katetov-truncate",
            params={"mode": args.mode, "level": parse_rational(args.level)},
            verdict="pass",
            counts={} if still is None else {"still_katetov": still.ok},
            result={"values": jsonable(list(vec))},
        )
    raise FormatError(f"unknown katetov subcommand {args.katetov_cmd!r}")


def cmd_urysohn(args) -> WitnessReport:
    sub = args.urysohn_cmd
    if sub == "build":
        if args.seed_space:
            seed_space = _load_space(args.seed_space)
        else:
            half = Fraction(1, 2)
            seed_space = MetricSpace(("a", "b"), ((0, half), (half, 0)), 1)
        approx = Approximant.from_space(seed_space, args.denom, args.subset_bound)
        for _ in range(args.rounds):
            approx = fraisse_step(approx, budget=args.budget)
        rep = WitnessReport(
            check="urysohn-build",
            params={"denom": args.denom, "subset_bound": args.subset_bound, "rounds": args.rounds, "budget": args.budget},
            verdict="pass",
            counts={"points": approx.n_points, "round_sizes": list(approx.round_sizes)},
            result=None if args.out else {"approximant": approximant_to_dict(approx)},
        )
        if args.out:
            _dump_json(approximant_to_dict(approx), args.out)
        return rep
    if sub == "check":
        approx = load_approximant(args.approx)
        over = approx.snapshot(args.round) if args.round is not None else range(approx.n_points)
        return finite_injectivity_check(approx, over, args.k, approx.denom if args.denom is None else args.denom)
    if sub == "ma":
        space = _load_space(args.space)
        req = MARequest(space, tuple(_indices(args.f)), args.x, args.y, parse_rational(args.delta))
        out, yp = ma_extension(req)
        return _built("urysohn-ma", {"x": args.x, "y": args.y, "delta": req.delta}, out, {"new_index": yp})
    if sub == "uwmt":
        space = _load_space(args.space)
        out, primes = uwmt_extension(space, args.x, args.y, _indices(args.z))
        return _built("urysohn-uwmt", {"x": args.x, "y": args.y, "z": _indices(args.z)}, out, {"new_indices": primes})
    if sub in ("prop53", "bf"):
        approx = load_approximant(args.approx)
        st = BFState.create(approx, _pairs(args.pairs), parse_rational(args.eps))
        if sub == "prop53":
            out, zp = prop53_extension(st, args.probe)
            return _built("urysohn-prop53", {"probe": args.probe, "eps": st.eps}, out, {"new_index": zp})
        st2 = back_and_forth_extend(st, args.probe)
        z, w = st2.pairs[-1]
        return WitnessReport(
            check="urysohn-bf",
            params={"probe": args.probe, "eps": st.eps},
            verdict="pass",
            counts={"pairs": len(st2.pairs)},
            result={"matched": w, "displacement": approx.dist(z, w)},
        )
    if sub == "chain":
        out = injectivity_chain(parse_rational(args.r), parse_rational(args.s), parse_rational(args.diam))
        return _built("urysohn-chain", {"r": parse_rational(args.r), "s": parse_rational(args.s)}, out)
    if sub == "nonproper":
        space = _load_space(args.space)
        out, y = nonproper_witness(space, args.x, _indices(args.z), parse_rational(args.level))
        return _built("urysohn-nonproper", {"x": args.x, "lambda": parse_rational(args.level)}, out, {"new_index": y})
    raise FormatError(f"unknown urysohn subcommand {sub!r}")


def cmd_weak(args) -> WitnessReport:
    sub = args.weak_cmd
    if sub == "seminorm":
        space = _load_space(args.space)
        sem = weak_seminorm(LandmarkSet(space, tuple(_indices(args.landmarks))))
        return WitnessReport(
            check="weak-seminorm",
            params={"landmarks": _indices(args.landmarks)},
            verdict="pass",
            result={"matrix": jsonable([list(row) for row in sem.matrix])},
        )
    if sub == "proximity":
        space = _load_space(args.space)
        return proximity_test(
            _indices(args.a), _indices(args.b),
            LandmarkSet(space, tuple(_indices(args.landmarks))), parse_rational(args.eps),
        )
    if sub == "net":
        space = _load_space(args.space)
        reps = gromov_net_indices(space, LandmarkSet(space, tuple(_indices(args.landmarks))), parse_rational(args.eps))
        return WitnessReport(
            check="weak-net",
            params={"eps": parse_rational(args.eps), "landmarks": _indices(args.landmarks)},
            verdict="pass",
            counts={"representatives": len(reps)},
            result={"indices": reps},
        )
    if sub == "restrict":
        fn_data = _load_katetov(args.fn)
        out = restrict_katetov(fn_data, _indices(args.subset))
        return WitnessReport(
            check="weak-restrict",
            params={"subset": _indices(args.subset)},
            verdict="pass",
            result=jsonable(katetov_to_dict(out)),
        )
    raise FormatError(f"unknown weak subcommand {sub!r}")


def cmd_hilbert(args) -> WitnessReport:
    if args.random:
        rng = random.Random(args.seed)
        for t in range(args.random):
            dim = rng.randint(2, 6)
            rep = banach.hilbert_check(*(random_sphere_point(rng, dim) for _ in range(3)))
            if rep.verdict != "pass":
                rep.params["trial"] = t
                return rep
        return WitnessReport(
            check="hilbert-pairing-gap",
            params={"random": args.random, "seed": args.seed, "tol": banach.HILBERT_TOL},
            verdict="pass",
            counts={"triples": args.random},
        )
    if not (args.u and args.v and args.z):
        raise FormatError("either --random N or all of --u/--v/--z are required")
    return banach.hilbert_check(_vector(args.u), _vector(args.v), _vector(args.z))


def cmd_lp(args) -> WitnessReport:
    return banach.lp_counterexample(parse_rational(args.p), n_pairings=args.pairings, seed=args.seed)


def cmd_disjoint(args) -> WitnessReport:
    if args.x:
        x_fn = load_stepfn2d(args.x)
        parts = [load_stepfn2d(path) for path in args.part]
        return banach.disjoint_support_identity(x_fn, parts, parse_rational(args.p))
    from .randgen import random_disjoint_parts

    rng = random.Random(args.seed)
    for t in range(args.trials):
        x_fn, parts = random_disjoint_parts(rng, args.n)
        rep = banach.disjoint_support_identity(x_fn, parts, parse_rational(args.p))
        if rep.verdict != "pass":
            rep.params["trial"] = t
            return rep
    return WitnessReport(
        check="disjoint-support-identity",
        params={"p": parse_rational(args.p), "n": args.n, "trials": args.trials, "seed": args.seed},
        verdict="pass",
        counts={"instances": args.trials},
        caveat=banach.FIRST_POWER_CAVEAT,
    )


def cmd_profile(args) -> WitnessReport:
    if args.profile_cmd == "check":
        h = _load_profile_arg(args.profile)
        horizon = parse_rational(args.horizon) if args.horizon else max(h.breakpoints[-1], Fraction(3))
        chk = banach.radial_profile_check(h, horizon)
        return WitnessReport(
            check="profile-check",
            params={"horizon": horizon},
            verdict="pass",
            counts=dict(chk.flags()),
            result=None if chk.convexity_witness is None else {"convexity_witness": jsonable(list(chk.convexity_witness))},
        )
    if args.profile_cmd == "agree":
        h1, h2 = _load_profile_arg(args.first), _load_profile_arg(args.second)
        verdict = banach.profiles_agree_on(h1, h2, parse_rational(args.lo), parse_rational(args.hi))
        return WitnessReport(
            check="profile-agree",
            params={"lo": parse_rational(args.lo), "hi": parse_rational(args.hi)},
            verdict="pass" if verdict.agree else "fail",
            witness=None if verdict.agree else {"r": verdict.witness_r, "left": verdict.left, "right": verdict.right},
        )
    raise FormatError(f"unknown profile subcommand {args.profile_cmd!r}")


def cmd_rado(args) -> WitnessReport:
    sub = args.rado_cmd
    if sub == "adj":
        adjacent = rado.rado_adjacent(args.i, args.j)
        return WitnessReport(
            check="rado-adj", params={"i": args.i, "j": args.j},
            verdict="pass", counts={"adjacent": adjacent},
        )
    if sub == "metric":
        if args.scan is not None:
            _, rows, bound = rado.rado_metric_space(range(args.scan)).grid
            verdict = validate_metric(rows, bound)
            return _verdict_report("rado-metric-scan", {"points": args.scan}, verdict)
        return WitnessReport(
            check="rado-metric", params={"i": args.i, "j": args.j},
            verdict="pass", counts={"distance": rado.rado_metric(args.i, args.j)},
        )
    if sub == "witness":
        U, V = _indices(args.u), _indices(args.v)
        w = rado.rado_extension_witness(U, V)
        return WitnessReport(
            check="rado-witness", params={"u": U, "v": V},
            verdict="pass", result={"witness": w},
        )
    if sub == "basis":
        code = rado.BasisCode.parse(args.code)
        scan = _span(args.scan)
        if args.code2:
            return rado.basis_refinement_check(code, rado.BasisCode.parse(args.code2), list(scan))
        members = [v for v in scan if rado.basis_member(code, v)]
        return WitnessReport(
            check="rado-basis", params={"code": code.format(), "scan": [scan.start, scan.stop - 1]},
            verdict="pass", counts={"members": len(members)},
            result={"members": members[:64]},
        )
    raise FormatError(f"unknown rado subcommand {sub!r}")


def cmd_suite(args) -> tuple[int, str, str]:
    reports = []
    all_pass = True
    lines = []
    for name, fn in suite.ACCEPTANCE_BATTERIES:
        t0 = time.monotonic()
        rep = fn(args.seed, args.budget)
        ms = int((time.monotonic() - t0) * 1000)
        reports.append({"name": name, "report": rep.to_dict()})
        all_pass = all_pass and rep.ok
        lines.append(f"[mslab] {name}: {rep.verdict} ({ms} ms)")
    payload = {"seed": args.seed, "budget": args.budget, "all_pass": all_pass, "suite": reports}
    return (0 if all_pass else 1), canonical_json(payload), "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="exact-rational metric geometry lab: validation, Katetov calculus, "
        "saturation, landmark seminorms, step-function norms, graph model",
    )
    parser.add_argument("--seed", type=int, default=42, help="seed for all randomized batteries")
    parser.add_argument("--budget", type=int, default=5000, help="point-count ceiling for saturation")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="validate a metric space file")
    p.add_argument("space")

    p = sub.add_parser("katetov", help="Katetov function calculus")
    ksub = p.add_subparsers(dest="katetov_cmd", required=True)
    k = ksub.add_parser("check")
    k.add_argument("fn")
    k = ksub.add_parser("extend")
    k.add_argument("fn")
    k.add_argument("--out")
    k = ksub.add_parser("enumerate")
    k.add_argument("space")
    k.add_argument("--denom", type=int, required=True)
    k.add_argument("--limit", type=_count, default=None)
    k = ksub.add_parser("truncate")
    k.add_argument("fn")
    k.add_argument("--level", required=True, help="truncation level p/q")
    k.add_argument("--mode", choices=("max", "min"), required=True)

    p = sub.add_parser("urysohn", help="approximants and explicit extensions")
    usub = p.add_subparsers(dest="urysohn_cmd", required=True)
    u = usub.add_parser("build")
    u.add_argument("--seed-space", default=None)
    u.add_argument("--denom", type=int, default=4)
    u.add_argument("--subset-bound", type=int, default=2)
    u.add_argument("--rounds", type=_count, default=2)
    u.add_argument("--out")
    u = usub.add_parser("check")
    u.add_argument("approx")
    u.add_argument("--round", type=int, default=None)
    # k = 0 asks about no subset at all, so its vacuous pass is refused here
    u.add_argument("--k", type=_at_least(1), required=True)
    u.add_argument("--denom", type=int, default=None)
    u = usub.add_parser("ma")
    u.add_argument("space")
    u.add_argument("--f", default="")
    u.add_argument("--x", type=int, required=True)
    u.add_argument("--y", type=int, required=True)
    u.add_argument("--delta", required=True)
    u = usub.add_parser("uwmt")
    u.add_argument("space")
    u.add_argument("--x", type=int, required=True)
    u.add_argument("--y", type=int, required=True)
    u.add_argument("--z", default="")
    u = usub.add_parser("prop53")
    u.add_argument("approx")
    u.add_argument("--pairs", required=True, help="domain:image pairs, e.g. 0:1,2:3")
    u.add_argument("--eps", required=True)
    u.add_argument("--probe", type=int, required=True)
    u = usub.add_parser("bf")
    u.add_argument("approx")
    u.add_argument("--pairs", required=True)
    u.add_argument("--eps", required=True)
    u.add_argument("--probe", type=int, required=True)
    u = usub.add_parser("chain")
    u.add_argument("--r", required=True)
    u.add_argument("--s", required=True)
    u.add_argument("--diam", required=True)
    u = usub.add_parser("nonproper")
    u.add_argument("space")
    u.add_argument("--x", type=int, required=True)
    u.add_argument("--z", default="")
    u.add_argument("--level", required=True, help="the level lambda, p/q")

    p = sub.add_parser("weak", help="landmark seminorms and nets")
    wsub = p.add_subparsers(dest="weak_cmd", required=True)
    w = wsub.add_parser("seminorm")
    w.add_argument("space")
    w.add_argument("--landmarks", required=True)
    w = wsub.add_parser("proximity")
    w.add_argument("space")
    w.add_argument("--a", required=True)
    w.add_argument("--b", required=True)
    w.add_argument("--landmarks", required=True)
    w.add_argument("--eps", required=True)
    w = wsub.add_parser("net")
    w.add_argument("space")
    w.add_argument("--landmarks", required=True)
    w.add_argument("--eps", required=True)
    w = wsub.add_parser("restrict")
    w.add_argument("fn")
    w.add_argument("--subset", required=True)

    p = sub.add_parser("hilbert", help="sphere pairing-gap identity")
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--z")
    p.add_argument("--random", type=_count, default=0, help="run N random stereographic triples")

    p = sub.add_parser("lp", help="step-function separation computation")
    p.add_argument("--p", required=True)
    p.add_argument("--pairings", type=_count, default=100)

    p = sub.add_parser("disjoint", help="disjoint-support identity")
    p.add_argument("--p", required=True)
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--trials", type=_count, default=200)
    p.add_argument("--x", default=None, help="step function file (explicit mode)")
    p.add_argument("--part", action="append", default=[], help="part file, repeatable")

    p = sub.add_parser("profile", help="radial profile checks")
    psub = p.add_subparsers(dest="profile_cmd", required=True)
    c = psub.add_parser("check")
    c.add_argument("profile", help="profile file or builtin:<name>")
    c.add_argument("--horizon", default=None)
    c = psub.add_parser("agree")
    c.add_argument("first")
    c.add_argument("second")
    c.add_argument("--lo", required=True)
    c.add_argument("--hi", required=True)

    p = sub.add_parser("rado", help="the computable universal graph")
    rsub = p.add_subparsers(dest="rado_cmd", required=True)
    r = rsub.add_parser("adj")
    r.add_argument("i", type=int)
    r.add_argument("j", type=int)
    r = rsub.add_parser("metric")
    r.add_argument("i", type=int, nargs="?", default=0)
    r.add_argument("j", type=int, nargs="?", default=0)
    r.add_argument("--scan", type=_count, default=None, help="instead validate the metric on 0..N-1")
    r = rsub.add_parser("witness")
    r.add_argument("--u", default="")
    r.add_argument("--v", default="")
    r = rsub.add_parser("basis")
    r.add_argument("--code", required=True)
    r.add_argument("--code2", default=None)
    r.add_argument("--scan", default="0..63")

    sub.add_parser("suite", help="run the full acceptance battery")
    return parser


HANDLERS = {
    "validate": cmd_validate,
    "katetov": cmd_katetov,
    "urysohn": cmd_urysohn,
    "weak": cmd_weak,
    "hilbert": cmd_hilbert,
    "lp": cmd_lp,
    "disjoint": cmd_disjoint,
    "profile": cmd_profile,
    "rado": cmd_rado,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.cmd == "suite":
            code, payload, summary = cmd_suite(args)
            print(payload)
            print(summary, file=sys.stderr)
            print(f"[mslab] suite: {'pass' if code == 0 else 'fail'} "
                  f"({int((time.monotonic() - t0) * 1000)} ms)", file=sys.stderr)
            return code
        report = HANDLERS[args.cmd](args)
        elapsed_ms = int((time.monotonic() - t0) * 1000)
        print(report_json(report))
        print(f"[mslab] {report.check}: {report.verdict} ({elapsed_ms} ms)", file=sys.stderr)
        return 0 if report.ok else 1
    except (MslabError, FormatError) as exc:
        print(f"[mslab] error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
