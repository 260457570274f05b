"""Batch command-line surface over all modules.

One JSON report per invocation on stdout (deterministic bytes for a given
seed), a one-line human summary with wall-clock timing on stderr. Exit
codes: 0 = verdict pass, 1 = verdict fail, 2 = malformed input or a
violated precondition.

Each argument is parsed once, by its argparse type (`_rational`,
`_indices`, `_pairs`, `_span`, `_vector`, `_code`), so a malformed value is
a usage error (exit 2) before any handler runs, and the message names the
form it expected ("invalid index list value: '1,x'"). Each leaf subcommand
sets `run` to its one handler, which reads only parsed values.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

from . import banach, rado, suite
from .errors import MslabError
from .metric import (
    KatetovFn,
    MetricSpace,
    _scan,
    enumerate_katetov,
    extend_by_katetov,
    is_katetov,
    truncate_katetov,
    validate_metric,
)
from .randgen import random_disjoint_parts
from .rationals import parse_rational
from .report import WitnessReport, report_json
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


def _named(name: str):
    """Name an argparse type as its usage errors show it: "invalid <name>
    value: '...'"."""

    def name_it(parse):
        parse.__name__ = name
        return parse

    return name_it


@_named("index list")
def _indices(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(chunk) for chunk in text.split(",")]


@_named("pairs")
def _pairs(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.strip().split(","):
        a, _, b = chunk.partition(":")
        out.append((int(a), int(b)))
    return out


@_named("span")
def _span(text: str) -> range:
    """Parse 'a..b' (inclusive) or a single count 'n' meaning 0..n-1; a
    span that holds no vertex is refused."""
    if ".." in text:
        a, _, b = text.partition("..")
        span = range(int(a), int(b) + 1)
    else:
        span = range(int(text))
    if not span:
        raise argparse.ArgumentTypeError(f"span {text!r} holds no vertex")
    return span


def _at_least(low: int):
    """An argparse type for integers >= low; anything else exits 2."""

    @_named("int")
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_count = _at_least(0)


@_named("rational")
def _rational(text: str) -> Fraction:
    return parse_rational(text)


@_named("vector")
def _vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(chunk) for chunk in text.split(","))


@_named("basis code")
def _code(text: str) -> rado.BasisCode:
    """An argparse type for a basis code; a code outside its domain (a
    value not in {1, 2}, a vertex given twice) is a usage error too."""
    try:
        return rado.BasisCode.parse(text)
    except MslabError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _verdict_report(check: str, params: dict, verdict) -> WitnessReport:
    ok = bool(verdict)
    return WitnessReport(
        check=check,
        params=params,
        verdict="pass" if ok else "fail",
        witness=None if ok else {"reason": verdict.reason, "at": list(verdict.witness)},
    )


def _built(check: str, params: dict, space: MetricSpace, extra: dict | None = None) -> WitnessReport:
    result = {"space": space_to_dict(space)}
    if extra:
        result.update(extra)
    return WitnessReport(check=check, params=params, verdict="pass", result=result)


def _refuse_non_metric(path: str, rows, bound: int):
    """Refuse a file's scaled matrix as malformed input (exit 2) unless it
    is a metric; only `validate` reports a non-metric as a verdict. A
    space's grid rows and an approximant's matrix are square and already
    integers on one grid, so they are scanned as they are (`_scan`)."""
    verdict = _scan(rows, bound)
    if not verdict:
        raise FormatError(f"{path} does not hold a metric space: {verdict.reason} at {verdict.witness}")


def _load_space(path: str) -> MetricSpace:
    space = load_space(path)
    _refuse_non_metric(path, space.grid.rows, space.grid.bound)
    return space


def _load_values(path: str) -> KatetovFn:
    """A Katetov file's values over a metric space, not yet checked."""
    fn = load_katetov(path)
    _refuse_non_metric(path, fn.space.grid.rows, fn.space.grid.bound)
    return fn


def _load_katetov(path: str) -> KatetovFn:
    """A Katetov file, refused (exit 2) unless its values are Katetov."""
    fn = _load_values(path)
    return KatetovFn.over(fn.space, fn.values)


def _load_approximant(path: str) -> Approximant:
    """An approximant file, refused (exit 2) unless its matrix is a metric."""
    approx = load_approximant(path)
    _refuse_non_metric(path, approx.matrix, approx.bound_scaled)
    return approx


def _load_profile_arg(arg: str) -> banach.RadialProfile:
    if arg.startswith("builtin:"):
        name = arg.split(":", 1)[1]
        if name not in banach.BUILTIN_PROFILES:
            raise FormatError(f"unknown builtin profile {name!r}; have {sorted(banach.BUILTIN_PROFILES)}")
        return banach.BUILTIN_PROFILES[name]()
    return load_profile(arg)


# -- handlers: each reads only the values its arguments' types parsed ----------


def cmd_validate(args) -> WitnessReport:
    space = load_space(args.space)
    verdict = _scan(space.grid.rows, space.grid.bound)  # square ints on one grid, as in `_refuse_non_metric`
    return _verdict_report("validate", {"points": space.n_points, "diam": space.diam_bound}, verdict)


def cmd_katetov_check(args) -> WitnessReport:
    fn_data = _load_values(args.fn)
    verdict = is_katetov(fn_data.values, fn_data.space)
    return _verdict_report("katetov-check", {"points": fn_data.space.n_points}, verdict)


def cmd_katetov_extend(args) -> WitnessReport:
    out, idx = extend_by_katetov(_load_values(args.fn))  # checks the values once
    rep = _built("katetov-extend", {"new_index": idx}, out)
    if args.out:
        _dump_json(space_to_dict(out), args.out)
    return rep


def cmd_katetov_enumerate(args) -> WitnessReport:
    space = _load_space(args.space)
    fns = []
    total = 0
    for fn in enumerate_katetov(space, args.denom):
        total += 1
        if args.limit is None or len(fns) < args.limit:
            fns.append(fn.values)
    return WitnessReport(
        check="katetov-enumerate",
        params={"denom": args.denom, "limit": args.limit},
        verdict="pass",
        counts={"functions": total},
        result={"values": fns},
    )


def cmd_katetov_truncate(args) -> WitnessReport:
    fn_data = _load_katetov(args.fn)
    vec = truncate_katetov(fn_data, args.level, args.mode)
    still = is_katetov(vec, fn_data.space) if args.mode == "max" else None
    return WitnessReport(
        check="katetov-truncate",
        params={"mode": args.mode, "level": args.level},
        verdict="pass",
        counts={} if still is None else {"still_katetov": still.ok},
        result={"values": vec},
    )


def cmd_urysohn_build(args) -> WitnessReport:
    if args.seed_space:
        seed_space = _load_space(args.seed_space)
    else:  # two points at distance 1/2, diameter bound 1
        seed_space = MetricSpace.from_grid(("a", "b"), ((0, 1), (1, 0)), 2, 2)
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


def cmd_urysohn_check(args) -> WitnessReport:
    approx = _load_approximant(args.approx)
    over = approx.snapshot(args.round) if args.round is not None else range(approx.n_points)
    return finite_injectivity_check(approx, over, args.k, approx.denom if args.denom is None else args.denom)


def cmd_urysohn_ma(args) -> WitnessReport:
    space = _load_space(args.space)
    out, yp = ma_extension(space, args.f, args.x, args.y, args.delta)
    return _built("urysohn-ma", {"x": args.x, "y": args.y, "delta": args.delta}, out, {"new_index": yp})


def cmd_urysohn_uwmt(args) -> WitnessReport:
    space = _load_space(args.space)
    out, primes = uwmt_extension(space, args.x, args.y, args.z)
    return _built("urysohn-uwmt", {"x": args.x, "y": args.y, "z": args.z}, out, {"new_indices": primes})


def cmd_urysohn_prop53(args) -> WitnessReport:
    st = BFState.create(_load_approximant(args.approx), args.pairs, args.eps)
    out, zp = prop53_extension(st, args.probe)
    return _built("urysohn-prop53", {"probe": args.probe, "eps": args.eps}, out, {"new_index": zp})


def cmd_urysohn_bf(args) -> WitnessReport:
    approx = _load_approximant(args.approx)
    st = back_and_forth_extend(BFState.create(approx, args.pairs, args.eps), args.probe)
    z, w = st.pairs[-1]
    return WitnessReport(
        check="urysohn-bf",
        params={"probe": args.probe, "eps": args.eps},
        verdict="pass",
        counts={"pairs": len(st.pairs)},
        result={"matched": w, "displacement": approx.dist(z, w)},
    )


def cmd_urysohn_chain(args) -> WitnessReport:
    out = injectivity_chain(args.r, args.s, args.diam)
    return _built("urysohn-chain", {"r": args.r, "s": args.s}, out)


def cmd_urysohn_nonproper(args) -> WitnessReport:
    space = _load_space(args.space)
    out, y = nonproper_witness(space, args.x, args.z, args.level)
    return _built("urysohn-nonproper", {"x": args.x, "lambda": args.level}, out, {"new_index": y})


def cmd_weak_seminorm(args) -> WitnessReport:
    matrix = weak_seminorm(LandmarkSet(_load_space(args.space), tuple(args.landmarks)))
    return WitnessReport(
        check="weak-seminorm",
        params={"landmarks": args.landmarks},
        verdict="pass",
        result={"matrix": matrix},
    )


def cmd_weak_proximity(args) -> WitnessReport:
    landmarks = LandmarkSet(_load_space(args.space), tuple(args.landmarks))
    return proximity_test(args.a, args.b, landmarks, args.eps)


def cmd_weak_net(args) -> WitnessReport:
    reps = gromov_net_indices(LandmarkSet(_load_space(args.space), tuple(args.landmarks)), args.eps)
    return WitnessReport(
        check="weak-net",
        params={"eps": args.eps, "landmarks": args.landmarks},
        verdict="pass",
        counts={"representatives": len(reps)},
        result={"indices": reps},
    )


def cmd_weak_restrict(args) -> WitnessReport:
    out = restrict_katetov(_load_katetov(args.fn), args.subset)
    return WitnessReport(
        check="weak-restrict",
        params={"subset": args.subset},
        verdict="pass",
        result=katetov_to_dict(out),
    )


def cmd_hilbert(args) -> WitnessReport:
    explicit = (args.u, args.v, args.z)
    if args.random is not None:
        if explicit != (None, None, None):
            raise FormatError("--random N runs random triples; it conflicts with --u/--v/--z")
        return suite.battery_hilbert(args.seed, args.random)
    if None in explicit:
        raise FormatError("either --random N or all of --u/--v/--z are required")
    return banach.hilbert_check(args.u, args.v, args.z)


def cmd_lp(args) -> WitnessReport:
    return banach.lp_counterexample(args.p, n_pairings=args.pairings, seed=args.seed)


def cmd_disjoint(args) -> WitnessReport:
    if args.x:
        x_fn = load_stepfn2d(args.x)
        parts = [load_stepfn2d(path) for path in args.part]
        return banach.disjoint_support_identity(x_fn, parts, args.p)
    if args.part:
        raise FormatError("--part needs --x: random mode reads no part files")
    rng = random.Random(args.seed)
    for t in range(args.trials):
        x_fn, parts = random_disjoint_parts(rng, args.n)
        rep = banach.disjoint_support_identity(x_fn, parts, args.p)
        if rep.verdict != "pass":
            rep.params["trial"] = t
            return rep
    return WitnessReport(
        check="disjoint-support-identity",
        params={"p": args.p, "n": args.n, "trials": args.trials, "seed": args.seed},
        verdict="pass",
        counts={"instances": args.trials},
        caveat=banach.FIRST_POWER_CAVEAT,
    )


def cmd_profile_check(args) -> WitnessReport:
    h = _load_profile_arg(args.profile)
    horizon = max(h.breakpoints[-1], Fraction(3)) if args.horizon is None else args.horizon
    return banach.radial_profile_check(h, horizon)


def cmd_profile_agree(args) -> WitnessReport:
    return banach.profiles_agree_on(_load_profile_arg(args.first), _load_profile_arg(args.second), args.lo, args.hi)


def cmd_rado_adj(args) -> WitnessReport:
    return WitnessReport(
        check="rado-adj", params={"i": args.i, "j": args.j},
        verdict="pass", counts={"adjacent": rado.rado_adjacent(args.i, args.j)},
    )


def cmd_rado_metric(args) -> WitnessReport:
    if args.scan is not None:
        if (args.i, args.j) != (None, None):
            raise FormatError("--scan N validates the vertices 0..N-1; it conflicts with the vertices i j")
        _, rows, bound = rado.rado_metric_space(range(args.scan)).grid
        return _verdict_report("rado-metric-scan", {"points": args.scan}, validate_metric(rows, bound))
    if None in (args.i, args.j):
        raise FormatError("either --scan N or both vertices i j are required")
    return WitnessReport(
        check="rado-metric", params={"i": args.i, "j": args.j},
        verdict="pass", counts={"distance": rado.rado_metric(args.i, args.j)},
    )


def cmd_rado_witness(args) -> WitnessReport:
    return WitnessReport(
        check="rado-witness", params={"u": args.u, "v": args.v},
        verdict="pass", result={"witness": rado.rado_extension_witness(args.u, args.v)},
    )


def cmd_rado_basis(args) -> WitnessReport:
    code, scan = args.code, args.scan
    if args.code2.assignment:
        return rado.basis_refinement_check(code, args.code2, list(scan))
    members = [v for v in scan if rado.basis_member(code, v)]
    return WitnessReport(
        check="rado-basis", params={"code": code.format(), "scan": [scan.start, scan.stop - 1]},
        verdict="pass", counts={"members": len(members)},
        result={"members": members[:64]},
    )


class _SuiteReport(WitnessReport):
    """A suite run: its JSON is the payload that lists every battery's
    report, not the fields of one report."""

    def to_dict(self) -> dict:
        return self.result


def cmd_suite(args) -> WitnessReport:
    reports = []
    failed = []
    for name, fn in suite.ACCEPTANCE_BATTERIES:
        t0 = time.monotonic()
        rep = fn(args.seed, args.budget)
        print(f"[mslab] {name}: {rep.verdict} ({int((time.monotonic() - t0) * 1000)} ms)", file=sys.stderr)
        reports.append({"name": name, "report": rep.to_dict()})
        if not rep.ok:
            failed.append(name)
    payload = {"seed": args.seed, "budget": args.budget, "all_pass": not failed, "suite": reports}
    return _SuiteReport("suite", verdict="fail" if failed else "pass", witness=failed or None, result=payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="exact-rational metric geometry lab: validation, Katetov calculus, "
        "saturation, landmark seminorms, step-function norms, graph model",
    )
    parser.add_argument("--seed", type=int, default=42, help="seed for all randomized batteries")
    parser.add_argument("--budget", type=_at_least(1), default=5000, help="point-count ceiling for saturation")
    sub = parser.add_subparsers(required=True)

    def leaf(group, name: str, run, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    p = leaf(sub, "validate", cmd_validate, help="validate a metric space file")
    p.add_argument("space")

    ksub = sub.add_parser("katetov", help="Katetov function calculus").add_subparsers(required=True)
    k = leaf(ksub, "check", cmd_katetov_check)
    k.add_argument("fn")
    k = leaf(ksub, "extend", cmd_katetov_extend)
    k.add_argument("fn")
    k.add_argument("--out")
    k = leaf(ksub, "enumerate", cmd_katetov_enumerate)
    k.add_argument("space")
    k.add_argument("--denom", type=int, required=True)
    k.add_argument("--limit", type=_count, default=None)
    k = leaf(ksub, "truncate", cmd_katetov_truncate)
    k.add_argument("fn")
    k.add_argument("--level", type=_rational, required=True, help="truncation level p/q")
    k.add_argument("--mode", choices=("max", "min"), required=True)

    usub = sub.add_parser("urysohn", help="approximants and explicit extensions").add_subparsers(required=True)
    u = leaf(usub, "build", cmd_urysohn_build)
    u.add_argument("--seed-space", default=None)
    u.add_argument("--denom", type=int, default=4)
    u.add_argument("--subset-bound", type=int, default=2)
    u.add_argument("--rounds", type=_count, default=2)
    u.add_argument("--out")
    u = leaf(usub, "check", cmd_urysohn_check)
    u.add_argument("approx")
    u.add_argument("--round", type=int, default=None)
    # k = 0 asks about no subset at all, so its vacuous pass is refused here
    u.add_argument("--k", type=_at_least(1), required=True)
    u.add_argument("--denom", type=int, default=None,
                   help="a multiple of the approximant's denominator; its verdict is the approximant's own grid's")
    u = leaf(usub, "ma", cmd_urysohn_ma)
    u.add_argument("space")
    u.add_argument("--f", type=_indices, default="")
    u.add_argument("--x", type=int, required=True)
    u.add_argument("--y", type=int, required=True)
    u.add_argument("--delta", type=_rational, required=True)
    u = leaf(usub, "uwmt", cmd_urysohn_uwmt)
    u.add_argument("space")
    u.add_argument("--x", type=int, required=True)
    u.add_argument("--y", type=int, required=True)
    u.add_argument("--z", type=_indices, default="")
    for name, run in (("prop53", cmd_urysohn_prop53), ("bf", cmd_urysohn_bf)):
        u = leaf(usub, name, run)
        u.add_argument("approx")
        u.add_argument("--pairs", type=_pairs, required=True, help="domain:image pairs, e.g. 0:1,2:3")
        u.add_argument("--eps", type=_rational, required=True)
        u.add_argument("--probe", type=int, required=True)
    u = leaf(usub, "chain", cmd_urysohn_chain)
    u.add_argument("--r", type=_rational, required=True)
    u.add_argument("--s", type=_rational, required=True)
    u.add_argument("--diam", type=_rational, required=True)
    u = leaf(usub, "nonproper", cmd_urysohn_nonproper)
    u.add_argument("space")
    u.add_argument("--x", type=int, required=True)
    u.add_argument("--z", type=_indices, default="")
    u.add_argument("--level", type=_rational, required=True, help="the level lambda, p/q")

    wsub = sub.add_parser("weak", help="landmark seminorms and nets").add_subparsers(required=True)
    w = leaf(wsub, "seminorm", cmd_weak_seminorm)
    w.add_argument("space")
    w.add_argument("--landmarks", type=_indices, required=True)
    w = leaf(wsub, "proximity", cmd_weak_proximity)
    w.add_argument("space")
    w.add_argument("--a", type=_indices, required=True)
    w.add_argument("--b", type=_indices, required=True)
    w.add_argument("--landmarks", type=_indices, required=True)
    w.add_argument("--eps", type=_rational, required=True)
    w = leaf(wsub, "net", cmd_weak_net)
    w.add_argument("space")
    w.add_argument("--landmarks", type=_indices, required=True)
    w.add_argument("--eps", type=_rational, required=True)
    w = leaf(wsub, "restrict", cmd_weak_restrict)
    w.add_argument("fn")
    w.add_argument("--subset", type=_indices, required=True)

    p = leaf(sub, "hilbert", cmd_hilbert, help="sphere pairing-gap identity")
    p.add_argument("--u", type=_vector)
    p.add_argument("--v", type=_vector)
    p.add_argument("--z", type=_vector)
    p.add_argument("--random", type=_at_least(1), default=None, help="run N random stereographic triples")

    p = leaf(sub, "lp", cmd_lp, help="step-function separation computation")
    p.add_argument("--p", type=_rational, required=True)
    p.add_argument("--pairings", type=_count, default=100)

    p = leaf(sub, "disjoint", cmd_disjoint, help="disjoint-support identity")
    p.add_argument("--p", type=_rational, required=True)
    p.add_argument("--n", type=_at_least(1), default=3)
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--x", default=None, help="step function file (explicit mode)")
    p.add_argument("--part", action="append", default=[], help="part file, repeatable")

    psub = sub.add_parser("profile", help="radial profile checks").add_subparsers(required=True)
    c = leaf(psub, "check", cmd_profile_check)
    c.add_argument("profile", help="profile file or builtin:<name>")
    c.add_argument("--horizon", type=_rational, default=None)
    c = leaf(psub, "agree", cmd_profile_agree)
    c.add_argument("first")
    c.add_argument("second")
    c.add_argument("--lo", type=_rational, required=True)
    c.add_argument("--hi", type=_rational, required=True)

    rsub = sub.add_parser("rado", help="the computable universal graph").add_subparsers(required=True)
    r = leaf(rsub, "adj", cmd_rado_adj)
    r.add_argument("i", type=int)
    r.add_argument("j", type=int)
    r = leaf(rsub, "metric", cmd_rado_metric)
    r.add_argument("i", type=int, nargs="?", default=None)
    r.add_argument("j", type=int, nargs="?", default=None)
    # N = 0 validates the empty space, so its vacuous pass is refused here
    r.add_argument("--scan", type=_at_least(1), default=None, help="instead validate the metric on 0..N-1")
    r = leaf(rsub, "witness", cmd_rado_witness)
    r.add_argument("--u", type=_indices, default="")
    r.add_argument("--v", type=_indices, default="")
    r = leaf(rsub, "basis", cmd_rado_basis)
    r.add_argument("--code", type=_code, required=True)
    r.add_argument("--code2", type=_code, default="", help="a second code; empty means none")
    r.add_argument("--scan", type=_span, default="0..63")

    leaf(sub, "suite", cmd_suite, help="run the full acceptance battery")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        report = args.run(args)
    except MslabError as exc:
        print(f"[mslab] error: {exc}", file=sys.stderr)
        return 2
    print(report_json(report))
    print(f"[mslab] {report.check}: {report.verdict} ({int((time.monotonic() - t0) * 1000)} ms)", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
