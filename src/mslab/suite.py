"""The acceptance battery: one callable per criterion, shared by the CLI
`suite` subcommand and the test suite.

Every battery is a pure function of its seed (and budget), returns a
WitnessReport, and never writes timing into the report, so two runs with
one seed serialize to identical bytes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import banach, rado
from .errors import MslabError
from .metric import (
    KatetovFn,
    MetricSpace,
    is_katetov,
    kuratowski_embed,
    sup_distance,
    truncate_katetov,
    validate_metric,
)
from .randgen import (
    random_disjoint_parts,
    random_katetov_values,
    random_ma_request,
    random_metric_space,
    random_sphere_point,
)
from .report import WitnessReport
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
from .weak import restrict_katetov

HALF = Fraction(1, 2)


def _fail(check: str, params: dict, witness: dict, counts: dict) -> WitnessReport:
    return WitnessReport(check=check, params=params, verdict="fail", witness=witness, counts=counts)


def battery_extensions(seed: int = 42, trials: int = 10000) -> WitnessReport:
    """Criterion 1: three extension recipes, `trials` random
    precondition-satisfying instances each; every output re-validates and
    the prescribed exact equalities hold."""
    params = {"seed": seed, "trials": trials, "max_points": 8, "max_denom": 24}
    rng = random.Random(seed)
    for t in range(trials):
        req = random_ma_request(rng, max_points=8, max_denom=24)
        try:
            out, yp = ma_extension(req)
        except MslabError as exc:
            return _fail("extension-batteries", params, {"op": "ma", "trial": t, "error": str(exc)}, {})
        xi = sorted(set(req.F) | {req.x}).index(req.x)
        if out.dist(yp, xi) != req.delta:
            return _fail("extension-batteries", params, {"op": "ma", "trial": t, "got": out.dist(yp, xi)}, {})

    rng2 = random.Random(seed + 1)
    for t in range(trials):
        space = random_metric_space(rng2, min_points=2, max_points=8, max_denom=24)
        n = space.n_points
        pts = list(range(n))
        rng2.shuffle(pts)
        x, y = pts[0], pts[1]
        zcount = rng2.randint(0, min(6, n - 2))
        Z = sorted(pts[2 : 2 + zcount])
        try:
            out, primes = uwmt_extension(space, x, y, Z)
        except MslabError as exc:
            return _fail("extension-batteries", params, {"op": "uwmt", "trial": t, "error": str(exc)}, {})
        keep = sorted({x, y, *Z})
        pos = {orig: i for i, orig in enumerate(keep)}
        zs = [x, *Z]
        prime_of = {0: pos[y], **{i + 1: primes[i] for i in range(len(Z))}}
        # exact equality across the two grids: a / oq == b / sq
        oq, o, _ = out.grid
        sq, s, _ = space.grid
        for i in range(len(zs)):
            for j in range(len(zs)):
                if o[prime_of[i]][prime_of[j]] * sq != s[zs[i]][zs[j]] * oq:
                    return _fail(
                        "extension-batteries", params,
                        {"op": "uwmt", "trial": t, "broken_copy_pair": [i, j]}, {},
                    )
            if i > 0 and o[pos[zs[i]]][prime_of[i]] * sq != s[x][y] * oq:
                return _fail(
                    "extension-batteries", params,
                    {"op": "uwmt", "trial": t, "broken_displacement": i}, {},
                )

    rng3 = random.Random(seed + 2)
    for t in range(trials):
        space = random_metric_space(rng3, min_points=3, max_points=8, max_denom=24)
        n = space.n_points
        q = space.grid.denom
        pts = list(range(n))
        rng3.shuffle(pts)
        if rng3.random() < HALF:
            n_pairs = rng3.randint(1, n - 1)
            pairs = [(p, p) for p in sorted(pts[:n_pairs])]
            z = pts[n_pairs]
            eps = Fraction(rng3.randint(1, space.grid.bound), q)
            base = Approximant.from_space(space, q, 2)
        else:
            x, y = pts[0], pts[1]
            zcount = rng3.randint(1, min(4, n - 2))
            Z = sorted(pts[2 : 2 + zcount])
            try:
                bigger, primes = uwmt_extension(space, x, y, Z)
            except MslabError as exc:
                return _fail("extension-batteries", params, {"op": "prop53-setup", "trial": t, "error": str(exc)}, {})
            keep = sorted({x, y, *Z})
            pos = {orig: i for i, orig in enumerate(keep)}
            zs = [x, *Z]
            pairs = [(pos[zs[i]], [pos[y], *primes][i]) for i in range(len(zs))]
            eps = max(space.dist(x, y), Fraction(1, q))
            z = pos[y]  # y is never in the domain {x} u Z
            base = Approximant.from_space(bigger, bigger.grid.denom, 2)
        try:
            st = BFState.create(base, pairs, eps)
            out, zp = prop53_extension(st, z)
        except MslabError as exc:
            return _fail("extension-batteries", params, {"op": "prop53", "trial": t, "error": str(exc)}, {})
        keep2 = sorted(set(st.domain) | set(st.image) | {z})
        pos2 = {orig: i for i, orig in enumerate(keep2)}
        for xi, yi in pairs:
            if out.dist(zp, pos2[yi]) != base.dist(z, xi):
                return _fail("extension-batteries", params, {"op": "prop53", "trial": t, "broken_transport": xi}, {})
        if out.dist(zp, pos2[z]) > eps:
            return _fail("extension-batteries", params, {"op": "prop53", "trial": t, "displacement": out.dist(zp, pos2[z])}, {})

    return WitnessReport(
        check="extension-batteries", params=params, verdict="pass",
        counts={"ma": trials, "uwmt": trials, "prop53": trials},
    )


def battery_kuratowski(seed: int = 42, trials: int = 1000) -> WitnessReport:
    """Criterion 2: exact elementary-function isometry, Katetov closure of
    the level-max operator, and sup-contraction of restriction."""
    params = {"seed": seed, "trials": trials}
    rng = random.Random(seed)
    for t in range(trials):
        space = random_metric_space(rng, max_points=8, max_denom=16)
        fns = kuratowski_embed(space)
        for i in range(space.n_points):
            for j in range(i + 1, space.n_points):
                if sup_distance(fns[i], fns[j]) != space.dist(i, j):
                    return _fail("kuratowski-gromov", params, {"part": "kuratowski", "trial": t, "pair": [i, j]}, {})

    rng2 = random.Random(seed + 1)
    for t in range(trials):
        space = random_metric_space(rng2, max_points=8, max_denom=16, min_diam_steps=2)
        q = space.grid.denom
        fn = KatetovFn(space, random_katetov_values(rng2, space, q))
        # the level needs no grid; halve the step so (0, diam) is never empty
        lam = Fraction(rng2.randint(1, 2 * space.grid.bound - 1), 2 * q)
        capped = truncate_katetov(fn, lam, "max")
        if not is_katetov(capped, space):
            return _fail("kuratowski-gromov", params, {"part": "level-max", "trial": t, "lambda": lam}, {})

    rng3 = random.Random(seed + 2)
    for t in range(trials):
        space = random_metric_space(rng3, min_points=2, max_points=8, max_denom=16)
        q = space.grid.denom
        f = KatetovFn(space, random_katetov_values(rng3, space, q))
        g = KatetovFn(space, random_katetov_values(rng3, space, q))
        k = rng3.randint(1, space.n_points)
        subset = sorted(rng3.sample(range(space.n_points), k))
        rf, rg = restrict_katetov(f, subset), restrict_katetov(g, subset)
        if sup_distance(rf, rg) > sup_distance(f, g):
            return _fail("kuratowski-gromov", params, {"part": "restriction", "trial": t, "subset": subset}, {})

    return WitnessReport(
        check="kuratowski-gromov", params=params, verdict="pass",
        counts={"kuratowski": trials, "level_max": trials, "restriction": trials},
    )


def battery_lp(seed: int = 42) -> WitnessReport:
    """Criterion 3: exact exponent separation for p in {1, 3/2, 3, 5},
    exact coincidence at p = 2, and 100 exactly-zero pairings per p."""
    params = {"seed": seed, "ps": ["1", "3/2", "3", "5", "2"]}
    for p in (Fraction(1), Fraction(3, 2), Fraction(3), Fraction(5)):
        rep = banach.lp_counterexample(p, n_pairings=100, seed=seed)
        norm1 = banach.lp_norm(banach.sub2d(banach.mean_zero_square(), banach.left_square_indicator()), p)
        norm2 = banach.lp_norm(banach.sub2d(banach.right_slab_indicator(), banach.left_square_indicator()), p)
        expected1 = banach.PNormValue.exact(2, (p - 1) / p)
        expected2 = banach.PNormValue.exact(2, 1 / p)
        if not (norm1.same_value(expected1) and norm2.same_value(expected2)):
            return _fail("lp-separation", params, {"p": p, "got": [norm1.describe(), norm2.describe()]}, {})
        if rep.verdict != "pass":
            return _fail("lp-separation", params, {"p": p, "report": rep.witness}, {})
    rep2 = banach.lp_counterexample(Fraction(2), n_pairings=100, seed=seed)
    if rep2.verdict != "fail" or rep2.counts["pairings_zero"] != 100:
        return _fail("lp-separation", params, {"p": "2", "note": "expected exact coincidence"}, {})
    return WitnessReport(
        check="lp-separation", params=params, verdict="pass",
        counts={"separated_ps": 4, "coinciding_ps": 1, "pairings_per_p": 100},
    )


def battery_hilbert(seed: int = 42, trials: int = 1000) -> WitnessReport:
    """Criterion 4: exact pairing-gap identity on random rational unit
    triples in dimensions 2..6; two-sided comparisons within HILBERT_TOL."""
    params = {"seed": seed, "trials": trials, "tol": banach.HILBERT_TOL}
    rng = random.Random(seed)
    for t in range(trials):
        dim = rng.randint(2, 6)
        u, v, z = (random_sphere_point(rng, dim) for _ in range(3))
        rep = banach.hilbert_check(u, v, z)
        if rep.verdict != "pass":
            return _fail("hilbert-pairing-gap", params, {"trial": t, "dim": dim, "detail": rep.witness}, {})
    return WitnessReport(check="hilbert-pairing-gap", params=params, verdict="pass", counts={"triples": trials})


def battery_profiles() -> WitnessReport:
    """Criterion 5: the profile gallery produces exactly the hand-derived
    flag vectors, agreement windows and gaps."""
    params = {"horizon": "3"}
    horizon = Fraction(3)
    expected_flags = {
        "flat-then-identity": dict(lipschitz1=True, nondecreasing=True, convex=True,
                                   value_at_0=Fraction(1), dominates_identity=True, katetov_radial=True),
        "vee": dict(lipschitz1=True, nondecreasing=False, convex=True,
                    value_at_0=Fraction(1), dominates_identity=True, katetov_radial=True),
        "affine-plus-one": dict(lipschitz1=True, nondecreasing=True, convex=True,
                                value_at_0=Fraction(1), dominates_identity=True, katetov_radial=True),
        "affine-capped-at-two": dict(lipschitz1=True, nondecreasing=True, convex=False,
                                     value_at_0=Fraction(1), dominates_identity=True, katetov_radial=True),
        "half-slope-then-offset": dict(lipschitz1=True, nondecreasing=True, convex=True,
                                       value_at_0=Fraction(1), dominates_identity=True, katetov_radial=True),
        "half-slope-then-identity": dict(lipschitz1=True, nondecreasing=True, convex=True,
                                         value_at_0=Fraction(1), dominates_identity=True, katetov_radial=True),
    }
    for name, want in expected_flags.items():
        h = banach.BUILTIN_PROFILES[name]()
        got = banach.radial_profile_check(h, horizon).flags()
        if got != want:
            return _fail("profiles", params, {"profile": name, "got": got, "want": want}, {})
        if banach.convex_by_midpoint_scan(h, horizon) != want["convex"]:
            return _fail("profiles", params, {"profile": name, "note": "midpoint scan disagrees"}, {})

    capped = banach.profile_affine_capped_at_two()
    wit = banach.radial_profile_check(capped, horizon).convexity_witness
    if wit != (HALF, Fraction(1), Fraction(3, 2), Fraction(1, 4)):
        return _fail("profiles", params, {"profile": "affine-capped-at-two", "witness": wit}, {})

    flat, vee = banach.profile_flat_then_identity(), banach.profile_vee()
    if not banach.profiles_agree_on(flat, vee, 1, 1):
        return _fail("profiles", params, {"pair": "sphere", "note": "should agree at r=1"}, {})
    if flat.eval(HALF) - vee.eval(HALF) != HALF:
        return _fail("profiles", params, {"pair": "sphere", "note": "gap at 1/2 wrong"}, {})

    h1c = banach.profile_half_slope_then_offset()
    h2c = banach.profile_half_slope_then_identity()
    if not banach.profiles_agree_on(h1c, h2c, 0, 1):
        return _fail("profiles", params, {"pair": "corrected", "note": "should agree on [0,1]"}, {})
    if h1c.eval(Fraction(3, 2)) - h2c.eval(Fraction(3, 2)) != Fraction(1, 4):
        return _fail("profiles", params, {"pair": "corrected", "note": "gap at 3/2 wrong"}, {})

    return WitnessReport(check="profiles", params=params, verdict="pass",
                         counts={"profiles": len(expected_flags)})


def battery_disjoint(seed: int = 42, trials: int = 200) -> WitnessReport:
    """Criterion 6: the disjoint-support identity, exact for p in
    {1, 2, 3} and within DISJOINT_TOL on the float path for p = 3/2."""
    params = {"seed": seed, "trials": trials, "tol": banach.DISJOINT_TOL}
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.randint(1, 3)
        x_fn, parts = random_disjoint_parts(rng, n)
        for p in (1, 2, 3, Fraction(3, 2)):
            rep = banach.disjoint_support_identity(x_fn, parts, p)
            if rep.verdict != "pass":
                return _fail("disjoint-support", params, {"trial": t, "p": p, "detail": rep.witness}, {})
    return WitnessReport(check="disjoint-support", params=params, verdict="pass",
                         counts={"instances": trials, "ps_per_instance": 4})


def battery_rado(seed: int = 42) -> WitnessReport:
    """Criterion 7: exhaustive extension witnesses on {0..15} with
    |U|+|V| <= 6, exact 256-point metric validation, and the
    distance-1 <=> adjacency coding on 10^4 random pairs."""
    params = {"seed": seed, "universe": 16, "max_total": 6, "metric_points": 256, "pairs": 10000}
    witnesses = 0
    universe = range(16)
    for total in range(0, 7):
        for a in range(0, total + 1):
            b = total - a
            for U in itertools.combinations(universe, a):
                rest = [v for v in universe if v not in U]
                for V in itertools.combinations(rest, b):
                    # the witness checks its own contract and raises on a breach
                    try:
                        rado.rado_extension_witness(U, V)
                    except MslabError as exc:
                        return _fail("rado-model", params, {"U": list(U), "V": list(V), "error": str(exc)}, {})
                    witnesses += 1

    _, rows, bound = rado.rado_metric_space(range(256)).grid
    verdict = validate_metric(rows, bound)
    if not verdict:
        return _fail("rado-model", params, {"metric": verdict.reason, "at": list(verdict.witness)}, {})

    rng = random.Random(seed)
    for _ in range(10000):
        i, j = rng.randrange(1 << 16), rng.randrange(1 << 16)
        if i == j:
            continue
        if (rado.rado_metric(i, j) == 1) != rado.rado_adjacent(i, j):
            return _fail("rado-model", params, {"pair": [i, j]}, {})
    return WitnessReport(check="rado-model", params=params, verdict="pass",
                         counts={"witnesses": witnesses, "metric_points": 256, "pairs": 10000})


def battery_urysohn(budget: int = 5000, seed: int = 42) -> WitnessReport:
    """Criterion 8: two saturation rounds from the half-distance two-point
    seed stay within budget, the previous generation is fully realized,
    and 50 random back-and-forth probes with identity anchors succeed."""
    params = {"seed": seed, "budget": budget, "denom": 4, "subset_bound": 2, "rounds": 2}
    seed_space = MetricSpace(("a", "b"), ((0, HALF), (HALF, 0)), 1)
    approx = Approximant.from_space(seed_space, 4, 2)
    try:
        approx = fraisse_step(fraisse_step(approx, budget=budget), budget=budget)
    except MslabError as exc:
        return _fail("urysohn-approximant", params, {"error": str(exc)}, {})

    check = finite_injectivity_check(approx, approx.snapshot(1), 2, 4)
    if check.verdict != "pass":
        return _fail("urysohn-approximant", params, {"injectivity": check.witness}, dict(check.counts))

    _, rows, bound = approx.as_metric_space().grid
    verdict = validate_metric(rows, bound)
    if not verdict:
        return _fail("urysohn-approximant", params, {"metric": verdict.reason, "at": list(verdict.witness)}, {})

    rng = random.Random(seed)
    snap = list(approx.snapshot(1))
    for t in range(50):
        x = rng.choice(snap)
        z = rng.choice([i for i in snap if i != x])
        st = BFState.create(approx, [(x, x)], Fraction(1, 4))
        try:
            st2 = back_and_forth_extend(st, z)
        except MslabError as exc:
            return _fail("urysohn-approximant", params, {"probe": t, "error": str(exc)}, {})
        _, w = st2.pairs[-1]
        if approx.dist(z, w) > Fraction(1, 4) or approx.dist(w, x) != approx.dist(z, x):
            return _fail("urysohn-approximant", params, {"probe": t, "found": w}, {})

    return WitnessReport(
        check="urysohn-approximant", params=params, verdict="pass",
        counts={"points": approx.n_points, "round_sizes": list(approx.round_sizes),
                "functions_checked": check.counts["functions"], "bf_probes": 50},
    )


def battery_nonproper(seed: int = 42, trials: int = 100) -> WitnessReport:
    """Criterion 9: the level-(1/2) companion construction always
    validates with the exact prescribed distances."""
    params = {"seed": seed, "trials": trials, "lambda": "1/2"}
    rng = random.Random(seed)
    done = 0
    while done < trials:
        space = random_metric_space(rng, min_points=2, max_points=8, max_denom=24)
        if space.diam_bound <= HALF:
            continue
        n = space.n_points
        pts = list(range(n))
        rng.shuffle(pts)
        x = pts[0]
        Z = sorted(pts[1 : 1 + rng.randint(0, n - 1)])
        try:
            out, y = nonproper_witness(space, x, Z, HALF)
        except MslabError as exc:
            return _fail("nonproper-witness", params, {"trial": done, "error": str(exc)}, {})
        keep = sorted({x, *Z})
        pos = {orig: i for i, orig in enumerate(keep)}
        if out.dist(y, pos[x]) != HALF:
            return _fail("nonproper-witness", params, {"trial": done, "d_yx": out.dist(y, pos[x])}, {})
        for z in Z:
            if out.dist(y, pos[z]) != max(HALF, space.dist(x, z)):
                return _fail("nonproper-witness", params, {"trial": done, "z": z}, {})
        base = out.restrict(range(out.n_points - 1))
        if not is_katetov([out.dist(y, i) for i in range(out.n_points - 1)], base):
            return _fail("nonproper-witness", params, {"trial": done, "note": "profile not Katetov"}, {})
        done += 1
    return WitnessReport(check="nonproper-witness", params=params, verdict="pass", counts={"instances": trials})


def battery_chain(seed: int = 42, trials: int = 1000) -> WitnessReport:
    """Criterion 10: random chains have exact step and closing distances
    and validate after capping."""
    params = {"seed": seed, "trials": trials}
    rng = random.Random(seed)
    for t in range(trials):
        q = rng.randint(1, 24)
        bound_steps = rng.randint(2, 2 * q)
        bound = Fraction(bound_steps, q)
        r = Fraction(rng.randint(1, bound_steps), q)
        s = Fraction(rng.randint(1, bound_steps), q)
        try:
            chain = injectivity_chain(r, s, bound)
        except MslabError as exc:
            return _fail("injectivity-chain", params, {"trial": t, "error": str(exc)}, {})
        n = chain.n_points - 1
        if chain.dist(0, n) != s:
            return _fail("injectivity-chain", params, {"trial": t, "closing": chain.dist(0, n), "s": s}, {})
        if n >= 2 or s == r:
            for i in range(n):
                if chain.dist(i, i + 1) != r:
                    return _fail("injectivity-chain", params, {"trial": t, "step": i, "got": chain.dist(i, i + 1)}, {})
    return WitnessReport(check="injectivity-chain", params=params, verdict="pass", counts={"triples": trials})


ACCEPTANCE_BATTERIES = (
    ("1-extension-batteries", lambda seed, budget: battery_extensions(seed)),
    ("2-kuratowski-gromov", lambda seed, budget: battery_kuratowski(seed)),
    ("3-lp-separation", lambda seed, budget: battery_lp(seed)),
    ("4-hilbert-pairing-gap", lambda seed, budget: battery_hilbert(seed)),
    ("5-profiles", lambda seed, budget: battery_profiles()),
    ("6-disjoint-support", lambda seed, budget: battery_disjoint(seed)),
    ("7-rado-model", lambda seed, budget: battery_rado(seed)),
    ("8-urysohn-approximant", lambda seed, budget: battery_urysohn(budget, seed)),
    ("9-nonproper-witness", lambda seed, budget: battery_nonproper(seed)),
    ("10-injectivity-chain", lambda seed, budget: battery_chain(seed)),
)
