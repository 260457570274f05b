"""banach-examples: sphere identity, step-function norms, profiles."""

import random
from fractions import Fraction

import pytest

from mslab import MetricSpace, is_katetov
from mslab.banach import (
    BUILTIN_PROFILES,
    FIRST_POWER_CAVEAT,
    PNormValue,
    RadialProfile,
    StepFn1D,
    StepFn2D,
    add2d,
    convex_by_midpoint_scan,
    disjoint_support_identity,
    hilbert_check,
    left_square_indicator,
    lp_counterexample,
    lp_norm,
    lp_pairing,
    mean_zero_square,
    profile_affine_capped_at_two,
    profile_flat_then_identity,
    profile_half_slope_then_identity,
    profile_half_slope_then_offset,
    profile_vee,
    profiles_agree_on,
    radial_profile_check,
    random_step_1d,
    right_slab_indicator,
    stereographic_point,
    sub2d,
)
from mslab.errors import (
    LengthMismatchError,
    NotOnSphereError,
    OverlappingSupportsError,
    PreconditionError,
)
from mslab.randgen import random_disjoint_parts, random_sphere_point

F = Fraction


# -- sphere identity -------------------------------------------------------------


def test_stereographic_points_are_unit():
    rng = random.Random(1)
    for _ in range(200):
        dim = rng.randint(2, 6)
        p = random_sphere_point(rng, dim)
        assert sum(c * c for c in p) == 1


def test_hilbert_equality_case():
    rep = hilbert_check([1, 0], [0, 1], [1, 0])
    assert rep.verdict == "pass"
    assert rep.counts["rho"] == 1
    assert rep.counts["half_squared_gap"] == 1


def test_hilbert_same_point_degenerate():
    u = (F(3, 5), F(4, 5))
    rep = hilbert_check(u, u, (1, 0))
    assert rep.verdict == "pass" and rep.counts["rho"] == 0


def test_hilbert_spec_three_fifths_example():
    rep = hilbert_check((F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)), (1, 0))
    assert rep.verdict == "pass"
    assert rep.counts["rho"] == F(1, 5)


def test_hilbert_rejects_off_sphere():
    with pytest.raises(NotOnSphereError) as err:
        hilbert_check([1, 1], [1, 0], [0, 1])
    assert err.value.squared_norm == 2


def test_hilbert_rejects_dimension_mismatch():
    with pytest.raises(LengthMismatchError):
        hilbert_check([1, 0], [1, 0, 0], [0, 1])


# -- PNormValue ------------------------------------------------------------------


def test_pnorm_canonicalizes_perfect_powers():
    assert PNormValue.exact(4, F(1, 2)).same_value(PNormValue.from_rational(2))
    assert PNormValue.exact(8, F(1, 3)).same_value(PNormValue.from_rational(2))
    assert PNormValue.exact(F(1, 2), F(1, 3)).same_value(PNormValue.exact(2, F(-1, 3)))


def test_pnorm_same_base_compares_by_exponent():
    a = PNormValue.exact(2, F(2, 3))
    b = PNormValue.exact(2, F(1, 3))
    assert not a.same_value(b)
    assert a.same_value(PNormValue.exact(4, F(1, 3)))


def test_pnorm_rational_never_equals_irrational_power():
    assert not PNormValue.exact(2, F(1, 2)).same_value(PNormValue.from_rational(F(3, 2)))


# -- step functions and norms -----------------------------------------------------


def test_unit_norm_for_every_p():
    w = mean_zero_square()
    for p in (1, 2, 3, F(3, 2), F(7, 3), 5):
        assert lp_norm(w, p) == PNormValue.from_rational(1)


def test_zero_function_norm():
    zero = StepFn2D((0, 2), (0, 1), ((F(0),),))
    assert lp_norm(zero, 3).same_value(PNormValue.from_rational(0))


def test_norm_gap_exponents():
    w, v = mean_zero_square(), left_square_indicator()
    for p in (F(1), F(3, 2), F(2), F(3), F(5)):
        assert lp_norm(sub2d(w, v), p) == PNormValue.exact(2, (p - 1) / p)


def test_integer_p_mixed_values_exact_fractional_p_refused():
    f = StepFn2D(
        (0, F(1, 2), 2),
        (0, F(1, 3), 1),
        ((F(1, 2), F(3)), (F(0), F(1, 4))),
    )
    power_sum = sum(a * abs(v) ** 3 for a, v in f.cells())
    assert lp_norm(f, 3) == PNormValue.exact(power_sum, F(1, 3))
    with pytest.raises(PreconditionError, match="not a single rational power"):
        lp_norm(f, F(3, 2))


def test_lp_norm_rejects_small_p():
    with pytest.raises(PreconditionError):
        lp_norm(mean_zero_square(), F(1, 2))


def test_pairing_mean_zero_vanishes_for_any_z():
    rng = random.Random(3)
    w, slab = mean_zero_square(), right_slab_indicator()
    for _ in range(50):
        z = random_step_1d(rng)
        assert lp_pairing(w, z) == 0
        assert lp_pairing(slab, z) == 0


def test_pairing_indicator_against_one():
    one = StepFn1D((0, 1), (F(1),))
    assert lp_pairing(left_square_indicator(), one) == 1


def test_pairing_is_bilinear():
    rng = random.Random(5)
    for _ in range(30):
        z1, z2 = random_step_1d(rng), random_step_1d(rng)
        a = F(rng.randint(-6, 6), rng.randint(1, 6))
        f, g = mean_zero_square(), left_square_indicator()
        fg = add2d(f, g)
        za = StepFn1D(z1.breaks, tuple(a * v for v in z1.values))
        assert lp_pairing(fg, z1) == lp_pairing(f, z1) + lp_pairing(g, z1)
        assert lp_pairing(g, za) == a * lp_pairing(g, z1)
        assert lp_pairing(g, z1) + lp_pairing(g, z2) == lp_pairing(g, _merge_add(z1, z2))


def _merge_add(z1: StepFn1D, z2: StepFn1D) -> StepFn1D:
    breaks = tuple(sorted(set(z1.breaks) | set(z2.breaks)))
    vals = []
    for b in breaks[:-1]:
        vals.append(z1.values[z1.cell_of(b)] + z2.values[z2.cell_of(b)])
    return StepFn1D(breaks, tuple(vals))


def test_lp_counterexample_p3():
    rep = lp_counterexample(3)
    assert rep.verdict == "pass"
    assert rep.witness["exponent_mean_zero"] == F(2, 3)
    assert rep.witness["exponent_slab"] == F(1, 3)


def test_lp_counterexample_p2_coincides():
    rep = lp_counterexample(2)
    assert rep.verdict == "fail"
    assert rep.counts["pairings_zero"] == 100


def test_lp_counterexample_p_three_halves():
    rep = lp_counterexample(F(3, 2))
    assert rep.verdict == "pass"
    assert rep.witness["exponent_mean_zero"] == F(1, 3)
    assert rep.witness["exponent_slab"] == F(2, 3)


# -- disjoint support identity ------------------------------------------------------


def test_disjoint_single_part_trivial():
    x, parts = random_disjoint_parts(random.Random(7), 1)
    rep = disjoint_support_identity(x, parts, 3)
    assert rep.verdict == "pass"
    assert rep.caveat == FIRST_POWER_CAVEAT


def test_disjoint_zero_x():
    zero = StepFn2D((0, 2), (0, 1), ((F(0),),))
    _, parts = random_disjoint_parts(random.Random(9), 3)
    rep = disjoint_support_identity(zero, parts, 2)
    assert rep.verdict == "pass"


def test_disjoint_random_exact_int_p():
    rng = random.Random(11)
    for _ in range(60):
        x, parts = random_disjoint_parts(rng, rng.randint(1, 3))
        for p in (1, 2, 3):
            assert disjoint_support_identity(x, parts, p).verdict == "pass"


def test_disjoint_float_path():
    rng = random.Random(13)
    x, parts = random_disjoint_parts(rng, 3)
    rep = disjoint_support_identity(x, parts, F(3, 2))
    assert rep.verdict == "pass" and rep.counts["exact"] is False


def test_disjoint_overlap_rejected():
    ind = left_square_indicator()
    with pytest.raises(OverlappingSupportsError):
        disjoint_support_identity(mean_zero_square(), [ind, ind], 2)


# -- radial profiles -----------------------------------------------------------------


def test_profile_eval_and_tail():
    h = profile_flat_then_identity()
    assert h.eval(0) == 1 and h.eval(F(1, 2)) == 1
    assert h.eval(3) == 3


def test_gallery_flags_match_hand_derivation():
    horizon = F(3)
    expected = {
        "flat-then-identity": (True, True, True, True, True),
        "vee": (True, False, True, True, True),
        "affine-plus-one": (True, True, True, True, True),
        "affine-capped-at-two": (True, True, False, True, True),
        "half-slope-then-offset": (True, True, True, True, True),
        "half-slope-then-identity": (True, True, True, True, True),
    }
    for name, (lip, mono, cvx, dom, kat) in expected.items():
        chk = radial_profile_check(BUILTIN_PROFILES[name](), horizon)
        assert chk.lipschitz1 is lip, name
        assert chk.nondecreasing is mono, name
        assert chk.convex is cvx, name
        assert chk.dominates_identity is dom, name
        assert chk.katetov_radial is kat, name
        assert chk.value_at_0 == 1, name


def test_capped_profile_convexity_witness():
    chk = radial_profile_check(profile_affine_capped_at_two(), 3)
    assert chk.convexity_witness == (F(1, 2), F(1), F(3, 2), F(1, 4))


def test_midpoint_scan_agrees_with_slope_verdict():
    for name, builder in BUILTIN_PROFILES.items():
        h = builder()
        chk = radial_profile_check(h, 4)
        assert convex_by_midpoint_scan(h, 4) is chk.convex, name


def test_flags_stable_under_redundant_breakpoint():
    for name, builder in BUILTIN_PROFILES.items():
        h = builder()
        # insert a redundant breakpoint in the middle of the first segment
        if len(h.breakpoints) >= 2:
            mid = (h.breakpoints[0] + h.breakpoints[1]) / 2
            midval = h.eval(mid)
            refined = RadialProfile(
                (h.breakpoints[0], mid) + h.breakpoints[1:],
                (h.values[0], midval) + h.values[1:],
                h.tail_slope,
            )
        else:
            step = F(1)
            refined = RadialProfile(
                h.breakpoints + (h.breakpoints[-1] + step,),
                h.values + (h.eval(h.breakpoints[-1] + step),),
                h.tail_slope,
            )
        a = radial_profile_check(h, 4).flags()
        b = radial_profile_check(refined, 4).flags()
        assert a == b, name


def test_sphere_pair_agreement_pattern():
    flat, vee = profile_flat_then_identity(), profile_vee()
    assert profiles_agree_on(flat, vee, 1, 1).agree
    verdict = profiles_agree_on(flat, vee, 0, 1)
    assert not verdict.agree and verdict.witness_r == F(1, 2)
    assert verdict.left - verdict.right == F(1, 2)


def test_corrected_pair_agreement_pattern():
    h1, h2 = profile_half_slope_then_offset(), profile_half_slope_then_identity()
    assert profiles_agree_on(h1, h2, 0, 1).agree
    assert h1.eval(F(3, 2)) - h2.eval(F(3, 2)) == F(1, 4)
    verdict = profiles_agree_on(h1, h2, 0, 2)
    assert not verdict.agree


def test_identical_profiles_agree_everywhere():
    h = profile_affine_plus_one = BUILTIN_PROFILES["affine-plus-one"]()
    assert profiles_agree_on(h, h, 0, 10).agree


def test_radial_profile_bridges_to_katetov():
    """Sampling h(|v|) at rational points of a normed-space sample gives a
    one-point extension profile whenever h is 1-Lipschitz and h >= id."""
    rng = random.Random(17)
    for name in ("flat-then-identity", "vee", "half-slope-then-offset"):
        h = BUILTIN_PROFILES[name]()
        for _ in range(20):
            dim = rng.randint(1, 3)
            pts = [
                tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim))
                for _ in range(rng.randint(2, 5))
            ]
            if len({p for p in pts}) != len(pts):
                continue

            def l1(a, b):
                return sum(abs(x - y) for x, y in zip(a, b))

            dmat = [[l1(a, b) for b in pts] for a in pts]
            if any(dmat[i][j] == 0 for i in range(len(pts)) for j in range(len(pts)) if i != j):
                continue
            values = [h.eval(l1(p, (F(0),) * dim)) for p in pts]
            bound = max(max(max(row) for row in dmat), max(values))
            space = MetricSpace(tuple(map(str, range(len(pts)))), tuple(map(tuple, dmat)), bound)
            assert is_katetov(values, space).ok, name
