import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsys import (
    F_HIP_MINUS,
    F_HIP_PLUS,
    F_MAX,
    F_MIN,
    F_PARALLEL,
    F_SUM,
    DomainError,
    HFunction,
    InvalidProfileError,
    asym_tent,
    power_mean,
    t_of,
    validate,
)
from homsys.hfun import MIN_POWER_MEAN_SCALE, g_hip, g_softplus, g_table, g_tent, g_zero, t_kinks, t_support_end
from homsys.models import parse_model

import fresh_array_pool_step
from test_proofcheck import TWO_TABLES

LOG2 = math.log(2.0)
_Z31 = np.linspace(-1.5, 1.5, 31)


class TestEval:
    def test_sum(self):
        assert F_SUM(2.0, 3.0) == pytest.approx(5.0, rel=1e-14)

    def test_min(self):
        assert F_MIN(2.0, 3.0) == pytest.approx(2.0, rel=1e-14)

    def test_parallel_halves(self):
        assert F_PARALLEL(2.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_hip_peak(self):
        # log F(e^0, e^0) = max + G_hip(0) = 1
        assert F_HIP_PLUS(1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_peak_is_g_at_0_and_the_closed_forms_bit_for_bit(self):
        scales = [MIN_POWER_MEAN_SCALE, 1.0, 50.0, *np.random.default_rng(25).uniform(1e-3, 50.0, 400).tolist()]
        assert [g_softplus(a).peak.hex() for a in scales] == [(a * math.log(2.0)).hex() for a in scales]
        assert [g.peak for g in (g_hip(), g_tent(0.3, 1.0), g_tent(1.0, 0.05))] == [1.0, 1.0, 1.0]
        assert g_zero().peak == 0.0 and g_zero().is_zero
        table = g_table([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.3, 0.45, 0.2, 0.0])
        assert table.peak == 0.45 and HFunction(-1, table).r == 0.45

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            F_SUM(-1.0, 2.0)
        with pytest.raises(DomainError):
            F_SUM(1.0, 0.0)

    def test_log_eval_infinite_arguments_warn_nothing(self):
        inf = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = F_SUM.log_eval([-inf, -inf, 0.0], [-inf, 1.0, 0.0])
            par = F_PARALLEL.log_eval([inf, inf], [inf, 2.0])
        assert both[0] == -inf and both[1] == 1.0 and both[2] == pytest.approx(LOG2, rel=1e-15)
        assert par[0] == inf and par[1] == 2.0


def _in_place_cases():
    tables = [pytest.param(f, id=f"two_tables[{k}]") for k, f in enumerate(parse_model(TWO_TABLES).functions)]
    return [F_MAX, F_MIN, F_SUM, F_PARALLEL, power_mean(0.3), F_HIP_PLUS, F_HIP_MINUS,
            asym_tent(0.5, 0.8), asym_tent(0.5, 0.8, eps=-1), *tables]


def _eval_points():
    """Random points, ties lx == ly, |lx - ly| > 40, and signed zeros on either side."""
    rng = np.random.default_rng(11)
    lx, ly = rng.normal(0.0, 3.0, 400), rng.normal(0.0, 3.0, 400)
    ly[:40] = lx[:40]
    ly[40:80] = lx[40:80] + rng.choice([-1.0, 1.0], 40) * rng.uniform(40.5, 80.0, 40)
    zeros = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 1e-300, -1e-300])
    lx = np.concatenate([lx, zeros, [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0]])
    ly = np.concatenate([ly, zeros[::-1], [0.0, 0.0, -0.0, -0.0, 1e-300, -1e-300, 2.5]])
    return lx, ly


@pytest.mark.parametrize("f", _in_place_cases())
def test_log_eval_finite_into_out_gives_the_bits_of_a_new_array(f):
    lx, ly = _eval_points()
    lx0, ly0 = lx.copy(), ly.copy()
    fresh = f.log_eval_finite(lx, ly)
    out = np.full(lx.size, np.nan)
    got = f.log_eval_finite(lx, ly, out=out)
    assert got is out
    assert np.array_equal(got.view(np.uint64), fresh.view(np.uint64))
    # and the bits of the expression before the in-place evaluation
    assert np.array_equal(fresh.view(np.uint64), fresh_array_pool_step.log_eval_finite(f, lx, ly).view(np.uint64))
    assert np.array_equal(lx.view(np.uint64), lx0.view(np.uint64))
    assert np.array_equal(ly.view(np.uint64), ly0.view(np.uint64))


def _softplus_six_passes(z: np.ndarray, a: float) -> np.ndarray:
    out = np.abs(z)
    np.negative(out, out=out)
    np.divide(out, a, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.multiply(a, out, out=out)


def _tent_four_passes(z: np.ndarray, s: float) -> np.ndarray:
    out = np.abs(z)
    np.multiply(s, out, out=out)
    np.subtract(1.0, out, out=out)
    return np.maximum(0.0, out, out=out)


def _profile_points() -> np.ndarray:
    """Random points, signed zeros, subnormals, |z| past exp's underflow at 745, and the tent's corners."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, np.nextafter(1.0, 2.0), 744.5, -745.1,
             745.2, -746.0, 800.0, -1e4, 1e300, -1e300]
    return np.concatenate([edges, np.random.default_rng(5).normal(0.0, 4.0, 2000)])


_POWER_MEAN = parse_model("power_mean(0.3,-0.3)").functions


@pytest.mark.parametrize("g, formula", [
    (g_softplus(1.0), lambda z: _softplus_six_passes(z, 1.0)),
    (g_hip(), lambda z: _tent_four_passes(z, 1.0)),
    *[(f.g, lambda z: _softplus_six_passes(z, 0.3)) for f in _POWER_MEAN],  # a scale of 0.3 still divides
    (g_tent(0.5, 0.5), lambda z: _tent_four_passes(z, 0.5)),
], ids=["softplus(1)", "tent(1,1)", "power_mean(0.3,-0.3)[0]", "power_mean(0.3,-0.3)[1]", "tent(0.5,0.5)"])
def test_the_profile_kernels_give_the_bits_of_their_full_formulas(g, formula):
    # a unit scale or slope skips its divide and multiply passes, and keeps every bit
    z = _profile_points()
    want = formula(z).view(np.uint64)
    assert np.array_equal(g._eval_finite(z).view(np.uint64), want)
    inplace = z.copy()
    assert g._eval_finite(inplace, out=inplace) is inplace
    assert np.array_equal(inplace.view(np.uint64), want)


class TestCorrespondence:
    def test_zero_profile_is_max(self):
        f = HFunction(+1, g_zero())
        for x, y in [(0.5, 2.0), (3.0, 3.0), (1e-3, 10.0)]:
            assert f(x, y) == pytest.approx(max(x, y), rel=1e-14)

    def test_hip_minus_from_profile(self):
        f = HFunction(-1, g_hip())
        for x, y in [(1.0, 1.0), (2.0, 5.0), (0.1, 0.1)]:
            assert f(x, y) == pytest.approx(F_HIP_MINUS(x, y), rel=1e-14)

    def test_round_trip_on_grid(self):
        g = g_tent(1.0, 0.5)
        f = HFunction(+1, g)
        z = np.linspace(-4, 4, 201)
        assert np.max(np.abs(f.g(z) - g(z))) < 1e-12

    def test_g_of_values(self):
        assert F_SUM.g(0.0) == pytest.approx(LOG2, abs=1e-15)
        assert np.all(F_MIN.g(np.linspace(-5, 5, 11)) == 0.0)
        assert F_HIP_PLUS.g(0.25) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize(
        "g", [g_zero(), F_SUM.g, g_hip(), asym_tent(0.5, 0.8).g, g_table([-1.0, 0.0, 1.0], [0.0, 0.5, 0.0])],
        ids=["zero", "softplus", "hipster", "tent", "table"],
    )
    def test_g_keeps_nan_and_vanishes_at_infinity(self, g):
        # only +-inf have the limit 0; a NaN argument has no value to take
        assert math.isnan(g(math.nan))
        got = g(np.array([math.nan, math.inf, -math.inf, 0.25]))
        assert math.isnan(got[0]) and got[1] == got[2] == 0.0 and got[3] == g(0.25)

    def test_table_lipschitz_rejected(self):
        z = np.linspace(-2, 2, 5)
        v = np.array([0.0, 1.5, 2.0, 1.5, 0.0])  # slope 1.5 > 1
        with pytest.raises(InvalidProfileError):
            g_table(z, v)

    def test_table_monotone_wings_rejected(self):
        z = np.linspace(-3, 3, 7)
        v = np.array([0.0, 0.5, 0.2, 0.9, 0.2, 0.5, 0.0])
        with pytest.raises(InvalidProfileError):
            g_table(z, v)

    def test_table_cell_across_zero_rejected(self):
        # with an even node count one cell holds z = 0: this one rises on [0, 0.5]
        with pytest.raises(InvalidProfileError):
            g_table([-1.5, -0.5, 0.5, 1.5], [0.0, 0.0, 0.4, 0.0])

    @pytest.mark.parametrize("at", [0, 2])
    def test_table_nan_value_rejected(self, at):
        # every comparison with NaN is False, so no other check of the table catches it
        v = [0.0, 0.3, 0.5, 0.3, 0.0]
        v[at] = math.nan
        with pytest.raises(InvalidProfileError, match="finite"):
            g_table([-1.0, -0.5, 0.0, 0.5, 1.0], v)

    def test_tables_compare_and_hash_by_their_nodes(self):
        z = [-1.0, -0.5, 0.0, 0.5, 1.0]
        tall, low = g_table(z, [0.0, 0.5, 0.8, 0.5, 0.0]), g_table(z, [0.0, 0.5, 0.5, 0.5, 0.0])
        assert tall != low and hash(tall) != hash(low)
        assert tall == g_table(np.array(z), np.array([0.0, 0.5, 0.8, 0.5, 0.0])) and tall.reflected() == tall
        assert HFunction(+1, tall, "a") == HFunction(+1, tall, "b") != HFunction(+1, low, "a")
        for nodes in (tall.grid, tall.values):
            with pytest.raises(ValueError):
                nodes[2] = 0.7

    def test_table_flat_top_across_zero_accepted(self):
        f = HFunction(+1, g_table([-1.5, -0.5, 0.5, 1.5], [0.0, 0.5, 0.5, 0.0]))
        assert f.g(0.0) == 0.5 and f.r == 0.5


class TestDualities:
    def test_invert_sum_is_parallel(self):
        fi = F_SUM.invert()
        for x, y in [(2.0, 3.0), (1.0, 1.0), (0.2, 5.0)]:
            assert fi(x, y) == pytest.approx(F_PARALLEL(x, y), rel=1e-14)

    def test_star_hip_minus(self):
        fs = F_HIP_MINUS.star()
        for x, y in [(1.0, 2.0), (3.0, 0.5)]:
            assert fs(x, y) == pytest.approx(F_HIP_PLUS(x, y), rel=1e-14)

    def test_star_fixes_plus_side(self):
        assert F_SUM.star() is F_SUM

    def test_swap_is_argument_swap(self):
        f = asym_tent(1.0, 0.5)
        fs = f.swap()
        for x, y in [(2.0, 3.0), (0.3, 7.0), (1.0, 1.0)]:
            assert fs(x, y) == pytest.approx(f(y, x), rel=1e-14)

    def test_swap_symmetric_fixed(self):
        fs = F_SUM.swap()
        for x, y in [(2.0, 3.0), (0.3, 7.0)]:
            assert fs(x, y) == pytest.approx(F_SUM(x, y), rel=1e-14)

    def test_invert_is_reciprocal_of_reciprocal_args(self):
        # the defining identity, on an asymmetric profile where the profile
        # reflection is visible
        f = asym_tent(0.8, 0.3)
        fi = f.invert()
        for x, y in [(2.0, 3.0), (0.5, 4.0), (1.0, 1.0), (7.0, 0.2)]:
            assert fi(x, y) == pytest.approx(1.0 / f(1.0 / x, 1.0 / y), rel=1e-13)

    def test_invert_involution(self):
        f = asym_tent(0.8, 0.3)
        fii = f.invert().invert()
        for x, y in [(2.0, 3.0), (0.5, 4.0)]:
            assert fii(x, y) == pytest.approx(f(x, y), rel=1e-14)


_PROBES = np.array([1e-12, 1e-3, 0.2, 0.5, 0.999, 1.0, 1.0 + 1e-12, 1.5, 2.4, 3.0, 40.0, 800.0])


def _flat_levels(f):
    """The t where a table profile's crossing set is an interval: the levels of H(u) = g*(u) - min(u, 0)
    on its flat pieces (wings of slope 1 left of 0, plateaus right of it)."""
    g = f.g_star
    u = np.union1d(g.grid, [0.0])
    h = g(u) - np.minimum(u, 0.0)
    flat = np.isclose(h[1:], h[:-1], rtol=0.0, atol=1e-12) & (h[1:] > 0.0)
    return h[1:][flat]


def _math_crossing(f, t, tol=1e-12):
    """T_F(t) in math-module floats: the closed forms, or one bisection for a table profile."""
    g = f.g_star
    if g.family == "zero":
        return 0.0
    if g.family == "softplus":
        (a,) = g.params
        s = t / a
        return -a * math.log1p(-math.exp(-s)) if s >= 1.0 else -a * math.log(-math.expm1(-s))
    if g.family == "tent":
        sp, sm = g.params
        if t < 1.0:
            return t + (1.0 - t) / sp
        if sm == 1.0:
            return 1.0 if t == 1.0 else 0.0
        return max(0.0, (1.0 - sm * t) / (1.0 - sm))
    if g(-t) <= 0.0:
        return 0.0
    s = lambda z: g(z - t) - min(t, z)
    z_lo, z_hi = 0.0, max(1.0, f.r + 1.0)
    while s(z_hi) >= 0.0:
        z_hi *= 2.0
    while z_hi - z_lo > tol:
        mid = 0.5 * (z_lo + z_hi)
        z_lo, z_hi = (mid, z_hi) if s(mid) >= 0.0 else (z_lo, mid)
    return 0.5 * (z_lo + z_hi)


class TestCrossing:
    def test_hip_indicator(self):
        assert t_of(F_HIP_PLUS, 0.5) == 1.0
        assert t_of(F_HIP_PLUS, 1.5) == 0.0
        assert t_of(F_HIP_MINUS, 0.5) == 1.0

    def test_max_vanishes(self):
        for t in (0.1, 1.0, 10.0):
            assert t_of(F_MAX, t) == 0.0

    def test_sum_closed_form(self):
        # solve e^-t + e^-z = 1
        assert t_of(F_SUM, LOG2) == pytest.approx(LOG2, abs=1e-12)
        for t in (0.25, 1.0, 3.0):
            assert t_of(F_SUM, t) == pytest.approx(-math.log1p(-math.exp(-t)), abs=1e-12)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(DomainError):
            t_of(F_SUM, 0.0)

    def test_table_bisection_matches_closed_form(self):
        z = np.linspace(-1.5, 1.5, 3001)
        f_tab = HFunction(+1, g_table(z, np.maximum(0.0, 1.0 - np.abs(z))))
        for t in (0.3, 0.8, 0.999, 1.2, 2.0):
            assert t_of(f_tab, t) == pytest.approx(t_of(F_HIP_PLUS, t), abs=1e-9)

    def test_tent_closed_form_vs_bisection(self):
        sp, sm = 0.7, 0.4
        f = asym_tent(sp, sm)
        half = max(1.0 / sm, 1.0 / sp) + 0.5
        z = np.linspace(-half, half, 12001)
        prof = np.where(z >= 0, np.maximum(0.0, 1 - sp * z), np.maximum(0.0, 1 + sm * z))
        f_tab = HFunction(+1, g_table(z, prof))
        for t in (0.1, 0.5, 0.9, 1.3, 2.0, 1.0 / sm - 0.05):
            assert t_of(f, t) == pytest.approx(t_of(f_tab, t), abs=1e-8)

    @pytest.mark.parametrize(
        "f",
        [F_SUM, F_PARALLEL, power_mean(0.3), F_MAX, F_MIN, F_HIP_PLUS, F_HIP_MINUS, asym_tent(0.7, 0.4),
         asym_tent(0.5, 1.0, -1), HFunction(+1, g_table(_Z31, np.maximum(0.0, 1.0 - np.abs(_Z31)))),
         HFunction(-1, g_table(np.linspace(-2.0, 2.0, 9), [0.0, 0.3, 0.8, 1.2, 1.5, 1.1, 0.6, 0.2, 0.0]))],
    )
    def test_array_t_matches_the_scalar_path(self, f):
        # both branches of each closed form, the tent corner t = 1 and the far softplus tail,
        # against the crossing in math-module floats, one element at a time
        t = _PROBES
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = t_of(f, t.reshape(3, 4))
        want = np.array([_math_crossing(f, float(x)) for x in t])
        assert got.shape == (3, 4)
        if f.g_star.family == "table":
            # the exact table crossing against the scalar bisection, to its tolerance, away from
            # the flat crossings, where the bisection returns an inner point and t_of the sup
            away = np.min(np.abs(t[:, None] - _flat_levels(f)), axis=1, initial=np.inf) > 1e-9
            np.testing.assert_allclose(got.ravel()[away], want[away], rtol=0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(got.ravel(), want, rtol=4e-16, atol=0.0)
        assert isinstance(t_of(f, 0.5), float)

    def test_tent_shaped_table_is_the_hipster_crossing(self):
        # the table's nodes are not the tent's decimals, yet its crossing is the same floats,
        # the sup 1 at the flat crossing t = 1 included
        f_tab = HFunction(+1, g_table(_Z31, np.maximum(0.0, 1.0 - np.abs(_Z31))))
        assert np.array_equal(t_of(f_tab, _PROBES), t_of(F_HIP_PLUS, _PROBES))
        assert t_of(f_tab, 1.0) == 1.0

    def test_table_kinks_are_the_node_levels_of_h(self):
        f = HFunction(+1, g_table(np.linspace(-2.0, 2.0, 5), [0.0, 0.5, 1.0, 0.25, 0.0]))
        # H(u) = g(u) - min(u, 0) at u = -2, -1, 0, 1, 2 is 2, 1.5, 1, 0.25, 0
        np.testing.assert_allclose(t_kinks(f), [0.25, 1.0, 1.5, 2.0], rtol=1e-15)
        assert t_kinks(F_HIP_PLUS).size == t_kinks(F_SUM).size == 0

    def test_table_jumps_are_the_flat_levels_of_h(self):
        # H at u = -3..3 is 3, 2.5, 2.5, 2, 2, 1, 0: flat on [-2, -1] (a slope-1 piece of the left wing)
        # and on [0, 1] (a plateau of the right wing); T drops there by the flat piece's length
        f = HFunction(+1, g_table(np.linspace(-3.0, 3.0, 7), [0.0, 0.5, 1.5, 2.0, 2.0, 1.0, 0.0]))
        assert t_kinks(f).tolist() == [1.0, 2.0, 2.5, 3.0]  # so the jumps are panel edges
        assert t_of(f, np.array([2.0, 2.5])).tolist() == [3.0, 1.5]  # the value from the left
        np.testing.assert_allclose(t_of(f, np.nextafter([2.0, 2.5], 3.0)), [2.0, 0.5], rtol=0.0, atol=1e-15)

    def test_array_t_rejects_nonpositive_entries(self):
        with pytest.raises(DomainError):
            t_of(F_SUM, np.array([0.5, 0.0]))

    def test_support_end(self):
        assert t_support_end(F_HIP_PLUS) == 1.0
        assert t_support_end(asym_tent(1.0, 0.5)) == 2.0
        assert t_support_end(F_SUM) is None
        assert t_support_end(F_MAX) == 0.0


class TestRValue:
    def test_examples(self):
        assert F_MIN.r == 0.0
        assert F_MAX.r == 0.0
        assert F_SUM.r == pytest.approx(LOG2, abs=1e-15)
        assert F_HIP_PLUS.r == 1.0

    def test_zero_iff_max_min(self):
        assert power_mean(0.5).r > 0
        assert asym_tent(0.9, 0.9).r > 0


ALL_FUNCS = [F_SUM, F_PARALLEL, F_MAX, F_MIN, F_HIP_PLUS, F_HIP_MINUS, power_mean(1.7), power_mean(-0.6), asym_tent(1.0, 0.5)]


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: f.label)
class TestClassAxioms:
    def test_validate_passes(self, f):
        report = validate(f)
        assert report.passed, report.violations

    @settings(max_examples=25, deadline=None)
    @given(
        x=st.floats(1e-6, 1e6),
        y=st.floats(1e-6, 1e6),
        a=st.floats(1e-6, 1e6),
    )
    def test_homogeneity(self, f, x, y, a):
        lhs = f(a * x, a * y)
        rhs = a * f(x, y)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(0.01, 100.0), y=st.floats(0.01, 100.0), bump=st.floats(1.0, 10.0))
    def test_monotone_and_side_bound(self, f, x, y, bump):
        v = f(x, y)
        assert f(x * bump, y) >= v * (1 - 1e-12)
        if f.eps == +1:
            assert v >= max(x, y) * (1 - 1e-12)
        else:
            assert v <= min(x, y) * (1 + 1e-12)


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: f.label)
def test_crossing_dualities(f):
    for t in (0.2, 0.7, 1.1, 2.5):
        base = t_of(f, t)
        assert t_of(f.star(), t) == pytest.approx(base, abs=1e-9)
        assert t_of(f.invert(), t) == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: f.label)
def test_crossing_swap_duality(f):
    # T_F(t) < u iff T_F#(u) < t, probed off the crossing set
    for t, u in [(0.3, 0.9), (1.2, 0.4), (2.0, 2.0), (0.6, 0.61)]:
        lhs = t_of(f, t) < u - 1e-9
        rhs = t_of(f.swap(), u) < t - 1e-9
        mid = abs(t_of(f, t) - u) < 1e-8 or abs(t_of(f.swap(), u) - t) < 1e-8
        if not mid:
            assert lhs == rhs


@pytest.mark.parametrize("f", ALL_FUNCS, ids=lambda f: f.label)
def test_crossing_ordering(f):
    r = f.r
    ts = [r + 0.1, r + 1.0, r + 5.0]
    vals = [t_of(f, t) for t in ts]
    for v in vals:
        assert v <= r + 1e-9
    # nonincreasing overall
    probe = [0.05, 0.3, 1.0, 2.0, 5.0]
    tv = [t_of(f, t) for t in probe]
    assert all(a >= b - 1e-9 for a, b in zip(tv, tv[1:]))
