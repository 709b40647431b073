import math
import tracemalloc

import numpy as np
import pytest

import scalar_gauss_kronrod
from homsys import DomainError, HomsysError
from homsys.quadrature import integrate_intervals, integrate_panels


def test_polynomials_up_to_degree_13_take_one_level():
    # K15 and G7 both integrate a polynomial of degree <= 13 exactly, so their difference is rounding
    calls = []
    f = lambda t, k: calls.append(t.size) or t**13 - 2.0 * t**3 + 1.0
    assert integrate_intervals(f, -1.0, 2.0, 1e-12) == pytest.approx(2.0**14 / 14 - 1.0 / 14 - 7.5 + 3.0, abs=1e-11)
    assert calls == [15]


def test_panels_share_the_budget_and_skip_empty_spans():
    f = lambda t, k: np.exp(t)
    assert integrate_panels(f, [0.0, 0.5, 0.5, 1.0], 1e-12) == pytest.approx(math.e - 1.0, abs=1e-11)
    assert integrate_panels(f, [1.0], 1e-12) == 0.0


def test_toward_zero_log_singularity():
    # halvings of 1 toward 0: below the last one, log(1/t) adds 2^-120 (120 log 2 + 1), far under tol
    edges = 0.5 ** np.arange(120, -1, -1)
    got = integrate_panels(lambda t, k: np.log(1.0 / t), edges.tolist(), 1e-10)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_toward_infinity_exponential_tail():
    # doublings of 1 up to the first t where exp(-t) underflows to 0.0: nothing lies beyond it
    edges = 2.0 ** np.arange(11)
    assert np.exp(-edges[-1]) == 0.0 < np.exp(-edges[-2])
    got = integrate_panels(lambda t, k: np.exp(-t), edges.tolist(), 1e-10)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-10)


@pytest.mark.parametrize(
    "scalar, vector",
    [
        (math.exp, np.exp),
        (math.sin, np.sin),
        (lambda t: math.sqrt(abs(t)), lambda t: np.sqrt(np.abs(t))),  # a kink at 0
        (lambda t: 1.0 if t < 0.3 else 0.0, lambda t: np.where(t < 0.3, 1.0, 0.0)),  # a jump: depth-limited
        (lambda t: t**3 - 2.0 * t, lambda t: t**3 - 2.0 * t),
    ],
)
def test_batch_matches_adaptive_simpson(scalar, vector):
    # the recursive scalar rule is the oracle; numpy and libm may differ in the last ulp
    a = np.array([0.0, -1.0, 0.25, 2.0, -3.0])
    b = np.array([1.0, 2.0, 0.75, 7.0, 0.3])
    tol = np.array([1e-12, 1e-10, 1e-8, 1e-12, 1e-9])
    got = integrate_intervals(lambda t, k: vector(t), a, b, tol)
    want = np.array([scalar_gauss_kronrod.integrate(scalar, x, y, e) for x, y, e in zip(a, b, tol)])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_nan_error_is_accepted_not_refined():
    # f is NaN on [0, 0.5): an interval whose error is NaN is accepted with its NaN
    # value instead of doubling its nodes at every level; a finite interval of the
    # same call gets the value it gets alone
    sizes = []

    def f(t, k):
        sizes.append(t.size)
        if t.size > 1000:
            raise AssertionError("NaN intervals are being refined")
        return np.where(t < 0.5, np.nan, np.sin(t))

    got = integrate_intervals(f, [0.0, 1.0], [1.0, 2.0], 1e-12)
    assert math.isnan(got[0])
    assert got[1] == integrate_intervals(f, 1.0, 2.0, 1e-12)
    assert math.isnan(integrate_intervals(f, 0.0, 1.0, 1e-12))
    assert max(sizes) <= 500


def test_a_level_past_256_times_the_starting_intervals_raises():
    # sawtooth teeth 1e-12 wide: every interval splits at every level, as when an integrand's rounding stays
    # above the tolerance; a level may hold 256 times the call's 2 intervals, and the call stops before
    # one would hold more
    sizes = []

    def f(t, k):
        sizes.append(t.size)
        return (t * 1e12) % 1.0

    with pytest.raises(HomsysError, match="more than 256 times the 2 it started with"):
        integrate_intervals(f, [0.0, 1.0], [1.0, 2.0], 1e-10)
    assert sizes == [15 * 2**j for j in range(1, 10)]


def test_one_runaway_interval_among_many_raises_as_early_as_alone():
    # 2000 smooth intervals and one sawtooth: a level may hold at most 2^16 intervals under one starting
    # interval, so the sawtooth stops where it alone would pass that, at level 17 and 48 MB traced; the
    # limit on the call's total, which grows with the call, alone let it reach level 19 and 192 MB
    sizes = []

    def f(t, k):
        sizes.append(t.size)
        return np.where(k == 2000, (t * 1e12) % 1.0, np.sin(t))

    a = np.arange(2001.0)
    tracemalloc.start()
    try:
        with pytest.raises(HomsysError, match="would hold 131072 intervals under one of the 2001 it started with"):
            integrate_intervals(f, a, a + 1.0, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [15 * 2001] + [15 * 2**j for j in range(1, 17)]
    assert peak < 64 << 20  # 48 MB


def test_batch_passes_each_node_its_interval():
    # f(t, k) = k: the integral over interval k is k times its length
    a = np.array([0.0, 1.0, 5.0])
    b = np.array([1.0, 3.0, 5.5])
    got = integrate_intervals(lambda t, k: k.astype(float), a, b, 1e-12)
    np.testing.assert_allclose(got, [0.0, 2.0, 1.0], rtol=1e-15)


def test_batch_empty_and_zero_width_intervals_give_zero():
    calls = []
    f = lambda t, k: calls.append(t.size) or np.ones_like(t)
    assert integrate_intervals(f, np.array([]), np.array([]), 1e-12).shape == (0,)
    np.testing.assert_array_equal(integrate_intervals(f, [1.0, 2.0, 0.0], [1.0, 1.0, 2.0], 1e-12), [0.0, 0.0, 2.0])
    assert integrate_intervals(f, 0.5, 0.5, 1e-12) == 0.0 and calls == [15]
    assert isinstance(integrate_intervals(f, 0.0, 1.0, 1e-12), float)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, [1e-12, -1e-12]])
def test_a_tolerance_that_is_not_finite_and_positive_is_rejected_before_any_call(tol):
    # a negative tol split every interval down to the depth limit, and a NaN tol returned the first
    # estimate unchecked
    def never(t, k):
        raise AssertionError("the integrand was called")

    with pytest.raises(DomainError):
        integrate_intervals(never, [0.0, 1.0], [1.0, 2.0], tol)
    if np.ndim(tol) == 0:
        with pytest.raises(DomainError):
            integrate_panels(never, [0.0, 0.5, 1.0], tol)
