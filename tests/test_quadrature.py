import math

import numpy as np
import pytest

import scalar_simpson
from homsys.quadrature import adaptive_simpson, integrate_panels


def test_simpson_exact_on_cubics():
    assert adaptive_simpson(lambda t, k: t**3 - 2.0 * t, 0.0, 2.0, 1e-12) == pytest.approx(0.0, abs=1e-12)


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
    # the recursive scalar Simpson is the oracle; numpy and libm may differ in the last ulp
    a = np.array([0.0, -1.0, 0.25, 2.0, -3.0])
    b = np.array([1.0, 2.0, 0.75, 7.0, 0.3])
    tol = np.array([1e-12, 1e-10, 1e-8, 1e-12, 1e-9])
    got = adaptive_simpson(lambda t, k: vector(t), a, b, tol)
    want = np.array([scalar_simpson.adaptive_simpson(scalar, x, y, e) for x, y, e in zip(a, b, tol)])
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

    got = adaptive_simpson(f, [0.0, 1.0], [1.0, 2.0], 1e-12)
    assert math.isnan(got[0])
    assert got[1] == adaptive_simpson(f, 1.0, 2.0, 1e-12)
    assert math.isnan(adaptive_simpson(f, 0.0, 1.0, 1e-12))
    assert max(sizes) <= 500


def test_batch_passes_each_node_its_interval():
    # f(t, k) = k: the integral over interval k is k times its length
    a = np.array([0.0, 1.0, 5.0])
    b = np.array([1.0, 3.0, 5.5])
    got = adaptive_simpson(lambda t, k: k.astype(float), a, b, 1e-12)
    np.testing.assert_allclose(got, [0.0, 2.0, 1.0], rtol=1e-15)


def test_batch_empty_and_zero_width_intervals_give_zero():
    calls = []
    f = lambda t, k: calls.append(t.size) or np.ones_like(t)
    assert adaptive_simpson(f, np.array([]), np.array([]), 1e-12).shape == (0,)
    np.testing.assert_array_equal(adaptive_simpson(f, [1.0, 2.0, 0.0], [1.0, 1.0, 2.0], 1e-12), [0.0, 0.0, 2.0])
    assert adaptive_simpson(f, 0.5, 0.5, 1e-12) == 0.0 and calls == [3, 2]
    assert isinstance(adaptive_simpson(f, 0.0, 1.0, 1e-12), float)
