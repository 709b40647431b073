import math

import numpy as np
import pytest

import scalar_simpson
from homsys import IntegrationError
from homsys.quadrature import adaptive_simpson, integrate_geometric, integrate_panels


def test_simpson_exact_on_cubics():
    assert adaptive_simpson(lambda t, k: t**3 - 2.0 * t, 0.0, 2.0, 1e-12) == pytest.approx(0.0, abs=1e-12)


def test_panels_share_the_budget_and_skip_empty_spans():
    f = lambda t, k: np.exp(t)
    assert integrate_panels(f, [0.0, 0.5, 0.5, 1.0], 1e-12) == pytest.approx(math.e - 1.0, abs=1e-11)
    assert integrate_panels(f, [1.0], 1e-12) == 0.0


def test_toward_zero_log_singularity():
    got = integrate_geometric(lambda t, k: np.log(1.0 / t), 1.0, 0.5, 1e-10)
    assert got == pytest.approx(1.0, abs=1e-8)


def test_toward_infinity_exponential_tail():
    got = integrate_geometric(lambda t, k: np.exp(-t), 1.0, 2.0, 1e-10)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_non_decaying_tail_raises_with_partial_sum():
    with pytest.raises(IntegrationError) as info:
        integrate_geometric(lambda t, k: np.ones_like(t), 1.0, 2.0, 1e-6)
    # panels [2^k, 2^(k+1)] contribute 2^k; the sixth growth in a row stops the loop
    assert info.value.partial == pytest.approx(127.0, rel=1e-12)


def test_equal_panels_exhaust_the_budget():
    # 1/t toward 0: every panel [2^-(k+1), 2^-k] contributes the same log 2, so the
    # contributions neither shrink nor grow and all 120 panels are summed
    with pytest.raises(IntegrationError, match="panel budget") as info:
        integrate_geometric(lambda t, k: 1.0 / t, 1.0, 0.5, 1e-10)
    piece = adaptive_simpson(lambda t, k: 1.0 / t, 0.5, 1.0, 1e-10 / 16.0)
    assert piece == pytest.approx(math.log(2.0), rel=1e-12)
    assert info.value.partial == pytest.approx(120 * piece, rel=1e-14)
    with pytest.raises(IntegrationError) as oracle:
        scalar_simpson.integrate_geometric(lambda t: 1.0 / t, 1.0, 0.5, 1e-10)
    assert info.value.partial == oracle.value.partial


@pytest.mark.parametrize(
    "vector, scalar, start, factor",
    [
        (lambda t: 1.0 / (1.0 + t * t), lambda t: 1.0 / (1.0 + t * t), 1.0, 2.0),  # stops on a decaying tail
        (lambda t: t * t, lambda t: t * t, 1.0, 0.5),  # stops toward 0
        (lambda t: t, lambda t: t, 1.0, 2.0),  # stalls: the contributions grow
    ],
)
def test_geometric_matches_the_sequential_loop_bitwise(vector, scalar, start, factor):
    # rational integrands take the same values as numpy arrays and as floats, so the
    # result (or the partial sum of the error) must equal the panel-by-panel loop's
    def run(integrate, f):
        try:
            return integrate(f, start, factor, 1e-10)
        except IntegrationError as exc:
            return ("raised", exc.partial)

    got = run(integrate_geometric, lambda t, k: vector(t))
    assert got == run(scalar_simpson.integrate_geometric, scalar)


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
