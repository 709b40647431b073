import math

import numpy as np
import pytest

from homsys import IntegrationError
from homsys.quadrature import adaptive_simpson, integrate_batch, integrate_geometric, integrate_panels


def test_simpson_exact_on_cubics():
    assert adaptive_simpson(lambda t: t**3 - 2.0 * t, 0.0, 2.0, 1e-12) == pytest.approx(0.0, abs=1e-12)


def test_panels_share_the_budget_and_skip_empty_spans():
    assert integrate_panels(math.exp, [0.0, 0.5, 0.5, 1.0], 1e-12) == pytest.approx(math.e - 1.0, abs=1e-11)
    assert integrate_panels(math.exp, [1.0], 1e-12) == 0.0


def test_toward_zero_log_singularity():
    assert integrate_geometric(lambda t: math.log(1.0 / t), 1.0, 0.5, 1e-10) == pytest.approx(1.0, abs=1e-8)


def test_toward_infinity_exponential_tail():
    got = integrate_geometric(lambda t: math.exp(-t), 1.0, 2.0, 1e-10)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_non_decaying_tail_raises_with_partial_sum():
    with pytest.raises(IntegrationError) as info:
        integrate_geometric(lambda t: 1.0, 1.0, 2.0, 1e-6)
    # panels [2^k, 2^(k+1)] contribute 2^k; the sixth growth in a row stops the loop
    assert info.value.partial == pytest.approx(127.0, rel=1e-12)


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
    a = np.array([0.0, -1.0, 0.25, 2.0, -3.0])
    b = np.array([1.0, 2.0, 0.75, 7.0, 0.3])
    tol = np.array([1e-12, 1e-10, 1e-8, 1e-12, 1e-9])
    got = integrate_batch(lambda t, k: vector(t), a, b, tol)
    want = np.array([adaptive_simpson(scalar, x, y, e) for x, y, e in zip(a, b, tol)])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_batch_passes_each_node_its_interval():
    # f(t, k) = k: the integral over interval k is k times its length
    a = np.array([0.0, 1.0, 5.0])
    b = np.array([1.0, 3.0, 5.5])
    got = integrate_batch(lambda t, k: k.astype(float), a, b, 1e-12)
    np.testing.assert_allclose(got, [0.0, 2.0, 1.0], rtol=1e-15)


def test_batch_empty_and_zero_width_intervals_give_zero():
    calls = []
    f = lambda t, k: calls.append(t.size) or np.ones_like(t)
    assert integrate_batch(f, np.array([]), np.array([]), 1e-12).shape == (0,)
    np.testing.assert_array_equal(integrate_batch(f, [1.0, 2.0, 0.0], [1.0, 1.0, 2.0], 1e-12), [0.0, 0.0, 2.0])
    assert integrate_batch(f, 0.5, 0.5, 1e-12) == 0.0 and calls == [3, 2]
