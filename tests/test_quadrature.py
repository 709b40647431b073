import math

import pytest

from homsys import IntegrationError
from homsys.quadrature import adaptive_simpson, integrate_geometric, integrate_panels


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
