import numpy as np
import pytest

from homsys import DomainError
from homsys import proofcheck

PARAMS = proofcheck.ProofParams(c_star=4.5)


def test_closed_form_cdf_matches_quadrature():
    row = proofcheck.schedule(PARAMS, 1000)
    vs = np.linspace(-row.sigma_tilde - 1.0, row.sigma + 1.0, 25)
    for v in vs:
        assert proofcheck.psi_n_quadrature(row, float(v)) == pytest.approx(float(proofcheck.Psi_n(row, v)), abs=1e-10)
    assert proofcheck.Psi_n(row, 0.0) == 0.5


@pytest.mark.parametrize("n", [1000, 10**4, 10**5, 10**6])
def test_schedule_ordering_and_normalisation(n):
    r = proofcheck.schedule(PARAMS, n)
    assert r.sigma <= r.sigma_tilde < r.tau_tilde <= r.tau
    assert r.a_tilde * r.tau_tilde**2 == pytest.approx(r.a * r.tau**2, rel=1e-14)
    assert 0.0 < r.q < PARAMS.delta1 and r.beta > 0.0


def test_q_increment_matches_difference():
    n = 5000
    direct = proofcheck.schedule(PARAMS, n + 1).q - proofcheck.schedule(PARAMS, n).q
    assert proofcheck.q_increment(PARAMS, n) == pytest.approx(direct, rel=1e-6)


def test_parameter_intervals_checked():
    with pytest.raises(DomainError):
        proofcheck.ProofParams(c_star=4.5, delta1=0.1)
    with pytest.raises(DomainError):
        proofcheck.ProofParams(c_star=0.0)
