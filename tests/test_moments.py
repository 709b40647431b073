import math

import numpy as np
import pytest

from homsys import (
    F_HIP_MINUS,
    F_HIP_PLUS,
    F_MAX,
    F_MIN,
    F_PARALLEL,
    F_SUM,
    DegenerateModelError,
    ModelSpec,
    asym_tent,
    alpha,
    c_star,
    check_ipp,
    gamma,
    m_eta,
    moment_table,
    power_mean,
    t_of,
)
from homsys import moments
from homsys.hfun import from_g, g_table
from homsys.models import builtin, classify, invert_model, parse_model
from test_proofcheck import TABLE_JUMP, TWO_TABLES

# frozen oracle values (series / high-precision quadrature)
ZETA2 = 1.6449340668482264365  # sum 1/k^2
ZETA3 = 1.2020569031595942854  # sum 1/k^3
TWO_ZETA4 = 2.1646464674222764  # 2 sum 1/k^4
G03_SUM = 6.4939394022668291  # integral of (-log(1-e^-t))^3 = pi^4/15
ALPHA_SUM = 0.8224670334241132  # sum (-1)^(k+1)/k^2 = pi^2/12


class TestGamma:
    def test_hip_values(self):
        for f in (F_HIP_PLUS, F_HIP_MINUS):
            assert gamma(f, 0, 2) == pytest.approx(1.0, abs=1e-9)
            assert gamma(f, 1, 1) == pytest.approx(0.5, abs=1e-9)

    def test_max_min_vanish(self):
        assert gamma(F_MAX, 0, 1) == 0.0
        assert gamma(F_MIN, 2, 3) == 0.0

    def test_sum_series_oracles(self):
        assert gamma(F_SUM, 0, 1) == pytest.approx(ZETA2, abs=1e-8)
        assert gamma(F_SUM, 1, 1) == pytest.approx(ZETA3, abs=1e-8)
        assert gamma(F_SUM, 2, 1) == pytest.approx(TWO_ZETA4, abs=1e-8)
        assert gamma(F_SUM, 0, 2) == pytest.approx(2 * ZETA3, abs=1e-8)

    def test_tent_elementary_oracles(self):
        # T = 1 on (0,1], 2-t on (1,2] for slopes (1, 1/2); swap has T = (2-t) on (0,1]
        f = asym_tent(1.0, 0.5)
        assert gamma(f, 0, 1) == pytest.approx(1.5, abs=1e-9)
        assert gamma(f, 1, 1) == pytest.approx(7.0 / 6.0, abs=1e-9)
        assert gamma(f, 0, 2) == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert gamma(f.swap(), 1, 1) == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert gamma(f.swap(), 0, 2) == pytest.approx(7.0 / 3.0, abs=1e-9)

    def test_power_mean_scaling(self):
        # T_alpha(t) = alpha T_1(t/alpha) so gamma scales by alpha^(a+b+1)
        a = 1.7
        assert gamma(power_mean(a), 1, 1) == pytest.approx(a**3 * ZETA3, abs=1e-7)
        assert gamma(power_mean(-a), 1, 1) == pytest.approx(a**3 * ZETA3, abs=1e-7)

    def test_invariance_under_invert_and_star(self):
        for f in (F_SUM, F_HIP_PLUS, asym_tent(0.9, 0.4)):
            base = gamma(f, 1, 1)
            assert gamma(f.invert(), 1, 1) == pytest.approx(base, abs=1e-8)

    @pytest.mark.parametrize("scale", [1e-3, 0.3, 1.0, 2.5, 5.0])
    def test_softplus_top_edge_is_where_t_underflows(self, scale, monkeypatch):
        # the last panel edge is the first doubling of 2r where T is exactly 0; below it T > 0
        edges = []
        monkeypatch.setattr(moments, "integrate_panels", lambda h, e, tol: edges.append(e) or 0.0)
        gamma(power_mean(scale), 0.0, 1.0)
        top = edges[0][-1]
        assert t_of(power_mean(scale), top) == 0.0 < t_of(power_mean(scale), 0.5 * top)

    @pytest.mark.parametrize(
        "f",
        [F_SUM, F_PARALLEL, F_MAX, F_MIN, F_HIP_PLUS, F_HIP_MINUS, power_mean(1.7), power_mean(-0.001),
         asym_tent(1.0, 0.5), asym_tent(0.3, 0.8, -1)]
        + [f for spec in (TWO_TABLES, TABLE_JUMP) for _, f in parse_model(spec).atoms],
        ids=repr,
    )
    def test_gamma01_is_the_area_of_the_profile(self, f):
        # Gamma^(0,1) is the area under T, which the shear u = z - t maps onto the area under g
        assert gamma(f, 0.0, 1.0) == pytest.approx(alpha(f.g) + alpha(f.g.reflected()), abs=1e-10)

    @pytest.mark.parametrize(
        "spec", [pytest.param(TWO_TABLES, id="two_tables"), pytest.param(TABLE_JUMP, id="table_jump")]
    )
    def test_table_panels_stay_above_the_depth_limit(self, spec, monkeypatch):
        # a table's kinks and jumps are panel edges, so the quadrature refines a few levels at most;
        # refining to its depth limit 48 takes 49 integrand calls
        calls = []
        panels = moments.integrate_panels

        def counted(h, edges, tol):
            calls.append(0)

            def g(t, k):
                calls[-1] += 1
                return h(t, k)

            return panels(g, edges, tol)

        monkeypatch.setattr(moments, "integrate_panels", counted)
        for _, f in parse_model(spec).atoms:
            for a, b in [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (1.5, 1.0)]:
                gamma(f, a, b)
        assert max(calls) <= 10

    def test_sum_atom_lands_on_its_closed_forms(self):
        # on panels where T is smooth the quadrature is far more accurate than MOMENT_TOL
        assert abs(gamma(F_SUM, 0, 1) - ZETA2) <= 1e-14
        assert abs(c_star(builtin("resistance", p=0.5)) - 9.0 * ZETA3) <= 1e-13

    def test_c_star_of_resistance_takes_few_integrand_calls(self, monkeypatch):
        # Gamma^(0,2) and Gamma^(1,1), once each (both atoms share them), at a level or two each;
        # 20 integrand calls under Simpson
        calls = []
        panels = moments.integrate_panels

        def counted(h, edges, tol):
            def g(t, k):
                calls.append(t.size)
                return h(t, k)

            return panels(g, edges, tol)

        monkeypatch.setattr(moments, "integrate_panels", counted)
        c_star(builtin("resistance", p=0.5))
        assert len(calls) <= 10

    def test_pointwise_bound(self):
        # sup t^(a+1) T(t)^b <= (a+1) gamma(a,b)
        for f in (F_SUM, F_HIP_PLUS, asym_tent(1.0, 0.5)):
            for a, b in [(0.0, 1.0), (1.0, 1.0), (0.0, 2.0)]:
                g = gamma(f, a, b)
                for t in np.linspace(0.05, 6.0, 40):
                    assert t ** (a + 1) * t_of(f, t) ** b <= (a + 1) * g + 1e-8


class TestMEta:
    def test_hip(self):
        assert m_eta(F_HIP_PLUS, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_min_zero(self):
        assert m_eta(F_MIN, 1.0) == 0.0

    def test_sum(self):
        assert m_eta(F_SUM, 1.0) == pytest.approx(G03_SUM, abs=1e-7)

    def test_eta_range(self):
        with pytest.raises(Exception):
            m_eta(F_SUM, 1.5)

    def test_interpolation_bound(self):
        # gamma(a,b) <= 2 m_eta / r^(2+eta-a-b) for a in [0,1+eta], b in [1,2+eta]
        eta = 1.0
        for f in (F_SUM, F_HIP_PLUS, asym_tent(1.0, 0.5)):
            m = m_eta(f, eta)
            r = f.r
            for a, b in [(0.0, 1.0), (1.0, 1.0), (0.5, 2.0), (2.0, 1.0), (0.0, 3.0)]:
                assert gamma(f, a, b) <= 2.0 * m / r ** (2.0 + eta - a - b) + 1e-8


class TestAlpha:
    def test_hip_triangle(self):
        assert alpha(F_HIP_PLUS.g) == pytest.approx(0.5, abs=1e-10)

    def test_zero(self):
        assert alpha(F_MAX.g) == 0.0

    def test_sum(self):
        assert alpha(F_SUM.g) == pytest.approx(ALPHA_SUM, abs=1e-9)

    def test_closed_forms(self):
        # softplus a log(1 + e^-z/a): a^2 pi^2/12; tent: the triangle 1/(2 s_plus); a table: its polygon
        for scale in (1e-3, 0.3, 2.5):
            assert alpha(power_mean(scale).g) == pytest.approx(scale**2 * math.pi**2 / 12.0, rel=1e-15)
        assert alpha(asym_tent(0.4, 0.9).g) == 1.25
        assert alpha(asym_tent(0.4, 0.9).g.reflected()) == pytest.approx(1.0 / 1.8, rel=1e-15)
        odd = g_table([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 0.5, 0.8, 0.3, 0.0])  # 0 a node: 0.25 (0.8 + 0.3) + 0.25 0.3
        assert alpha(odd) == pytest.approx(0.35, rel=1e-15)
        assert alpha(odd.reflected()) == pytest.approx(0.25 * 1.3 + 0.25 * 0.5, rel=1e-15)
        # 0 mid-cell; a valid profile is flat on the cell that holds 0 (a rise there breaks a side's monotonicity)
        even = g_table([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5], [0.0, 0.3, 0.7, 0.7, 0.2, 0.0])
        assert alpha(even) == pytest.approx(0.5 * 0.7 + 0.5 * (0.7 + 0.2) + 0.5 * 0.2, rel=1e-15)
        assert alpha(g_table([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])) == 0.0


class TestCStar:
    def test_hipster(self):
        assert c_star(builtin("hipster")) == pytest.approx(4.5, abs=1e-8)

    def test_resistance(self):
        assert c_star(builtin("resistance", p=0.5)) == pytest.approx(9 * ZETA3, abs=1e-6)

    def test_power_mean_matches_resistance(self):
        a = c_star(builtin("power_mean", atoms=((0.5, 1.0), (0.5, -1.0))))
        b = c_star(builtin("resistance", p=0.5))
        assert a == pytest.approx(b, abs=1e-6)

    def test_degenerate_rejected(self):
        trivial = ModelSpec(((0.5, F_MAX), (0.5, F_MIN)))
        with pytest.raises(DegenerateModelError):
            c_star(trivial)

    def test_invariant_under_model_inversion(self):
        m = builtin("lazy_hipster")
        assert c_star(invert_model(m)) == pytest.approx(c_star(m), abs=1e-7)


class TestGammas:
    def test_atoms_sharing_a_crossing_function_share_one_gamma(self, monkeypatch):
        calls = []
        monkeypatch.setattr(moments, "gamma", lambda f, a, b: calls.append(f) or float(len(calls)))
        assert moments.gammas([F_SUM, F_PARALLEL, power_mean(0.3), power_mean(-0.3)], 0.0, 1.0) == [1.0, 1.0, 2.0, 2.0]
        assert moments.gammas([F_HIP_PLUS, F_HIP_MINUS], 0.0, 1.0) == [3.0, 3.0]

    def test_two_table_atoms_keep_their_own_gamma(self):
        grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
        tall = from_g(g_table(grid, [0.0, 0.5, 1.0, 0.5, 0.0]), +1, "tall")
        low = from_g(g_table(grid, [0.0, 0.25, 0.5, 0.25, 0.0]), -1, "low")
        assert tall.g_star == low.g_star  # GFunction == does not compare table values
        model = ModelSpec(((0.5, tall), (0.5, low)))
        each = [(gamma(f, 0.0, 2.0), gamma(f, 1.0, 1.0), gamma(f, 0.0, 1.0)) for f in (tall, low)]
        assert each[0] != each[1]
        assert c_star(model) == 2.25 * (0.5 * (each[0][0] + 2.0 * each[0][1]) + 0.5 * (each[1][0] + 2.0 * each[1][1]))
        assert classify(model).e_gamma01_eps == 0.5 * each[0][2] - 0.5 * each[1][2]


class TestIPP:
    def test_hip_both_sides_one(self):
        assert check_ipp(F_HIP_PLUS, 1, 2) == pytest.approx(0.0, abs=1e-8)

    def test_max_trivial(self):
        assert check_ipp(F_MAX, 2, 2) == 0.0

    def test_asymmetric_tent(self):
        assert abs(check_ipp(asym_tent(1.0, 0.5), 2, 1)) < 1e-8

    def test_symmetric_relation(self):
        # swap(f) = f implies gamma(0,2) = 2 gamma(1,1)
        for f in (F_SUM, F_HIP_PLUS, power_mean(1.7)):
            assert gamma(f, 0, 2) == pytest.approx(2 * gamma(f, 1, 1), abs=1e-7)


class TestMomentTable:
    def test_fields_and_invariants(self):
        t = moment_table(F_HIP_PLUS, eta=1.0)
        assert t.gamma01 == pytest.approx(1.0, abs=1e-9)
        assert t.m_eta == max(t.gamma_1eta_1, t.gamma_0_2eta)
        assert t.r ** (3.0 + t.eta) <= t.m_eta * (1 + 1e-9) + 1e-12

    def test_all_zero_only_for_max_min(self):
        t = moment_table(F_MIN)
        assert t.gamma01 == t.gamma02 == t.gamma11 == 0.0
        t2 = moment_table(asym_tent(0.5, 0.5))
        assert t2.gamma01 > 0
