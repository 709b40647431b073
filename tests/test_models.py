import json
import math

import numpy as np
import pytest

from homsys import DomainError, ModelSpec, builtin, classify, parse_model, sample_f
from homsys.hfun import F_HIP_PLUS, F_MAX, F_MIN, F_SUM
from homsys.hfun import asym_tent, from_g, g_softplus, g_table
from homsys.models import invert_model, model_digest, model_to_dict, sample_indices

PI2_12 = math.pi**2 / 12.0


class TestBuiltin:
    def test_resistance_atoms(self):
        m = builtin("resistance", p=0.5)
        assert [w for w, _ in m.atoms] == [0.5, 0.5]
        assert [f.eps for _, f in m.atoms] == [1, -1]

    def test_hipster_atoms(self):
        m = builtin("hipster")
        assert {f.label for _, f in m.atoms} == {"hipster+", "hipster-"}

    def test_lazy_hipster_atoms(self):
        m = builtin("lazy_hipster")
        labels = {f.label for _, f in m.atoms}
        assert labels == {"hipster+", "min"}

    def test_bad_p(self):
        with pytest.raises(DomainError):
            builtin("resistance", p=1.5)

    def test_power_mean_guard(self):
        with pytest.raises(DomainError):
            builtin("power_mean", atoms=((1.0, 1e-4),))

    def test_weights_validated(self):
        with pytest.raises(DomainError):
            ModelSpec(((0.5, F_SUM), (0.4, F_MIN)))
        with pytest.raises(DomainError):
            ModelSpec(((-0.5, F_SUM), (1.5, F_MIN)))


class TestClassify:
    def test_hipster_cbrt(self):
        rep = classify(builtin("hipster"))
        assert rep.regime == "cbrt"
        assert abs(rep.e_gamma01_eps) < 1e-8
        assert rep.p == 0.5

    def test_resistance_critical_cbrt(self):
        rep = classify(builtin("resistance", p=0.5))
        assert rep.regime == "cbrt"
        assert abs(rep.e_eps) < 1e-12

    def test_lazy_hipster_sqrt(self):
        rep = classify(builtin("lazy_hipster"))
        assert rep.regime == "sqrt"
        assert rep.alpha_plus == pytest.approx(0.5, abs=1e-9)
        assert rep.alpha_minus == 0.0

    def test_distance_subcritical_bounded(self):
        rep = classify(builtin("distance", p=0.4))
        assert rep.regime == "bounded"
        assert rep.alpha_plus == pytest.approx(PI2_12, abs=1e-8)
        assert rep.alpha_minus == 0.0

    def test_distance_supercritical_linear(self):
        assert classify(builtin("distance", p=0.7)).regime == "linear"

    def test_resistance_offcritical_linear(self):
        assert classify(builtin("resistance", p=0.3)).regime == "linear"

    def test_degenerate_unknown(self):
        rep = classify(ModelSpec(((0.5, F_MAX), (0.5, F_MIN))))
        assert rep.regime == "unknown"
        assert not rep.nontrivial

    def test_inversion_duality(self):
        for name, kw in [("distance", {"p": 0.4}), ("lazy_hipster", {}), ("resistance", {"p": 0.3})]:
            m = builtin(name, **kw)
            a, b = classify(m), classify(invert_model(m))
            assert b.p == pytest.approx(1.0 - a.p, abs=1e-12)
            assert b.alpha_plus == pytest.approx(a.alpha_minus, abs=1e-9)
            assert b.alpha_minus == pytest.approx(a.alpha_plus, abs=1e-9)
            assert b.e_eps == pytest.approx(-a.e_eps, abs=1e-12)
            assert b.e_gamma01_eps == pytest.approx(-a.e_gamma01_eps, abs=1e-7)
            flip = {"bounded": "bounded", "linear": "linear", "sqrt": "sqrt", "cbrt": "cbrt", "unknown": "unknown"}
            assert b.regime == flip[a.regime]


class TestSampling:
    def test_single_atom(self):
        m = ModelSpec(((1.0, F_SUM),))
        rng = np.random.default_rng(0)
        assert all(sample_f(m, rng) == 0 for _ in range(10))

    def test_deterministic_given_state(self):
        m = builtin("hipster")
        a = sample_indices(m, np.random.default_rng(42), 100)
        b = sample_indices(m, np.random.default_rng(42), 100)
        assert np.array_equal(a, b)

    def test_weights_frequencies(self):
        m = builtin("distance", p=0.3)
        idx = sample_indices(m, np.random.default_rng(7), 1_000_000)
        freq = float(np.mean(idx == 0))
        sigma = math.sqrt(0.3 * 0.7 / 1_000_000)
        assert abs(freq - 0.3) < 4 * sigma


class TestParsing:
    def test_shorthand(self):
        assert parse_model("hipster").name == "hipster"
        assert parse_model("resistance(0.25)").atoms[0][0] == 0.25
        assert parse_model("power_mean(1,-1)").name.startswith("power_mean")

    def test_json_literal(self):
        m = parse_model(json.dumps({"name": "x", "atoms": [
            {"weight": 0.5, "family": "hipster+"}, {"weight": 0.5, "family": "min"}]}))
        assert m.atoms[0][1].label == "hipster+"

    def test_json_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"atoms": [{"weight": 1.0, "family": "tent", "s_plus": 0.5, "s_minus": 0.5}]}))
        m = parse_model(str(p))
        assert m.atoms[0][1].g.params == (0.5, 0.5)

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            parse_model("frobnicate")

    def test_digest_stable(self):
        assert model_digest(builtin("hipster")) == model_digest(builtin("hipster"))
        assert model_digest(builtin("hipster")) != model_digest(builtin("lazy_hipster"))

    def test_round_trip_dict(self):
        m = builtin("power_mean", atoms=((0.25, 2.0), (0.75, -1.5)))
        d = model_to_dict(m)
        assert [a["weight"] for a in d["atoms"]] == [0.25, 0.75]


def _round_trip_models():
    table = g_table(np.linspace(-2.0, 2.0, 9), [0.0, 0.3, 0.8, 1.2, 1.5, 1.1, 0.6, 0.2, 0.0])
    models = [builtin(name) for name in ("resistance", "distance", "hipster", "lazy_hipster", "power_mean")]
    models.append(builtin("power_mean", atoms=((0.25, 2.0), (0.75, -1.5))))
    models.append(ModelSpec(((0.5, asym_tent(0.5, 0.8, eps=-1)), (0.5, from_g(table, +1))), "tent+table"))
    models.append(ModelSpec(((1.0, from_g(table, -1)),)))
    # softplus scales below the power_mean range, which is limited to |alpha| >= 1e-3
    small = g_softplus(5e-4)
    models.append(ModelSpec(((0.5, from_g(small, +1)), (0.5, from_g(small, -1))), "small softplus"))
    return models


class TestSchema:
    @pytest.mark.parametrize("model", _round_trip_models(), ids=lambda m: m.name or "unnamed")
    def test_parse_inverts_to_dict(self, model):
        back = parse_model(json.dumps(model_to_dict(model)))
        assert back.name == model.name
        assert [w for w, _ in back.atoms] == [w for w, _ in model.atoms]
        for f, g in zip(back.functions, model.functions):
            assert f.eps == g.eps
            assert f.g.family == g.g.family
            assert f.g.params == g.g.params
            if g.g.family == "table":
                assert np.array_equal(f.g.grid, g.g.grid)
                assert np.array_equal(f.g.values, g.g.values)
        assert model_digest(back) == model_digest(model)

    @pytest.mark.parametrize(
        "text",
        [
            '{"atoms":[{"weight":1}]}',
            '{"atoms":[{"family":"min"}]}',
            '{"atoms":5}',
            '{"atoms":[{"weight":"heavy","family":"min"}]}',
            '{"atoms":[{"weight":1,"family":"power_mean"}]}',
            '{"atoms":[',
            "resistance(half)",
        ],
    )
    def test_malformed_spec_is_domain_error(self, text):
        with pytest.raises(DomainError):
            parse_model(text)
