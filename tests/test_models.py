import json
import math

import numpy as np
import pytest

from homsys import DomainError, ModelSpec, builtin, classify, parse_model
from homsys.hfun import F_HIP_PLUS, F_MAX, F_MIN, F_SUM
from homsys.hfun import HFunction, asym_tent, g_softplus, g_table
from homsys.models import invert_model, model_digest, model_to_dict, resolve_scaling
from homsys.moments import c_star

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

    @pytest.mark.parametrize("name, params", [("hipster", {"p": 0.3}), ("resistance", {"q": 0.9}),
                                              ("power_mean", {"p": 0.5}), ("distance", {"p": 0.5, "atoms": ()})])
    def test_a_parameter_the_model_does_not_take_is_rejected(self, name, params):
        with pytest.raises(DomainError):
            builtin(name, **params)

    def test_power_mean_guard(self):
        with pytest.raises(DomainError):
            builtin("power_mean", atoms=((1.0, 1e-4),))

    def test_weights_validated(self):
        with pytest.raises(DomainError):
            ModelSpec(((0.5, F_SUM), (0.4, F_MIN)))
        with pytest.raises(DomainError):
            ModelSpec(((-0.5, F_SUM), (1.5, F_MIN)))

    @pytest.mark.parametrize("atoms", [((math.nan, F_SUM),), ((math.nan, F_SUM), (1.0, F_MIN)),
                                       ((math.inf, F_SUM),), ((1.0, F_SUM), (math.nan, F_MIN))])
    def test_weights_must_be_finite(self, atoms):
        # a NaN passes both w <= 0 and |sum - 1| > tol as False
        with pytest.raises(DomainError, match="finite and positive"):
            ModelSpec(atoms)

    def test_a_model_is_its_atoms(self):
        named, unnamed = builtin("distance", p=0.5), ModelSpec(builtin("distance", p=0.5).atoms)
        assert named == unnamed and hash(named) == hash(unnamed) and named.name != unnamed.name
        assert named != builtin("distance", p=0.25)


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

    @pytest.mark.parametrize("name, params, constant", [("lazy_hipster", {}, 2.0),
                                                        ("distance", {"p": 0.5}, math.pi**2 / 6.0)])
    def test_known_constants_go_by_the_atoms_not_the_name(self, name, params, constant):
        model = builtin(name, **params)
        unnamed = parse_model(json.dumps({"atoms": model_to_dict(model)["atoms"]}))
        assert unnamed.name == "" and resolve_scaling(unnamed) == resolve_scaling(model) == ("linear_half", constant, 0.5)

    @pytest.mark.parametrize("atoms, constant", [
        (((0.5, F_MIN), (0.5, F_HIP_PLUS)), 2.0),
        (((0.5, F_HIP_PLUS), (0.25, F_MIN), (0.25, F_MIN)), 2.0),
        (((0.25, F_MIN), (0.5, F_HIP_PLUS), (0.25, F_MIN)), 2.0),
        (((0.5, F_MIN), (0.5, F_SUM)), math.pi**2 / 6.0),
    ])
    def test_known_constants_go_by_the_law_not_the_atom_order(self, atoms, constant):
        # lazy_hipster and distance(0.5) with their atoms swapped, or the min atom split in two
        assert resolve_scaling(ModelSpec(atoms)) == ("linear_half", constant, 0.5)

    def test_a_borrowed_name_gets_no_constant(self):
        # a sqrt-regime model named like a known one, with other atoms
        model = ModelSpec(((0.5, asym_tent(1.0, 0.5)), (0.5, F_MIN)), "distance(0.5)")
        assert classify(model).regime == "sqrt"
        with pytest.raises(DomainError, match="no limit law known"):
            resolve_scaling(model)

    def test_resolved_constant_is_c_star(self):
        # evolve and simulate rescale by the c* that gamma and lambda-check report, bit for bit
        model = builtin("resistance", p=0.5)
        assert resolve_scaling(model)[1] == c_star(model)


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
    models.append(ModelSpec(((0.5, asym_tent(0.5, 0.8, eps=-1)), (0.5, HFunction(+1, table))), "tent+table"))
    models.append(ModelSpec(((1.0, HFunction(-1, table)),)))
    # softplus scales below the power_mean range, which is limited to |alpha| >= 1e-3
    small = g_softplus(5e-4)
    models.append(ModelSpec(((0.5, HFunction(+1, small)), (0.5, HFunction(-1, small))), "small softplus"))
    return models


class TestSchema:
    @pytest.mark.parametrize("model", _round_trip_models(), ids=lambda m: m.name or "unnamed")
    def test_parse_inverts_to_dict(self, model):
        back = parse_model(json.dumps(model_to_dict(model)))
        assert back == model
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
