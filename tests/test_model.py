import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from affine_ergo import measures
from affine_ergo.cli import main
from affine_ergo.errors import DomainError, ModelFormatError, UnsupportedMeasure
from affine_ergo.measures import _JSON_KEYS, LevyMeasure
from affine_ergo.model import ModelParams, load_model, save_model, validate


def make_params(**kw):
    base = dict(
        a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
        alpha=((0.25, 0.0), (0.0, 0.0)),
    )
    base.update(kw)
    return ModelParams(**base)


class TestParams:
    def test_sign_constraints(self):
        with pytest.raises(DomainError):
            make_params(a2=-1.0)
        with pytest.raises(DomainError):
            make_params(sigma=-0.1)
        with pytest.raises(DomainError):
            make_params(alpha=((0.1, -0.1), (0.0, 0.0)))

    def test_subcritical_flag(self):
        assert make_params(a1=2.0, b2=0.5).subcritical_strict
        assert not make_params(a1=1.0, b2=0.6).subcritical_strict
        assert not make_params(b2=0.0).subcritical_strict


def bundled(name):
    import importlib.resources

    return load_model(str(importlib.resources.files("affine_ergo") / "models" / f"{name}.json"))


def by_name(rep):
    return {c.name: c for c in rep.checks}


class TestValidate:
    def test_zero_measures_all_pass(self):
        rep = validate(make_params())
        assert rep.all_pass
        assert by_name(rep)["m_integrability"].value == 0.0
        assert by_name(rep)["n_integrability"].value == 0.0

    def test_subcriticality_failure(self):
        rep = validate(make_params(a1=1.0, b2=0.6))
        assert not by_name(rep)["subcriticality"].passed
        assert not rep.all_pass

    def test_log_moment_atom_at_e(self):
        n = LevyMeasure.atomic([(math.e, 0.0, 1.0)])
        rep = validate(make_params(n=n))
        assert by_name(rep)["n_log_moment"].value == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_density_fails_without_raising(self):
        # exp(z) overflows on [0, 800]: every n integral fails, with value inf
        n = LevyMeasure.from_json({
            "kind": "product",
            "z1": {"density": {"expr": "exp(z)", "domain": [0.0, 800.0], "nodes": 8}},
            "z2": {"atoms": [[0.0, 1.0]]},
        })
        with np.errstate(over="ignore"):
            rep = validate(make_params(n=n))
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"n_integrability", "n_log_moment", "n_z1_tail_moment"}
        assert all(by_name(rep)[name].value == math.inf for name in failed)
        assert {c["name"]: c["value"] for c in rep.to_json()["checks"]}["n_integrability"] is None

    @pytest.mark.parametrize("name", ["jump_cbi_ou", "gamma_imm"])
    def test_n_integrability_against_quad(self, name):
        # scipy quad on each side of the kinks at z1 = 1 and |z2| = 1
        from scipy.integrate import quad

        if name == "jump_cbi_ou":
            # z1 atoms (0, 0.5), (0.5, 0.5) times a standard normal z2 on [-5, 5]
            g = lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
            edges = ((-5.0, -1.0), (-1.0, 1.0), (1.0, 5.0))
            mass = sum(quad(g, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in edges)
            tail = sum(quad(lambda z: min(abs(z), z * z) * g(z), a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in edges)
            ref = 0.5 * tail + 0.5 * (0.5 * mass + tail)
        else:
            # exp(-z)/z on [0, 30] times a unit z2 atom at 0
            f = lambda z: min(1.0, z) * math.exp(-z) / z
            ref = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in ((0.0, 1.0), (1.0, 30.0)))
        assert by_name(validate(bundled(name)))["n_integrability"].value == pytest.approx(ref, rel=1e-12, abs=0)

    def test_grids_stay_small_on_bundled_models(self, monkeypatch):
        # the integrands' kinks lie on panel edges, so no tensor rule is refined far
        sizes = []

        def recording(rule, *args):
            def sized(level):
                cells = rule(level)
                if cells is not None:
                    sizes.append(cells[-1].size)
                return cells

            return converge(sized, *args)

        converge = measures._converge
        monkeypatch.setattr(measures, "_converge", recording)
        for name in ("cir_ou", "jump_cbi_ou", "gamma_imm"):
            assert validate(bundled(name)).all_pass
        assert 0 < max(sizes) <= 8192

    def test_repeated_calls_identical(self):
        p = make_params(m=LevyMeasure.atomic([(1.0, 0.5, 2.0)]))
        r1 = validate(p)
        r2 = validate(p)
        assert r1.to_json() == r2.to_json()


class TestIO:
    def test_round_trip(self, tmp_path):
        p = make_params(
            m=LevyMeasure.atomic([(0.5, 0.2, 0.8)]),
            n=LevyMeasure.atomic([(1.0, -0.3, 0.4)]),
        )
        path = tmp_path / "model.json"
        save_model(p, path)
        q = load_model(path)
        assert q.to_json() == p.to_json()

    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou", "gamma_imm"])
    def test_bundled_model_round_trip(self, tmp_path, name):
        import importlib.resources

        source = json.loads((importlib.resources.files("affine_ergo") / "models" / f"{name}.json").read_text())
        path = tmp_path / "model.json"
        save_model(bundled(name), path)
        assert json.loads(path.read_text()) == source
        assert load_model(path).to_json() == source

    @pytest.mark.parametrize("mu", [
        LevyMeasure.union([LevyMeasure.atomic([(1.0, 0.0, 1.0)]), bundled("jump_cbi_ou").n]),
        LevyMeasure.union([bundled("gamma_imm").n, bundled("jump_cbi_ou").n]),
        bundled("jump_cbi_ou").n.truncate_small(0.3),
    ], ids=["atoms-and-product", "two-products", "truncated-product"])
    def test_several_terms_are_not_written(self, mu):
        with pytest.raises(UnsupportedMeasure):
            mu.to_json()

    def test_bundled_models_load_and_pass(self):
        for name in ("cir_ou", "jump_cbi_ou", "gamma_imm"):
            assert validate(bundled(name)).all_pass, name

    def test_readme_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Model JSON schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        p = ModelParams.from_json(json.loads(block))
        mass = p.n.total_mass()
        assert math.isfinite(mass) and mass > 0

    @pytest.mark.parametrize("z2", [
        {"kind": "density", "expr": "exp(-z)", "domain": [0.0, 1.0], "nodes": 8},
        {"density": {"expr": "exp(-z)", "domain": [0.0, 1.0], "panels": 8}},
    ])
    def test_unknown_marginal_key_raises(self, z2):
        d = {"kind": "product", "z1": {"atoms": [[0.5, 1.0]]}, "z2": z2}
        with pytest.raises(ModelFormatError):
            LevyMeasure.from_json(d)

    @pytest.mark.parametrize("kind", ["poisson", ["atomic"], "density"])
    def test_unknown_kind_raises(self, kind):
        with pytest.raises(UnsupportedMeasure, match="'product'"):
            LevyMeasure.from_json({"kind": kind, "atoms": []})

    def test_readme_names_the_measure_kinds(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\nMeasure kinds:\n\n", 1)[1].split("\n\n", 1)[0]
        assert sorted(re.findall(r"^- `(\w+)`", section, flags=re.M)) == sorted(_JSON_KEYS)

    # edits of the bundled jump_cbi_ou model (atomic m, product n with a z2 density)
    BAD_KEYS = {
        "no_sigma": lambda d: d.pop("sigma"),
        "top_level_b3": lambda d: d.update(b3=1.0),
        "atom_for_atoms": lambda d: d["m"].update(atom=d["m"].pop("atoms")),
        "atomic_weights": lambda d: d["m"].update(weights=[1.0]),
        "product_no_z2": lambda d: d["n"].pop("z2"),
        "density_no_expr": lambda d: d["n"]["z2"]["density"].pop("expr"),
        "measure_not_object": lambda d: d.update(m=[]),
    }

    @staticmethod
    def bundled_json(name):
        import importlib.resources

        path = importlib.resources.files("affine_ergo") / "models" / f"{name}.json"
        return json.loads(path.read_text())

    @pytest.mark.parametrize("case", sorted(BAD_KEYS))
    def test_missing_or_unknown_key_raises(self, case):
        d = self.bundled_json("jump_cbi_ou")
        self.BAD_KEYS[case](d)
        with pytest.raises(ModelFormatError):
            ModelParams.from_json(d)

    # edits of the same model whose keys are right but whose values are not
    BAD_VALUES = {
        "alpha_one_entry": lambda d: d.update(alpha=[[0.1]]),
        "atom_of_two": lambda d: d["m"]["atoms"].append([0.5, 0.2]),
        "a1_string": lambda d: d.update(a1="abc"),
        "a2_null": lambda d: d.update(a2=None),
        "a1_numeric_string": lambda d: d.update(a1="2.0"),
        "a1_bool": lambda d: d.update(a1=True),
        "a1_nan_string": lambda d: d.update(a1="nan"),
        "a1_nan": lambda d: d.update(a1=math.nan),  # written as a bare NaN literal
        "nodes_float": lambda d: d["n"]["z2"]["density"].update(nodes=2.7),
        "atom_weight_string": lambda d: d["m"]["atoms"][0].__setitem__(2, "0.8"),
        "domain_of_one": lambda d: d["n"]["z2"]["density"].update(domain=[1.0]),
        "expr_syntax": lambda d: d["n"]["z2"]["density"].update(expr="exp("),
        "expr_open": lambda d: d["n"]["z2"]["density"].update(expr="open(z)"),
    }

    def test_integer_values_load(self):
        d = self.bundled_json("jump_cbi_ou")
        d.update(a1=2)
        d["m"]["atoms"][0][0] = 1
        p = ModelParams.from_json(d)
        assert (p.a1, p.m.atoms[0][0]) == (2.0, 1.0)
        assert isinstance(p.a1, float) and isinstance(p.m.atoms[0][0], float)

    @pytest.mark.parametrize("case", ["no_sigma", "atom_for_atoms", *sorted(BAD_VALUES), "not_json"])
    def test_cli_reports_bad_key(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        if case == "not_json":
            path.write_text("{")
        else:
            d = self.bundled_json("jump_cbi_ou")
            {**self.BAD_KEYS, **self.BAD_VALUES}[case](d)
            path.write_text(json.dumps(d))
        assert main(["--model", str(path), "--out", str(tmp_path / "out"), "validate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_schema_fields(self, tmp_path):
        p = make_params()
        path = tmp_path / "m.json"
        save_model(p, path)
        d = json.loads(path.read_text())
        assert set(d) == {"a1", "a2", "b0", "b1", "b2", "sigma", "alpha", "m", "n"}
