import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import affine_ergo
from affine_ergo.cli import cli, main
from affine_ergo.measures import GAUSS_ORDER, NODE_CAP
from affine_ergo.model import ModelParams, save_model


@pytest.fixture
def bad_model(tmp_path):
    # subcriticality fails: 2 b2 >= a1
    p = ModelParams(a1=1.0, a2=0.5, b0=0.2, b1=0.3, b2=0.6, sigma=0.5,
                    alpha=((0.25, 0.0), (0.0, 0.0)))
    path = tmp_path / "bad.json"
    save_model(p, path)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_validate_bundled_ok(self, tmp_path):
        assert run("--model", "cir_ou", "--out", str(tmp_path), "validate") == 0

    def test_validate_strict_failure(self, bad_model, tmp_path):
        assert run("--model", bad_model, "--out", str(tmp_path), "--strict", "validate") == 2

    def test_validate_nonstrict_failure_is_zero(self, bad_model, tmp_path):
        assert run("--model", bad_model, "--out", str(tmp_path), "validate") == 0

    def test_unknown_flag(self):
        assert run("--no-such-flag") == 64

    def test_unknown_subcommand(self):
        assert run("frobnicate") == 64

    def test_missing_model(self, tmp_path):
        assert run("--model", "no_such_model", "--out", str(tmp_path), "validate") == 64

    def test_model_required(self, tmp_path):
        assert run("--out", str(tmp_path), "validate") == 64

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_threads_env(self, value, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFINE_ERGO_THREADS", value)
        assert run("--model", "cir_ou", "--out", str(tmp_path), "validate") == 64
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,name", [
        (("solve-riccati", "--grid", "0"), "--grid"),
        (("solve-riccati", "--grid", "-3"), "--grid"),
        (("vbar", "--tmin", "0"), "--tmin"),
        (("vbar", "--n", "0"), "--n"),
        (("vbar", "--n", "1"), "--n"),
        (("vbar", "--tmin", "5", "--tmax", "1"), "--tmax"),
        (("vbar", "--tmax", "1", "--tmin", "1"), "--tmax"),
        (("vbar", "--tmax", "inf"), "--tmax"),
    ])
    def test_bad_grid_flag(self, flags, name, tmp_path, capsys):
        assert run("--model", "cir_ou", "--out", str(tmp_path), *flags) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{name}'" in err.splitlines()[0]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("given,missing", [("--sigma-k-mass", "--lambda-k"), ("--lambda-k", "--sigma-k-mass")])
    def test_lemma51_constants_come_together(self, given, missing, tmp_path, capsys):
        # one of the two would leave the bound column empty with no violation flagged
        assert run("--model", "cir_ou", "--out", str(tmp_path), "strong-feller", given, "2") == 64
        assert capsys.readouterr().err.startswith(f"error: Missing option '{missing}'.")
        assert not any(tmp_path.iterdir())

    def test_threads_env_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AFFINE_ERGO_THREADS", "2")
        assert run("--model", "cir_ou", "--out", str(tmp_path), "validate") == 0
        assert json.loads((tmp_path / "manifest_validate.json").read_text())["threads"] == 2


def test_all_names_resolve():
    # a stale export would otherwise fail only at `from affine_ergo import *`
    assert [n for n in affine_ergo.__all__ if not hasattr(affine_ergo, n)] == []


def test_charfn_divergent_model_exits_1(tmp_path):
    # z1-density 1/z1^2 on (0, 1] in n: the transform's quadrature cannot converge
    d = ModelParams(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                    alpha=((0.25, 0.0), (0.0, 0.0))).to_json()
    d["n"] = {"kind": "product",
              "z1": {"density": {"expr": "1/(z*z)", "domain": [0.0, 1.0], "nodes": 64}},
              "z2": {"atoms": [[0.0, 1.0]]}}
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(d))
    assert run("--model", str(path), "--out", str(tmp_path), "charfn") == 1


@pytest.mark.parametrize("strict,code", [((), 0), (("--strict",), 2)])
def test_validate_overflowing_density_reports_failure(strict, code, tmp_path):
    # z1-density exp(z) on [0, 800] in n overflows: the n checks fail, nothing raises
    d = ModelParams(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                    alpha=((0.25, 0.0), (0.0, 0.0))).to_json()
    d["n"] = {"kind": "product",
              "z1": {"density": {"expr": "exp(z)", "domain": [0.0, 800.0], "nodes": 8}},
              "z2": {"atoms": [[0.0, 1.0]]}}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert run("--model", str(path), "--out", str(out), *strict, "validate") == code
    checks = {c["name"]: c for c in json.loads((out / "validate.json").read_text())["checks"]}
    assert checks["n_integrability"]["value"] is None and not checks["n_integrability"]["pass"]
    assert json.loads((out / "manifest_validate.json").read_text())["outputs"] == ["validate.json"]


class TestCharfnGolden:
    def test_cir_closed_form_value(self, tmp_path, capsys):
        # closed-form transform for the bundled diffusion model at
        # u = (-1, 0), t = 1, x = (1, 0)
        a1, a2, alpha, u1, t = 2.0, 0.5, 0.25, -1.0, 1.0
        e = math.exp(-a1 * t)
        v1 = u1 * e / (1.0 - alpha * u1 * (1.0 - e) / a1)
        # int_0^t a2 V1(s) ds has closed form via substitution
        # d/ds log(1 - alpha u1 (1 - e^{-a1 s})/a1) = -alpha V1(s)
        psi_int = (a2 / alpha) * math.log(1.0 - alpha * u1 * (1.0 - e) / a1) * -1.0
        golden = math.exp(v1 + psi_int)
        rc = run("--model", "cir_ou", "--out", str(tmp_path), "charfn",
                 "--t", "1", "--u1", "-1", "--u2i", "0")
        assert rc == 0
        payload = json.loads((tmp_path / "charfn.json").read_text())
        assert payload["re"] == pytest.approx(golden, rel=1e-7)
        assert payload["im"] == pytest.approx(0.0, abs=1e-10)

    def test_solver_diagnostics(self, tmp_path):
        from affine_ergo.cli import _resolve_model
        from affine_ergo.mechanisms import UPoint
        from affine_ergo.riccati import solve_V

        assert run("--model", "jump_cbi_ou", "--out", str(tmp_path), "charfn", "--u2i", "0.5") == 0
        payload = json.loads((tmp_path / "charfn.json").read_text())
        sol = solve_V(affine_ergo.load_model(_resolve_model("jump_cbi_ou")), UPoint(-1.0, 0.5j), 1.0)
        # the value is read at the solve's horizon, where no dense stage runs
        assert {k: payload[k] for k in ("nfev", "dense_nfev", "nsteps", "clamped")} == {
            "nfev": sol.nfev, "dense_nfev": 0, "nsteps": sol.nsteps, "clamped": False}

    @pytest.mark.parametrize("flags", [["--u1", "nan"], ["--u2i", "nan"], ["--u1", "-inf"], ["--u2i", "inf"]])
    def test_non_finite_u_exits_1(self, tmp_path, capsys, flags):
        assert run("--model", "cir_ou", "--out", str(tmp_path), "charfn", *flags) == 1
        assert "u1 and u2 must be finite" in capsys.readouterr().err


class TestOutputs:
    def test_manifest_written(self, tmp_path):
        run("--model", "cir_ou", "--out", str(tmp_path), "validate")
        man = json.loads((tmp_path / "manifest_validate.json").read_text())
        assert man["subcommand"] == "validate"
        assert len(man["model_sha256"]) == 64
        assert man["outputs"] == ["validate.json"]
        # read from the source tree, so an uninstalled checkout records it too
        assert man["version"] == affine_ergo.__version__

    def test_simulate_csv_shape(self, tmp_path):
        rc = run("--model", "cir_ou", "--seed", "3", "--out", str(tmp_path),
                 "simulate", "--paths", "10", "--dt", "0.05", "--t", "0.5",
                 "--record", "0.25", "--record", "0.5")
        assert rc == 0
        with open(tmp_path / "paths.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "t", "Y", "Z"]
        assert len(rows) == 1 + 10 * 2
        # ordered by path_id then t
        ids = [int(r[0]) for r in rows[1:]]
        assert ids == sorted(ids)

    def test_couple_csv(self, tmp_path):
        rc = run("--model", "cir_ou", "--seed", "3", "--out", str(tmp_path),
                 "couple", "--paths", "10", "--dt", "0.05", "--t", "0.5")
        assert rc == 0
        with open(tmp_path / "coupled.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["path_id", "t", "Yx", "Zx"]

    def test_couple_columns_follow_the_flags(self, tmp_path):
        # x below y: the Yx/Zx columns hold the path started at x = (1, 0)
        rc = run("--model", "cir_ou", "--seed", "3", "--out", str(tmp_path), "couple", "--paths", "10",
                 "--dt", "0.05", "--t", "0.05", "--x1", "1", "--x2", "0", "--y1", "2", "--y2", "5")
        assert rc == 0
        with open(tmp_path / "coupled.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["Yx"]) < float(r["Yy"]) and float(r["Zx"]) < float(r["Zy"]) for r in rows)

    def test_vbar_csv(self, tmp_path):
        rc = run("--model", "jump_cbi_ou", "--out", str(tmp_path),
                 "vbar", "--tmin", "0.1", "--tmax", "2", "--n", "9")
        assert rc == 0
        with open(tmp_path / "vbar.csv") as fh:
            rows = list(csv.reader(fh))
        vals = [float(r[1]) for r in rows[1:]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_check_conditions(self, tmp_path):
        rc = run("--model", "jump_cbi_ou", "--out", str(tmp_path), "--strict",
                 "check-conditions", "--eps", "0.1")
        assert rc == 0
        rep = json.loads((tmp_path / "conditions.json").read_text())
        assert rep["A"]["verdict"] == "holds"
        assert rep["Cprime"]["verdict"] == "holds"

    def test_stationary_transform_diagnostics(self, tmp_path):
        rc = run("--model", "cir_ou", "--out", str(tmp_path), "stationary",
                 "--paths", "200", "--dt", "0.05", "--horizon", "2")
        assert rc == 0
        payload = json.loads((tmp_path / "stationary.json").read_text())
        assert 0 < payload["transform_nfev"] < 1500
        assert payload["transform_dense_nfev"] == 0  # each horizon is a step's right end
        assert payload["transform_clamped"] is False
        assert payload["transform_re"] == pytest.approx(payload["transform_closed"], abs=1e-10)

    def test_stationary_one_path_writes_strict_json(self, tmp_path):
        # one path leaves the standard errors undefined: they must be null
        rc = run("--model", "cir_ou", "--out", str(tmp_path), "stationary",
                 "--paths", "1", "--dt", "0.05", "--horizon", "2")
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        payload = json.loads((tmp_path / "stationary.json").read_text(), parse_constant=reject)
        assert payload["moments"]["D1_se"] is None

    def test_manifest_flags_are_the_options_given(self, tmp_path):
        rc = run("--model", "cir_ou", "--out", str(tmp_path), "simulate", "--paths", "4",
                 "--dt", "0.05", "--t", "0.5", "--record", "0.25", "--record", "0.5")
        assert rc == 0
        man = json.loads((tmp_path / "manifest_simulate.json").read_text())
        assert man["flags"] == {"x1": 1.0, "x2": 0.0, "t": 0.5, "dt": 0.05, "paths": 4,
                                "eps_trunc": 0.0, "record": [0.25, 0.5]}

    def test_solve_riccati_csv(self, tmp_path):
        rc = run("--model", "cir_ou", "--out", str(tmp_path),
                 "solve-riccati", "--t", "1", "--u1", "-1", "--grid", "10")
        assert rc == 0
        with open(tmp_path / "riccati.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert len(rows) == 11
        diag = json.loads((tmp_path / "riccati.json").read_text())
        assert 0 < diag["nfev"] < 1500
        assert 0 < diag["nsteps"] <= diag["nfev"]
        # three stages for each step the grid reads inside
        assert 0 < diag["dense_nfev"] <= 3 * (diag["nsteps"] - 1) and diag["dense_nfev"] % 3 == 0
        assert diag["clamped"] is False
        man = json.loads((tmp_path / "manifest_solve-riccati.json").read_text())
        assert man["outputs"] == ["riccati.csv", "riccati.json"]


class TestDeterminism:
    @staticmethod
    def _hash_outputs(d: Path) -> dict:
        out = {}
        for f in sorted(d.iterdir()):
            if f.name.startswith("manifest_"):
                continue  # manifests carry timestamps
            out[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        return out

    def test_same_seed_same_hash(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run("--model", "cir_ou", "--seed", "5", "--out", str(d),
                       "simulate", "--paths", "50", "--dt", "0.05", "--t", "0.5") == 0
        assert self._hash_outputs(d1) == self._hash_outputs(d2)

    def test_threads_do_not_change_outputs(self, tmp_path):
        d1, d2 = tmp_path / "t1", tmp_path / "t8"
        for d, n in ((d1, "1"), (d2, "8")):
            assert run("--model", "jump_cbi_ou", "--seed", "5", "--threads", n,
                       "--out", str(d), "simulate",
                       "--paths", "300", "--dt", "0.02", "--t", "0.5") == 0
        assert self._hash_outputs(d1) == self._hash_outputs(d2)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


# every subcommand with options that keep it small
SMALL_RUNS = {
    "validate": [],
    "check-conditions": [],
    "solve-riccati": ["--grid", "5"],
    "charfn": [],
    "vbar": ["--n", "5"],
    "stationary": ["--paths", "300", "--dt", "0.05"],
    "simulate": ["--paths", "300", "--dt", "0.05"],
    "couple": ["--paths", "300", "--dt", "0.05"],
    "tv-curve": ["--paths", "300", "--dt", "0.05", "--t", "0.5", "--t", "1"],
    "verify-bounds": ["--paths", "300", "--dt", "0.05"],
    "strong-feller": ["--paths", "300", "--dt", "0.05"],
    "suite": ["--paths", "300", "--dt", "0.05"],
}


class TestEverySubcommand:
    def test_all_subcommands_listed(self):
        assert set(SMALL_RUNS) == set(cli.commands)

    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_manifest_lists_written_outputs(self, name, tmp_path):
        assert run("--model", "jump_cbi_ou", "--out", str(tmp_path), name, *SMALL_RUNS[name]) == 0
        man = json.loads((tmp_path / f"manifest_{name}.json").read_text(), parse_constant=_reject_constant)
        assert man["subcommand"] == name
        assert man["outputs"]
        assert all((tmp_path / f).is_file() for f in man["outputs"])

    def test_vbar_diagnostics(self, tmp_path):
        assert run("--model", "jump_cbi_ou", "--out", str(tmp_path), "vbar", *SMALL_RUNS["vbar"]) == 0
        diag = json.loads((tmp_path / "vbar.json").read_text())
        assert json.loads((tmp_path / "manifest_vbar.json").read_text())["outputs"] == ["vbar.csv", "vbar.json"]
        # phi0 grows like z^2, so each doubling window adds half the one before
        assert diag["tail_ratio"] == pytest.approx(0.5, rel=1e-9)
        # the tabulated windows, then at least one window part per point
        assert diag["line_integrals"] >= diag["windows"] + 5 > 5
        # each batch runs many of them on one node-doubling loop
        assert 1 <= diag["batches"] < diag["line_integrals"]
        assert 1 <= diag["deepest_level"] and GAUSS_ORDER << diag["deepest_level"] <= NODE_CAP

    def test_stationary_truncates_infinite_activity(self, tmp_path):
        # gamma_imm's n has infinite activity: the moment estimate drops its jumps below 1e-3
        assert run("--model", "gamma_imm", "--out", str(tmp_path), "stationary", *SMALL_RUNS["stationary"]) == 0
        assert json.loads((tmp_path / "stationary.json").read_text())["eps_trunc"] == 1e-3

    def test_strict_failure_still_writes_manifest(self, bad_model, tmp_path):
        assert run("--model", bad_model, "--out", str(tmp_path), "--strict", "validate") == 2
        man = json.loads((tmp_path / "manifest_validate.json").read_text())
        assert man["outputs"] == ["validate.json"]

    def test_non_finite_flag_is_null(self, tmp_path):
        rc = run("--model", "cir_ou", "--out", str(tmp_path), "strong-feller", "--paths", "300",
                 "--dt", "0.05", "--sigma-k-mass", "nan", "--lambda-k", "1")
        assert rc == 0
        man = json.loads((tmp_path / "manifest_strong-feller.json").read_text(), parse_constant=_reject_constant)
        assert man["flags"]["sigma_k_mass"] is None
        with open(tmp_path / "strong_feller.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["radius", "empirical", "se", "bound", "violation"]
        assert [float(r[0]) for r in rows[1:]] == [0.5, 0.25, 0.1, 0.05]

    def test_zero_sigma_k_mass_is_an_error(self, tmp_path, capsys):
        rc = run("--model", "cir_ou", "--out", str(tmp_path), "strong-feller", "--paths", "300",
                 "--dt", "0.05", "--sigma-k-mass", "0", "--lambda-k", "1")
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: sigma_k mass must be > 0")


# Runs in a fresh interpreter: pytest's filterwarnings entry for
# scipy.integrate.IntegrationWarning imports scipy into this process.
NO_SCIPY_SCRIPT = textwrap.dedent('''
    import math, sys
    from affine_ergo import cli
    from affine_ergo.mechanisms import UPoint
    from affine_ergo.model import load_model, validate
    from affine_ergo.riccati import build_vbar_table, char_fn, stationary_transform

    out = sys.argv[1]
    models = {name: load_model(cli._resolve_model(name)) for name in cli.BUNDLED}
    assert all(validate(p).all_pass for p in models.values())
    for argv in (["--help"], ["validate"], ["check-conditions"],
                 ["simulate", "--paths", "10", "--dt", "0.1", "--t", "0.2"],
                 ["charfn", "--t", "1"], ["vbar", "--n", "5"], ["solve-riccati", "--grid", "5"]):
        assert cli.main(["--model", "jump_cbi_ou", "--out", out, *argv]) == 0, argv

    # a Riccati solve, a continued one and vbar root-finds, checked against closed forms
    p = models["cir_ou"]
    a1, a2, alpha = p.a1, p.a2, p.alpha[0][0]
    e = math.exp(-a1)
    q = 1.0 + alpha * (1.0 - e) / a1  # u1 = -1, t = 1, x = (1, 0)
    assert math.isclose(char_fn(p, 1.0, (1.0, 0.0), UPoint(-1.0, 0.0)).real,
                        math.exp(-e / q - a2 / alpha * math.log(q)), rel_tol=1e-7)
    q = 1.0 + 2.0 * alpha / a1  # u1 = -2; the stationary Y law is Gamma(a2 / alpha, rate a1 / alpha)
    assert math.isclose(stationary_transform(p, UPoint(-2.0, 0.0)).value.real,
                        q ** (-a2 / alpha), rel_tol=1e-7)
    table = build_vbar_table(p, n=5)
    for t, v in zip(table.times, table.values):
        assert math.isclose(v, a1 / (alpha * math.expm1(a1 * t)), rel_tol=1e-8)

    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, f"{len(loaded)} scipy modules loaded, e.g. {loaded[:3]}"
''')


def test_startup_never_imports_scipy(tmp_path):
    # the package, its CLI and the subcommands that solve the Riccati flow or
    # root-find vbar load no scipy module, and their values hold
    src = str(Path(affine_ergo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
