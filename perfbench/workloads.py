"""The benchmark's two workloads.

Each workload is one pass of public ``affine_ergo`` calls on inputs made from
the seed: ``numerics`` (quadrature, Riccati, vbar, condition checks and user
commands, no simulation) and ``simulation`` (the simulator alone, and inside
the analysis layer).  Each is built from two parts below.  Every call goes through a module attribute (``riccati.char_fn``),
so the traced run sees it.  Reference values for the output checks are
computed with ``Pass.reference``: neither timed, nor counted as operations,
nor traced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from affine_ergo import analysis, cli, mechanisms, model, riccati, simulator
from affine_ergo.mechanisms import UPoint
from affine_ergo.simulator import SimConfig

MODELS = ("cir_ou", "jump_cbi_ou", "gamma_imm")
MODEL_DIR = Path(model.__file__).resolve().parent / "models"

# the six u-points of the criterion-2 characteristic-function check
U_POINTS = (
    UPoint(-0.5, 0.0),
    UPoint(-1.0, 0.5j),
    UPoint(-2.0, 0.0),
    UPoint(0.0, 0.8j),
    UPoint(0.4j, 0.6j),
    UPoint(-1.5, -0.7j),
)
U_MC = UPoint(-1.0, 0.5j)
# Monte Carlo means are compared with exact values within this many standard
# errors: far enough out that no seed trips it by chance, close enough that a
# biased kernel does.
Z_BOUND = 5.0
PATHS = 16384  # two 8192-path chunks, so two threads have work
MC_T = 0.25
VBAR_POINTS = 21


class Op:
    __slots__ = ("name", "out", "ok")

    def __init__(self, name: str):
        self.name = name
        self.out = None
        self.ok = True


class Pass:
    """One pass of a workload: its operations, their checks and their time.

    An operation is one public call.  It fails if it raises or if a check
    on its output fails.  `wall_s` sums the timed calls only.
    """

    def __init__(self, untraced=contextlib.nullcontext):
        self.ops: list[Op] = []
        self.wall_s = 0.0
        self.notes: dict[str, float] = {}
        self._untraced = untraced

    def reference(self, fn, *args, **kwargs):
        with self._untraced():
            return fn(*args, **kwargs)

    def call(self, name: str, fn, *args, timed: bool = True, **kwargs) -> Op:
        op = Op(name)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            op.out = fn(*args, **kwargs)
        except Exception:  # one failed operation must not stop the run
            op.ok = False
            print(f"operation {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        finally:
            if timed:
                self.wall_s += time.perf_counter() - start
        return op

    def check(self, op: Op, what: str, predicate) -> None:
        if not op.ok:
            return
        try:
            ok = bool(predicate(op.out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            op.ok = False
            print(f"check failed: {op.name}: {what}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def load_models(p: Pass, names) -> dict:
    """Fresh ModelParams for each pass, so nothing a call caches on a model
    carries into the next pass; untimed, as it is part of set-up."""
    out = {}
    for name in names:
        op = p.call(f"load_model {name}", model.load_model, MODEL_DIR / f"{name}.json", timed=False)
        out[name] = op.out
        v = p.call(f"validate {name}", model.validate, op.out, timed=False)
        p.check(v, "all validation checks pass", lambda rep: rep.all_pass)
    return out


def bundled_models() -> dict:
    return {name: model.load_model(MODEL_DIR / f"{name}.json") for name in MODELS}


def _finite_unit(v) -> bool:
    return math.isfinite(v.real) and math.isfinite(v.imag) and abs(v) <= 1.0 + 1e-12


def _z(mc: float, exact: float, se: float) -> float:
    return abs(mc - exact) / max(se, 1e-300)


def _exit_0(rc) -> bool:
    return rc == 0


# ---------------------------------------------------------------------------


def transforms(p: Pass, seed: int, root: Path) -> None:
    """Quadrature, Riccati and vbar; no simulation.

    gamma_imm enters only through its vbar table, which freezes its
    2^20-cell grid once.  Its char_fn (about 220 right-hand sides over that
    grid at t=1, 14 s) is memory-bound and swings by up to a third with other
    load on a shared host; cli_commands runs it at t=0.1 instead.  Each vbar
    table has 21 of the default 41 points, which halves its cost."""
    rs = np.random.default_rng(seed)
    # the start point does not change the cost of a transform, only its value
    x = (float(rs.uniform(0.5, 1.5)), float(rs.uniform(-0.5, 0.5)))
    jit = rs.uniform(0.9, 1.1, size=6)
    models = load_models(p, MODELS)
    cir, jump = models["cir_ou"], models["jump_cbi_ou"]

    for name in ("cir_ou", "jump_cbi_ou"):
        for u in U_POINTS:
            op = p.call(f"char_fn {name}", riccati.char_fn, models[name], 1.0, x, u)
            p.check(op, "finite, modulus <= 1", _finite_unit)

    alpha = cir.alpha_y
    for u1 in (-0.5 * jit[0], -1.0 * jit[1], -2.0 * jit[2]):
        op = p.call("solve_V cir_ou", riccati.solve_V, cir, UPoint(float(u1), 0.0), 5.0)

        def closed_form(sol, u1=float(u1)):
            worst = 0.0
            for t in (0.1, 1.0, 5.0):
                e = math.exp(-cir.a1 * t)
                exact = u1 * e / (1.0 - alpha * u1 * (1.0 - e) / cir.a1)
                worst = max(worst, abs(sol.V1(t).real - exact) / abs(exact))
            return worst <= 1e-8

        p.check(op, "V1 matches the closed form to 1e-8", closed_form)

    for name in MODELS:
        op = p.call(f"build_vbar_table {name}", riccati.build_vbar_table, models[name], n=VBAR_POINTS)
        p.check(op, "strictly decreasing", lambda tab: bool(np.all(np.diff(tab.values) < 0)))

    for u1 in (-0.25 * jit[3], -1.0 * jit[4], -4.0 * jit[5]):
        u1 = float(u1)
        op = p.call("stationary_transform cir_ou", riccati.stationary_transform, cir, UPoint(u1, 0.0))
        closed = p.reference(riccati.stationary_transform_closed, cir, u1)
        p.check(op, "matches the closed form to 1e-6", lambda st: abs(closed - st.value.real) <= 1e-6)
    op = p.call("stationary_transform jump_cbi_ou", riccati.stationary_transform, jump, UPoint(-1.0, 0.0))
    p.check(op, "a Laplace transform in (0, 1]", lambda st: 0.0 < st.value.real <= 1.0 and _finite_unit(st.value))

    op = p.call("check_A jump_cbi_ou", mechanisms.check_A, jump)
    p.check(op, "condition A holds", lambda rep: rep.verdict == "holds")
    op = p.call("check_Cprime jump_cbi_ou", mechanisms.check_Cprime, jump, eps=0.1)
    p.check(op, "condition C' holds", lambda rep: rep.verdict == "holds")


def mc_fine(p: Pass, seed: int, root: Path) -> None:
    """Fine-step simulation only: single and coupled kernels, 1 and 2 threads.

    T=0.25 (250 steps) rather than 1 keeps this part near 4 s."""
    models = load_models(p, MODELS)
    x, upper = (1.0, 0.0), (2.0, 1.0)
    for name in MODELS:
        params = models[name]
        eps = 1e-3 if name == "gamma_imm" else 0.0
        cfg1 = SimConfig(dt=1e-3, T=MC_T, n_paths=PATHS, seed=seed, eps_trunc=eps, threads=1)
        cfg2 = dataclasses.replace(cfg1, threads=2)
        e1 = p.call(f"simulate_paths {name} threads=1", simulator.simulate_paths, params, x, cfg1)
        e2 = p.call(f"simulate_paths {name} threads=2", simulator.simulate_paths, params, x, cfg2)
        ce = p.call(f"simulate_coupled {name}", simulator.simulate_coupled, params, upper, x, cfg2)

        p.check(e2, "bit-identical to threads=1",
                lambda e: np.array_equal(e.Y, e1.out.Y) and np.array_equal(e.Z, e1.out.Z))
        p.check(ce, "Yx >= Yy pathwise", lambda c: bool(np.all(c.Yx >= c.Yy)))
        p.check(ce, "lower copy bit-identical to simulate_paths from it",
                lambda c: np.array_equal(c.Yy, e1.out.Y) and np.array_equal(c.Zy, e1.out.Z))

        if name == "gamma_imm":
            mean = p.reference(riccati.cbi_mean, params, MC_T, x[0])

            def mean_ok(e):
                Y = e.Y[0]
                return _z(Y.mean(), mean, Y.std(ddof=1) / math.sqrt(Y.size)) <= Z_BOUND
            p.check(e1, f"mean of Y within {Z_BOUND} SE of cbi_mean", mean_ok)
        else:
            exact = p.reference(riccati.char_fn, params, MC_T, x, U_MC)

            def charfn_ok(e):
                vals = np.exp(U_MC.u1 * e.Y[0] + U_MC.u2 * e.Z[0])
                mc = complex(vals.mean())
                n = math.sqrt(vals.size)
                z = max(_z(mc.real, exact.real, vals.real.std(ddof=1) / n),
                        _z(mc.imag, exact.imag, vals.imag.std(ddof=1) / n))
                return z <= Z_BOUND
            p.check(e1, f"E exp(u.X) within {Z_BOUND} SE of char_fn", charfn_ok)


def verify_coarse(p: Pass, seed: int, root: Path) -> None:
    """Coarse-step, long-horizon and coupled simulation inside the analysis layer.

    The TV curve ends at t=3 (its stationary proxy runs to t=12) rather than
    8, and the coupled checks at t=1 rather than 2, which keeps this part near
    4.5 s.  At t=3 the last TV point sits near 0.5 against a noise floor of
    about 0.32, so the two-floor check holds with margin."""
    params = load_models(p, ("jump_cbi_ou",))["jump_cbi_ou"]
    t_grid = (0.25, 0.5, 1.0)
    cfg = SimConfig(dt=0.02, T=3.0, n_paths=PATHS, seed=seed, threads=2)
    op = p.call("ergodicity_curve", analysis.ergodicity_curve, params, (3.0, 2.0), (0.5, 1.0, 2.0, 3.0), cfg, eps=0.1)
    p.check(op, "TV curve nonincreasing within 3 SE",
            lambda r: bool(np.all(r.empirical[1:] <= r.empirical[:-1] + 3 * r.se[1:])))
    p.check(op, "last TV point below twice the noise floor",
            lambda r: r.empirical[-1] < 2.0 * r.constants["noise_floor"])
    p.check(op, "no bound violations", lambda r: not r.any_violation)

    cfg = SimConfig(dt=5e-3, T=1.0, n_paths=PATHS, seed=seed, threads=2)
    op = p.call("lemma31_check", analysis.lemma31_check, params, (2.0, 1.0), (1.0, 0.0), t_grid, cfg)
    p.check(op, "no bound violations", lambda r: not r.any_violation)
    op = p.call("coalescence_curve", analysis.coalescence_curve, params, 1.5, 0.5, t_grid, cfg)
    p.check(op, "non-coalescence within bound + 3 SE + tolerance bias",
            lambda r: bool(np.all(r.empirical <= r.bound + 3 * r.se + r.constants["coal_tol_bias"] + 1e-12)))


def cli_commands(p: Pass, seed: int, root: Path) -> None:
    """User commands through `affine_ergo.cli.main` with `--strict`: model
    resolution by name, JSON/CSV output and manifests.

    `charfn` on gamma_imm at t=0.1 freezes its 2^20-cell grid and runs its
    right-hand sides over it (about 60 ms each).  `suite` is not run: its
    gamma_imm char_fn at t=1 alone takes about 14 s, so a run would hold a
    single, cold pass.  Nothing here simulates."""
    rs = np.random.default_rng(seed)
    x1 = float(rs.uniform(0.5, 1.5))
    out = root / ".perfbench-out" / f"cli-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    common = ["--seed", str(seed), "--threads", "2", "--out", str(out), "--strict"]
    with contextlib.redirect_stdout(sys.stderr):
        for name in MODELS:
            op = p.call(f"cli validate {name}", cli.main, common + ["--model", name, "validate"])
            p.check(op, "exit code 0: every validation check passes", _exit_0)
        op = p.call("cli check-conditions jump_cbi_ou", cli.main,
                    common + ["--model", "jump_cbi_ou", "check-conditions"])
        p.check(op, "exit code 0: no condition fails", _exit_0)
        op = p.call("cli charfn gamma_imm", cli.main, common + [
            "--model", "gamma_imm", "charfn", "--t", "0.1", "--u1", "-1", "--u2i", "0.5", "--x1", repr(x1)])
        p.check(op, "exit code 0", _exit_0)

        def charfn_ok(_):
            cf = json.loads((out / "charfn.json").read_text())
            return cf["x"][0] == x1 and _finite_unit(complex(cf["re"], cf["im"]))
        p.check(op, "charfn.json finite, modulus <= 1", charfn_ok)
    p.check(op, "every manifest written", lambda _: all(
        (out / f"manifest_{c}.json").is_file() for c in ("validate", "check-conditions", "charfn")))
    files = [f for f in out.rglob("*") if f.is_file()]
    p.notes["cli.files_written"] = len(files)
    p.notes["cli.bytes_written"] = sum(f.stat().st_size for f in files)
    shutil.rmtree(out, ignore_errors=True)


def numerics(p: Pass, seed: int, root: Path) -> None:
    transforms(p, seed, root)
    cli_commands(p, seed, root)


def simulation(p: Pass, seed: int, root: Path) -> None:
    mc_fine(p, seed, root)
    verify_coarse(p, seed, root)


WORKLOADS = {"numerics": numerics, "simulation": simulation}
