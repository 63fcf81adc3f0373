"""Command-line interface: every operation as a subcommand, with
reproducible run manifests and bundled reference models."""

from __future__ import annotations

import csv
import datetime
import functools
import hashlib
import importlib.resources
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, analysis
from .errors import AffineError
from .mechanisms import UPoint, check_A, check_B, check_Cprime
from .model import ModelParams, _jsonable, load_model, validate
from .riccati import (
    build_vbar_table,
    char_fn,
    delta1,
    solve_V,
    stationary_transform,
    stationary_transform_closed,
)
from .simulator import SimConfig, simulate_coupled, simulate_paths

BUNDLED = ("cir_ou", "jump_cbi_ou", "gamma_imm")


def _resolve_model(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    stem = name[:-5] if name.endswith(".json") else name
    if stem in BUNDLED:
        return Path(str(importlib.resources.files("affine_ergo") / "models" / f"{stem}.json"))
    raise click.UsageError(f"model {name!r}: no such file and not a bundled model {BUNDLED}")


def _eps_trunc(params: ModelParams) -> float:
    """The small-jump truncation of the subcommands without --eps-trunc:
    1e-3 when m or n has infinite activity, else none."""
    return 1e-3 if math.isinf(params.m.total_mass()) or math.isinf(params.n.total_mass()) else 0.0


class Run:
    """Shared flag state plus manifest plumbing for one invocation."""

    def __init__(self, model: str | None, seed: int, threads: int, out: str, strict: bool):
        self.model_path = _resolve_model(model) if model else None
        self.params: ModelParams | None = (
            load_model(self.model_path) if self.model_path else None
        )
        self.seed = seed
        self.threads = threads
        self.out = Path(out)
        self.strict = strict
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def require_model(self) -> ModelParams:
        if self.params is None:
            raise click.UsageError("--model is required for this subcommand")
        return self.params

    def sim(self, dt, T, paths, eps_trunc=0.0, record=()) -> SimConfig:
        return SimConfig(
            dt=dt, T=T, n_paths=paths, seed=self.seed, record_times=tuple(record),
            eps_trunc=eps_trunc, threads=self.threads,
        )

    def write_manifest(self, outputs: list[str]):
        """Write the running subcommand's manifest; its flags are the
        subcommand's options as click parsed them, in declaration order."""
        digest = None
        if self.model_path is not None:
            digest = hashlib.sha256(self.model_path.read_bytes()).hexdigest()
        ctx = click.get_current_context()
        manifest = {
            "subcommand": ctx.info_name,
            "model_file": str(self.model_path) if self.model_path else None,
            "model_sha256": digest,
            "flags": {p.name: ctx.params[p.name] for p in ctx.command.params},
            "seed": self.seed,
            "threads": self.threads,
            "version": __version__,
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": outputs,
        }
        self.write_json(f"manifest_{ctx.info_name}.json", manifest, sort_keys=False)

    def _path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def write_json(self, name: str, payload: dict, sort_keys: bool = True) -> str:
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=sort_keys, allow_nan=False)
        self._path(name).write_text(text + "\n")
        return name

    def write_csv(self, name: str, rows) -> str:
        with open(self._path(name), "w", newline="") as fh:
            w = csv.writer(fh)
            for row in rows:
                w.writerow(row)
        return name


@click.group()
@click.option("--model", default=None, help="Model JSON path or bundled name.")
@click.option("--seed", default=7, type=click.IntRange(0), show_default=True)
@click.option("--threads", default=1, type=click.IntRange(1), envvar="AFFINE_ERGO_THREADS",
              show_envvar=True, show_default=True,
              help="Simulator threads, the calling one included: it steps the paths and "
                   "the others draw normals ahead. Outputs are unchanged.")
@click.option("--out", default="out", show_default=True, help="Output directory.")
@click.option("--strict", is_flag=True, help="Exit 2 on validation/condition failure.")
@click.pass_context
def cli(ctx, model, seed, threads, out, strict):
    """Affine (CBI + OU-type) process toolkit: transforms, simulation and
    ergodicity verification."""
    ctx.obj = Run(model, seed, threads, out, strict)


def subcommand(name: str):
    """Register `body(run, **options)` as subcommand `name`.  The body writes
    its outputs and returns (output names, failed); the manifest is written
    after them, and a failed run exits 2 under --strict."""

    def register(body):
        @cli.command(name)
        @click.pass_obj
        @functools.wraps(body)
        def command(run: Run, **options):
            outputs, failed = body(run, **options)
            run.write_manifest(outputs)
            if failed and run.strict:
                sys.exit(2)

        return command

    return register


@subcommand("validate")
def cmd_validate(run: Run):
    """Check the standing integrability and sign assumptions."""
    params = run.require_model()
    rep = validate(params)
    out = run.write_json("validate.json", rep.to_json())
    for c in rep.checks:
        click.echo(f"{'PASS' if c.passed else 'FAIL'}  {c.name}  ({c.threshold})")
    return [out], not rep.all_pass


@subcommand("check-conditions")
@click.option("--eps", default=0.1, show_default=True)
@click.option("--eta", default=0.5, show_default=True)
def cmd_check_conditions(run: Run, eps, eta):
    """Probe the regularity conditions on the jump measures."""
    params = run.require_model()
    reports = {}
    for name, fn in (
        ("A", lambda: check_A(params)),
        ("B", lambda: check_B(params, eps=eps, eta=eta)),
        ("Cprime", lambda: check_Cprime(params, eps=eps)),
    ):
        try:
            reports[name] = fn().to_json()
        except AffineError as exc:
            reports[name] = {"condition": name, "verdict": "fails", "note": str(exc)}
    out = run.write_json("conditions.json", reports)
    for name, rep in reports.items():
        click.echo(f"{name}: {rep['verdict']}")
    return [out], any(r["verdict"] == "fails" for r in reports.values())


@subcommand("solve-riccati")
@click.option("--t", default=1.0, show_default=True)
@click.option("--u1", default=-1.0, show_default=True, help="Real u1 <= 0.")
@click.option("--u2i", default=0.0, show_default=True, help="Imaginary part of u2.")
@click.option("--grid", default=50, type=click.IntRange(1), show_default=True)
def cmd_solve_riccati(run: Run, t, u1, u2i, grid):
    """Integrate the transform ODE system and dump V on a time grid."""
    params = run.require_model()
    sol = solve_V(params, UPoint(u1, 1j * u2i), t)
    rows = [("t", "re_v1", "im_v1", "re_v2", "im_v2", "re_psi_int", "im_psi_int")]
    for s in np.linspace(t / grid, t, grid):
        v1, v2, ps = sol.V1(s), sol.V2(s), sol.psi_accum(s)
        rows.append(tuple(f"{v:.12g}" for v in (s, v1.real, v1.imag, v2.real, v2.imag, ps.real, ps.imag)))
    out = run.write_csv("riccati.csv", rows)
    out2 = run.write_json("riccati.json", sol.diagnostics())
    click.echo(f"V1({t}) = {sol.V1(t)}")
    return [out, out2], False


@subcommand("charfn")
@click.option("--t", default=1.0, show_default=True)
@click.option("--u1", default=-1.0, show_default=True)
@click.option("--u2i", default=0.0, show_default=True)
@click.option("--x1", default=1.0, show_default=True)
@click.option("--x2", default=0.0, show_default=True)
def cmd_charfn(run: Run, t, u1, u2i, x1, x2):
    """Exact transform value E_x exp(u1 Y_t + u2 Z_t)."""
    params = run.require_model()
    u, x = UPoint(u1, 1j * u2i), (x1, x2)
    sol = solve_V(params, u, t) if t != 0.0 else None  # t = 0 needs no solve
    val = sol.transform(x) if sol else char_fn(params, t, x, u)
    out = run.write_json(
        "charfn.json",
        {"t": t, "u1": u1, "u2i": u2i, "x": [x1, x2], "re": val.real, "im": val.imag,
         **(sol.diagnostics() if sol else {})},
    )
    click.echo(f"{val.real:.12g}{val.imag:+.12g}j")
    return [out], False


@subcommand("vbar")
@click.option("--tmin", default=0.01, type=click.FloatRange(0, min_open=True), show_default=True)
@click.option("--tmax", default=10.0, show_default=True, help="Finite, greater than --tmin.")
@click.option("--n", default=41, type=click.IntRange(2), show_default=True)
def cmd_vbar(run: Run, tmin, tmax, n):
    """Tabulate the coupling decay function on a log time grid; vbar.json
    records its windows, tail ratio and line integrals."""
    if not tmin < tmax < math.inf:
        raise click.BadParameter(f"{tmax} is not a finite number greater than --tmin {tmin}.",
                                 ctx=click.get_current_context(), param_hint="'--tmax'")
    params = run.require_model()
    table = build_vbar_table(params, tmin, tmax, n)
    rows = [("t", "vbar")] + [(f"{t:.12g}", f"{v:.12g}") for t, v in zip(table.times, table.values)]
    out = run.write_csv("vbar.csv", rows)
    click.echo(f"vbar({tmax}) = {params.vbar(tmax):.6g}")
    out2 = run.write_json("vbar.json", params.vbar.diagnostics())
    return [out, out2], False


@subcommand("stationary")
@click.option("--u1", default=-1.0, show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--horizon", default=None, type=float)
def cmd_stationary(run: Run, u1, dt, paths, horizon):
    """Stationary transform values and long-horizon moment estimates."""
    params = run.require_model()
    tr = stationary_transform(params, UPoint(u1, 0.0))
    eps_trunc = _eps_trunc(params)
    payload = {
        "u1": u1,
        "eps_trunc": eps_trunc,
        "transform_re": tr.value.real,
        "transform_im": tr.value.imag,
        "transform_horizon": tr.horizon,
        "transform_nfev": tr.nfev,
        "transform_dense_nfev": tr.dense_nfev,
        "transform_clamped": tr.clamped,
        "delta1": delta1(params),
    }
    try:
        payload["transform_closed"] = stationary_transform_closed(params, u1)
    except AffineError as exc:
        payload["transform_closed_error"] = str(exc)
    mom = analysis.stationary_moments(params, run.sim(dt, max(dt, 1.0), paths, eps_trunc), horizon)
    payload["moments"] = mom
    out = run.write_json("stationary.json", payload)
    rows = [("t", "empirical", "se", "bound", "violation")]
    rows.append((
        f"{mom['by_horizon']['T']['horizon']:.12g}",
        f"{mom['D1_hat']:.12g}",
        f"{mom['D1_se']:.12g}",
        f"{delta1(params):.12g}",
        int(not mom["delta1_within_3se"]),
    ))
    out2 = run.write_csv("stationary.csv", rows)
    click.echo(
        f"transform({u1}) = {tr.value.real:.8g}; D1_hat = {mom['D1_hat']:.6g} "
        f"(delta1 = {delta1(params):.6g})"
    )
    return [out, out2], not mom["delta1_within_3se"]


@subcommand("simulate")
@click.option("--x1", default=1.0, show_default=True)
@click.option("--x2", default=0.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=1000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--record", multiple=True, type=float)
def cmd_simulate(run: Run, x1, x2, t, dt, paths, eps_trunc, record):
    """Simulate an ensemble and dump the recorded states."""
    params = run.require_model()
    times = record or (t,)
    cfg = run.sim(dt, max(times), paths, eps_trunc, times)
    ens = simulate_paths(params, (x1, x2), cfg)
    rows = [("path_id", "t", "Y", "Z")]
    for pid in range(ens.n_paths):
        for k, rt in enumerate(ens.record_times):
            rows.append((pid, f"{rt:.12g}", f"{ens.Y[k, pid]:.12g}", f"{ens.Z[k, pid]:.12g}"))
    out = run.write_csv("paths.csv", rows)
    k = ens.index_of(cfg.T)
    click.echo(f"mean Y({cfg.T}) = {ens.Y[k].mean():.6g}, mean Z = {ens.Z[k].mean():.6g}")
    return [out], False


@subcommand("couple")
@click.option("--x1", default=2.0, show_default=True)
@click.option("--x2", default=1.0, show_default=True)
@click.option("--y1", default=1.0, show_default=True)
@click.option("--y2", default=0.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=1000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--record", multiple=True, type=float)
def cmd_couple(run: Run, x1, x2, y1, y2, t, dt, paths, eps_trunc, record):
    """Simulate the shared-noise coupled pair and dump states plus
    coalescence times."""
    params = run.require_model()
    times = record or (t,)
    cfg = run.sim(dt, max(times), paths, eps_trunc, times)
    ce = simulate_coupled(params, (x1, x2), (y1, y2), cfg)
    rows = [("path_id", "t", "Yx", "Zx", "Yy", "Zy", "coalesce_time")]
    for pid in range(ce.n_paths):
        vs = ce.varsigma[pid]
        vs_s = f"{vs:.12g}" if np.isfinite(vs) else ""
        for k, rt in enumerate(ce.record_times):
            rows.append((
                pid, f"{rt:.12g}",
                f"{ce.Yx[k, pid]:.12g}", f"{ce.Zx[k, pid]:.12g}",
                f"{ce.Yy[k, pid]:.12g}", f"{ce.Zy[k, pid]:.12g}", vs_s,
            ))
    out = run.write_csv("coupled.csv", rows)
    click.echo(f"coalesced by T: {ce.coalesced_by(cfg.T).mean():.4f}")
    return [out], False


@subcommand("tv-curve")
@click.option("--x1", default=3.0, show_default=True)
@click.option("--x2", default=2.0, show_default=True)
@click.option("--t", multiple=True, type=float, default=(1.0, 2.0, 4.0, 8.0), show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--eps", default=None, type=float, help="Tail cut for the exponential bound overlay.")
def cmd_tv_curve(run: Run, x1, x2, t, dt, paths, eps_trunc, eps):
    """TV distance to the long-horizon stationary proxy over a time grid."""
    params = run.require_model()
    rep = analysis.ergodicity_curve(params, (x1, x2), t, run.sim(dt, max(t), paths, eps_trunc), eps=eps)
    out = run.write_csv("tv_curve.csv", rep.csv_rows())
    out2 = run.write_json("tv_curve.json", rep.to_json())
    for s, e in zip(rep.t_grid, rep.empirical):
        click.echo(f"t={s:g}  2*tv_hat={e:.4f}")
    click.echo(f"noise floor {rep.constants['noise_floor']:.4f}, fitted rate {rep.constants['fitted_decay_rate']:.4f}")
    return [out, out2], False


@subcommand("verify-bounds")
@click.option("--x1", default=2.0, show_default=True)
@click.option("--x2", default=1.0, show_default=True)
@click.option("--y1", default=1.0, show_default=True)
@click.option("--y2", default=0.0, show_default=True)
@click.option("--t", multiple=True, type=float, default=(0.25, 0.5, 1.0, 2.0), show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
def cmd_verify_bounds(run: Run, x1, x2, y1, y2, t, dt, paths, eps_trunc):
    """Coupled-MC checks of the Z-difference moment bound and the
    non-coalescence probability bound."""
    params = run.require_model()
    cfg = run.sim(dt, max(t), paths, eps_trunc)
    rep1 = analysis.lemma31_check(params, (x1, x2), (y1, y2), t, cfg)
    rep2 = analysis.coalescence_curve(params, x1, y1, t, cfg)
    outs = [
        run.write_csv("zdiff_bound.csv", rep1.csv_rows()),
        run.write_json("zdiff_bound.json", rep1.to_json()),
        run.write_csv("coalescence_bound.csv", rep2.csv_rows()),
        run.write_json("coalescence_bound.json", rep2.to_json()),
    ]
    click.echo(f"zdiff violations: {int(rep1.violations.sum())}; coalescence violations: {int(rep2.violations.sum())}")
    return outs, rep1.any_violation or rep2.any_violation


@subcommand("strong-feller")
@click.option("--x1", default=1.0, show_default=True)
@click.option("--x2", default=0.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--radius", multiple=True, type=float, default=(0.5, 0.25, 0.1, 0.05), show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--sigma-k-mass", default=None, type=float)
@click.option("--lambda-k", default=None, type=float)
def cmd_strong_feller(run: Run, x1, x2, t, radius, dt, paths, eps_trunc, sigma_k_mass, lambda_k):
    """TV continuity in the initial state over shrinking radii."""
    if (sigma_k_mass is None) != (lambda_k is None):
        given, missing = ("--lambda-k", "--sigma-k-mass") if sigma_k_mass is None else ("--sigma-k-mass", "--lambda-k")
        raise click.MissingParameter(f"It is required with '{given}'.", ctx=click.get_current_context(),
                                     param_hint=f"'{missing}'", param_type="option")
    params = run.require_model()
    rows = analysis.strong_feller_probe(
        params, (x1, x2), t, radius, run.sim(dt, t, paths, eps_trunc),
        sigma_k_mass=sigma_k_mass, Lambda_k=lambda_k,
    )
    csv_rows = [("radius", "empirical", "se", "bound", "violation")]
    for r in rows:
        bound = r.get("bound", float("inf"))
        csv_rows.append((
            f"{r['radius']:.12g}", f"{r['tv2']:.12g}", f"{0.5 * r['noise_floor']:.12g}",
            f"{bound:.12g}" if np.isfinite(bound) else "",
            int(not r.get("dominated", True)),
        ))
    out = run.write_csv("strong_feller.csv", csv_rows)
    out2 = run.write_json("strong_feller.json", {"rows": rows})
    for r in rows:
        click.echo(f"radius={r['radius']:g}  2*tv_hat={r['tv2']:.4f}")
    return [out, out2], False


@subcommand("suite")
@click.option("--dt", default=0.02, show_default=True)
@click.option("--paths", default=4000, show_default=True)
def cmd_suite(run: Run, dt, paths):
    """Reduced verification battery over the bundled reference models."""
    outs = []
    summary = {}
    for name in BUNDLED:
        params = load_model(_resolve_model(name))
        entry: dict = {}
        rep = validate(params)
        entry["validate_all_pass"] = rep.all_pass
        u = UPoint(-1.0, 0.5j)
        cf = char_fn(params, 1.0, (1.0, 0.0), u)
        entry["charfn"] = [cf.real, cf.imag]
        eps_trunc = _eps_trunc(params)
        cfg = run.sim(dt, 2.0, paths, eps_trunc)
        ens = simulate_paths(params, (1.0, 0.0), run.sim(dt, 2.0, paths, eps_trunc, (1.0, 2.0)))
        vals = np.exp(u.u1 * ens.Y[0] + u.u2 * ens.Z[0])
        mc = complex(vals.mean())
        entry["charfn_mc"] = [mc.real, mc.imag]
        entry["charfn_mc_se"] = analysis._mean_se(np.abs(vals - mc))
        if params.subcritical_strict:
            rep31 = analysis.lemma31_check(params, (2.0, 1.0), (1.0, 0.0), (0.5, 1.0, 2.0), cfg)
            entry["zdiff_violations"] = int(rep31.violations.sum())
        cc = analysis.coalescence_curve(params, 1.5, 0.5, (0.5, 1.0, 2.0), cfg)
        entry["coalescence_violations"] = int(cc.violations.sum())
        summary[name] = entry
        outs.append(run.write_json(f"suite_{name}.json", entry))
    outs.append(run.write_json("suite_summary.json", summary))
    for name, entry in summary.items():
        click.echo(f"{name}: validate={'PASS' if entry['validate_all_pass'] else 'FAIL'}")
    return outs, not all(e["validate_all_pass"] for e in summary.values())


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        return 64
    except click.Abort:
        return 1
    except AffineError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
