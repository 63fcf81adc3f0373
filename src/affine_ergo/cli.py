"""Command-line interface: every operation as a subcommand, with
reproducible run manifests and bundled reference models."""

from __future__ import annotations

import csv
import datetime
import hashlib
import importlib.metadata
import importlib.resources
import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import analysis, rng as rngmod
from .errors import AffineError
from .mechanisms import UPoint, check_A, check_B, check_Cprime
from .model import ModelParams, load_model, validate
from .riccati import (
    char_fn,
    delta1,
    solve_V,
    stationary_transform,
    stationary_transform_closed,
)
from .simulator import SimConfig, simulate_coupled, simulate_paths

BUNDLED = ("cir_ou", "jump_cbi_ou", "gamma_imm")


def _version() -> str:
    try:
        return importlib.metadata.version("affine-ergo")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _resolve_model(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    stem = name[:-5] if name.endswith(".json") else name
    if stem in BUNDLED:
        return Path(str(importlib.resources.files("affine_ergo") / "models" / f"{stem}.json"))
    raise click.UsageError(f"model {name!r}: no such file and not a bundled model {BUNDLED}")


class Run:
    """Shared flag state plus manifest plumbing for one invocation."""

    def __init__(self, model: str | None, seed: int, threads: int | None, out: str, strict: bool):
        self.model_path = _resolve_model(model) if model else None
        self.params: ModelParams | None = (
            load_model(self.model_path) if self.model_path else None
        )
        self.seed = seed
        if threads is None:
            threads = int(os.environ.get("AFFINE_ERGO_THREADS", "1"))
        self.threads = threads
        self.out = Path(out)
        self.strict = strict
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.flags: dict = {}

    def require_model(self) -> ModelParams:
        if self.params is None:
            raise click.UsageError("--model is required for this subcommand")
        return self.params

    def write_manifest(self, subcommand: str, outputs: list[str]):
        self.out.mkdir(parents=True, exist_ok=True)
        digest = None
        if self.model_path is not None:
            digest = hashlib.sha256(self.model_path.read_bytes()).hexdigest()
        manifest = {
            "subcommand": subcommand,
            "model_file": str(self.model_path) if self.model_path else None,
            "model_sha256": digest,
            "flags": self.flags,
            "seed": self.seed,
            "threads": self.threads,
            "version": _version(),
            "started": self.started,
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": outputs,
        }
        path = self.out / f"manifest_{subcommand}.json"
        path.write_text(json.dumps(manifest, indent=2) + "\n")

    def write_json(self, name: str, payload: dict) -> str:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return name

    def write_csv(self, name: str, rows) -> str:
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in rows:
                w.writerow(row)
        return name


@click.group()
@click.option("--model", default=None, help="Model JSON path or bundled name.")
@click.option("--seed", default=7, type=click.IntRange(0), show_default=True)
@click.option("--threads", default=None, type=click.IntRange(1), help="Worker threads (env AFFINE_ERGO_THREADS).")
@click.option("--out", default="out", show_default=True, help="Output directory.")
@click.option("--strict", is_flag=True, help="Exit 2 on validation/condition failure.")
@click.pass_context
def cli(ctx, model, seed, threads, out, strict):
    """Affine (CBI + OU-type) process toolkit: transforms, simulation and
    ergodicity verification."""
    ctx.obj = Run(model, seed, threads, out, strict)


def _note_flags(run: Run, **kw):
    run.flags.update({k: v for k, v in kw.items()})


@cli.command("validate")
@click.pass_obj
def cmd_validate(run: Run):
    """Check the standing integrability and sign assumptions."""
    params = run.require_model()
    rep = validate(params)
    out = run.write_json("validate.json", rep.to_json())
    run.write_manifest("validate", [out])
    for c in rep.checks:
        click.echo(f"{'PASS' if c.passed else 'FAIL'}  {c.name}  ({c.threshold})")
    if not rep.all_pass and run.strict:
        sys.exit(2)


@cli.command("check-conditions")
@click.option("--eps", default=0.1, show_default=True)
@click.option("--eta", default=0.5, show_default=True)
@click.pass_obj
def cmd_check_conditions(run: Run, eps, eta):
    """Probe the regularity conditions on the jump measures."""
    params = run.require_model()
    _note_flags(run, eps=eps, eta=eta)
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
    run.write_manifest("check-conditions", [out])
    for name, rep in reports.items():
        click.echo(f"{name}: {rep['verdict']}")
    if run.strict and any(r["verdict"] == "fails" for r in reports.values()):
        sys.exit(2)


@cli.command("solve-riccati")
@click.option("--t", "t_max", default=1.0, show_default=True)
@click.option("--u1", default=-1.0, show_default=True, help="Real u1 <= 0.")
@click.option("--u2i", default=0.0, show_default=True, help="Imaginary part of u2.")
@click.option("--grid", default=50, show_default=True)
@click.pass_obj
def cmd_solve_riccati(run: Run, t_max, u1, u2i, grid):
    """Integrate the transform ODE system and dump V on a time grid."""
    params = run.require_model()
    _note_flags(run, t=t_max, u1=u1, u2i=u2i, grid=grid)
    sol = solve_V(params, UPoint(u1, 1j * u2i), t_max)
    rows = [("t", "re_v1", "im_v1", "re_v2", "im_v2", "re_psi_int", "im_psi_int")]
    for t in np.linspace(t_max / grid, t_max, grid):
        v1, v2, ps = sol.V1(t), sol.V2(t), sol.psi_accum(t)
        rows.append(tuple(f"{v:.12g}" for v in (t, v1.real, v1.imag, v2.real, v2.imag, ps.real, ps.imag)))
    out = run.write_csv("riccati.csv", rows)
    run.write_manifest("solve-riccati", [out])
    click.echo(f"V1({t_max}) = {sol.V1(t_max)}")


@cli.command("charfn")
@click.option("--t", default=1.0, show_default=True)
@click.option("--u1", default=-1.0, show_default=True)
@click.option("--u2i", default=0.0, show_default=True)
@click.option("--x1", default=1.0, show_default=True)
@click.option("--x2", default=0.0, show_default=True)
@click.pass_obj
def cmd_charfn(run: Run, t, u1, u2i, x1, x2):
    """Exact transform value E_x exp(u1 Y_t + u2 Z_t)."""
    params = run.require_model()
    _note_flags(run, t=t, u1=u1, u2i=u2i, x1=x1, x2=x2)
    val = char_fn(params, t, (x1, x2), UPoint(u1, 1j * u2i))
    out = run.write_json(
        "charfn.json",
        {"t": t, "u1": u1, "u2i": u2i, "x": [x1, x2], "re": val.real, "im": val.imag},
    )
    run.write_manifest("charfn", [out])
    click.echo(f"{val.real:.12g}{val.imag:+.12g}j")


@cli.command("vbar")
@click.option("--tmin", default=0.01, show_default=True)
@click.option("--tmax", default=10.0, show_default=True)
@click.option("--n", default=41, show_default=True)
@click.pass_obj
def cmd_vbar(run: Run, tmin, tmax, n):
    """Tabulate the coupling decay function on a log time grid."""
    params = run.require_model()
    _note_flags(run, tmin=tmin, tmax=tmax, n=n)
    vb = params.vbar
    rows = [("t", "vbar")]
    for t in np.geomspace(tmin, tmax, n):
        rows.append((f"{t:.12g}", f"{vb(t):.12g}"))
    out = run.write_csv("vbar.csv", rows)
    run.write_manifest("vbar", [out])
    click.echo(f"vbar({tmax}) = {vb(tmax):.6g}")


@cli.command("stationary")
@click.option("--u1", default=-1.0, show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--horizon", default=None, type=float)
@click.pass_obj
def cmd_stationary(run: Run, u1, dt, paths, horizon):
    """Stationary transform values and long-horizon moment estimates."""
    params = run.require_model()
    _note_flags(run, u1=u1, dt=dt, paths=paths, horizon=horizon)
    tr = stationary_transform(params, UPoint(u1, 0.0))
    payload = {
        "u1": u1,
        "transform_re": tr.value.real,
        "transform_im": tr.value.imag,
        "transform_horizon": tr.horizon,
        "delta1": delta1(params),
    }
    try:
        payload["transform_closed"] = stationary_transform_closed(params, u1)
    except AffineError as exc:
        payload["transform_closed_error"] = str(exc)
    cfg = SimConfig(dt=dt, T=max(dt, 1.0), n_paths=paths, seed=run.seed, threads=run.threads)
    mom = analysis.stationary_moments(params, cfg, horizon)
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
    run.write_manifest("stationary", [out, out2])
    click.echo(
        f"transform({u1}) = {tr.value.real:.8g}; D1_hat = {mom['D1_hat']:.6g} "
        f"(delta1 = {delta1(params):.6g})"
    )
    if run.strict and not mom["delta1_within_3se"]:
        sys.exit(2)


def _sim_cfg(run: Run, dt, t, paths, eps_trunc, record):
    times = tuple(record) if record else (t,)
    return SimConfig(
        dt=dt,
        T=max(times),
        n_paths=paths,
        seed=run.seed,
        record_times=times,
        eps_trunc=eps_trunc,
        threads=run.threads,
    )


@cli.command("simulate")
@click.option("--x1", default=1.0, show_default=True)
@click.option("--x2", default=0.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=1000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--record", multiple=True, type=float)
@click.pass_obj
def cmd_simulate(run: Run, x1, x2, t, dt, paths, eps_trunc, record):
    """Simulate an ensemble and dump the recorded states."""
    params = run.require_model()
    _note_flags(run, x1=x1, x2=x2, t=t, dt=dt, paths=paths, eps_trunc=eps_trunc, record=list(record))
    cfg = _sim_cfg(run, dt, t, paths, eps_trunc, record)
    ens = simulate_paths(params, (x1, x2), cfg)
    rows = [("path_id", "t", "Y", "Z")]
    for pid in range(ens.n_paths):
        for k, rt in enumerate(ens.record_times):
            rows.append((pid, f"{rt:.12g}", f"{ens.Y[k, pid]:.12g}", f"{ens.Z[k, pid]:.12g}"))
    out = run.write_csv("paths.csv", rows)
    run.write_manifest("simulate", [out])
    k = ens.index_of(max(cfg.record_times))
    click.echo(f"mean Y({max(cfg.record_times)}) = {ens.Y[k].mean():.6g}, mean Z = {ens.Z[k].mean():.6g}")


@cli.command("couple")
@click.option("--x1", default=2.0, show_default=True)
@click.option("--x2", default=1.0, show_default=True)
@click.option("--y1", default=1.0, show_default=True)
@click.option("--y2", default=0.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=1000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--record", multiple=True, type=float)
@click.pass_obj
def cmd_couple(run: Run, x1, x2, y1, y2, t, dt, paths, eps_trunc, record):
    """Simulate the shared-noise coupled pair and dump states plus
    coalescence times."""
    params = run.require_model()
    _note_flags(run, x1=x1, x2=x2, y1=y1, y2=y2, t=t, dt=dt, paths=paths, eps_trunc=eps_trunc, record=list(record))
    cfg = _sim_cfg(run, dt, t, paths, eps_trunc, record)
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
    run.write_manifest("couple", [out])
    click.echo(f"coalesced by T: {ce.coalesced_by(cfg.T).mean():.4f}")


@cli.command("tv-curve")
@click.option("--x1", default=3.0, show_default=True)
@click.option("--x2", default=2.0, show_default=True)
@click.option("--t", "t_grid", multiple=True, type=float, default=(1.0, 2.0, 4.0, 8.0), show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--eps", default=None, type=float, help="Tail cut for the exponential bound overlay.")
@click.pass_obj
def cmd_tv_curve(run: Run, x1, x2, t_grid, dt, paths, eps_trunc, eps):
    """TV distance to the long-horizon stationary proxy over a time grid."""
    params = run.require_model()
    _note_flags(run, x1=x1, x2=x2, t=list(t_grid), dt=dt, paths=paths, eps_trunc=eps_trunc, eps=eps)
    cfg = SimConfig(
        dt=dt, T=max(t_grid), n_paths=paths, seed=run.seed, eps_trunc=eps_trunc, threads=run.threads
    )
    rep = analysis.ergodicity_curve(params, (x1, x2), t_grid, cfg, eps=eps)
    out = run.write_csv("tv_curve.csv", rep.csv_rows())
    out2 = run.write_json("tv_curve.json", rep.to_json())
    run.write_manifest("tv-curve", [out, out2])
    for t, e in zip(rep.t_grid, rep.empirical):
        click.echo(f"t={t:g}  2*tv_hat={e:.4f}")
    click.echo(f"noise floor {rep.constants['noise_floor']:.4f}, fitted rate {rep.constants['fitted_decay_rate']:.4f}")


@cli.command("verify-bounds")
@click.option("--x1", default=2.0, show_default=True)
@click.option("--x2", default=1.0, show_default=True)
@click.option("--y1", default=1.0, show_default=True)
@click.option("--y2", default=0.0, show_default=True)
@click.option("--t", "t_grid", multiple=True, type=float, default=(0.25, 0.5, 1.0, 2.0), show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.pass_obj
def cmd_verify_bounds(run: Run, x1, x2, y1, y2, t_grid, dt, paths, eps_trunc):
    """Coupled-MC checks of the Z-difference moment bound and the
    non-coalescence probability bound."""
    params = run.require_model()
    _note_flags(run, x1=x1, x2=x2, y1=y1, y2=y2, t=list(t_grid), dt=dt, paths=paths, eps_trunc=eps_trunc)
    cfg = SimConfig(
        dt=dt, T=max(t_grid), n_paths=paths, seed=run.seed, eps_trunc=eps_trunc, threads=run.threads
    )
    rep1 = analysis.lemma31_check(params, (x1, x2), (y1, y2), t_grid, cfg)
    rep2 = analysis.coalescence_curve(params, x1, y1, t_grid, cfg)
    outs = [
        run.write_csv("zdiff_bound.csv", rep1.csv_rows()),
        run.write_json("zdiff_bound.json", rep1.to_json()),
        run.write_csv("coalescence_bound.csv", rep2.csv_rows()),
        run.write_json("coalescence_bound.json", rep2.to_json()),
    ]
    run.write_manifest("verify-bounds", outs)
    bad = rep1.any_violation or rep2.any_violation
    click.echo(f"zdiff violations: {int(rep1.violations.sum())}; coalescence violations: {int(rep2.violations.sum())}")
    if run.strict and bad:
        sys.exit(2)


@cli.command("strong-feller")
@click.option("--x1", default=1.0, show_default=True)
@click.option("--x2", default=0.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--radius", "radii", multiple=True, type=float, default=(0.5, 0.25, 0.1, 0.05), show_default=True)
@click.option("--dt", default=0.01, show_default=True)
@click.option("--paths", default=20000, show_default=True)
@click.option("--eps-trunc", default=0.0, show_default=True)
@click.option("--sigma-k-mass", default=None, type=float)
@click.option("--lambda-k", default=None, type=float)
@click.pass_obj
def cmd_strong_feller(run: Run, x1, x2, t, radii, dt, paths, eps_trunc, sigma_k_mass, lambda_k):
    """TV continuity in the initial state over shrinking radii."""
    params = run.require_model()
    _note_flags(run, x1=x1, x2=x2, t=t, radius=list(radii), dt=dt, paths=paths,
                eps_trunc=eps_trunc, sigma_k_mass=sigma_k_mass, lambda_k=lambda_k)
    cfg = SimConfig(dt=dt, T=t, n_paths=paths, seed=run.seed, eps_trunc=eps_trunc, threads=run.threads)
    rows = analysis.strong_feller_probe(
        params, (x1, x2), t, radii, cfg, sigma_k_mass=sigma_k_mass, Lambda_k=lambda_k
    )
    csv_rows = [("t", "empirical", "se", "bound", "violation")]
    for r in rows:
        bound = r.get("bound", float("inf"))
        csv_rows.append((
            f"{r['radius']:.12g}", f"{r['tv2']:.12g}", f"{0.5 * r['noise_floor']:.12g}",
            f"{bound:.12g}" if np.isfinite(bound) else "",
            int(not r.get("dominated", True)),
        ))
    out = run.write_csv("strong_feller.csv", csv_rows)
    out2 = run.write_json("strong_feller.json", {"rows": rows})
    run.write_manifest("strong-feller", [out, out2])
    for r in rows:
        click.echo(f"radius={r['radius']:g}  2*tv_hat={r['tv2']:.4f}")


@cli.command("suite")
@click.option("--dt", default=0.02, show_default=True)
@click.option("--paths", default=4000, show_default=True)
@click.pass_obj
def cmd_suite(run: Run, dt, paths):
    """Reduced verification battery over the bundled reference models."""
    _note_flags(run, dt=dt, paths=paths)
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
        eps_trunc = 1e-3 if name == "gamma_imm" else 0.0
        cfg = SimConfig(
            dt=dt, T=2.0, n_paths=paths, seed=run.seed,
            eps_trunc=eps_trunc, threads=run.threads,
        )
        ens = simulate_paths(params, (1.0, 0.0), SimConfig(
            dt=dt, T=2.0, n_paths=paths, seed=run.seed, record_times=(1.0, 2.0),
            eps_trunc=eps_trunc, threads=run.threads,
        ))
        vals = np.exp(u.u1 * ens.Y[0] + u.u2 * ens.Z[0])
        mc = complex(vals.mean())
        entry["charfn_mc"] = [mc.real, mc.imag]
        entry["charfn_mc_se"] = float(np.abs(vals - mc).std(ddof=1) / np.sqrt(vals.size))
        if params.subcritical_strict:
            rep31 = analysis.lemma31_check(params, (2.0, 1.0), (1.0, 0.0), (0.5, 1.0, 2.0), cfg)
            entry["zdiff_violations"] = int(rep31.violations.sum())
        cc = analysis.coalescence_curve(params, 1.5, 0.5, (0.5, 1.0, 2.0), cfg)
        entry["coalescence_violations"] = int(cc.violations.sum())
        summary[name] = entry
        outs.append(run.write_json(f"suite_{name}.json", entry))
    outs.append(run.write_json("suite_summary.json", summary))
    run.write_manifest("suite", outs)
    for name, entry in summary.items():
        click.echo(f"{name}: validate={'PASS' if entry['validate_all_pass'] else 'FAIL'}")
    if run.strict and not all(e["validate_all_pass"] for e in summary.values()):
        sys.exit(2)


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
