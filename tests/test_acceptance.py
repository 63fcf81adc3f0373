"""Acceptance battery: ten numbered criteria, one pass/fail line each.

Each line is recorded as a ``criterion`` test property; tests/conftest.py
prints the recorded lines in pytest's terminal summary, so they reach the
terminal under any capture setting.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from affine_ergo.cli import main as cli_main
from affine_ergo.measures import LevyMeasure
from affine_ergo.mechanisms import UPoint, check_A, check_Cprime
from affine_ergo.model import ModelParams, load_model
from affine_ergo.riccati import (
    Vbar,
    build_vbar_table,
    char_fn,
    delta1,
    solve_V,
    stationary_transform,
    stationary_transform_closed,
)
from affine_ergo.simulator import SimConfig, simulate_coupled, simulate_paths
from affine_ergo.analysis import (
    EmpiricalDistribution,
    coalescence_curve,
    ergodicity_curve,
    lemma31_check,
    lemma31_constants,
    lemma51_constants,
    prop42_constants,
    tv_hat,
)


@pytest.fixture
def report(record_property):
    def _report(idx: int, ok: bool, detail: str):
        line = f"CRITERION {idx}: {'PASS' if ok else 'FAIL'} - {detail}"
        record_property("criterion", line)
        assert ok, line

    return _report


def bundled(name: str):
    import importlib.resources

    return load_model(str(importlib.resources.files("affine_ergo") / "models" / f"{name}.json"))


def test_criterion_1_riccati_vs_closed_form(report):
    p = bundled("cir_ou")
    alpha = p.alpha_y
    start = time.perf_counter()
    worst = 0.0
    for u1 in (-0.5, -1.0, -2.0):
        sol = solve_V(p, UPoint(u1, 0.0), 5.0)
        for t in (0.1, 1.0, 5.0):
            e = math.exp(-p.a1 * t)
            exact = u1 * e / (1.0 - alpha * u1 * (1.0 - e) / p.a1)
            worst = max(worst, abs(sol.V1(t).real - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_charfn_consistency(report):
    u_points = (
        UPoint(-0.5, 0.0),
        UPoint(-1.0, 0.5j),
        UPoint(-2.0, 0.0),
        UPoint(0.0, 0.8j),
        UPoint(0.4j, 0.6j),
        UPoint(-1.5, -0.7j),
    )
    x = (1.0, 0.0)
    details = []
    ok = True
    for name in ("cir_ou", "jump_cbi_ou", "gamma_imm"):
        p = bundled(name)
        eps = 1e-3 if name == "gamma_imm" else 0.0
        start = time.perf_counter()
        cfg = SimConfig(dt=1e-3, T=1.0, n_paths=100_000, seed=1001, eps_trunc=eps, threads=4)
        ens = simulate_paths(p, x, cfg)
        worst_z = 0.0
        for u in u_points:
            exact = char_fn(p, 1.0, x, u)
            vals = np.exp(u.u1 * ens.Y[0] + u.u2 * ens.Z[0])
            mc = complex(vals.mean())
            se_re = float(np.real(vals).std(ddof=1) / math.sqrt(vals.size))
            se_im = float(np.imag(vals).std(ddof=1) / math.sqrt(vals.size))
            z = max(
                abs(mc.real - exact.real) / max(se_re, 1e-12),
                abs(mc.imag - exact.imag) / max(se_im, 1e-12),
            )
            worst_z = max(worst_z, z)
        elapsed = time.perf_counter() - start
        ok = ok and worst_z <= 3.0 and elapsed < 120.0
        details.append(f"{name} worst z={worst_z:.2f} ({elapsed:.0f}s)")
    report(2, ok, "; ".join(details))


def test_criterion_3_zdiff_moment_bound(report):
    p = bundled("jump_cbi_ou")
    assert p.subcritical_strict
    start = time.perf_counter()
    cfg = SimConfig(dt=5e-3, T=2.0, n_paths=20_000, seed=1002, threads=4)
    rep = lemma31_check(p, (2.0, 1.0), (1.0, 0.0), (0.25, 0.5, 1.0, 2.0), cfg)
    elapsed = time.perf_counter() - start
    ok = not rep.any_violation and elapsed < 180.0
    gaps = ", ".join(
        f"t={t:g}: {e:.3f}<={b:.3f}" for t, e, b in zip(rep.t_grid, rep.empirical, rep.bound)
    )
    report(3, ok, f"{gaps} ({elapsed:.0f}s)")


def test_criterion_4_coupling_order_and_mean(report):
    p = bundled("cir_ou")
    cfg = SimConfig(dt=2e-3, T=2.0, n_paths=100_000, seed=1003,
                    record_times=(0.5, 1.0, 2.0), threads=4)
    ce = simulate_coupled(p, (2.0, 0.0), (1.0, 0.0), cfg)
    order_ok = bool(np.all(ce.Yx >= ce.Yy))
    worst_z = 0.0
    for t in (0.5, 1.0, 2.0):
        k = ce.index_of(t)
        d = ce.Yx[k] - ce.Yy[k]
        se = float(d.std(ddof=1) / math.sqrt(d.size))
        worst_z = max(worst_z, abs(float(d.mean()) - math.exp(-p.a1 * t)) / se)
    ok = order_ok and worst_z <= 3.0
    report(4, ok, f"pathwise order {order_ok}, worst mean z={worst_z:.2f}")


def test_criterion_5_vbar_closed_form(report):
    p = ModelParams(a1=2.0, a2=0.0, b0=0.0, b1=0.0, b2=0.5, sigma=0.0,
                    alpha=((1.0, 0.0), (0.0, 0.0)))
    vb = Vbar(p)
    worst = 0.0
    for t in np.geomspace(0.01, 10.0, 31):
        exact = 2.0 / (math.exp(2 * t) - 1.0)
        worst = max(worst, abs(vb(t) - exact) / exact)
    table = build_vbar_table(p)
    monotone = bool(np.all(np.diff(table.values) < 0))
    ok = worst <= 1e-8 and monotone
    report(5, ok, f"max rel err {worst:.2e}, table monotone {monotone}")


def test_criterion_6_coalescence_vs_vbar(report):
    p = ModelParams(a1=2.0, a2=0.0, b0=0.0, b1=0.0, b2=0.5, sigma=0.0,
                    alpha=((1.0, 0.0), (0.0, 0.0)))
    cfg = SimConfig(dt=2e-3, T=4.0, n_paths=50_000, seed=1004, threads=4)
    rep = coalescence_curve(p, 1.5, 0.5, (0.5, 1.0, 2.0, 4.0), cfg)
    bias = rep.constants["coal_tol_bias"]
    ok = bool(np.all(rep.empirical <= rep.bound + 3 * rep.se + bias + 1e-12))
    gaps = ", ".join(
        f"t={t:g}: {e:.4f}<={b:.4f}" for t, e, b in zip(rep.t_grid, rep.empirical, rep.bound)
    )
    report(6, ok, f"{gaps}, tol bias {bias:.2e}")


def test_criterion_7_stationary_law(report):
    p = bundled("cir_ou")
    worst = 0.0
    for u1 in (-0.25, -1.0, -4.0):
        closed = stationary_transform_closed(p, u1)
        quad = stationary_transform(p, UPoint(u1, 0.0)).value.real
        worst = max(worst, abs(closed - quad))
    transform_ok = worst <= 1e-6
    cfg = SimConfig(dt=0.01, T=1.0, n_paths=20_000, seed=1005, threads=4)
    horizon = 40.0 / min(p.a1, p.b2)
    from affine_ergo.analysis import stationary_proxy

    dist = stationary_proxy(p, cfg, horizon)
    d1_hat = float(dist.Y.mean())
    se = float(dist.Y.std(ddof=1) / math.sqrt(dist.n))
    mean_ok = abs(d1_hat - delta1(p)) <= 3 * se
    ok = transform_ok and mean_ok
    report(7, ok, f"transform gap {worst:.2e}; D1_hat {d1_hat:.4f} vs {delta1(p):.4f} (se {se:.4f})")


def test_criterion_8_tv_decay(report):
    p = bundled("jump_cbi_ou")
    a_ok = check_A(p).verdict == "holds"
    c_ok = check_Cprime(p, eps=0.1).verdict == "holds"
    start = time.perf_counter()
    cfg = SimConfig(dt=0.02, T=8.0, n_paths=100_000, seed=1006, threads=4)
    rep = ergodicity_curve(p, (3.0, 2.0), (1.0, 2.0, 4.0, 8.0), cfg, eps=0.1)
    elapsed = time.perf_counter() - start
    emp = rep.empirical
    floor = rep.constants["noise_floor"]
    nonincreasing = bool(np.all(emp[1:] <= emp[:-1] + 3 * rep.se[1:]))
    ends_low = emp[-1] < 2.0 * floor
    rate = rep.constants["fitted_decay_rate"]
    rate_ok = bool(np.isfinite(rate) and rate > 0) or emp[-1] <= floor
    ok = a_ok and c_ok and nonincreasing and ends_low and elapsed < 600.0
    report(
        8,
        ok,
        f"A={a_ok}, C'={c_ok}, curve {np.round(emp, 3).tolist()}, floor {floor:.3f}, "
        f"rate {rate:.3f} ({elapsed:.0f}s)",
    )
    assert rate_ok


def test_criterion_9_constants_regression(report):
    p = ModelParams(
        a1=2.0, a2=0.5, b0=0.2, b1=1.0, b2=0.5, sigma=0.5,
        alpha=((0.25, 0.0), (0.0, 0.0)),
        m=LevyMeasure.atomic([(0.0, 1.0, 1.0)]),
        n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]),
    )
    C11, C12, C1, C2 = lemma31_constants(p)
    consts = prop42_constants(p, eps=0.1, Lambda=1.0)
    l51 = lemma51_constants(p, 1.0, sigma_k_mass=1.0, Lambda_k=1.0)
    checks = {
        "C11=1": math.isclose(C11, 1.0),
        "C12=0": C12 == 0.0,
        "C1=4": math.isclose(C1, 4.0),
        "C2=2/3": math.isclose(C2, 2.0 / 3.0),
        "kappa_tilde=1/3": math.isclose(consts["kappa_tilde"], 1.0 / 3.0),
        "C_tilde=2": math.isclose(consts["C_tilde"], 2.0),
        "C1(1)": math.isclose(l51["C1_t"], 4.0 * (1.0 - math.exp(-1.0))),
        "C2(1)": math.isclose(l51["C2_t"], (1.0 - math.exp(-1.5)) / 1.5),
        "C_k8=1": math.isclose(l51["C_k8"], 1.0),
    }
    ok = all(checks.values())
    bad = [k for k, v in checks.items() if not v]
    report(9, ok, "all hand-computed constants match" if ok else f"mismatch: {bad}")


def test_criterion_10_suite_determinism(report, tmp_path):
    def run_suite(threads: str, out: Path):
        rc = cli_main([
            "--seed", "7", "--threads", threads, "--out", str(out),
            "suite", "--dt", "0.05", "--paths", "1000",
        ])
        assert rc == 0
        hashes = {}
        for f in sorted(out.iterdir()):
            if f.name.startswith("manifest_"):
                continue  # manifests carry wall-clock timestamps
            hashes[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        return hashes

    h1 = run_suite("1", tmp_path / "t1")
    h8 = run_suite("8", tmp_path / "t8")
    ok = h1 == h8 and len(h1) > 0
    report(10, ok, f"{len(h1)} output files hash-identical across thread counts")
