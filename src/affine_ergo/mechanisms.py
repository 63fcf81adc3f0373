"""Affine mechanisms and numeric checkers for the jump-activity conditions.

The limit-type conditions (tail integrability of 1/phi0, shift
total-variation ratios) are probed on finite grids with explicit
stabilization heuristics; verdicts may be "inconclusive" when the evidence
is non-monotone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import DominationViolated, DomainError, UnsupportedMeasure
from .measures import (
    DensityPiece,
    LevyMeasure,
    Marginal1D,
    levy_integral,
    levy_restrict_tail,
    overlap_stats,
)
from .model import ModelParams

_RE_TOL = 1e-12


@dataclass(frozen=True)
class UPoint:
    """A point of U = C_ x iR: Re(u1) <= 0 and Re(u2) = 0."""

    u1: complex
    u2: complex

    def __post_init__(self):
        if self.u1.real > _RE_TOL:
            raise DomainError("Re(u1) must be <= 0")
        if abs(self.u2.real) > _RE_TOL:
            raise DomainError("u2 must be purely imaginary")

    def conj(self) -> "UPoint":
        return UPoint(self.u1.conjugate(), self.u2.conjugate())


def phi(u: UPoint, params: ModelParams) -> complex:
    """Branching-side mechanism: drift, diffusion and compensated m-jumps."""
    u1, u2 = u.u1, u.u2
    p = params
    val = (
        -p.a1 * u1
        - p.b1 * u2
        + (p.a11 + p.a12) * u1**2
        + 2.0 * (math.sqrt(p.a11 * p.a21) + math.sqrt(p.a12 * p.a22)) * u1 * u2
        + (p.a21 + p.a22) * u2**2
    )
    if not p.m.is_empty():
        val += levy_integral(
            p.m,
            lambda z1, z2: np.exp(u1 * z1 + u2 * z2) - 1.0 - (u1 * z1 + u2 * z2),
        )
    return complex(val)


def psi(u: UPoint, params: ModelParams) -> complex:
    """Immigration-side mechanism: drift, OU diffusion and n-jumps."""
    u1, u2 = u.u1, u.u2
    p = params
    val = p.a2 * u1 - p.b0 * u2 + 0.5 * p.sigma**2 * u2**2
    if not p.n.is_empty():
        val += levy_integral(
            p.n, lambda z1, z2: np.exp(u1 * z1 + u2 * z2) - 1.0 - z2 * u2
        )
    return complex(val)


def phi0(x: float, params: ModelParams) -> float:
    """Branching mechanism on R+."""
    if x < 0:
        raise DomainError("phi0 requires x >= 0")
    p = params
    val = p.a1 * x + (p.a11 + p.a12) * x**2
    if not p.m.is_empty():
        val += levy_integral(p.m, lambda z1, z2: np.exp(-x * z1) - 1.0 + x * z1)
    return float(val)


def phi0_tilde(x: float, params: ModelParams) -> float:
    """phi0 continued to R-: phi0_tilde(x) = phi0(-x)."""
    if x > 0:
        raise DomainError("phi0_tilde requires x <= 0")
    p = params
    val = -p.a1 * x + (p.a11 + p.a12) * x**2
    if not p.m.is_empty():
        val += levy_integral(p.m, lambda z1, z2: np.exp(x * z1) - 1.0 - x * z1)
    return float(val)


def P_mech(x: float, params: ModelParams) -> float:
    """Immigration mechanism on R-."""
    if x > 0:
        raise DomainError("P_mech requires x <= 0")
    val = params.a2 * x
    if not params.n.is_empty():
        val += levy_integral(params.n, lambda z1, z2: np.exp(x * z1) - 1.0)
    return float(val)


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    condition: str  # "A" | "B" | "C" | "Cprime" | "D"
    verdict: str  # "holds" | "fails" | "inconclusive"
    evidence: tuple[tuple[float, float], ...] = ()
    inputs: dict = field(default_factory=dict, compare=False)
    extras: dict = field(default_factory=dict, compare=False)
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "verdict": self.verdict,
            "evidence": [[float(a), float(b)] for a, b in self.evidence],
            "inputs": self.inputs,
            **self.extras,
        }
        if self.note:
            out["note"] = self.note
        return _jsonable(out)

    def dumps(self) -> str:
        return json.dumps(self.to_json())


def _jsonable(v):
    """JSON-ready copy of v: numpy scalars and arrays become Python values,
    containers are converted recursively, and non-finite floats become None
    (null), so the result serializes under json.dumps(..., allow_nan=False)."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def check_A(
    params: ModelParams,
    theta_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    z_max: float = 64.0,
    n_doublings: int = 6,
) -> ConditionReport:
    """Grey-type check: positivity of phi0 past some theta and geometric
    decay of the doubling increments of int dz / phi0(z)."""
    f = lambda z: phi0(z, params)
    theta = None
    for th in sorted(theta_grid):
        probes = np.geomspace(th, max(z_max, 4 * th), 33)
        if all(f(z) > 0 for z in probes):
            theta = th
            break
    if theta is None:
        return ConditionReport(
            "A",
            "fails",
            inputs={"theta_grid": list(theta_grid), "z_max": z_max},
            note="phi0 <= 0 at probes beyond every candidate theta",
        )
    increments = []
    lo = theta
    hi = z_max
    for _ in range(n_doublings + 1):
        val, _ = quad(lambda z: 1.0 / f(z), lo, hi, limit=200)
        increments.append(val)
        lo, hi = hi, 2 * hi
    ratios = [increments[i + 1] / increments[i] for i in range(len(increments) - 1) if increments[i] > 0]
    evidence = tuple((float(z_max * 2**i), float(v)) for i, v in enumerate(increments))
    tail = ratios[-3:]
    if len(tail) == 3 and all(r < 0.9 for r in tail):
        verdict = "holds"
    elif len(tail) == 3 and all(r >= 1.0 - 1e-12 for r in tail):
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return ConditionReport(
        "A",
        verdict,
        evidence=evidence,
        inputs={"theta": theta, "z_max": z_max},
        extras={"tail_ratios": ratios, "theta": theta},
    )


def check_B(
    params: ModelParams,
    eps: float,
    eta: float,
    a_grid: Sequence[float] | None = None,
) -> ConditionReport:
    """Overlap of n_eps with its shifts over |a| <= eta, plus the first
    z2-moment outside the truncation band."""
    if eps <= 0 or eta <= 0:
        raise DomainError("eps and eta must be > 0")
    if a_grid is None:
        a_grid = np.linspace(-eta, eta, 9)
    n_eps = levy_restrict_tail(params.n, eps)
    marg = n_eps.m2
    evidence = []
    note = ""
    min_overlap = math.inf
    for a in a_grid:
        if abs(a) > eta + 1e-15:
            raise DomainError("a_grid must lie in [-eta, eta]")
        if marg.is_purely_atomic and a != 0.0:
            shifted = marg.shift(float(a))
            positions = [p for p, _ in marg.atoms]
            if not any(
                abs(ps - p) <= 1e-12 for ps, _ in shifted.atoms for p in positions
            ):
                note = "atomic n_eps: shifted atoms do not match, overlap identically 0"
        ov, _, _, _ = overlap_stats(marg, marg.shift(float(a)))
        evidence.append((float(a), float(ov)))
        min_overlap = min(min_overlap, ov)
    moment = _abs_z2_moment_outside(params.n, eps)
    moment_finite = math.isfinite(moment)
    verdict = "holds" if (min_overlap > 0 and moment_finite) else "fails"
    return ConditionReport(
        "B",
        verdict,
        evidence=tuple(evidence),
        inputs={"eps": eps, "eta": eta},
        extras={
            "C_eps": float(overlap_stats(marg, marg)[2]),
            "min_overlap": float(min_overlap),
            "abs_z2_moment": moment,
        },
        note=note,
    )


def _abs_z2_moment_outside(n: LevyMeasure, eps: float) -> float:
    total = 0.0
    for region in (((0.0, np.inf), (-np.inf, -eps)), ((0.0, np.inf), (eps, np.inf))):
        try:
            total += float(np.real(levy_integral(n, lambda z1, z2: np.abs(z2), region=region)))
        except Exception:
            return math.inf
    return total


def shift_tv_ratio(marg: Marginal1D, rho: float, halves: bool = True) -> float:
    """sup over a in {+-rho, +-rho/2} of |marg - shift_a marg|(R) / rho."""
    shifts = [rho, -rho]
    if halves:
        shifts += [rho / 2, -rho / 2]
    best = 0.0
    for a in shifts:
        _, tv, _, _ = overlap_stats(marg, marg.shift(a))
        best = max(best, tv / abs(a))
    return best


def check_C(
    params: ModelParams,
    eps: float,
    rho_grid: Sequence[float] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
    second_moment: bool = False,
) -> ConditionReport:
    """Shift total-variation ratio r(rho) for n_eps over a decreasing rho
    grid.  Lambda is the sup of r over all probed rho (probe-based,
    under-estimates the true sup)."""
    rho_grid = list(rho_grid)
    if any(rho_grid[i + 1] >= rho_grid[i] for i in range(len(rho_grid) - 1)):
        raise DomainError("rho_grid must be strictly decreasing")
    n_eps = levy_restrict_tail(params.n, eps)
    marg = n_eps.m2
    C_eps = overlap_stats(marg, marg)[2]
    evidence = []
    for rho in rho_grid:
        evidence.append((float(rho), float(shift_tv_ratio(marg, float(rho)))))
    values = [v for _, v in evidence]
    Lambda = max(values) if values else math.inf
    tail = values[-3:]
    stable = len(tail) == 3 and min(tail) > 0 and max(tail) / min(tail) < 2.0
    if C_eps == 0.0:
        verdict = "fails"
    elif stable:
        verdict = "holds"
    elif len(tail) == 3 and values[-1] > 10 * values[0] > 0:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    extras = {"Lambda": float(Lambda), "C_eps": float(C_eps)}
    if second_moment:
        mom2 = _z2_sq_moment_tail(params.n)
        extras["z2_sq_tail_moment"] = mom2
        if not math.isfinite(mom2):
            verdict = "fails"
    return ConditionReport(
        "Cprime" if second_moment else "C",
        verdict,
        evidence=tuple(evidence),
        inputs={"eps": eps, "rho_grid": rho_grid},
        extras=extras,
    )


def _z2_sq_moment_tail(n: LevyMeasure) -> float:
    total = 0.0
    for region in (((0.0, np.inf), (-np.inf, -1.0)), ((0.0, np.inf), (1.0, np.inf))):
        try:
            total += float(np.real(levy_integral(n, lambda z1, z2: z2**2, region=region)))
        except Exception:
            return math.inf
    return total


def check_Cprime(params: ModelParams, eps: float, rho_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3)) -> ConditionReport:
    return check_C(params, eps, rho_grid, second_moment=True)


def sigma_k_marginal(
    rho0: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    k: float,
    domain: tuple[float, float],
    nodes: int = 512,
) -> Marginal1D:
    """The density min(k*g, rho0) on the given interval."""

    def fn(x, _k=k):
        return np.minimum(_k * np.asarray(g(x)), np.asarray(rho0(x)))

    return Marginal1D(pieces=(DensityPiece(domain[0], domain[1], fn, nodes),))


def check_D(
    params: ModelParams,
    rho0: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    k_list: Sequence[float] = (1, 4, 16, 64, 256),
    K: float = 1,
    rho_probe: float = 1e-2,
) -> ConditionReport:
    """Builds sigma_k = min(k g, rho0) dz2, reports masses, shift-TV ratios
    and first moments, and growth evidence for sigma_0(R) = inf."""
    if any(k < 1 for k in k_list):
        raise DomainError("k_list entries must be >= 1")
    # domination probe: rho0 must sit below the z2-marginal density of n
    probe = np.linspace(domain[0], domain[1], 257)
    probe = probe[(probe != 0.0)]
    n_marg = params.n.z2_marginal()
    n_dens = n_marg.density_at(probe)
    r_vals = np.asarray(rho0(probe), dtype=float)
    if np.any(r_vals > n_dens + 1e-9):
        worst = float(np.max(r_vals - n_dens))
        raise DominationViolated(
            f"rho0 exceeds the z2-marginal density of n by {worst:.3g} at a probe point"
        )
    evidence = []
    masses = []
    extras_rows = []
    for k in sorted(k_list):
        if k < K:
            continue
        sk = sigma_k_marginal(rho0, g, float(k), domain)
        mass = sk.mass(tol=1e-6)
        Lam_k = shift_tv_ratio(sk, rho_probe)
        mom1 = sk.integrate(lambda x: np.abs(x), tol=1e-6)
        masses.append(mass)
        evidence.append((float(k), float(mass)))
        extras_rows.append(
            {"k": float(k), "mass": float(mass), "Lambda_k": float(Lam_k), "abs_moment": float(mom1)}
        )
    increasing = all(masses[i + 1] >= masses[i] - 1e-12 for i in range(len(masses) - 1))
    finite = all(math.isfinite(r["mass"]) and math.isfinite(r["Lambda_k"]) and math.isfinite(r["abs_moment"]) for r in extras_rows)
    growth = [masses[i + 1] / masses[i] for i in range(len(masses) - 1) if masses[i] > 0]
    unbounded = len(growth) >= 1 and growth[-1] >= 1.5
    if finite and increasing and masses and masses[-1] > 0:
        verdict = "holds"
    elif not masses or masses[-1] == 0:
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return ConditionReport(
        "D",
        verdict,
        evidence=tuple(evidence),
        inputs={"k_list": [float(k) for k in k_list], "K": float(K), "domain": list(domain)},
        extras={"rows": extras_rows, "sigma0_mass_unbounded_evidence": bool(unbounded)},
    )
