"""Affine mechanisms and numeric checkers for the jump-activity conditions.

Integrals of 1/phi0 (condition (A), vbar) and the closed stationary
integrand run on the package's one node-doubling loop
(`measures._converge`): each converges to _LINE_TOL or raises
QuadratureError.  Condition (A) reads the decay of those integrals over
doubling windows, and the shift total-variation ratios of (B)-(D) are probed
on finite grids; verdicts may be "inconclusive" when the evidence is
non-monotone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DominationViolated, DomainError
from .measures import (
    DensityPiece,
    LevyMeasure,
    Marginal1D,
    _converge,
    _is_atomic_only,
    grid_integral,
    levy_restrict_tail,
    overlap_stats,
)
from .model import ModelParams, _try_integral

_RE_TOL = 1e-12
_RULE_TOL = 1e-10
_LINE_TOL = 1e-13
# condition (A): thetas, then windows [theta, _A_Z_MAX] and _A_DOUBLINGS doublings
_A_THETAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
_A_Z_MAX = 64.0
_A_DOUBLINGS = 6


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


def _m_kernel(u1, u2, z1, z2):
    """e^{<u,z>} - 1 - <u,z> on the outer product of u and the nodes z."""
    e = np.multiply.outer(u1, z1) + np.multiply.outer(u2, z2)
    return np.expm1(e) - e


def _n_kernel(u1, u2, z1, z2):
    """e^{<u,z>} - 1 - u2 z2 on the outer product of u and the nodes z."""
    e2 = np.multiply.outer(u2, z2)
    return np.expm1(np.multiply.outer(u1, z1) + e2) - e2


def _jump_integral(rule, kernel, u1, u2):
    """Sum of w * kernel over a frozen rule, vectorised over u; 0 if empty."""
    z1, z2, w = rule
    return np.sum(w * kernel(u1, u2, z1, z2), axis=-1) if w.size else 0.0


def _box(u1, u2) -> tuple[int, ...]:
    """Levels of max |Re u1|, max |Im u1| and max |u2|: -1 for a part that is
    0, else the least j >= 0 with that part <= 2^j (0 for inf/nan)."""
    if isinstance(u1, complex | float) and isinstance(u2, complex | float):
        parts = (abs(u1.real), abs(u1.imag), abs(u2))
    else:
        u1 = np.asarray(u1)
        parts = (float(np.max(np.abs(x))) for x in (u1.real, u1.imag, u2))
    return tuple(
        -1 if s == 0 else math.ceil(math.log2(s)) if 1.0 < s < math.inf else 0 for s in parts
    )


class Mechanisms:
    """phi and psi of one model, vectorised over u, on frozen quadrature
    rules for m and n.

    A rule serves each u whose |Re u1|, |Im u1|, |u2| lie below the same
    powers of two R1, R2, R3 >= 1 (0 for a part that is 0).  It converges
    at tol 1e-10 on the nonzero probes (-R1, 0), (i R2, 0), (0, i R3), or
    raises QuadratureError at NODE_CAP, and is kept once built; the |u| <= 1
    rules are built with the object (``ModelParams.mechanisms``).
    phi0(x) = phi(-x, 0), phi0_tilde(x) = phi(x, 0), P(x) = psi(x, 0).
    """

    def __init__(self, params: ModelParams):
        self.p = params
        self._jumps = {
            kind: (mu, kernel, _is_atomic_only(mu))
            for kind, mu, kernel in (("m", params.m, _m_kernel), ("n", params.n, _n_kernel))
        }
        self._rules: dict = {}
        for kind in self._jumps:
            self.rule(kind, -1.0, 1j)

    def rule(self, kind: str, u1, u2):
        """The frozen rule (z1, z2, w) for m or n (kind "m"/"n") that serves u."""
        mu, kernel, exact = self._jumps[kind]
        key = (kind, None if exact else _box(u1, u2))
        if key not in self._rules:
            r1, r2, r3 = (0.0 if j < 0 else 2.0**j for j in key[1] or (0, 0, 0))
            pu1, pu2 = np.array([-r1, 1j * r2, 0.0]), np.array([0.0, 0.0, 1j * r3])
            live = (pu1 != 0) | (pu2 != 0)
            f = lambda z1, z2: kernel(pu1[live], pu2[live], z1, z2)
            self._rules[key] = _converge(mu, f, _RULE_TOL)[0]
        return self._rules[key]

    def phi(self, u1, u2):
        """Branching-side mechanism: drift, diffusion and compensated m-jumps."""
        p = self.p
        return (
            -p.a1 * u1
            - p.b1 * u2
            + p.alpha_y * u1**2
            + 2.0 * (math.sqrt(p.a11 * p.a21) + math.sqrt(p.a12 * p.a22)) * u1 * u2
            + (p.a21 + p.a22) * u2**2
            + _jump_integral(self.rule("m", u1, u2), _m_kernel, u1, u2)
        )

    def psi(self, u1, u2):
        """Immigration-side mechanism: drift, OU diffusion and n-jumps."""
        p = self.p
        return (
            p.a2 * u1
            - p.b0 * u2
            + 0.5 * p.sigma**2 * u2**2
            + _jump_integral(self.rule("n", u1, u2), _n_kernel, u1, u2)
        )


def phi(u: UPoint, params: ModelParams) -> complex:
    """Branching-side mechanism: drift, diffusion and compensated m-jumps."""
    return complex(params.mechanisms.phi(u.u1, u.u2))


def psi(u: UPoint, params: ModelParams) -> complex:
    """Immigration-side mechanism: drift, OU diffusion and n-jumps."""
    return complex(params.mechanisms.psi(u.u1, u.u2))


def phi0(x: float, params: ModelParams) -> float:
    """Branching mechanism on R+: phi((-x, 0))."""
    if x < 0:
        raise DomainError("phi0 requires x >= 0")
    return float(np.real(params.mechanisms.phi(-x, 0.0)))


def phi0_tilde(x: float, params: ModelParams) -> float:
    """phi0 continued to R-: phi0_tilde(x) = phi0(-x) = phi((x, 0))."""
    if x > 0:
        raise DomainError("phi0_tilde requires x <= 0")
    return float(np.real(params.mechanisms.phi(x, 0.0)))


def P_mech(x: float, params: ModelParams) -> float:
    """Immigration mechanism on R-: psi((x, 0))."""
    if x > 0:
        raise DomainError("P_mech requires x <= 0")
    return float(np.real(params.mechanisms.psi(x, 0.0)))


def _line_integral(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """int_lo^hi f on the node-doubling loop, to _LINE_TOL; 0 if lo == hi."""
    line = Marginal1D(pieces=(DensityPiece(lo, hi, np.ones_like, 1),))
    return line.integrate(f, tol=_LINE_TOL)


def _inv_phi0_integral(mech: Mechanisms, a: float, b: float) -> float:
    """int_a^b dz / phi0(z) for 0 < a <= b, integrated in s = log z."""
    f = lambda s: np.exp(s) / np.real(mech.phi(-np.exp(s), 0.0))
    return _line_integral(f, math.log(a), math.log(b))


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


def check_A(params: ModelParams) -> ConditionReport:
    """Grey-type check: positivity of phi0 past some theta and geometric
    decay of the doubling increments of int dz / phi0(z)."""
    mech = params.mechanisms
    positive = lambda th: np.all(
        np.real(mech.phi(-np.geomspace(th, max(_A_Z_MAX, 4 * th), 33), 0.0)) > 0
    )
    theta = next((th for th in _A_THETAS if positive(th)), None)
    if theta is None:
        return ConditionReport(
            "A",
            "fails",
            inputs={"theta_grid": list(_A_THETAS), "z_max": _A_Z_MAX},
            note="phi0 <= 0 at probes beyond every candidate theta",
        )
    edges = [theta] + [_A_Z_MAX * 2**i for i in range(_A_DOUBLINGS + 1)]
    increments = [_inv_phi0_integral(mech, lo, hi) for lo, hi in zip(edges, edges[1:])]
    ratios = [increments[i + 1] / increments[i] for i in range(len(increments) - 1) if increments[i] > 0]
    evidence = tuple((float(_A_Z_MAX * 2**i), float(v)) for i, v in enumerate(increments))
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
        inputs={"theta": theta, "z_max": _A_Z_MAX},
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
    moment = _z2_tail_integral(params.n, lambda z1, z2: np.abs(z2), eps)
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


def _z2_tail_integral(n: LevyMeasure, f, eps: float) -> float:
    """Integral of f over {|z2| >= eps}; inf when the quadrature diverges."""
    return sum(
        _try_integral(n, f, region=((0.0, np.inf), band))
        for band in ((-np.inf, -eps), (eps, np.inf))
    )


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
        mom2 = _z2_tail_integral(params.n, lambda z1, z2: z2**2, 1.0)
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
        # rho0 may jump, so no node-doubling rule converges on sigma_k: mass
        # and moment come from the fixed grid of the shift-TV ratio
        mass = overlap_stats(sk, sk)[2]
        Lam_k = shift_tv_ratio(sk, rho_probe)
        mom1 = grid_integral(sk, np.abs)
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
