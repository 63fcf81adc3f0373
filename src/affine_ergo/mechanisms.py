"""Affine mechanisms and numeric checkers for the jump-activity conditions
(A), (B), (C) and (C').

phi and psi are the methods of one `Mechanisms` per model
(`params.mechanisms`), which sum a measure's products per axis.  Every
integral runs on the package's one node-doubling loop (`measures._converge`)
and meets its tolerance or raises QuadratureError: 1/phi0 (condition (A),
vbar) and the closed stationary integrand on bare Gauss panels
(`_line_integral`), and the masses, overlaps and shift total variations of
(B), (C) and (C').  Condition (A) reads the decay of the 1/phi0 integrals
over doubling windows, and (C), (C') probe the shift ratios at finitely
many shifts; verdicts may be "inconclusive" when the evidence is
non-monotone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NoConvergence
from .measures import (
    GAUSS_ORDER,
    NODE_CAP,
    LevyMeasure,
    Marginal1D,
    _axis_cells,
    _converge,
    _on_measure,
    _try_integral,
    levy_restrict_tail,
    overlap_stats,
)
from .model import ModelParams, _jsonable

_RE_TOL = 1e-12
_RULE_TOL = 1e-10
_LINE_TOL = 1e-13
# condition (A): thetas, then windows [theta, _A_Z_MAX] and _A_DOUBLINGS doublings
_A_THETAS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
_A_Z_MAX = 64.0
_A_DOUBLINGS = 6
_C_RHOS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)  # conditions (C), (C'): decreasing shifts rho


@dataclass(frozen=True)
class UPoint:
    """A point of U = C_ x iR: Re(u1) <= 0 and Re(u2) = 0, both finite."""

    u1: complex
    u2: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.u1) and cmath.isfinite(self.u2)):
            raise DomainError("u1 and u2 must be finite")
        if self.u1.real > _RE_TOL:
            raise DomainError("Re(u1) must be <= 0")
        if abs(self.u2.real) > _RE_TOL:
            raise DomainError("u2 must be purely imaginary")


def _m_kernel(u1, u2, z1, z2):
    """e^{<u,z>} - 1 - <u,z> on the outer product of u and the nodes z."""
    e = np.multiply.outer(u1, z1) + np.multiply.outer(u2, z2)
    return np.expm1(e) - e


def _n_kernel(u1, u2, z1, z2):
    """e^{<u,z>} - 1 - u2 z2 on the outer product of u and the nodes z."""
    e2 = np.multiply.outer(u2, z2)
    return np.expm1(np.multiply.outer(u1, z1) + e2) - e2


def _axis_sums(u, axis, compensated: bool):
    """E = sum w expm1(u x) and, if compensated, K = sum w (expm1(u x) - u x)
    over the cells (x, w) of one axis, vectorised over u.  A scalar u = iy
    on the imaginary axis is summed in real arithmetic, with expm1(iyx) =
    -2 sin^2(yx/2) + i sin(yx) and K's imaginary part taken node by node as
    sin(yx) - yx, as the complex form does; u = 0 gives exact zeros."""
    x, w = axis
    if np.ndim(u) == 0 and u.real == 0:
        if u == 0:
            return 0j, 0j if compensated else None
        z = u.imag * x
        s = np.sin(0.5 * z)
        re, sin_z = w @ (-2.0 * s * s), np.sin(z)
        return complex(re, w @ sin_z), complex(re, w @ (sin_z - z)) if compensated else None
    e = np.multiply.outer(u, x)
    em = np.expm1(e)
    return np.sum(w * em, axis=-1), np.sum(w * (em - e), axis=-1) if compensated else None


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
    A measure's atoms are summed on the 2-D kernel, and each of its
    products per axis, on its marginals' cells (x_i, w_i) at the rule's
    level: with E_i = sum w_i expm1(u_i x_i), K_i = sum w_i (expm1(u_i x_i)
    - u_i x_i) and W_i = sum w_i, the tensor rule's sums are E1 E2 + K1 W2 +
    W1 K2 (m) and E1 E2 + E1 W2 + W1 K2 (n).  phi0(x) = phi(-x, 0).
    """

    def __init__(self, params: ModelParams):
        p = params
        # the coefficients of phi's and psi's terms, in the order they are added
        self._phi_coeffs = (
            -p.a1, p.b1, p.alpha_y, 2.0 * (math.sqrt(p.a11 * p.a21) + math.sqrt(p.a12 * p.a22)), p.a21 + p.a22
        )
        self._psi_coeffs = (p.a2, p.b0, 0.5 * p.sigma**2)
        self._jumps = {
            kind: (mu, kernel, mu.is_atomic)
            for kind, mu, kernel in (("m", params.m, _m_kernel), ("n", params.n, _n_kernel))
        }
        self._rules: dict = {}
        # a rule's key -> its atoms' (z1, z2, w), and each product's marginal cells and weight sums
        self._axes: dict = {}
        for kind in self._jumps:
            self.rule(kind, -1.0, 1j)

    def _key(self, kind: str, u1, u2):
        """The key of the rule for m or n (kind "m"/"n") that serves u,
        building that rule, and its products' per-axis cells, if it is new."""
        mu, kernel, exact = self._jumps[kind]
        key = (kind, None if exact else _box(u1, u2))
        if key not in self._rules:
            r1, r2, r3 = (0.0 if j < 0 else 2.0**j for j in key[1] or (0, 0, 0))
            pu1, pu2 = np.array([-r1, 1j * r2, 0.0]), np.array([0.0, 0.0, 1j * r3])
            live = (pu1 != 0) | (pu2 != 0)
            f = lambda z1, z2: kernel(pu1[live], pu2[live], z1, z2)
            (z1, z2, _, _, w), _, level = _on_measure(mu, f, _RULE_TOL)
            self._rules[key] = (z1, z2, w)
            axes = [[m.cells(level)[::2] for m in pair] for pair in mu.products]
            atoms = tuple(c[: len(mu.atoms)] for c in (z1, z2, w))
            self._axes[key] = (atoms, [(pair, [float(np.sum(w_i)) for _, w_i in pair]) for pair in axes])
        return key

    def rule(self, kind: str, u1, u2):
        """The frozen rule (z1, z2, w) for m or n (kind "m"/"n") that serves u."""
        return self._rules[self._key(kind, u1, u2)]

    def _jump_integral(self, kind: str, u1, u2):
        """The m- or n-jump part of phi or psi at u; 0 for an empty measure."""
        (z1, z2, w), products = self._axes[self._key(kind, u1, u2)]
        terms = [np.sum(w * self._jumps[kind][1](u1, u2, z1, z2), axis=-1)] if w.size else []
        for (axis1, axis2), (W1, W2) in products:
            E1, K1 = _axis_sums(u1, axis1, kind == "m")
            E2, K2 = _axis_sums(u2, axis2, True)
            terms.append(E1 * E2 + (K1 if kind == "m" else E1) * W2 + W1 * K2)
        return sum(terms[1:], terms[0]) if terms else 0.0

    def phi(self, u1, u2):
        """Branching-side mechanism: drift, diffusion and compensated m-jumps."""
        na1, b1, alpha_y, c12, c22 = self._phi_coeffs
        jumps = self._jump_integral("m", u1, u2)
        return na1 * u1 - b1 * u2 + alpha_y * u1**2 + c12 * u1 * u2 + c22 * u2**2 + jumps

    def psi(self, u1, u2):
        """Immigration-side mechanism: drift, OU diffusion and n-jumps."""
        a2, b0, half_sigma2 = self._psi_coeffs
        return a2 * u1 - b0 * u2 + half_sigma2 * u2**2 + self._jump_integral("n", u1, u2)


def _line_integral(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, int]:
    """int_lo^hi f on 1 << level bare Gauss panels, doubled on the
    node-doubling loop to _LINE_TOL, and that level."""
    rule = lambda level: None if GAUSS_ORDER << level > NODE_CAP else _axis_cells(lo, hi, 1, level)[:2]
    _, val, level = _converge(rule, f, _LINE_TOL)
    return float(val), level


def _inv_phi0_integral(mech: Mechanisms, a: float, b: float) -> tuple[float, int]:
    """int_a^b dz / phi0(z) for 0 < a <= b, integrated in s = log z, and
    the doubling level it took (`_line_integral`)."""
    f = lambda s: np.exp(s) / np.real(mech.phi(-np.exp(s), 0.0))
    return _line_integral(f, math.log(a), math.log(b))


def _brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4), to
    xtol 1e-300 and rtol 1e-12 within 100 iterations: scipy's BSD-3 brentq.c
    line for line, so the same root after the same evaluations.  f(a) and f(b)
    must differ in sign; NoConvergence where scipy raises."""
    xtol, rtol = 1e-300, 1e-12
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoConvergence(f"no sign change of f on [{a:g}, {b:g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoConvergence(f"Brent's method did not converge in 100 iterations on [{a:g}, {b:g}]")


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    condition: str  # "A" | "B" | "C" | "Cprime"
    verdict: str  # "holds" | "fails" | "inconclusive"
    evidence: tuple[tuple[float, float], ...] = ()
    inputs: dict = field(default_factory=dict, compare=False)
    extras: dict = field(default_factory=dict, compare=False)
    note: str = ""

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
    increments = [_inv_phi0_integral(mech, lo, hi)[0] for lo, hi in zip(edges, edges[1:])]
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
    marg = levy_restrict_tail(params.n, eps)
    evidence = []
    note = ""
    min_overlap = math.inf
    for a in a_grid:
        if abs(a) > eta + 1e-15:
            raise DomainError("a_grid must lie in [-eta, eta]")
        ov, _, _, _ = overlap_stats(marg, marg.shift(float(a)))
        if a != 0 and marg.is_purely_atomic and ov == 0:
            note = "atomic n_eps: shifted atoms do not match, overlap identically 0"
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
            "C_eps": marg.mass(),
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


def shift_tv_ratio(marg: Marginal1D, rho: float) -> float:
    """sup over a in {+-rho, +-rho/2} of |marg - shift_a marg|(R) / |a|."""
    best = 0.0
    for a in (rho, -rho, rho / 2, -rho / 2):
        _, tv, _, _ = overlap_stats(marg, marg.shift(a))
        best = max(best, tv / abs(a))
    return best


def check_C(params: ModelParams, eps: float, second_moment: bool = False) -> ConditionReport:
    """Shift total-variation ratio r(rho) for n_eps over the decreasing rho
    in _C_RHOS.  Lambda is the sup of r over all probed rho (probe-based,
    under-estimates the true sup)."""
    marg = levy_restrict_tail(params.n, eps)
    C_eps = marg.mass()
    values = [float(shift_tv_ratio(marg, rho)) for rho in _C_RHOS]
    Lambda = max(values)
    tail = values[-3:]
    if C_eps == 0.0:
        verdict = "fails"
    elif min(tail) > 0 and max(tail) / min(tail) < 2.0:
        verdict = "holds"
    elif values[-1] > 10 * values[0] > 0:
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
        evidence=tuple(zip(_C_RHOS, values)),
        inputs={"eps": eps, "rho_grid": list(_C_RHOS)},
        extras=extras,
    )


def check_Cprime(params: ModelParams, eps: float) -> ConditionReport:
    return check_C(params, eps, second_moment=True)
