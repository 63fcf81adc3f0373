"""Generalized Riccati flow, transition/stationary transforms and vbar.

V2 is explicit (exp(-b2 t) u2); V1 solves V1' = phi((V1, V2(t))) with an
embedded adaptive Runge-Kutta pair, and the psi integral is carried as an
extra state so the characteristic functional comes out of one solve.

vbar is obtained by inverting t = int_v^inf dz / phi0(z) rather than by
integrating the ODE backwards from a cap: the initial condition sits at
0+ with value +inf, and the integral inversion is the stable route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import (
    ConditionAViolated,
    DomainError,
    NoConvergence,
    SingularIntegrand,
    StiffnessFailure,
)
from .measures import LevyMeasure, levy_integral
from .mechanisms import UPoint
from .model import ModelParams

_CLAMP_TOL = 1e-9


def _cached_cells(mu: LevyMeasure, probe, tol: float = 1e-10):
    """Freeze a quadrature grid for a measure: refine until the probe
    integral stabilizes, then reuse the grid for every later evaluation."""
    if mu.is_empty():
        return None
    prev = None
    best = None
    for level in range(20):
        if mu.n_cells(level) > (1 << 20):
            break
        z1, z2, _, _, w = mu.cells(level)
        best = (z1, z2, w)
        val = complex(np.sum(w * probe(z1, z2)))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            break
        if mu.kind == "atomic":
            break
        prev = val
    return best


class _Mechanisms:
    """phi/psi evaluators with frozen jump-measure grids (fast RHS)."""

    def __init__(self, params: ModelParams):
        self.p = params
        probe = lambda z1, z2: np.exp(-z1 + 1j * z2) - 1.0 - (-z1 + 1j * z2)
        self.m_cells = _cached_cells(params.m, probe)
        probe_n = lambda z1, z2: np.exp(-z1 + 1j * z2) - 1.0 - 1j * z2
        self.n_cells = _cached_cells(params.n, probe_n)

    def phi(self, u1: complex, u2: complex) -> complex:
        p = self.p
        val = (
            -p.a1 * u1
            - p.b1 * u2
            + (p.a11 + p.a12) * u1**2
            + 2.0 * (math.sqrt(p.a11 * p.a21) + math.sqrt(p.a12 * p.a22)) * u1 * u2
            + (p.a21 + p.a22) * u2**2
        )
        if self.m_cells is not None:
            z1, z2, w = self.m_cells
            e = u1 * z1 + u2 * z2
            val += np.sum(w * (np.exp(e) - 1.0 - e))
        return complex(val)

    def psi(self, u1: complex, u2: complex) -> complex:
        p = self.p
        val = p.a2 * u1 - p.b0 * u2 + 0.5 * p.sigma**2 * u2**2
        if self.n_cells is not None:
            z1, z2, w = self.n_cells
            val += np.sum(w * (np.exp(u1 * z1 + u2 * z2) - 1.0 - z2 * u2))
        return complex(val)

    def phi0(self, x):
        p = self.p
        x = np.asarray(x, dtype=float)
        val = p.a1 * x + (p.a11 + p.a12) * x**2
        if self.m_cells is not None:
            z1, _, w = self.m_cells
            val = val + np.sum(
                w[None, :] * (np.exp(-np.outer(x.ravel(), z1)) - 1.0 + np.outer(x.ravel(), z1)),
                axis=1,
            ).reshape(x.shape)
        return val


@dataclass
class RiccatiSolution:
    """Dense-output solution of the Riccati system for one u."""

    u: UPoint
    T: float
    b2: float
    _sol: object
    clamped: bool
    nfev: int
    nsteps: int

    def V1(self, t: float) -> complex:
        v = complex(self._sol(t)[0])
        if v.real > 0.0:
            v = 1j * v.imag
        return v

    def V2(self, t: float) -> complex:
        return math.exp(-self.b2 * t) * self.u.u2

    def psi_accum(self, t: float) -> complex:
        return complex(self._sol(t)[1])


def solve_V(params: ModelParams, u: UPoint, T: float, tol: float = 1e-10) -> RiccatiSolution:
    """Advance V1 and the accumulated psi integral to horizon T."""
    if T <= 0:
        raise DomainError("T must be > 0")
    mech = _Mechanisms(params)
    b2 = params.b2
    u2_0 = u.u2

    def rhs(t, y):
        u2 = np.exp(-b2 * t) * u2_0
        v1 = y[0]
        if v1.real > 0.0:
            v1 = 1j * v1.imag
        return np.array([mech.phi(v1, u2), mech.psi(v1, u2)], dtype=complex)

    sol = solve_ivp(
        rhs,
        (0.0, T),
        np.array([u.u1, 0.0], dtype=complex),
        method="RK45",
        rtol=tol,
        atol=tol * 1e-4,
        dense_output=True,
        first_step=min(1e-3, T / 10),
    )
    if not sol.success:
        raise StiffnessFailure(f"ODE solver failed: {sol.message}")
    clamped = bool(np.any(sol.y[0].real > _CLAMP_TOL))
    return RiccatiSolution(
        u=u,
        T=T,
        b2=b2,
        _sol=sol.sol,
        clamped=clamped,
        nfev=int(sol.nfev),
        nsteps=len(sol.t),
    )


def char_fn(
    params: ModelParams,
    t: float,
    x: tuple[float, float],
    u: UPoint,
    sol: RiccatiSolution | None = None,
    tol: float = 1e-10,
) -> complex:
    """E_x[exp(u1 Y_t + u2 Z_t)] via the Riccati representation."""
    x1, x2 = x
    if x1 < 0:
        raise DomainError("x1 must be >= 0")
    if t == 0.0:
        return complex(np.exp(x1 * u.u1 + x2 * u.u2))
    if sol is None or sol.T < t:
        sol = solve_V(params, u, t, tol=tol)
    return complex(np.exp(x1 * sol.V1(t) + x2 * sol.V2(t) + sol.psi_accum(t)))


# ---------------------------------------------------------------------------
# vbar
# ---------------------------------------------------------------------------


class Vbar:
    """The decreasing solution of v' = -phi0(v) started from +infinity,
    evaluated by inverting the time integral t = int_v^inf dz/phi0(z).

    Requires phi0 > 0 on (0, inf) (subcritical branching), which covers
    every model this package targets.
    """

    def __init__(self, params: ModelParams, tail_tol: float = 1e-12):
        self._mech = _Mechanisms(params)
        self._f = lambda z: float(self._mech.phi0(np.array([z]))[0])
        probes = np.geomspace(1e-8, 1e8, 65)
        vals = self._mech.phi0(probes)
        if np.any(vals <= 0):
            raise ConditionAViolated("phi0 must be positive on (0, inf) for vbar")
        # reference tail from v=1, summed over doubling windows
        total = 0.0
        lo, hi = 1.0, 2.0
        for _ in range(200):
            inc, _ = quad(lambda z: 1.0 / self._f(z), lo, hi, limit=200)
            total += inc
            if inc < tail_tol:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise ConditionAViolated("tail integral of 1/phi0 does not converge")
        self._tail_from_1 = total

    def time_from(self, v: float) -> float:
        """t such that vbar_t = v, i.e. int_v^inf dz/phi0."""
        if v <= 0:
            raise DomainError("v must be > 0")
        if v >= 1.0:
            inner, _ = quad(lambda z: 1.0 / self._f(z), 1.0, v, limit=200)
            return max(self._tail_from_1 - inner, 0.0)
        inner, _ = quad(lambda z: 1.0 / self._f(z), v, 1.0, limit=200)
        return self._tail_from_1 + inner

    def __call__(self, t: float) -> float:
        if t <= 0:
            raise DomainError("vbar requires t > 0")
        lo = hi = 1.0
        for _ in range(400):
            if self.time_from(hi) < t:
                break
            hi *= 2.0
        else:
            raise NoConvergence("vbar bracketing failed (upper)")
        for _ in range(400):
            if self.time_from(lo) > t:
                break
            lo *= 0.5
        else:
            raise NoConvergence("vbar bracketing failed (lower)")
        if lo == hi:
            return lo
        v = brentq(lambda w: self.time_from(w) - t, lo, hi, xtol=1e-300, rtol=1e-12)
        return float(v)


@dataclass(frozen=True)
class VBarTable:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.values) >= 0):
            raise ConditionAViolated("vbar table must be strictly decreasing")

    def __call__(self, t: float) -> float:
        return float(np.exp(np.interp(np.log(t), np.log(self.times), np.log(self.values))))


def build_vbar_table(
    params: ModelParams, t_min: float = 1e-2, t_max: float = 10.0, n: int = 41
) -> VBarTable:
    vb = Vbar(params)
    times = np.geomspace(t_min, t_max, n)
    values = np.array([vb(t) for t in times])
    return VBarTable(times=times, values=values)


# ---------------------------------------------------------------------------
# Stationary quantities
# ---------------------------------------------------------------------------


class StationaryTransform(NamedTuple):
    value: complex
    horizon: float


def stationary_transform(
    params: ModelParams, u: UPoint, tail_tol: float = 1e-10
) -> StationaryTransform:
    """exp{int_0^inf psi(V(s,u)) ds}: psi integral extended by horizon
    doubling until the increment over the last doubling is below tail_tol."""
    if params.a1 <= 0 or params.b2 <= 0:
        raise DomainError("stationary transform requires a1 > 0 and b2 > 0")
    T = 1.0 / min(params.a1, params.b2)
    prev = None
    for _ in range(40):
        sol = solve_V(params, u, T)
        acc = sol.psi_accum(T)
        if prev is not None and abs(acc - prev) < tail_tol:
            return StationaryTransform(complex(np.exp(acc)), T)
        prev = acc
        T *= 2.0
    raise NoConvergence("psi tail did not converge after 40 horizon doublings")


def stationary_transform_closed(params: ModelParams, u1: float) -> float:
    """Laplace transform of the stationary law along the Y axis,
    exp{-int_0^{u1} P(z)/phi0_tilde(z) dz}, with the removable singularity
    at 0 handled by the derivative ratio."""
    if u1 > 0:
        raise DomainError("u1 must be <= 0")
    if params.a1 <= 0:
        raise DomainError("requires a1 > 0")
    if u1 == 0.0:
        return 1.0
    mech = _Mechanisms(params)
    gam = gamma_coeff(params)
    limit0 = -gam / params.a1

    def ptilde(z: float) -> float:
        val = params.a2 * z
        if mech.n_cells is not None:
            z1, _, w = mech.n_cells
            val += float(np.sum(w * (np.exp(z * z1) - 1.0)))
        return val

    def phit(z: float) -> float:
        p = params
        val = -p.a1 * z + (p.a11 + p.a12) * z**2
        if mech.m_cells is not None:
            z1, _, w = mech.m_cells
            val += float(np.sum(w * (np.exp(z * z1) - 1.0 - z * z1)))
        return val

    for z in np.linspace(u1, 0.0, 129)[1:-1]:
        if abs(phit(float(z))) < 1e-14:
            raise SingularIntegrand("phi0_tilde vanishes inside the integration range")

    def g(z: float) -> float:
        if abs(z) < 1e-6:
            return limit0
        return ptilde(z) / phit(z)

    val, _ = quad(g, u1, 0.0, limit=400)
    return float(np.exp(val))


def gamma_coeff(params: ModelParams) -> float:
    """gamma = a2 + int z1 n(dz)."""
    extra = 0.0
    if not params.n.is_empty():
        extra = float(np.real(levy_integral(params.n, lambda z1, z2: z1)))
    return params.a2 + extra


def delta1(params: ModelParams) -> float:
    """Stationary mean of Y: (a2 + int z1 n(dz)) / a1."""
    if params.a1 <= 0:
        raise DomainError("delta1 requires a1 > 0")
    g = gamma_coeff(params)
    if not math.isfinite(g):
        raise DomainError("int z1 n(dz) must be finite")
    return g / params.a1


def cbi_mean(params: ModelParams, t: float, y0: float) -> float:
    """E[Y_t | Y_0 = y0] = y0 e^{-a1 t} + (gamma/a1)(1 - e^{-a1 t})."""
    if params.a1 == 0:
        raise DomainError("cbi_mean requires a1 != 0")
    g = gamma_coeff(params)
    e = math.exp(-params.a1 * t)
    return y0 * e + (g / params.a1) * (1.0 - e)
