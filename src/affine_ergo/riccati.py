"""Generalized Riccati flow, transition/stationary transforms and vbar.

V2 is explicit (exp(-b2 t) u2); V1 solves V1' = phi((V1, V2(t))) with an
embedded adaptive Runge-Kutta pair, and the psi integral is carried as an
extra state so the characteristic functional comes out of one solve.
Every phi, psi, phi0, phi0_tilde and P value here comes from the model's
one cached `Mechanisms` object (``params.mechanisms``), whose frozen jump
rules either converged to 1e-10 or raised QuadratureError.

vbar is obtained by inverting t = int_v^inf dz / phi0(z) rather than by
integrating the ODE backwards from a cap: the initial condition sits at
0+ with value +inf, and the integral inversion is the stable route.  That
integral, and the closed stationary transform's int P/phi0_tilde, run on
the package's one node-doubling loop (`measures._converge`): each
converges or raises QuadratureError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    ConditionAViolated,
    DomainError,
    NoConvergence,
    SingularIntegrand,
    StiffnessFailure,
)
from .measures import levy_integral
from .mechanisms import UPoint, _inv_phi0_integral, _line_integral
from .model import ModelParams

_CLAMP_TOL = 1e-9
_TAIL_TOL = 1e-12  # vbar: the last doubling window adds less than this
_MAX_WINDOWS = 200


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
    mech = params.mechanisms
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

    The integral is tabulated once per doubling window as T(2^j) =
    int_{2^j}^inf dz/phi0: for j >= 0 at construction, up to the first window
    that adds less than _TAIL_TOL (ConditionAViolated if none does within
    _MAX_WINDOWS), and below 1 as far down as a call needs.  Requires
    phi0 > 0 on (0, inf) (subcritical branching).
    """

    def __init__(self, params: ModelParams):
        self._mech = mech = params.mechanisms
        if np.any(np.real(mech.phi(-np.geomspace(1e-8, 1e8, 65), 0.0)) <= 0):
            raise ConditionAViolated("phi0 must be positive on (0, inf) for vbar")
        inc = []
        while not inc or inc[-1] >= _TAIL_TOL:
            if len(inc) == _MAX_WINDOWS:
                raise ConditionAViolated("tail integral of 1/phi0 does not converge")
            inc.append(_inv_phi0_integral(mech, 2.0 ** len(inc), 2.0 ** (len(inc) + 1)))
        self._top = len(inc)  # T(2^j) counts as 0 for j >= _top
        self._T = dict(enumerate(np.cumsum(inc[::-1])[::-1].tolist()))

    def _tail(self, j: int) -> float:
        """T(2^j), extending the table window by window below its lowest entry."""
        for k in range(min(self._T) - 1, j - 1, -1):
            self._T[k] = self.time_from(2.0**k)
        return self._T.get(j, 0.0)

    def time_from(self, v: float) -> float:
        """t such that vbar_t = v: T at the top of v's window plus the part
        of that window above v."""
        if v <= 0:
            raise DomainError("v must be > 0")
        j = math.frexp(v)[1] - 1  # 2^j <= v < 2^(j+1)
        if j >= self._top:
            return 0.0
        return self._tail(j + 1) + _inv_phi0_integral(self._mech, v, 2.0 ** (j + 1))

    def __call__(self, t: float) -> float:
        if t <= 0:
            raise DomainError("vbar requires t > 0")
        j = 0
        while self._tail(j) < t:
            j -= 1
            if j < sys.float_info.min_exp:
                raise NoConvergence(f"vbar({t:g}) lies below the smallest normal float")
        while self._tail(j + 1) >= t:
            j += 1
        # T(2^(j+1)) < t <= T(2^j): one root-find inside the window [2^j, 2^(j+1)]
        v = brentq(lambda w: self.time_from(w) - t, 2.0**j, 2.0 ** (j + 1), xtol=1e-300, rtol=1e-12)
        return float(v)


@dataclass(frozen=True)
class VBarTable:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.values) >= 0):
            raise ConditionAViolated("vbar table must be strictly decreasing")


def build_vbar_table(
    params: ModelParams, t_min: float = 1e-2, t_max: float = 10.0, n: int = 41
) -> VBarTable:
    times = np.geomspace(t_min, t_max, n)
    values = np.array([params.vbar(t) for t in times])
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
    exp{-int_0^{u1} P(z)/phi0_tilde(z) dz}.  The Gauss nodes never touch the
    removable singularity at 0."""
    if u1 > 0:
        raise DomainError("u1 must be <= 0")
    if params.a1 <= 0:
        raise DomainError("requires a1 > 0")
    if u1 == 0.0:
        return 1.0
    mech = params.mechanisms
    if np.any(np.abs(np.real(mech.phi(np.linspace(u1, 0.0, 129)[1:-1], 0.0))) < 1e-14):
        raise SingularIntegrand("phi0_tilde vanishes inside the integration range")
    val = _line_integral(lambda z: np.real(mech.psi(z, 0.0) / mech.phi(z, 0.0)), u1, 0.0)
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
