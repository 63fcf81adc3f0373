"""Generalized Riccati flow, transition/stationary transforms and vbar.

V2 is explicit (exp(-b2 t) u2); V1 solves V1' = phi((V1, V2(t))) with the
8th-order Dormand-Prince pair (`dop853.solve`), and the psi integral is
carried as an extra state so the characteristic functional comes out of one
solve.  A solve can be continued from an earlier one's horizon
(``solve_V(..., start=sol)``): the stationary transform extends its horizon
by doubling that way, one solve continued from T to 2T, never restarted
from 0.
Every phi and psi value here comes from the model's one cached `Mechanisms`
object (``params.mechanisms``), whose frozen jump rules either converged to
1e-10 or raised QuadratureError.

vbar is obtained by inverting t = int_v^inf dz / phi0(z) rather than by
integrating the ODE backwards from a cap: the initial condition sits at
0+ with value +inf, and the integral inversion is the stable route.  That
integral, and the closed stationary transform's int psi(z, 0)/phi(z, 0),
run on bare Gauss panels doubled on the package's one node-doubling loop
(`measures._converge`): each converges or raises QuadratureError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dop853
from .errors import (
    ConditionAViolated,
    DomainError,
    NoConvergence,
    SingularIntegrand,
)
from .measures import levy_integral
from .mechanisms import UPoint, _brent_roots, _inv_phi0_integral, _line_integral
from .model import ModelParams

_CLAMP_TOL = 1e-9
_ODE_TOL = 1e-10  # DOP853 rtol; atol is 1e-4 times it
_PSI_TAIL_TOL = 1e-10  # stationary transform: psi integral over the last doubling
_TAIL_TOL = 1e-12  # vbar: the last doubling window adds less than this
_MAX_WINDOWS = 200
_BLOCK = 16  # vbar windows integrated per batch


@dataclass
class RiccatiSolution:
    """Dense-output solution of the Riccati system for one u on [0, T]."""

    u: UPoint
    T: float
    b2: float
    _sol: dop853.Dense  # its last state is where a continuation starts
    clamped: bool
    nfev: int  # RHS evaluations of the last segment's steps, as scipy's non-dense solve
    nsteps: int

    def _at(self, t: float) -> np.ndarray:
        # the dense interpolant extrapolates silently outside the solved span
        if not 0.0 <= t <= self.T:
            raise DomainError(f"t={t} is outside the solved horizon [0, {self.T}]")
        return self._sol(t)

    def V1(self, t: float) -> complex:
        v = complex(self._at(t)[0])
        if v.real > 0.0:
            v = 1j * v.imag
        return v

    def V2(self, t: float) -> complex:
        return math.exp(-self.b2 * t) * self.u.u2

    def psi_accum(self, t: float) -> complex:
        return complex(self._at(t)[1])

    def transform(self, x: tuple[float, float]) -> complex:
        """E_x[exp(u1 Y_T + u2 Z_T)] at the solved horizon T."""
        x1, x2 = x
        if x1 < 0:
            raise DomainError("x1 must be >= 0")
        T = self.T
        return complex(np.exp(x1 * self.V1(T) + x2 * self.V2(T) + self.psi_accum(T)))

    def diagnostics(self) -> dict:
        """nfev and nsteps of the last segment solved, the RHS evaluations
        its dense output has run so far (three per step read inside), and
        whether V1 was clamped."""
        return {"nfev": self.nfev, "dense_nfev": self._sol.nfev, "nsteps": self.nsteps, "clamped": self.clamped}


def solve_V(
    params: ModelParams,
    u: UPoint,
    T: float,
    start: RiccatiSolution | None = None,
) -> RiccatiSolution:
    """Advance V1 and the accumulated psi integral to horizon T.

    With ``start`` (a solution for the same u) the solve continues from
    start.T and its state there; the result is dense on the whole of [0, T],
    while nfev and nsteps count the new segment only."""
    if T <= 0:
        raise DomainError("T must be > 0")
    if start is not None and (start.u != u or not start.T < T):
        raise DomainError("a continued solve needs the same u and T > start.T")
    mech = params.mechanisms
    b2 = params.b2
    u2_0 = u.u2

    def rhs(t, y):
        u2 = np.exp(-b2 * t) * u2_0
        v1 = y[0]
        if v1.real > 0.0:
            v1 = 1j * v1.imag
        return np.array([mech.phi(v1, u2), mech.psi(v1, u2)], dtype=complex)

    if start is None:
        t0, y0, first_step = 0.0, np.array([u.u1, 0.0], dtype=complex), min(1e-3, T / 10)
    else:
        t0, y0, first_step = start.T, start._sol.y[:, -1], None
    dense, nfev = dop853.solve(rhs, t0, y0, T, rtol=_ODE_TOL, atol=_ODE_TOL * 1e-4, first_step=first_step)
    clamped = bool(np.any(dense.y[0].real > _CLAMP_TOL))
    nsteps = len(dense.t)
    if start is not None:
        dense = start._sol.extended(dense)
        clamped = clamped or start.clamped
    return RiccatiSolution(u=u, T=T, b2=b2, _sol=dense, clamped=clamped, nfev=nfev, nsteps=nsteps)


def char_fn(
    params: ModelParams,
    t: float,
    x: tuple[float, float],
    u: UPoint,
) -> complex:
    """E_x[exp(u1 Y_t + u2 Z_t)] via the Riccati representation."""
    x1, x2 = x
    if x1 < 0:
        raise DomainError("x1 must be >= 0")
    if t == 0.0:
        return complex(np.exp(x1 * u.u1 + x2 * u.u2))
    return solve_V(params, u, t).transform(x)


# ---------------------------------------------------------------------------
# vbar
# ---------------------------------------------------------------------------


class Vbar:
    """The decreasing solution of v' = -phi0(v) started from +infinity,
    evaluated by inverting the time integral t = int_v^inf dz/phi0(z).

    The integral is tabulated once per doubling window as T(2^j) =
    int_{2^j}^inf dz/phi0: for j >= 0 at construction, up to the first window
    that adds less than _TAIL_TOL and less than the window before it
    (ConditionAViolated if none does within _MAX_WINDOWS), and below 1 as far
    down as a call needs.  Beyond the table the windows are taken to shrink
    geometrically at the ratio r of the last two, which adds r / (1 - r)
    times the last window (exact for phi0 ~ z^p, r = 2^(1-p)).  Requires
    phi0 > 0 on (0, inf) (subcritical branching).  Windows are
    integrated _BLOCK to a batch, entering the table as a search reaches
    them; the searches of an array of t run in lock step (`_brent_roots`).
    """

    def __init__(self, params: ModelParams):
        self._mech = mech = params.mechanisms
        if np.any(np.real(mech.phi(-np.geomspace(1e-8, 1e8, 65), 0.0)) <= 0):
            raise ConditionAViolated("phi0 must be positive on (0, inf) for vbar")
        self._integrals = self._batches = self._deepest = 0
        self._finite, self._pending = {}, []  # phi0(2^j) finite; windows below the table, next one last
        inc, block = [], []  # the windows above 1, and those integrated ahead of the stopping rule
        while len(inc) < 2 or inc[-1] >= min(_TAIL_TOL, inc[-2]):
            if len(inc) == _MAX_WINDOWS:
                raise ConditionAViolated("tail integral of 1/phi0 does not converge")
            if len(inc) == len(block):
                block += self._windows(np.arange(len(inc), min(len(inc) + _BLOCK, _MAX_WINDOWS)))
            inc.append(block[len(inc)])
        self._top = len(inc)
        self._r = inc[-1] / inc[-2]
        self._rest = self._r / (1.0 - self._r) * inc[-1]  # T(2^top)
        # summed from the top down, so that T(2^j) == time_from(2^j) bit for bit
        T = [self._rest]
        for w in reversed(inc):
            T.append(T[-1] + w)
        self._T = dict(enumerate(T[::-1]))

    def _integral(self, a, b) -> np.ndarray:
        """int_a^b dz / phi0(z) for each pair of a, b in one batch, counted in `diagnostics`."""
        val, level = _inv_phi0_integral(self._mech, a, b)
        self._integrals, self._batches = self._integrals + val.size, self._batches + 1
        self._deepest = max(self._deepest, level)
        return val

    def _windows(self, j: np.ndarray) -> list[float]:
        """int_{2^j}^{2^(j+1)} dz / phi0 for each j, in one batch."""
        return self._integral(np.ldexp(1.0, j), np.ldexp(1.0, j + 1)).tolist()

    def diagnostics(self) -> dict:
        """The windows tabulated at construction, the tail ratio r, the line
        integrals run so far, the batches they ran in (one node-doubling loop
        each), and the deepest doubling level (1 << level Gauss panels)."""
        return {"windows": self._top, "tail_ratio": self._r, "line_integrals": self._integrals,
                "batches": self._batches, "deepest_level": self._deepest}

    def _tail(self, j: int) -> float:
        """T(2^j): geometric above the table, extended window by window
        below its lowest entry."""
        if j >= self._top:
            return self._rest * self._r ** (j - self._top)
        while j not in self._T:
            low = min(self._T)
            if not self._pending:  # down to 2^-1074, the least positive float
                self._pending = self._windows(np.arange(max(low - _BLOCK, -1074), low))
            self._T[low - 1] = self._T[low] + self._pending.pop()
        return self._T[j]

    def time_from(self, v):
        """t such that vbar_t = v, for a float or an array of v: T at the top
        of v's window plus the part of that window above v."""
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise DomainError("v must be > 0")
        top = np.frexp(v.ravel())[1]  # 2^(top-1) <= v < 2^top
        t = np.array([self._tail(j) for j in top.tolist()]) + self._integral(v.ravel(), np.ldexp(1.0, top))
        return float(t[0]) if v.ndim == 0 else t.reshape(v.shape)

    def _edge(self, j: int) -> float:
        """time_from(2^j), as the root-find sees it: the table below its top;
        above, the real window plus the geometric T(2^(j+1)), not T(2^j)."""
        return self._tail(j) if j < self._top else self.time_from(2.0**j)

    def _phi0_finite(self, j: int) -> bool:
        """phi0(2^j) is finite, hence (phi0 increasing) on (0, 2^j]; once per j."""
        if j not in self._finite:
            with np.errstate(over="ignore", invalid="ignore"):
                self._finite[j] = bool(np.isfinite(np.real(self._mech.phi(np.float64(-(2.0**j)), 0.0))))
        return self._finite[j]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise DomainError("vbar requires t > 0")
        ts, a = t.ravel(), []
        for s in ts.tolist():  # the j with time_from(2^(j+1)) < s <= time_from(2^j)
            j = 0
            while self._edge(j) < s:
                j -= 1
                if j < sys.float_info.min_exp:
                    raise NoConvergence(f"vbar({s:g}) lies below the smallest normal float")
            while self._edge(j + 1) >= s:
                j += 1
                if j + 2 >= sys.float_info.max_exp:  # time_from(2^(j+1)) needs 2^(j+2)
                    raise NoConvergence(f"vbar({s:g}) lies above the largest float")
                if not self._phi0_finite(j + 2):
                    raise NoConvergence(f"vbar({s:g}): phi0 overflows below 2^{j + 2}")
            a.append(2.0**j)
        roots = _brent_roots(lambda w, i: self.time_from(w) - ts[i], a, [2.0 * x for x in a])
        return float(roots[0]) if t.ndim == 0 else roots.reshape(t.shape)


@dataclass(frozen=True)
class VBarTable:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.values) >= 0):
            raise ConditionAViolated("vbar table must be strictly decreasing")


def build_vbar_table(params: ModelParams, t_min: float = 1e-2, t_max: float = 10.0, n: int = 41) -> VBarTable:
    """vbar on n log-spaced times from t_min to t_max, in one call."""
    times = np.geomspace(t_min, t_max, n)
    return VBarTable(times=times, values=params.vbar(times))


# ---------------------------------------------------------------------------
# Stationary quantities
# ---------------------------------------------------------------------------


class StationaryTransform(NamedTuple):
    value: complex
    horizon: float
    nfev: int  # RHS evaluations of the steps of all horizon segments
    dense_nfev: int  # RHS evaluations of the dense output read at each horizon
    clamped: bool


def stationary_transform(params: ModelParams, u: UPoint) -> StationaryTransform:
    """exp{int_0^inf psi(V(s,u)) ds}: the psi integral is extended by horizon
    doubling, each doubling continuing the one solve from its last horizon,
    until the increment over the last doubling is below _PSI_TAIL_TOL."""
    if params.a1 <= 0 or params.b2 <= 0:
        raise DomainError("stationary transform requires a1 > 0 and b2 > 0")
    T = 1.0 / min(params.a1, params.b2)
    sol = None
    prev = None
    nfev = dense_nfev = 0
    for _ in range(40):
        sol = solve_V(params, u, T, start=sol)
        nfev += sol.nfev
        acc = sol.psi_accum(T)
        dense_nfev += sol._sol.nfev
        if prev is not None and abs(acc - prev) < _PSI_TAIL_TOL:
            return StationaryTransform(complex(np.exp(acc)), T, nfev, dense_nfev, sol.clamped)
        prev = acc
        T *= 2.0
    raise NoConvergence("psi tail did not converge after 40 horizon doublings")


def stationary_transform_closed(params: ModelParams, u1: float) -> float:
    """Laplace transform of the stationary law along the Y axis,
    exp{-int_0^{u1} psi(z, 0)/phi(z, 0) dz}.  The Gauss nodes never touch the
    removable singularity at 0."""
    if not -math.inf < u1 <= 0:
        raise DomainError("u1 must be finite and <= 0")
    if params.a1 <= 0:
        raise DomainError("requires a1 > 0")
    if u1 == 0.0:
        return 1.0
    mech = params.mechanisms
    if np.any(np.abs(np.real(mech.phi(np.linspace(u1, 0.0, 129)[1:-1], 0.0))) < 1e-14):
        raise SingularIntegrand("phi(z, 0) vanishes inside the integration range")
    val = _line_integral(lambda z: np.real(mech.psi(z, 0.0) / mech.phi(z, 0.0)), [u1], [0.0])[0][0]
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
