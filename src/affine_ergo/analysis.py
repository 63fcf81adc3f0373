"""Total-variation estimation and numerical verification of the explicit
coupling, ergodicity and regularity bounds.

Conventions: tv_hat returns the half-L1 histogram distance in [0, 1]; the
operator-norm scale (sup over |f| <= 1, i.e. twice the half-L1 value) is
reported alongside wherever a bound is stated on that scale.  Every "<=
bound" comparison grants the empirical side a 3-standard-error allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .errors import (
    ConditionAViolated,
    ConditionCViolated,
    DomainError,
    EmptyDistribution,
    QuadratureError,
    SubcriticalityViolated,
)
from .measures import levy_integral, levy_restrict_tail
from .mechanisms import check_C
from .model import ModelParams, _jsonable
from .riccati import delta1
from .simulator import SimConfig, simulate_coupled, simulate_paths


# ---------------------------------------------------------------------------
# empirical laws and the TV estimator


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Equal-weight empirical law of (Y, Z) samples."""

    Y: np.ndarray
    Z: np.ndarray

    @staticmethod
    def from_samples(Y: np.ndarray, Z: np.ndarray) -> "EmpiricalDistribution":
        Y = np.asarray(Y, dtype=float)
        Z = np.asarray(Z, dtype=float)
        if Y.size == 0 or Y.shape != Z.shape:
            raise EmptyDistribution("need matching nonempty sample arrays")
        return EmpiricalDistribution(Y=Y, Z=Z)

    @property
    def n(self) -> int:
        return self.Y.size

    def histogram(self, edges_y: np.ndarray, edges_z: np.ndarray) -> np.ndarray:
        # outliers are clipped into the edge bins, so masses always sum to 1
        y = np.clip(self.Y, edges_y[0], np.nextafter(edges_y[-1], -np.inf))
        z = np.clip(self.Z, edges_z[0], np.nextafter(edges_z[-1], -np.inf))
        h, _, _ = np.histogram2d(y, z, bins=(edges_y, edges_z))
        return h / self.n


def _common_edges(P: EmpiricalDistribution, Q: EmpiricalDistribution, bins):
    n1, n2 = bins
    ys = np.concatenate([P.Y, Q.Y])
    zs = np.concatenate([P.Z, Q.Z])
    ylo, yhi = np.quantile(ys, [0.01, 0.99])
    zlo, zhi = np.quantile(zs, [0.01, 0.99])
    if yhi <= ylo:
        yhi = ylo + max(1e-12, abs(ylo) * 1e-9 + 1e-12)
    if zhi <= zlo:
        zhi = zlo + max(1e-12, abs(zlo) * 1e-9 + 1e-12)
    return np.linspace(ylo, yhi, n1 + 1), np.linspace(zlo, zhi, n2 + 1)


def tv_hat(P: EmpiricalDistribution, Q: EmpiricalDistribution, bins=(50, 50)) -> float:
    """Half-L1 histogram TV estimate on a common grid over the pooled
    1%-99% quantile box, in [0, 1]."""
    if P.n == 0 or Q.n == 0:
        raise EmptyDistribution("empty empirical distribution")
    ey, ez = _common_edges(P, Q, bins)
    hp = P.histogram(ey, ez)
    hq = Q.histogram(ey, ez)
    # each cell's mass count/n is rounded, so the half-sum can pass 1 by a few ulp
    return min(1.0, 0.5 * float(np.abs(hp - hq).sum()))


# ---------------------------------------------------------------------------
# reports


@dataclass
class BoundReport:
    label: str
    t_grid: np.ndarray
    empirical: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    constants: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def violations(self) -> np.ndarray:
        return (self.empirical - self.bound) > 3.0 * self.se

    @property
    def any_violation(self) -> bool:
        return bool(np.any(self.violations))

    def csv_rows(self):
        yield ("t", "empirical", "se", "bound", "violation")
        for t, e, s, b, v in zip(self.t_grid, self.empirical, self.se, self.bound, self.violations):
            yield (f"{t:.12g}", f"{e:.12g}", f"{s:.12g}", f"{b:.12g}", int(v))

    def to_json(self) -> dict:
        return _jsonable({
            "label": self.label,
            "t_grid": self.t_grid,
            "empirical": self.empirical,
            "se": self.se,
            "bound": self.bound,
            "violations": self.violations,
            "constants": self.constants,
            "extras": self.extras,
        })


# ---------------------------------------------------------------------------
# coupling constants and checks


def m_z2_sq_moment(params: ModelParams) -> float:
    if params.m.is_empty():
        return 0.0
    return float(np.real(levy_integral(params.m, lambda z1, z2: np.abs(z2) ** 2)))


def lemma31_constants(params: ModelParams) -> tuple[float, float, float, float]:
    """(C11, C12, C1, C2) of the second-moment coupling estimate; requires
    the strict subcritical regime 0 < 2 b2 < a1."""
    if not params.subcritical_strict:
        raise SubcriticalityViolated("need 0 < 2*b2 < a1")
    gap2 = params.a1 - 2.0 * params.b2
    C11 = m_z2_sq_moment(params) / gap2
    C12 = 8.0 * max(params.a21 / gap2, params.a22 / gap2)
    C1 = 4.0 * max(C11, C12)
    C2 = abs(params.b1) / (params.a1 - params.b2)
    return C11, C12, C1, C2


def _binomial_se(p, n: int):
    """Standard error of a proportion p of n, floored at that of 1/n."""
    return np.sqrt(np.maximum(p * (1 - p), 1.0 / n) / n)


def _mean_se(x: np.ndarray) -> float:
    """Standard error of the mean of the samples x; nan (null in JSON) for one."""
    return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else math.nan


def lemma31_check(
    params: ModelParams,
    x: tuple[float, float],
    y: tuple[float, float],
    t_grid,
    cfg: SimConfig,
    eta_grid=(),
) -> BoundReport:
    """Coupled-MC check of E|Z_t(x) - Z_t(y)| against the explicit
    e^{-b2 t}-scaled bound, plus Markov tail probabilities on eta_grid."""
    if x[0] < y[0]:
        x, y = y, x
    C11, C12, C1, C2 = lemma31_constants(params)
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    cfg = replace(cfg, T=float(t_grid[-1]), record_times=tuple(t_grid))
    ce = simulate_coupled(params, x, y, cfg)
    gap = x[0] - y[0]
    bracket = abs(x[1] - y[1]) + C2 * gap + math.sqrt(C1 * gap)
    emp = np.empty(len(t_grid))
    se = np.empty(len(t_grid))
    bound = np.empty(len(t_grid))
    tails = {}
    for i, t in enumerate(t_grid):
        k = ce.index_of(t)
        dz = np.abs(ce.Zx[k] - ce.Zy[k])
        emp[i] = float(dz.mean())
        se[i] = _mean_se(dz)
        Tt = math.exp(-params.b2 * t)
        bound[i] = Tt * bracket
        for eta in eta_grid:
            p = float(np.mean(dz > Tt * eta))
            tails[(float(t), float(eta))] = {
                "empirical": p,
                "se": float(_binomial_se(p, dz.size)),
                "bound": bracket / eta,
            }
    return BoundReport(
        label="coupled Z-difference first moment",
        t_grid=t_grid,
        empirical=emp,
        se=se,
        bound=bound,
        constants={"C11": C11, "C12": C12, "C1": C1, "C2": C2},
        extras={
            "tails": {f"t={t},eta={e}": v for (t, e), v in tails.items()},
            "threshold_absorbed_frac": float(ce.threshold_absorbed.mean()),
        },
    )


def prop42_constants(params: ModelParams, eps: float, Lambda: float | None = None) -> dict:
    """(C_eps, Lambda, kappa_tilde, C_tilde) of the exponential TV bound.
    Lambda defaults to the shift-TV probe estimate (probe-based)."""
    C_eps = levy_restrict_tail(params.n, eps).mass()
    if C_eps <= 0:
        raise ConditionCViolated("n_eps must have positive finite mass")
    probe_based = Lambda is None
    if Lambda is None:
        rep = check_C(params, eps)
        if rep.verdict == "fails":
            raise ConditionCViolated(rep.note or "shift-TV ratio probe diverges")
        Lambda = float(rep.extras["Lambda"])
    Lambda = min(Lambda, 2.0 * C_eps)  # shift TV never exceeds twice the mass
    _, _, C1, C2 = lemma31_constants(params)
    kt = params.b2 * C_eps / (C_eps + params.b2)
    Ct = max(2.0, Lambda / C_eps, C2 * Lambda / C_eps, math.sqrt(C1) * Lambda / C_eps)
    return {
        "C_eps": C_eps,
        "Lambda": Lambda,
        "Lambda_probe_based": probe_based,
        "kappa_tilde": kt,
        "C_tilde": Ct,
        "C1": C1,
        "C2": C2,
    }


def prop42_bound(
    params: ModelParams,
    x: tuple[float, float],
    y: tuple[float, float],
    t: float,
    eps: float,
    constants: dict | None = None,
) -> float:
    """Exponential-rate TV bound: C_tilde (1 + (vbar_{kt t / C_eps} + 1)|dx1|
    + sqrt(|dx1|) + |dx2|) e^{-kt t}."""
    if constants is None:
        constants = prop42_constants(params, eps)
    kt, Ct, C_eps = constants["kappa_tilde"], constants["C_tilde"], constants["C_eps"]
    d1 = abs(x[0] - y[0])
    d2 = abs(x[1] - y[1])
    vb = params.vbar(kt * t / C_eps) if d1 > 0 and t > 0 else 0.0
    return Ct * (1.0 + (vb + 1.0) * d1 + math.sqrt(d1) + d2) * math.exp(-kt * t)


# ---------------------------------------------------------------------------
# ergodicity experiments


def stationary_proxy(
    params: ModelParams, cfg: SimConfig, horizon: float, seed_tag: int = 1
) -> EmpiricalDistribution:
    """Long-horizon ensemble standing in for the stationary law."""
    x0 = (delta1(params) if params.a1 > 0 else 0.0, 0.0)
    c = replace(
        cfg,
        T=horizon,
        record_times=(horizon,),
        seed=rngmod.derive_seed(cfg.seed, seed_tag),
    )
    ens = simulate_paths(params, x0, c)
    return EmpiricalDistribution.from_samples(ens.Y[0], ens.Z[0])


def ergodicity_curve(
    params: ModelParams,
    x: tuple[float, float],
    t_grid,
    cfg: SimConfig,
    eps: float | None = None,
) -> BoundReport:
    """2 tv_hat(law at t from x, long-horizon proxy) per t, with the
    exponential bound overlaid when its conditions check out."""
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    horizon = 4.0 * float(t_grid[-1])
    pi_hat = stationary_proxy(params, cfg, horizon, seed_tag=1)
    # estimator noise floor: 2 tv_hat of two independent proxies
    floor = 2.0 * tv_hat(pi_hat, stationary_proxy(params, cfg, horizon, seed_tag=2))
    run = replace(cfg, T=float(t_grid[-1]), record_times=tuple(t_grid))
    ens = simulate_paths(params, x, run)
    emp = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        k = ens.index_of(t)
        emp[i] = 2.0 * tv_hat(EmpiricalDistribution.from_samples(ens.Y[k], ens.Z[k]), pi_hat)
    se = np.full(len(t_grid), 0.5 * floor)  # floor doubles as the noise scale
    bound = np.full(len(t_grid), np.inf)
    constants: dict = {"noise_floor": floor}
    if eps is not None:
        try:
            consts = prop42_constants(params, eps)
            x_pi = (delta1(params), 0.0)
            bound = np.array([prop42_bound(params, x, x_pi, t, eps, consts) for t in t_grid])
            constants.update(consts)
        except (ConditionCViolated, ConditionAViolated, SubcriticalityViolated, QuadratureError):
            pass
    # tail log-linear decay fit above the noise floor
    tail = t_grid >= t_grid[len(t_grid) // 2]
    pos = tail & (emp > floor * 0.5)
    rate = float("nan")
    if pos.sum() >= 2:
        # least-squares slope, as scipy.stats.linregress computes it
        c = np.cov(t_grid[pos], np.log(emp[pos]), bias=1)
        rate = -float(c[0, 1] / c[0, 0])
    constants["fitted_decay_rate"] = rate
    return BoundReport(
        label="TV distance to stationary proxy",
        t_grid=t_grid,
        empirical=emp,
        se=se,
        bound=bound,
        constants=constants,
        extras={"proxy_horizon": horizon, "proxy_paths": cfg.n_paths},
    )


def coalescence_curve(
    params: ModelParams,
    x1: float,
    y1: float,
    t_grid,
    cfg: SimConfig,
) -> BoundReport:
    """Empirical non-coalescence probability against min(1, vbar_t (x1-y1)).

    extras["exact"] is the exact probability 1 - exp(-vbar_t (x1-y1)): the
    difference of the two Y-coordinates is a CB process without
    immigration, which is 0 at t with probability exp(-gap vbar_t).
    extras["z"] is the two-sided score (empirical - exact) / se0, se0 the
    binomial standard error at the exact probability (floored like se)."""
    if x1 < y1:
        x1, y1 = y1, x1
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    cfg = replace(cfg, T=float(t_grid[-1]), record_times=tuple(t_grid))
    ce = simulate_coupled(params, (x1, 0.0), (y1, 0.0), cfg)
    gap = x1 - y1
    emp = np.empty(len(t_grid))
    se = np.empty(len(t_grid))
    bound = np.empty(len(t_grid))
    exact = np.empty(len(t_grid))
    v = (params.vbar(t_grid) * gap).tolist() if gap > 0 else [0.0] * len(t_grid)
    for i, t in enumerate(t_grid):
        p = float(np.mean(~ce.coalesced_by(t)))
        emp[i] = p
        se[i] = _binomial_se(p, ce.n_paths)
        bound[i] = min(1.0, v[i])
        exact[i] = -math.expm1(-v[i])
    return BoundReport(
        label="non-coalescence probability vs vbar",
        t_grid=t_grid,
        empirical=emp,
        se=se,
        bound=bound,
        constants={"gap": gap, "coal_tol_bias": float(ce.threshold_absorbed.mean())},
        extras={"exact": exact, "z": (emp - exact) / _binomial_se(exact, ce.n_paths)},
    )


def stationary_moments(params: ModelParams, cfg: SimConfig, horizon: float | None = None) -> dict:
    """Long-horizon estimates of the stationary mean of Y and of E|Z|,
    with a horizon-doubling stability check and the closed-form Y-mean."""
    if params.a1 <= 0 or params.b2 <= 0:
        raise DomainError("requires a1 > 0 and b2 > 0")
    if horizon is None:
        horizon = 40.0 / min(params.a1, params.b2)
    horizon = round(horizon / cfg.dt) * cfg.dt
    rows = {}
    for tag, scale in (("T", 1.0), ("T/2", 0.5)):
        h = round(horizon * scale / cfg.dt) * cfg.dt
        dist = stationary_proxy(params, cfg, h, seed_tag=3 if tag == "T" else 4)
        rows[tag] = {
            "horizon": h,
            "D1_hat": float(dist.Y.mean()),
            "D1_se": _mean_se(dist.Y),
            "D2_hat": float(np.abs(dist.Z).mean()),
            "D2_se": _mean_se(np.abs(dist.Z)),
        }
    d1 = delta1(params)
    full = rows["T"]
    return {
        "D1_hat": full["D1_hat"],
        "D1_se": full["D1_se"],
        "D2_hat": full["D2_hat"],
        "D2_se": full["D2_se"],
        "delta1": d1,
        "delta1_within_3se": abs(full["D1_hat"] - d1) <= 3.0 * full["D1_se"],
        "horizon_stability": abs(rows["T"]["D2_hat"] - rows["T/2"]["D2_hat"])
        <= 3.0 * (rows["T"]["D2_se"] + rows["T/2"]["D2_se"]),
        "by_horizon": rows,
    }


# ---------------------------------------------------------------------------
# strong Feller probe


def c_bar(params: ModelParams) -> float:
    return 4.0 * max(8.0 * max(params.a21, params.a22), m_z2_sq_moment(params))


def lemma51_constants(
    params: ModelParams, t: float, sigma_k_mass: float, Lambda_k: float
) -> dict:
    """Time-dependent constants of the finite-activity regularity bound,
    with the exact degenerate-parameter conventions."""
    a1, b1, b2 = params.a1, params.b1, params.b2
    cb = c_bar(params)
    r1 = 2.0 * b2 - a1
    C1t = cb * t if r1 == 0 else cb * (math.exp(r1 * t) - 1.0) / r1
    r2 = b2 - a1
    C2t = abs(b1) * t if r2 == 0 else abs(b1) * (math.exp(r2 * t) - 1.0) / r2
    if sigma_k_mass <= 0:
        raise DomainError("sigma_k mass must be > 0")
    return {
        "c_bar": cb,
        "C1_t": C1t,
        "C2_t": C2t,
        "C_k8": Lambda_k / sigma_k_mass,
        "sigma_k_mass": sigma_k_mass,
        "Lambda_k": Lambda_k,
    }


def lemma51_bound(
    params: ModelParams, x, y, t: float, sigma_k_mass: float, Lambda_k: float
) -> float:
    c = lemma51_constants(params, t, sigma_k_mass, Lambda_k)
    d1 = abs(x[0] - y[0])
    d2 = abs(x[1] - y[1])
    return 2.0 * math.exp(-sigma_k_mass * t) + c["C_k8"] * (
        d2 + math.sqrt(c["C1_t"] * d1) + c["C2_t"] * d1
    )


def strong_feller_probe(
    params: ModelParams,
    x: tuple[float, float],
    t: float,
    radii,
    cfg: SimConfig,
    sigma_k_mass: float | None = None,
    Lambda_k: float | None = None,
) -> list[dict]:
    """TV continuity in the initial state: 2 tv_hat between laws at t from
    x and from x shifted by r in both coordinates, for shrinking r.  When
    the finite-activity constants are supplied the combined domination
    bound 2 vbar_t r + explicit remainder is evaluated per radius."""
    vbar = None
    try:
        vbar = params.vbar
    except ConditionAViolated:
        pass
    run = replace(cfg, T=t, record_times=(t,))
    base = simulate_paths(params, x, run)
    P = EmpiricalDistribution.from_samples(base.Y[0], base.Z[0])
    floor_P = simulate_paths(params, x, replace(run, seed=rngmod.derive_seed(cfg.seed, 5)))
    floor = 2.0 * tv_hat(P, EmpiricalDistribution.from_samples(floor_P.Y[0], floor_P.Z[0]))
    rows = []
    for r in radii:
        y = (x[0] + r, x[1] + r)
        ens = simulate_paths(params, y, replace(run, seed=rngmod.derive_seed(cfg.seed, 6)))
        Q = EmpiricalDistribution.from_samples(ens.Y[0], ens.Z[0])
        emp = 2.0 * tv_hat(P, Q)
        row = {"radius": float(r), "tv2": emp, "noise_floor": floor}
        if vbar is not None and sigma_k_mass is not None and Lambda_k is not None:
            b = 2.0 * min(1.0, vbar(t) * r) + lemma51_bound(
                params, x, y, t, sigma_k_mass, Lambda_k
            )
            row["bound"] = b
            row["dominated"] = emp <= b + 3.0 * 0.5 * floor
        rows.append(row)
    return rows
