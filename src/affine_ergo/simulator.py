"""Path simulation for the CBI + OU-type system and its shared-noise coupling.

Scheme: full-truncation Euler for the square-root diffusion part (coefficients
evaluated at max(Y,0), state clamped to 0 after the step) and compound-Poisson
jumps with the intensity frozen at the left endpoint: immigration jumps at
the rate of n, branching jumps at Y times the rate of m.  A step's jumps of
one kind on a chunk's paths are drawn as one Poisson total, each jump placed
on a path with probability proportional to its intensity; this is exactly
the law of independent per-path counts (superposition).  So per step a count
stream (N_COUNT, M_COUNT, DM_COUNT) carries that total and then one path
index per jump (an integer for n's constant intensity, a uniform for the Y-
or D-proportional ones), and a jump stream (N_JUMP, M_JUMP, DM_JUMP) the
sampler's three uniforms per jump.  Jumps in the box max(z1, |z2|) <
eps_trunc are dropped, and the mean z1 of the dropped immigration jumps is
restored as drift; the other jump terms are compensated, so their dropped
part has mean zero.

Coupling (the time-space noise split of Dawson-Li 2012): the copy with the
smaller start is the base copy and is advanced by the same `_step` as
`simulate_paths`, so it consumes W0, W1, W2, the immigration jumps and its
branching jumps exactly as a single path from its start does; its paths are
bit-identical to `simulate_paths` from that start.  The difference process
D = Y(x) - Y(y) is a continuous-state branching process without immigration
and adds only its own independent increments, scaled by D:

- D_W: the normals that drive D and the Z-difference, one for the W1 part and
  one for the W2 part, each drawn only when the model has that part;
- DM_COUNT, DM_JUMP: branching jumps at D times the branching-jump rate.

D is absorbed at 0 once it drops below coal_tol; after that the Z-difference
decays deterministically at rate b2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, TimeNotRecorded, ZeroMass
from .measures import LevyMeasure, LevySampler, levy_integral
from .model import ModelParams


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    n_paths: int
    seed: int
    record_times: tuple[float, ...] = ()
    eps_trunc: float = 0.0
    coal_tol: float | None = None
    threads: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.T < self.dt:
            raise ConfigError("T must be >= dt")
        if self.eps_trunc < 0:
            raise ConfigError("eps_trunc must be >= 0")
        if self.coal_tol is not None and self.coal_tol <= 0:
            raise ConfigError("coal_tol must be > 0")
        if self.n_paths <= 0:
            raise ConfigError("n_paths must be > 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def record_steps(self) -> dict[int, float]:
        """Map step index -> requested record time (snapped to the grid)."""
        out: dict[int, float] = {}
        times = self.record_times or (self.T,)
        for t in times:
            step = round(t / self.dt)
            if step < 1 or step > self.n_steps or abs(step * self.dt - t) > 1e-9 * max(1.0, t):
                raise ConfigError(f"record time {t} is not on the dt grid within (0, T]")
            out[step] = t
        return out

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)


class _JumpSpec:
    """Frozen sampling table and moment set for one (truncated) measure."""

    def __init__(self, mu: LevyMeasure, eps: float, label: str):
        self.active = not mu.is_empty()
        self.sampler: LevySampler | None = None
        self.rate = 0.0
        self.mean_z1 = self.mean_z2 = 0.0
        self.drop_mean_z1 = 0.0
        if not self.active:
            return
        if eps <= 0 and not mu.total_mass()[0]:
            raise ConfigError(f"measure {label} has infinite activity; eps_trunc > 0 required")
        trunc = mu.truncate_small(eps) if eps > 0 else mu
        if not trunc.is_empty():
            try:
                self.sampler = LevySampler(trunc)
                self.rate = self.sampler.rate
                self.mean_z1 = self.sampler.mean_z1
                self.mean_z2 = self.sampler.mean_z2
            except ZeroMass:
                self.sampler = None
        if eps > 0:
            drop = mu.restrict(((0.0, eps), (-eps, eps)))
            if not drop.is_empty():
                self.drop_mean_z1 = float(np.real(levy_integral(drop, lambda z1, z2: z1)))


class _Compiled:
    """Model constants and the record grid, hoisted out of the step loop."""

    def __init__(self, params: ModelParams, cfg: SimConfig):
        p = params
        self.p = p
        self.h = cfg.dt
        self.sqh = math.sqrt(cfg.dt)
        self.use_w0 = p.sigma > 0
        self.use_w1 = p.a11 > 0 or p.a21 > 0
        self.use_w2 = p.a12 > 0 or p.a22 > 0
        self.njump = _JumpSpec(p.n, cfg.eps_trunc, "n")
        self.mjump = _JumpSpec(p.m, cfg.eps_trunc, "m")
        rec = cfg.record_steps()
        steps = sorted(rec)
        self.times = tuple(rec[s] for s in steps)
        self.rows = {s: i for i, s in enumerate(steps)}  # step -> record row


class _RecordGrid:
    """Lookup of a time in an ensemble's record_times."""

    def index_of(self, t: float) -> int:
        for i, rt in enumerate(self.record_times):
            if abs(rt - t) <= 1e-9 * max(1.0, abs(t)):
                return i
        raise TimeNotRecorded(f"time {t} not in record grid {self.record_times}")


@dataclass
class Ensemble(_RecordGrid):
    record_times: tuple[float, ...]
    Y: np.ndarray  # (n_times, n_paths)
    Z: np.ndarray
    cfg: SimConfig

    @property
    def n_paths(self) -> int:
        return self.Y.shape[1]


@dataclass
class CoupledEnsemble(_RecordGrid):
    record_times: tuple[float, ...]
    Yx: np.ndarray
    Zx: np.ndarray
    Yy: np.ndarray
    Zy: np.ndarray
    varsigma: np.ndarray  # (n_paths,), inf if never coalesced
    threshold_absorbed: np.ndarray  # coalescence declared with D > 0 strictly
    swapped: bool
    cfg: SimConfig

    @property
    def n_paths(self) -> int:
        return self.Yx.shape[1]

    def coalesced_by(self, t: float) -> np.ndarray:
        return self.varsigma <= t + 1e-12


def _jump_sums(spec: _JumpSpec, g_count, g_jump, intensity, h: float, n: int):
    """Per-path sums of z1 and z2 over one step's jumps, with
    Poisson(intensity * rate * h) jumps on each path.

    Independent Poisson counts on the paths are one Poisson total placed
    path by path with probability proportional to the intensity
    (superposition), so g_count draws the total and then the paths: uniform
    for a constant intensity, by inverse CDF over the intensities otherwise,
    where a path of intensity 0 is never chosen."""
    if spec.sampler is None:
        return 0.0, 0.0
    if np.ndim(intensity) == 0:
        k = g_count.poisson(intensity * spec.rate * h * n)
        idx = g_count.integers(0, n, k)
    else:
        cum = np.cumsum(intensity)
        total = cum[-1]
        k = g_count.poisson(total * spec.rate * h)
        idx = np.searchsorted(cum, g_count.random(k) * total, side="right")
        # u * total can round up to total: the last path of positive intensity
        idx = np.minimum(idx, np.searchsorted(cum, total))
    if k == 0:
        return 0.0, 0.0
    z1j, z2j = spec.sampler.draw(g_jump, k)
    return np.bincount(idx, weights=z1j, minlength=n), np.bincount(idx, weights=z2j, minlength=n)


def _step(comp: _Compiled, g: dict, Y: np.ndarray, Z: np.ndarray, n: int):
    """One Euler step of n independent paths; returns the new (Y, Z)."""
    p, h, sqh = comp.p, comp.h, comp.sqh
    Yc = np.maximum(Y, 0.0)
    xi0 = g[rng.W0].standard_normal(n) if comp.use_w0 else 0.0
    xi1 = g[rng.W1].standard_normal(n) if comp.use_w1 else 0.0
    xi2 = g[rng.W2].standard_normal(n) if comp.use_w2 else 0.0
    jn1, jn2 = _jump_sums(comp.njump, g[rng.N_COUNT], g[rng.N_JUMP], 1.0, h, n)
    jm1, jm2 = _jump_sums(comp.mjump, g[rng.M_COUNT], g[rng.M_JUMP], Yc, h, n)
    root = np.sqrt(Yc * h)
    Ynew = (
        Y
        + (p.a2 - p.a1 * Yc) * h
        + math.sqrt(2 * p.a11) * root * xi1
        + math.sqrt(2 * p.a12) * root * xi2
        + jn1
        + comp.njump.drop_mean_z1 * h  # mean of dropped uncompensated small N-jumps
        + jm1
        - Yc * comp.mjump.mean_z1 * h
    )
    Znew = (
        Z
        - (p.b0 + p.b1 * Yc + p.b2 * Z) * h
        + p.sigma * sqh * xi0
        + math.sqrt(2 * p.a21) * root * xi1
        + math.sqrt(2 * p.a22) * root * xi2
        + jn2
        - comp.njump.mean_z2 * h
        + jm2
        - Yc * comp.mjump.mean_z2 * h
    )
    return np.maximum(Ynew, 0.0), Znew


def _simulate_chunk(comp: _Compiled, cfg: SimConfig, chunk: int, n: int, x: tuple[float, float]):
    g = {sid: rng.stream(cfg.seed, chunk, sid) for sid in range(rng.N_USED)}
    Y = np.full(n, float(x[0]))
    Z = np.full(n, float(x[1]))
    out = np.empty((2, len(comp.times), n))
    for step in range(1, cfg.n_steps + 1):
        Y, Z = _step(comp, g, Y, Z, n)
        if step in comp.rows:
            out[:, comp.rows[step]] = Y, Z
    return out[0], out[1]


def _simulate_chunk_coupled(comp: _Compiled, cfg: SimConfig, chunk: int, n: int,
                            x: tuple[float, float], y: tuple[float, float], coal_tol: float):
    p, h = comp.p, comp.h
    g = {sid: rng.stream(cfg.seed, chunk, sid) for sid in range(rng.N_USED)}
    Yb = np.full(n, float(y[0]))  # base copy (smaller start)
    Zb = np.full(n, float(y[1]))
    D = np.full(n, float(x[0]) - float(y[0]))
    dZ = np.full(n, float(x[1]) - float(y[1]))
    varsigma = np.full(n, np.inf)
    thresh_abs = np.zeros(n, dtype=bool)
    if float(x[0]) - float(y[0]) <= coal_tol:
        varsigma[:] = 0.0
        thresh_abs[:] = float(x[0]) != float(y[0])
        D[:] = 0.0
    decay = math.exp(-p.b2 * h)
    out = np.empty((4, len(comp.times), n))
    for step in range(1, cfg.n_steps + 1):
        t = step * h
        Dc = np.maximum(D, 0.0)
        alive = D > 0.0
        Yb, Zb = _step(comp, g, Yb, Zb, n)
        # difference-process noise: independent, scaled by D (branching property)
        xd1 = g[rng.D_W].standard_normal(n) if comp.use_w1 else 0.0
        xd2 = g[rng.D_W].standard_normal(n) if comp.use_w2 else 0.0
        jd1, jd2 = _jump_sums(comp.mjump, g[rng.DM_COUNT], g[rng.DM_JUMP], Dc, h, n)
        rootd = np.sqrt(Dc * h)
        Dn = (
            D
            - p.a1 * Dc * h
            + math.sqrt(2 * p.a11) * rootd * xd1
            + math.sqrt(2 * p.a12) * rootd * xd2
            + jd1
            - Dc * comp.mjump.mean_z1 * h
        )
        Dn = np.maximum(Dn, 0.0)
        dZn = (
            dZ
            - (p.b1 * Dc + p.b2 * dZ) * h
            + math.sqrt(2 * p.a21) * rootd * xd1
            + math.sqrt(2 * p.a22) * rootd * xd2
            + jd2
            - Dc * comp.mjump.mean_z2 * h
        )
        # absorbed paths: deterministic decay of the accumulated Z-difference
        dZ = np.where(alive, dZn, dZ * decay)
        newly = alive & (Dn <= coal_tol)
        varsigma = np.where(newly, t, varsigma)
        thresh_abs |= newly & (Dn > 0.0)
        D = np.where(alive & ~newly, Dn, 0.0)
        if step in comp.rows:
            out[:, comp.rows[step]] = Yb + D, Zb + dZ, Yb, Zb
    return out[0], out[1], out[2], out[3], varsigma, thresh_abs


def _run_chunks(cfg: SimConfig, run_chunk) -> list[np.ndarray]:
    """Call run_chunk(chunk, n) on each fixed-size path chunk, on cfg.threads
    worker threads, and join each returned array along its last (path) axis
    in chunk order."""
    jobs = [
        (i, min(rng.CHUNK_SIZE, cfg.n_paths - start))
        for i, start in enumerate(range(0, cfg.n_paths, rng.CHUNK_SIZE))
    ]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(lambda job: run_chunk(*job), jobs))
    else:
        results = [run_chunk(*job) for job in jobs]
    return [np.concatenate(parts, axis=-1) for parts in zip(*results)]


def simulate_paths(params: ModelParams, x: tuple[float, float], cfg: SimConfig) -> Ensemble:
    """Ensemble of independent paths started from x = (x1, x2), x1 >= 0."""
    if x[0] < 0:
        raise ConfigError("x1 must be >= 0")
    comp = _Compiled(params, cfg)
    Y, Z = _run_chunks(cfg, lambda i, n: _simulate_chunk(comp, cfg, i, n, x))
    return Ensemble(record_times=comp.times, Y=Y, Z=Z, cfg=cfg)


def simulate_coupled(
    params: ModelParams,
    x: tuple[float, float],
    y: tuple[float, float],
    cfg: SimConfig,
) -> CoupledEnsemble:
    """Shared-noise coupled pair started from x and y (x1 >= y1, else the
    pair is swapped internally and flagged)."""
    swapped = False
    if x[0] < y[0]:
        x, y = y, x
        swapped = True
    if y[0] < 0:
        raise ConfigError("starting Y-coordinates must be >= 0")
    coal_tol = cfg.coal_tol if cfg.coal_tol is not None else 1e-12 * max(1.0, x[0])
    comp = _Compiled(params, cfg)
    Yx, Zx, Yy, Zy, varsigma, thr = _run_chunks(
        cfg, lambda i, n: _simulate_chunk_coupled(comp, cfg, i, n, x, y, coal_tol)
    )
    return CoupledEnsemble(
        record_times=comp.times,
        Yx=Yx,
        Zx=Zx,
        Yy=Yy,
        Zy=Zy,
        varsigma=varsigma,
        threshold_absorbed=thr,
        swapped=swapped,
        cfg=cfg,
    )
