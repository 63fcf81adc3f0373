"""Path simulation for the CBI + OU-type system and its shared-noise coupling.

Scheme: full-truncation Euler for the square-root diffusion part (coefficients
evaluated at max(Y,0), state clamped to 0 after the step) and compound-Poisson
jumps with the intensity frozen at the left endpoint: immigration jumps at
the rate of n, branching jumps at Y times the rate of m.  A step's jumps of
one kind on a chunk's paths are drawn as one Poisson total of candidate
jumps at the largest intensity, each on a uniform path and kept with
probability intensity/max (Poisson thinning, Lewis & Shedler 1979); this is
exactly the law of independent per-path counts, and a path of intensity 0
never jumps.  So per step a count stream (N_COUNT, M_COUNT, DM_COUNT)
carries that total and then one path index per candidate (and, for the Y-
or D-proportional jumps, one uniform per candidate to accept it), and a
jump stream (N_JUMP, M_JUMP, DM_JUMP) the sampler's three uniforms per kept
jump.  Jumps in the box max(z1, |z2|) < eps_trunc are dropped, and the mean
z1 of the dropped immigration jumps is restored as drift; the other jump
terms are compensated, so their dropped part has mean zero.

Z's W0 part is drawn at record steps only.  The Euler chain for Z is linear
and sigma*dW0 has a constant coefficient, so Z_k = Z'_k + G_k, where Z' is
the chain without its sigma*sqrt(h)*xi0 term and G_k = rho*G_{k-1} +
sigma*sqrt(h)*xi0_k (rho = 1 - b2*h, G_0 = 0) is a Gaussian AR(1)
independent of Y and of every other noise.  `_step` advances Z'; at a
record step W0 carries one normal per path, and G moves over the Delta
steps since the previous record in one draw, G <- rho^Delta*G +
s_Delta*N(0, 1) with s_Delta^2 = sigma^2*h*sum_{i<Delta} rho^(2i).  The
recorded (Y, Z' + G) has the law of the full Euler chain at the record
times.

Coupling (the time-space noise split of Dawson-Li 2012): the copy with the
smaller start is the base copy and is advanced by the same `_step` as
`simulate_paths`, so it consumes W0, W1, W2, the immigration jumps and its
branching jumps exactly as a single path from its start does; its paths are
bit-identical to `simulate_paths` from that start.  W0 is common noise, so
both copies add the same G.  The difference process D = Y(x) - Y(y) is a
continuous-state branching process without immigration: (D, dZ), with dZ the
Z-difference, is advanced by the same `_step` with a2 = b0 = 0 and no
n-jumps (`_Compiled.difference`), on its own independent streams:

- D_W: one normal for the W1 part and one for the W2 part, each drawn only
  when the model has that part;
- DM_COUNT, DM_JUMP: branching jumps at D times the branching-jump rate.

D is absorbed at 0 once it drops below 1e-12*max(1, x1); after that dZ
decays deterministically at rate b2.

Paths run in fixed-size chunks (`rng.CHUNK_SIZE`, 32,768 paths), one chunk
after another on the calling thread, so every generator call and every
ufunc of a step serves a whole chunk.  A stream's normals are drawn BLOCK
steps at a time (`_Normals`).  cfg.threads counts the calling thread: it
does the Euler arithmetic and the jumps, and with cfg.threads > 1 a pool of
cfg.threads - 1 worker threads draws each stream's next block while the
current one is used, and does nothing else.  The draws do not depend on the
thread count, so neither do the outputs.
"""

from __future__ import annotations

import copy
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, TimeNotRecorded, ZeroMass
from .measures import LevyMeasure, LevySampler, levy_integral
from .model import ModelParams

BLOCK = 4  # steps per draw of a stream's normals: 4 x 32768 doubles = 1 MiB a chunk


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    n_paths: int
    seed: int
    record_times: tuple[float, ...] = ()
    eps_trunc: float = 0.0
    threads: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")
        if self.T < self.dt:
            raise ConfigError("T must be >= dt")
        if self.eps_trunc < 0:
            raise ConfigError("eps_trunc must be >= 0")
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
    """Frozen sampling table and compensator means of one (truncated)
    measure, and the z1 mean of the small jumps the truncation drops (the
    exact complement of the sampled part); no jumps when the measure is
    empty."""

    def __init__(self, mu: LevyMeasure, eps: float, label: str):
        self.sampler: LevySampler | None = None
        self.rate = 0.0
        self.mean_z1 = self.mean_z2 = 0.0
        self.drop_mean_z1 = 0.0
        if mu.is_empty():
            return
        if eps <= 0 and math.isinf(mu.total_mass()):
            raise ConfigError(f"measure {label} has infinite activity; eps_trunc > 0 required")
        trunc, drop = mu.split_small(eps)
        if not trunc.is_empty():
            try:
                self.sampler = LevySampler(trunc)
                self.rate = self.sampler.rate
                self.mean_z1 = self.sampler.mean_z1
                self.mean_z2 = self.sampler.mean_z2
            except ZeroMass:
                self.sampler = None
        if not drop.is_empty():
            self.drop_mean_z1 = float(np.real(levy_integral(drop, lambda z1, z2: z1)))


class _Compiled:
    """One Euler chain's folded coefficients, jump tables and stream ids,
    and the record grid, hoisted out of the step loop.

    Per step, Y gains y0 - y1*Yc and Z becomes z_keep*Z - z0 - z1*Yc, with
    y0 = (a2 + dropped n mean z1)*h, y1 = (a1 + m mean z1)*h, z_keep =
    1 - b2*h, z0 = (b0 + n mean z2)*h and z1 = (b1 + m mean z2)*h: the drift
    and the jump compensators in one term each.  The diffusion terms are
    (sqrt(2*a_ij)*sqrt(h))*sqrt(Yc)*xi_j."""

    def __init__(self, params: ModelParams, cfg: SimConfig):
        p = params
        h = self.h = cfg.dt
        self.b2 = p.b2
        self.use_w0 = p.sigma > 0
        self.use_w1 = p.a11 > 0 or p.a21 > 0
        self.use_w2 = p.a12 > 0 or p.a22 > 0
        self.n_steps = cfg.n_steps
        self.njump = _JumpSpec(p.n, cfg.eps_trunc, "n")
        self.mjump = _JumpSpec(p.m, cfg.eps_trunc, "m")
        n, m = self.njump, self.mjump
        self.y0, self.y1 = (p.a2 + n.drop_mean_z1) * h, (p.a1 + m.mean_z1) * h
        self.z_keep = 1.0 - p.b2 * h
        self.z0, self.z1 = (p.b0 + n.mean_z2) * h, (p.b1 + m.mean_z2) * h
        self.s11, self.s12 = (math.sqrt(2 * a * h) for a in (p.a11, p.a12))
        self.s21, self.s22 = (math.sqrt(2 * a * h) for a in (p.a21, p.a22))
        # (stream id, normals per step) of W1 and W2; (count, jump) stream
        # ids of the n- and m-jumps
        self.w_streams = ((rng.W1, int(self.use_w1)), (rng.W2, int(self.use_w2)))
        self.n_ids = (rng.N_COUNT, rng.N_JUMP)
        self.m_ids = (rng.M_COUNT, rng.M_JUMP)
        rec = cfg.record_steps()
        steps = sorted(rec)
        self.times = tuple(rec[s] for s in steps)
        self.rows = {s: i for i, s in enumerate(steps)}  # step -> record row
        # G's AR(1) factor rho^Delta and scale s_Delta from each record row
        # to the next, Delta being the steps since the previous record
        rho = 1.0 - p.b2 * cfg.dt
        self.ou = [
            (rho ** d, p.sigma * math.sqrt(cfg.dt * float(np.sum((rho * rho) ** np.arange(d)))))
            for d in np.diff(steps, prepend=0)
        ]

    def difference(self) -> _Compiled:
        """The chain of a coupled run's (D, dZ): this one with a2 = b0 = 0
        and no n-jumps, on the D_W stream (both normal parts, W1's first)
        and the DM_COUNT, DM_JUMP streams."""
        d = copy.copy(self)
        d.njump = _JumpSpec(LevyMeasure.zero(), 0.0, "n")
        d.y0 = d.z0 = 0.0  # a2 = b0 = 0 and no n-jumps to compensate
        d.w_streams = ((rng.D_W, int(self.use_w1) + int(self.use_w2)),)
        d.n_ids = None
        d.m_ids = (rng.DM_COUNT, rng.DM_JUMP)
        return d

    def noise(self, g: dict, n: int, pool):
        """The chain's noise in a chunk whose streams are g: a function that
        returns the next step's (w1, w2) normals, None for a part the model
        lacks, and the (count, jump) generators of the n- and m-jumps.  The
        normals are drawn BLOCK steps at a time (`_Normals`); W0 is drawn at
        record steps only (`with_ou`)."""
        xi = [_Normals(g[sid], k, n, self.n_steps, pool) for sid, k in self.w_streams if k]

        def normals():
            parts = iter([row for src in xi for row in src.next()])
            return next(parts) if self.use_w1 else None, next(parts) if self.use_w2 else None

        gn = (g[self.n_ids[0]], g[self.n_ids[1]]) if self.n_ids else (None, None)
        return normals, gn, (g[self.m_ids[0]], g[self.m_ids[1]])

    def with_ou(self, g0: np.random.Generator, G: np.ndarray, row: int, Z: np.ndarray) -> np.ndarray:
        """Z + G at record row `row`, after G, the W0 part of Z, has moved
        in place over the steps since the previous record with one normal
        per path from g0; Z itself when sigma is 0."""
        if not self.use_w0:
            return Z
        a, s = self.ou[row]
        G *= a
        G += s * g0.standard_normal(G.size)
        return Z + G


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

    @property
    def n_paths(self) -> int:
        return self.Yx.shape[1]

    def coalesced_by(self, t: float) -> np.ndarray:
        return self.varsigma <= t + 1e-12


class _Normals:
    """One stream's standard normals for n_steps steps, k per path and step.

    They are drawn BLOCK steps at a time as one (b, k, n) array, which holds
    the values of b*k successive draws of n in their order, so blocking
    changes no draw.  Without a pool a block is drawn when it is first read.
    With one, the next block is drawn on a worker thread while the current
    one is read; one block per stream is in flight at a time.  The blocks
    are drawn into two buffers in turn: the one in flight is never the one
    being read, and a step's rows are used before the next step's `next`."""

    def __init__(self, g: np.random.Generator, k: int, n: int, n_steps: int, pool=None):
        self._g, self._pool = g, pool
        self._left = n_steps
        self._bufs = np.empty((2, min(BLOCK, n_steps), k, n))
        self._turn = 0  # the buffer the next block is drawn into
        self._block = self._bufs[1, :0]
        self._i = 0
        self._pending = self._request()

    def _request(self):
        """A callable returning the next block, which a pool starts drawing now."""
        b = min(BLOCK, self._left)
        self._left -= b
        draw = functools.partial(self._g.standard_normal, out=self._bufs[self._turn, :b])
        self._turn ^= 1
        if self._pool is None or b == 0:
            return draw
        return self._pool.submit(draw).result

    def next(self) -> np.ndarray:
        """The (k, n) normals of the next step."""
        if self._i == len(self._block):
            self._block, self._i = self._pending(), 0
            self._pending = self._request()
        self._i += 1
        return self._block[self._i - 1]


def _jumps(spec: _JumpSpec, g_count, g_jump, intensity, h: float, n: int):
    """One step's jumps on n paths, with Poisson(intensity * rate * h) jumps
    on each path: (paths, z1, z2), one entry per jump, or None when the step
    has none.

    Independent Poisson counts on the paths are one Poisson total placed on
    uniform paths (superposition).  For an array intensity g_count draws
    the total at the largest intensity and keeps a candidate on path i when
    u * max < intensity[i] for a uniform u (thinning), so a path of
    intensity 0 never jumps."""
    if spec.sampler is None:
        return None
    thin = np.ndim(intensity) > 0
    top = float(intensity.max()) if thin else intensity
    k = g_count.poisson(top * spec.rate * h * n)
    if k == 0:
        return None
    idx = g_count.integers(0, n, k)
    if thin:
        idx = idx[g_count.random(k) * top < intensity[idx]]
        if idx.size == 0:
            return None
    return idx, *spec.sampler.draw(g_jump, idx.size)


def _add(acc: np.ndarray, c: float, x: np.ndarray, y, tmp: np.ndarray) -> None:
    """acc += (c * x) * y, skipped when c == 0; tmp is scratch."""
    if c:
        np.multiply(x, c, out=tmp)
        tmp *= y
        acc += tmp


def _step(c: _Compiled, xi1, xi2, gn, gm, Y: np.ndarray, Z: np.ndarray, buf: np.ndarray):
    """One Euler step of chain c on a chunk's paths, in place on Y and on Z
    without its W0 part.

    xi1 and xi2 are the step's W1 and W2 normals (None for a part the model
    lacks), gn and gm the (count, jump) generators of the n- and m-jumps,
    and buf is (3, n) scratch.  Y + y0 - y1*Yc, then its diffusion terms
    and its jumps; Z*z_keep - z0 - z1*Yc, then the same (see `_Compiled`).
    A term whose coefficient is 0 is skipped.  An absorbed D of +0.0 stays
    +0.0: every term added to it is a signed zero, and +0.0 plus either
    zero is +0.0."""
    h, n = c.h, Y.size
    Yc, root, t = buf
    np.maximum(Y, 0.0, out=Yc)
    jn = _jumps(c.njump, *gn, 1.0, h, n)
    jm = _jumps(c.mjump, *gm, Yc, h, n)
    np.sqrt(Yc, out=root)

    np.multiply(Yc, c.y1, out=t)
    Y -= t
    if c.y0:
        Y += c.y0
    _add(Y, c.s11, root, xi1, t)
    _add(Y, c.s12, root, xi2, t)
    for j in (jn, jm):
        if j is not None:
            np.add.at(Y, j[0], j[1])
    np.maximum(Y, 0.0, out=Y)

    Z *= c.z_keep
    np.multiply(Yc, c.z1, out=t)
    if c.z0:
        t += c.z0
    Z -= t
    _add(Z, c.s21, root, xi1, t)
    _add(Z, c.s22, root, xi2, t)
    for j in (jn, jm):
        if j is not None:
            np.add.at(Z, j[0], j[2])


def _simulate_chunk(comp: _Compiled, cfg: SimConfig, chunk: int, n: int, pool,
                    x: tuple[float, float]):
    g = {sid: rng.stream(cfg.seed, chunk, sid) for sid in range(rng.N_USED)}
    normals, gn, gm = comp.noise(g, n, pool)
    Y = np.full(n, float(x[0]))
    Z = np.full(n, float(x[1]))
    G = np.zeros(n)
    buf = np.empty((3, n))
    out = np.empty((2, len(comp.times), n))
    for step in range(1, cfg.n_steps + 1):
        _step(comp, *normals(), gn, gm, Y, Z, buf)
        if step in comp.rows:
            row = comp.rows[step]
            out[:, row] = Y, comp.with_ou(g[rng.W0], G, row, Z)
    return out[0], out[1]


def _simulate_chunk_coupled(comp: _Compiled, diff: _Compiled, cfg: SimConfig, chunk: int, n: int,
                            pool, x: tuple[float, float], y: tuple[float, float]):
    h = comp.h
    g = {sid: rng.stream(cfg.seed, chunk, sid) for sid in range(rng.N_USED)}
    normals, gn, gm = comp.noise(g, n, pool)
    d_normals, d_gn, d_gm = diff.noise(g, n, pool)
    Yb = np.full(n, float(y[0]))  # base copy (smaller start)
    Zb = np.full(n, float(y[1]))
    G = np.zeros(n)  # W0 part of Z, common to both copies
    D = np.full(n, float(x[0]) - float(y[0]))
    dZ = np.full(n, float(x[1]) - float(y[1]))
    varsigma = np.full(n, np.inf)
    thresh_abs = np.zeros(n, dtype=bool)
    tol = 1e-12 * max(1.0, x[0])  # D at or below it counts as coalesced
    if float(x[0]) - float(y[0]) <= tol:
        varsigma[:] = 0.0
        thresh_abs[:] = float(x[0]) != float(y[0])
        D[:] = 0.0
    decay = math.exp(-comp.b2 * h)
    buf = np.empty((3, n))
    dZ_absorbed = np.empty(n)
    out = np.empty((4, len(comp.times), n))
    for step in range(1, cfg.n_steps + 1):
        absorbed = D <= 0.0  # absorbed D is +0.0 and stays so in `_step`
        np.multiply(dZ, decay, out=dZ_absorbed)
        _step(comp, *normals(), gn, gm, Yb, Zb, buf)
        _step(diff, *d_normals(), d_gn, d_gm, D, dZ, buf)
        np.copyto(dZ, dZ_absorbed, where=absorbed)
        newly = D <= tol
        newly &= ~absorbed
        varsigma[newly] = step * h
        thresh_abs |= newly & (D > 0.0)
        D[newly] = 0.0
        if step in comp.rows:
            row = comp.rows[step]
            Zy = comp.with_ou(g[rng.W0], G, row, Zb)
            out[:, row] = Yb + D, Zy + dZ, Yb, Zy
    return out[0], out[1], out[2], out[3], varsigma, thresh_abs


def _run_chunks(cfg: SimConfig, run_chunk) -> list[np.ndarray]:
    """Call run_chunk(chunk, n, pool) on each fixed-size path chunk in chunk
    order, on the calling thread, and join each returned array along its
    last (path) axis.

    cfg.threads counts the calling thread.  With cfg.threads > 1, pool is a
    thread pool of cfg.threads - 1 workers that only draws normals ahead
    (`_Normals`): numpy's normal sampler runs without the interpreter lock,
    while the Euler arithmetic, a few dozen numpy calls per step, stays on
    the calling thread, and a further thread would only compete with it for
    the cores.  Otherwise pool is None.  Either way each chunk consumes the
    same streams in the same order, so outputs do not depend on
    cfg.threads."""
    jobs = [
        (i, min(rng.CHUNK_SIZE, cfg.n_paths - start))
        for i, start in enumerate(range(0, cfg.n_paths, rng.CHUNK_SIZE))
    ]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads - 1) as pool:
            results = [run_chunk(i, n, pool) for i, n in jobs]
    else:
        results = [run_chunk(i, n, None) for i, n in jobs]
    return [np.concatenate(parts, axis=-1) for parts in zip(*results)]


def simulate_paths(params: ModelParams, x: tuple[float, float], cfg: SimConfig) -> Ensemble:
    """Ensemble of independent paths started from x = (x1, x2), x1 >= 0."""
    if x[0] < 0:
        raise ConfigError("x1 must be >= 0")
    comp = _Compiled(params, cfg)
    Y, Z = _run_chunks(cfg, lambda i, n, pool: _simulate_chunk(comp, cfg, i, n, pool, x))
    return Ensemble(record_times=comp.times, Y=Y, Z=Z)


def simulate_coupled(
    params: ModelParams,
    x: tuple[float, float],
    y: tuple[float, float],
    cfg: SimConfig,
) -> CoupledEnsemble:
    """Shared-noise coupled pair started from x and y, in the caller's
    order: the copy started from x is (Yx, Zx) whichever start is higher.
    The copy from the lower start consumes the noise of `simulate_paths`
    from that start."""
    swap = x[0] < y[0]  # the chain takes the higher start first
    if min(x[0], y[0]) < 0:
        raise ConfigError("starting Y-coordinates must be >= 0")
    comp = _Compiled(params, cfg)
    diff = comp.difference()
    upper, lower = (y, x) if swap else (x, y)
    Yx, Zx, Yy, Zy, varsigma, thr = _run_chunks(
        cfg, lambda i, n, pool: _simulate_chunk_coupled(comp, diff, cfg, i, n, pool, upper, lower)
    )
    if swap:
        Yx, Zx, Yy, Zy = Yy, Zy, Yx, Zx
    return CoupledEnsemble(
        record_times=comp.times, Yx=Yx, Zx=Zx, Yy=Yy, Zy=Zy, varsigma=varsigma, threshold_absorbed=thr
    )
