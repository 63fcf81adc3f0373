"""Levy measures on G = R+ x R: quadrature, restriction, truncation, sampling.

A measure is represented in one of four forms:

* ``atomic``  -- a finite list of weighted atoms (z1, z2, w);
* ``density`` -- a density on a bounded rectangle (an axis may be collapsed
  to a point, which models measures supported on a line);
* ``product`` -- a product of two one-dimensional marginals, each of which
  is a mix of atoms and density pieces;
* ``union``   -- an internal form used to represent exact set differences
  (e.g. a rectangle minus the small-jump box).

Density quadrature is a tensor rule of GAUSS_ORDER-point Gauss-Legendre
nodes on each of ``nodes << level`` equal panels per axis.  One
node-doubling loop (`_converge`) serves every integral: it doubles the
panel count until two successive levels agree and raises QuadratureError
at NODE_CAP, never returning an unconverged grid.  With one node per panel
the cells are the midpoint cells that LevySampler jitters within.  Tails
beyond the declared rectangle are the caller's responsibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InfiniteMass,
    NonFiniteIntegrand,
    QuadratureError,
    UnsupportedMeasure,
    ZeroMass,
)

NODE_CAP = 1 << 20
_MAX_LEVELS = 24
GAUSS_ORDER = 8
_GRID = 1 << 16  # cells of the fixed overlap/TV grid

_SAFE_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "pow": np.power,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "pi": np.pi,
    "e": np.e,
}


def compile_density_expr(expr: str, variables: Sequence[str]) -> Callable:
    """Compile an arithmetic expression into a vectorized callable.

    Only the names in `variables` plus exp/log/pow/abs/sqrt/minimum/maximum/
    where/pi/e are allowed.
    """
    code = compile(expr, "<density-expr>", "eval")
    for name in code.co_names:
        if name not in _SAFE_FUNCS and name not in variables:
            raise ValueError(f"name {name!r} not allowed in density expression")

    def fn(*args):
        ns = dict(_SAFE_FUNCS)
        ns.update(zip(variables, args))
        return eval(code, {"__builtins__": {}}, ns)

    fn.expr = expr  # type: ignore[attr-defined]
    return fn


@dataclass(frozen=True)
class DensityPiece:
    """A 1-D density on the interval [lo, hi] with a base node count."""

    lo: float
    hi: float
    fn: Callable[[np.ndarray], np.ndarray]
    nodes: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("density piece interval must be finite")
        if self.hi < self.lo:
            raise DomainError("empty density piece interval")
        if self.nodes <= 0:
            raise DomainError("node count must be positive")


@dataclass(frozen=True)
class Marginal1D:
    """A finite mix of atoms and density pieces on the real line."""

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self):
        for _, w in self.atoms:
            if w < 0:
                raise DomainError("atom weights must be nonnegative")

    @property
    def is_purely_atomic(self) -> bool:
        return not self.pieces

    def cells(
        self, level: int, k: int = GAUSS_ORDER
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes, panel widths and weights at the given refinement level.

        Atoms appear as zero-width cells carrying their exact weight.
        """
        xs, dxs, ws = [], [], []
        for p in self.pieces:
            if p.hi == p.lo:
                continue
            x, wq, h = _axis_cells(p.lo, p.hi, p.nodes, level, k)
            val = np.broadcast_to(np.asarray(p.fn(x), dtype=float), x.shape)
            if not np.all(np.isfinite(val)):
                raise NonFiniteIntegrand("density evaluated to NaN/inf")
            if np.any(val < -1e-12):
                raise DomainError("density must be nonnegative")
            xs.append(x)
            dxs.append(np.full(x.size, h))
            ws.append(np.clip(val, 0.0, None) * wq)
        if self.atoms:
            pos = np.array([a for a, _ in self.atoms])
            w = np.array([w for _, w in self.atoms])
            xs.append(pos)
            dxs.append(np.zeros_like(pos))
            ws.append(w)
        if not xs:
            z = np.zeros(0)
            return z, z.copy(), z.copy()
        return np.concatenate(xs), np.concatenate(dxs), np.concatenate(ws)

    def n_cells(self, level: int, k: int = GAUSS_ORDER) -> int:
        return sum((p.nodes << level) * k for p in self.pieces if p.hi > p.lo) + len(self.atoms)

    def density_at(self, x: np.ndarray) -> np.ndarray:
        """Pointwise value of the absolutely continuous part."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p in self.pieces:
            if p.hi == p.lo:
                continue
            mask = (x >= p.lo) & (x <= p.hi)
            if np.any(mask):
                out[mask] += np.clip(
                    np.broadcast_to(np.asarray(p.fn(x[mask]), dtype=float), x[mask].shape),
                    0.0, None,
                )
        return out

    def restrict(self, lo: float, hi: float) -> "Marginal1D":
        atoms = tuple((a, w) for a, w in self.atoms if lo <= a <= hi)
        pieces = []
        for p in self.pieces:
            nlo, nhi = max(p.lo, lo), min(p.hi, hi)
            if nhi > nlo:
                pieces.append(replace(p, lo=nlo, hi=nhi))
        return Marginal1D(atoms=atoms, pieces=tuple(pieces))

    def split_at(self, points: Iterable[float]) -> "Marginal1D":
        """Refine piece boundaries so each piece lies on one side of each point."""
        pieces = list(self.pieces)
        for pt in points:
            nxt = []
            for p in pieces:
                if p.lo < pt < p.hi:
                    nxt.append(replace(p, hi=pt))
                    nxt.append(replace(p, lo=pt))
                else:
                    nxt.append(p)
            pieces = nxt
        return Marginal1D(atoms=self.atoms, pieces=tuple(pieces))

    def shift(self, a: float) -> "Marginal1D":
        atoms = tuple((pos + a, w) for pos, w in self.atoms)
        pieces = tuple(
            DensityPiece(p.lo + a, p.hi + a, _shifted(p.fn, a), p.nodes) for p in self.pieces
        )
        return Marginal1D(atoms=atoms, pieces=pieces)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], tol: float = 1e-8) -> float:
        """Integral of f, as the z2 side of the product with a unit atom at z1 = 0."""
        on_axis = LevyMeasure.product(_const_marginal(0.0), self)
        return float(levy_integral(on_axis, lambda z1, z2: f(z2), tol=tol))

    def mass(self, tol: float = 1e-8) -> float:
        return self.integrate(np.ones_like, tol=tol)

    def support_bounds(self) -> tuple[float, float]:
        los = [p.lo for p in self.pieces] + [a for a, _ in self.atoms]
        his = [p.hi for p in self.pieces] + [a for a, _ in self.atoms]
        if not los:
            return (0.0, 0.0)
        return (min(los), max(his))


def _shifted(fn: Callable, a: float) -> Callable:
    def g(x):
        return fn(np.asarray(x) - a)

    return g


def _const_marginal(atom: float, weight: float = 1.0) -> Marginal1D:
    return Marginal1D(atoms=((atom, weight),))


# ---------------------------------------------------------------------------
# LevyMeasure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyMeasure:
    """A measure on G \\ {0} with G = R+ x R.

    Exactly one of the payload groups is populated, per `kind`.
    """

    kind: str  # "atomic" | "density" | "product" | "union"
    atoms: tuple[tuple[float, float, float], ...] = ()  # (z1, z2, w)
    density: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    domain: tuple[tuple[float, float], tuple[float, float]] | None = None
    nodes: tuple[int, int] | None = None
    m1: Marginal1D | None = None  # product: z1 marginal
    m2: Marginal1D | None = None  # product: z2 marginal
    members: tuple["LevyMeasure", ...] = ()
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind == "atomic":
            for z1, z2, w in self.atoms:
                if z1 < 0:
                    raise DomainError("atom z1 must be >= 0")
                if z1 == 0 and z2 == 0:
                    raise DomainError("atoms must avoid the origin")
                if w < 0:
                    raise DomainError("atom weights must be >= 0")
        elif self.kind == "density":
            (z1lo, z1hi), (z2lo, z2hi) = self.domain
            if z1lo < 0:
                raise DomainError("density domain must satisfy z1 >= 0")
            if z1hi < z1lo or z2hi < z2lo:
                raise DomainError("empty density domain")
            if not all(map(math.isfinite, (z1lo, z1hi, z2lo, z2hi))):
                raise DomainError("density domain must be bounded")
            n1, n2 = self.nodes
            if n1 <= 0 or n2 <= 0:
                raise DomainError("node counts must be positive")
        elif self.kind == "product":
            lo, _ = self.m1.support_bounds()
            if self.m1.atoms and min(a for a, _ in self.m1.atoms) < 0:
                raise DomainError("z1 marginal must live on R+")
            if any(p.lo < 0 for p in self.m1.pieces):
                raise DomainError("z1 marginal must live on R+")
        elif self.kind == "union":
            pass
        else:
            raise UnsupportedMeasure(f"unknown measure kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def atomic(atoms: Iterable[tuple[float, float, float]]) -> "LevyMeasure":
        return LevyMeasure(kind="atomic", atoms=tuple(atoms))

    @staticmethod
    def zero() -> "LevyMeasure":
        return LevyMeasure(kind="atomic", atoms=())

    @staticmethod
    def from_density(
        fn: Callable,
        domain: Sequence[Sequence[float]],
        nodes: Sequence[int],
    ) -> "LevyMeasure":
        (z1lo, z1hi), (z2lo, z2hi) = domain
        return LevyMeasure(
            kind="density",
            density=fn,
            domain=((float(z1lo), float(z1hi)), (float(z2lo), float(z2hi))),
            nodes=(int(nodes[0]), int(nodes[1])),
        )

    @staticmethod
    def product(m1: Marginal1D, m2: Marginal1D) -> "LevyMeasure":
        return LevyMeasure(kind="product", m1=m1, m2=m2)

    @staticmethod
    def union(members: Iterable["LevyMeasure"]) -> "LevyMeasure":
        members = tuple(m for m in members if not m.is_empty())
        if not members:
            return LevyMeasure.zero()
        if len(members) == 1:
            return members[0]
        return LevyMeasure(kind="union", members=members)

    def is_empty(self) -> bool:
        if self.kind == "atomic":
            return not self.atoms
        if self.kind == "union":
            return all(m.is_empty() for m in self.members)
        if self.kind == "product":
            return self.m1.n_cells(0) == 0 or self.m2.n_cells(0) == 0
        return False

    # -- cells --------------------------------------------------------------

    def n_cells(self, level: int, k: int = GAUSS_ORDER) -> int:
        if self.kind == "atomic":
            return len(self.atoms)
        if self.kind == "density":
            (z1lo, z1hi), (z2lo, z2hi) = self.domain
            n1 = 1 if z1hi == z1lo else (self.nodes[0] << level) * k
            n2 = 1 if z2hi == z2lo else (self.nodes[1] << level) * k
            return n1 * n2
        if self.kind == "product":
            return self.m1.n_cells(level, k) * self.m2.n_cells(level, k)
        return sum(m.n_cells(level, k) for m in self.members)

    def cells(self, level: int, k: int = GAUSS_ORDER):
        """Arrays (z1, z2, dz1, dz2, w) at this level: nodes, the widths of
        their panels and weights, with k Gauss-Legendre nodes per panel."""
        if self.kind == "atomic":
            if not self.atoms:
                z = np.zeros(0)
                return z, z.copy(), z.copy(), z.copy(), z.copy()
            a = np.array(self.atoms, dtype=float)
            zero = np.zeros(len(self.atoms))
            return a[:, 0], a[:, 1], zero, zero.copy(), a[:, 2]
        if self.kind == "density":
            (z1lo, z1hi), (z2lo, z2hi) = self.domain
            x1, w1, h1 = _axis_cells(z1lo, z1hi, self.nodes[0], level, k)
            x2, w2, h2 = _axis_cells(z2lo, z2hi, self.nodes[1], level, k)
            Z1, Z2 = np.meshgrid(x1, x2, indexing="ij")
            z1, z2 = Z1.ravel(), Z2.ravel()
            val = np.broadcast_to(
                np.asarray(self.density(z1, z2), dtype=float), z1.shape
            )
            if not np.all(np.isfinite(val)):
                raise NonFiniteIntegrand("density evaluated to NaN/inf")
            if np.any(val < -1e-12):
                raise DomainError("density must be nonnegative")
            w = np.clip(val, 0.0, None) * np.outer(w1, w2).ravel()
            d1 = np.full_like(z1, h1)
            d2 = np.full_like(z2, h2)
            return z1, z2, d1, d2, w
        if self.kind == "product":
            x1, d1, w1 = self.m1.cells(level, k)
            x2, d2, w2 = self.m2.cells(level, k)
            Z1, Z2 = np.meshgrid(x1, x2, indexing="ij")
            D1, D2 = np.meshgrid(d1, d2, indexing="ij")
            W = np.outer(w1, w2)
            return Z1.ravel(), Z2.ravel(), D1.ravel(), D2.ravel(), W.ravel()
        parts = [m.cells(level, k) for m in self.members]
        return tuple(np.concatenate([p[i] for p in parts]) for i in range(5))

    # -- restriction / truncation ------------------------------------------

    def restrict(self, region) -> "LevyMeasure":
        """Exact restriction to a rectangle ((z1lo,z1hi),(z2lo,z2hi))."""
        (r1lo, r1hi), (r2lo, r2hi) = region
        if r1lo < 0 and not math.isinf(r1lo):
            raise DomainError("region exits G: z1 lower bound < 0")
        if self.kind == "atomic":
            return LevyMeasure.atomic(
                (z1, z2, w)
                for z1, z2, w in self.atoms
                if r1lo <= z1 <= r1hi and r2lo <= z2 <= r2hi
            )
        if self.kind == "density":
            (z1lo, z1hi), (z2lo, z2hi) = self.domain
            n1lo, n1hi = max(z1lo, r1lo), min(z1hi, r1hi)
            n2lo, n2hi = max(z2lo, r2lo), min(z2hi, r2hi)
            if n1hi < n1lo or n2hi < n2lo:
                return LevyMeasure.zero()
            return LevyMeasure.from_density(self.density, ((n1lo, n1hi), (n2lo, n2hi)), self.nodes)
        if self.kind == "product":
            m1 = self.m1.restrict(r1lo, r1hi)
            m2 = self.m2.restrict(r2lo, r2hi)
            return LevyMeasure.product(m1, m2)
        return LevyMeasure.union(m.restrict(region) for m in self.members)

    def truncate_small(self, eps: float) -> "LevyMeasure":
        """Exact removal of the sup-norm ball {max(z1,|z2|) < eps}."""
        if eps <= 0:
            return self
        if self.kind == "atomic":
            return LevyMeasure.atomic(
                (z1, z2, w) for z1, z2, w in self.atoms if max(z1, abs(z2)) >= eps
            )
        if self.kind == "density":
            (z1lo, z1hi), (z2lo, z2hi) = self.domain
            subs = []
            for a1lo, a1hi in _split_interval(z1lo, z1hi, (eps,)):
                for a2lo, a2hi in _split_interval(z2lo, z2hi, (-eps, eps)):
                    if a1hi <= eps and a2lo >= -eps and a2hi <= eps:  # inside the box
                        continue
                    subs.append(
                        LevyMeasure.from_density(
                            self.density, ((a1lo, a1hi), (a2lo, a2hi)), self.nodes
                        )
                    )
            return LevyMeasure.union(subs)
        if self.kind == "product":
            m1 = self.m1.split_at((eps,))
            m2 = self.m2.split_at((-eps, eps))
            m1_in = m1.restrict(-np.inf, eps)
            m1_in = Marginal1D(
                atoms=tuple((a, w) for a, w in m1_in.atoms if a < eps),
                pieces=m1_in.pieces,
            )
            m1_out = Marginal1D(
                atoms=tuple((a, w) for a, w in m1.atoms if a >= eps),
                pieces=tuple(p for p in m1.pieces if p.lo >= eps),
            )
            m2_in = Marginal1D(
                atoms=tuple((a, w) for a, w in m2.atoms if abs(a) < eps),
                pieces=tuple(p for p in m2.pieces if p.lo >= -eps and p.hi <= eps),
            )
            m2_out = Marginal1D(
                atoms=tuple((a, w) for a, w in m2.atoms if abs(a) >= eps),
                pieces=tuple(p for p in m2.pieces if not (p.lo >= -eps and p.hi <= eps)),
            )
            return LevyMeasure.union(
                [LevyMeasure.product(m1_out, self.m2), LevyMeasure.product(m1_in, m2_out)]
            )
        return LevyMeasure.union(m.truncate_small(eps) for m in self.members)

    # -- marginals ----------------------------------------------------------

    def z2_marginal(self, z1_level: int = 6) -> Marginal1D:
        """The z2-marginal n(R+ x dz2) as a 1-D measure."""
        if self.kind == "atomic":
            agg: dict[float, float] = {}
            for _, z2, w in self.atoms:
                agg[z2] = agg.get(z2, 0.0) + w
            return Marginal1D(atoms=tuple(sorted(agg.items())))
        if self.kind == "density":
            (z1lo, z1hi), (z2lo, z2hi) = self.domain
            # (nodes << z1_level) Gauss nodes in all
            panels = max(1, (self.nodes[0] << z1_level) // GAUSS_ORDER)
            x1, w1, _ = _axis_cells(z1lo, z1hi, panels, 0)
            if z2hi == z2lo:
                w = float(np.sum(self.density(x1, np.full_like(x1, z2lo)) * w1))
                return Marginal1D(atoms=((z2lo, w),))

            def marg(z2, _x1=x1, _w1=w1, _rho=self.density):
                z2 = np.asarray(z2, dtype=float)
                out = np.empty_like(z2)
                for i, v in enumerate(z2.ravel()):
                    out.ravel()[i] = float(np.sum(_rho(_x1, np.full_like(_x1, v)) * _w1))
                return out

            return Marginal1D(pieces=(DensityPiece(z2lo, z2hi, marg, self.nodes[1]),))
        if self.kind == "product":
            if self.m2.n_cells(0) == 0 or self.m1.n_cells(0) == 0:
                return Marginal1D()
            total = self.m1.mass()
            return _scale_marginal(self.m2, total)
        parts = [m.z2_marginal(z1_level) for m in self.members]
        return Marginal1D(
            atoms=tuple(a for p in parts for a in p.atoms),
            pieces=tuple(q for p in parts for q in p.pieces),
        )

    # -- mass ---------------------------------------------------------------

    def total_mass(self, tol: float = 1e-8) -> tuple[bool, float]:
        """(finite, value).  Divergence under node doubling reads as infinite."""
        try:
            val = levy_integral(self, lambda z1, z2: np.ones_like(z1), tol=tol)
            return True, val
        except QuadratureError:
            return False, math.inf

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "atomic":
            return {"kind": "atomic", "atoms": [list(a) for a in self.atoms]}
        if self.kind == "density":
            expr = getattr(self.density, "expr", None)
            if expr is None:
                raise UnsupportedMeasure("cannot serialize a callable density without expr")
            return {
                "kind": "density",
                "expr": expr,
                "domain": [list(self.domain[0]), list(self.domain[1])],
                "nodes": list(self.nodes),
            }
        if self.kind == "product":
            return {
                "kind": "product",
                "z1": _marginal_to_json(self.m1),
                "z2": _marginal_to_json(self.m2),
            }
        raise UnsupportedMeasure("union measures are internal-only")

    @staticmethod
    def from_json(d: dict) -> "LevyMeasure":
        kind = d["kind"]
        if kind == "atomic":
            return LevyMeasure.atomic(tuple(a) for a in d["atoms"])
        if kind == "density":
            fn = compile_density_expr(d["expr"], ("z1", "z2"))
            return LevyMeasure.from_density(fn, d["domain"], d["nodes"])
        if kind == "product":
            return LevyMeasure.product(_marginal_from_json(d["z1"]), _marginal_from_json(d["z2"]))
        raise UnsupportedMeasure(f"unknown measure kind {kind!r} in JSON")


def _axis_cells(lo: float, hi: float, panels: int, level: int, k: int = GAUSS_ORDER):
    """Nodes, weights and panel width of the k-point Gauss-Legendre rule on
    each of the ``panels << level`` equal panels of [lo, hi] (k = 1: the
    midpoint rule).  A collapsed axis is one node of weight 1 and width 0."""
    if hi == lo:
        return np.array([lo]), np.ones(1), 0.0
    n = panels << level
    h = (hi - lo) / n
    t, wt = _gauss_legendre(k)
    x = lo + h * (np.arange(n)[:, None] + t)
    return x.ravel(), np.tile(h * wt, n), h


@functools.lru_cache(maxsize=None)
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the k-point Gauss-Legendre rule on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(k)
    return (t + 1.0) / 2.0, w / 2.0


def _split_interval(lo: float, hi: float, points: Sequence[float]):
    cuts = sorted({lo, hi, *[p for p in points if lo < p < hi]})
    if hi == lo:
        return [(lo, hi)]
    return list(zip(cuts[:-1], cuts[1:]))


def _scale_marginal(m: Marginal1D, c: float) -> Marginal1D:
    atoms = tuple((a, w * c) for a, w in m.atoms)
    pieces = tuple(
        DensityPiece(p.lo, p.hi, _scaled(p.fn, c), p.nodes) for p in m.pieces
    )
    return Marginal1D(atoms=atoms, pieces=pieces)


def _scaled(fn: Callable, c: float) -> Callable:
    def g(x):
        return c * np.asarray(fn(x))

    return g


def _marginal_to_json(m: Marginal1D) -> dict:
    out: dict = {}
    if m.atoms:
        out["atoms"] = [list(a) for a in m.atoms]
    if m.pieces:
        if len(m.pieces) != 1:
            raise UnsupportedMeasure("multi-piece marginals are internal-only")
        p = m.pieces[0]
        expr = getattr(p.fn, "expr", None)
        if expr is None:
            raise UnsupportedMeasure("cannot serialize a callable marginal without expr")
        out["density"] = {"expr": expr, "domain": [p.lo, p.hi], "nodes": p.nodes}
    return out


def _marginal_from_json(d: dict) -> Marginal1D:
    atoms = tuple(tuple(a) for a in d.get("atoms", ()))
    pieces = ()
    if "density" in d:
        dd = d["density"]
        fn = compile_density_expr(dd["expr"], ("z",))
        pieces = (DensityPiece(dd["domain"][0], dd["domain"][1], fn, dd.get("nodes", 64)),)
    return Marginal1D(atoms=atoms, pieces=pieces)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def levy_integral(mu: LevyMeasure, f: Callable, region=None, tol: float = 1e-8):
    """Integral of f(z1, z2) against mu, exact for atoms, Gauss panels
    refined by node doubling (`_converge`) for densities."""
    if region is not None:
        mu = mu.restrict(region)
    return _converge(mu, f, tol)[1]


def _converge(mu: LevyMeasure, f: Callable, tol: float):
    """The node-doubling loop behind every integral.

    Returns the rule (z1, z2, w) of the first level whose integral of f
    differs from the previous level's by at most tol * max(1, |value|),
    and that value.  f may return a stack of integrands (shape (..., n));
    each must then meet the test.  Atomic measures are exact at level 0.
    Raises QuadratureError once the next level would exceed NODE_CAP nodes.
    """
    exact = _is_atomic_only(mu)
    prev = None
    for level in range(_MAX_LEVELS):
        if mu.n_cells(level) > NODE_CAP:
            raise QuadratureError(f"no convergence to tol {tol:g} within {NODE_CAP} nodes")
        z1, z2, _, _, w = mu.cells(level)
        if z1.size == 0:
            return (z1, z2, w), 0.0
        vals = np.asarray(f(z1, z2))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand("integrand evaluated to NaN/inf at a node")
        val = np.sum(w * vals, axis=-1)
        if exact or (
            prev is not None and np.all(np.abs(val - prev) <= tol * np.maximum(1.0, np.abs(val)))
        ):
            return (z1, z2, w), (val.item() if val.ndim == 0 else val)
        prev = val
    raise QuadratureError("quadrature did not converge under node doubling")


def _is_atomic_only(mu: LevyMeasure) -> bool:
    if mu.kind == "atomic":
        return True
    if mu.kind == "product":
        return mu.m1.is_purely_atomic and mu.m2.is_purely_atomic
    if mu.kind == "union":
        return all(_is_atomic_only(m) for m in mu.members)
    return False


def levy_restrict_tail(n: LevyMeasure, eps: float) -> LevyMeasure:
    """The paper-style finite measure on the z2 axis.

    Full z2-marginal when n has finite total mass, else the marginal
    restricted to {|z2| >= eps}.  Returned as a degenerate product measure
    with the z1-marginal equal to a unit atom at 0.
    """
    if eps <= 0:
        raise DomainError("eps must be > 0")
    finite, _ = n.total_mass()
    try:
        if finite:
            marg = n.z2_marginal()
        else:
            restricted = LevyMeasure.union(
                [
                    n.restrict(((0.0, np.inf), (-np.inf, -eps))),
                    n.restrict(((0.0, np.inf), (eps, np.inf))),
                ]
            )
            marg = restricted.z2_marginal()
        mass = marg.mass()
    except QuadratureError as exc:
        raise InfiniteMass("restricted z2-marginal still has non-finite mass") from exc
    if not math.isfinite(mass):
        raise InfiniteMass("restricted z2-marginal still has non-finite mass")
    return LevyMeasure.product(_const_marginal(0.0, 1.0), marg)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class LevySampler:
    """Draws i.i.d. points with law mu / mu(G).

    Atoms are drawn by inverse CDF over weights; density cells (the
    one-node-per-panel midpoint cells) by grid-cell inverse CDF with uniform
    jitter within the selected cell.
    """

    def __init__(self, mu: LevyMeasure, mass_tol: float = 1e-6, max_cells: int = 1 << 21):
        z1 = z2 = d1 = d2 = w = None
        prev_stats = None
        for level in range(_MAX_LEVELS):
            if mu.n_cells(level, 1) > max_cells:
                break
            z1, z2, d1, d2, w = mu.cells(level, 1)
            stats = (
                float(np.sum(w)),
                float(np.sum(w * z1)),
                float(np.sum(w * z2)),
            )
            if _is_atomic_only(mu):
                break
            if prev_stats is not None and all(
                abs(a - b) <= mass_tol * max(1.0, abs(a)) for a, b in zip(stats, prev_stats)
            ):
                break
            prev_stats = stats
        if z1 is None or float(np.sum(w)) <= 0.0:
            raise ZeroMass("cannot sample from a zero-mass measure")
        keep = w > 0
        self.z1, self.z2 = z1[keep], z2[keep]
        self.d1, self.d2 = d1[keep], d2[keep]
        self.w = w[keep]
        self.rate = float(np.sum(self.w))
        self.mean_z1 = float(np.sum(self.w * self.z1))
        self.mean_z2 = float(np.sum(self.w * self.z2))
        self._cum = np.cumsum(self.w) / self.rate

    def draw(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        if size == 0:
            return np.zeros(0), np.zeros(0)
        u = rng.random(size)
        j1 = rng.random(size)
        j2 = rng.random(size)
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.w) - 1)
        z1 = self.z1[idx] + (j1 - 0.5) * self.d1[idx]
        z2 = self.z2[idx] + (j2 - 0.5) * self.d2[idx]
        return z1, z2


# ---------------------------------------------------------------------------
# 1-D overlap / total-variation helpers (used by condition checkers)
# ---------------------------------------------------------------------------


def overlap_stats(
    mu: Marginal1D, nu: Marginal1D, n_grid: int = _GRID
) -> tuple[float, float, float, float]:
    """(overlap, tv, mass_mu, mass_nu) computed on one common grid.

    overlap = (mu ^ nu)(R), tv = |mu - nu|(R).  Atoms match exactly
    (position tolerance 1e-12); atom-vs-density pairs never overlap.
    All four numbers come from the same discretization, so the identity
    overlap = (mass_mu + mass_nu - tv) / 2 holds by construction.
    """
    lo1, hi1 = mu.support_bounds()
    lo2, hi2 = nu.support_bounds()
    lo, hi = min(lo1, lo2), max(hi1, hi2)
    overlap = tv = mass_mu = mass_nu = 0.0
    if (mu.pieces or nu.pieces) and hi > lo:
        x, h = _grid(lo, hi, n_grid)
        p = mu.density_at(x) * h
        q = nu.density_at(x) * h
        overlap += float(np.sum(np.minimum(p, q)))
        tv += float(np.sum(np.abs(p - q)))
        mass_mu += float(np.sum(p))
        mass_nu += float(np.sum(q))
    mu_atoms = dict(_merge_atoms(mu.atoms))
    nu_atoms = dict(_merge_atoms(nu.atoms))
    keys = sorted(set(mu_atoms) | set(nu_atoms))
    matched_nu = set()
    for k in keys:
        if k in mu_atoms:
            wm = mu_atoms[k]
            wn = 0.0
            for kn, w in nu_atoms.items():
                if abs(kn - k) <= 1e-12:
                    wn = w
                    matched_nu.add(kn)
                    break
            overlap += min(wm, wn)
            tv += abs(wm - wn)
            mass_mu += wm
            mass_nu += wn
    for kn, w in nu_atoms.items():
        if kn not in matched_nu:
            tv += w
            mass_nu += w
    return overlap, tv, mass_mu, mass_nu


def grid_integral(mu: Marginal1D, f: Callable) -> float:
    """Integral of f against mu on overlap_stats' default fixed midpoint grid
    over mu's support (atoms exact).  No refinement: for densities with
    jumps, on which node doubling cannot converge."""
    val = sum(w * float(f(np.asarray(a))) for a, w in mu.atoms)
    lo, hi = mu.support_bounds()
    if mu.pieces and hi > lo:
        x, h = _grid(lo, hi, _GRID)
        val += float(np.sum(f(x) * (mu.density_at(x) * h)))
    return val


def _grid(lo: float, hi: float, n_grid: int) -> tuple[np.ndarray, float]:
    return lo + (hi - lo) * (np.arange(n_grid) + 0.5) / n_grid, (hi - lo) / n_grid


def _merge_atoms(atoms):
    agg: dict[float, float] = {}
    for a, w in atoms:
        agg[a] = agg.get(a, 0.0) + w
    return agg.items()
