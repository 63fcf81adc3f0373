"""Levy measures on G = R+ x R: quadrature, restriction, truncation, sampling.

A measure is a plain sum: a finite list of weighted atoms (z1, z2, w) plus
a list of products of two one-dimensional marginals, each a mix of atoms
and density pieces (a density on z2 = 0 pairs with a unit z2 atom).  A
model file holds the atoms or one product; restriction and small-jump
truncation may leave atoms and several products (a product minus the
small-jump box is two products).

A density piece is integrated by GAUSS_ORDER-point Gauss-Legendre nodes on
each of ``nodes << level`` equal panels, and a product by the tensor rule
of its marginals' cells.  One node-doubling loop (`_converge`) serves every
integral, on the rule its caller supplies at each level: a measure's cells,
a 1-D marginal's own cells (`Marginal1D.integrate`, so they are compared
between the edges of its pieces), or bare Gauss panels on an interval
(`mechanisms._line_integral`).  It doubles the panel count until two
successive levels agree and raises QuadratureError at NODE_CAP, never
returning an unconverged grid.  With one node per panel the cells are the
midpoint cells that LevySampler jitters within.  Tails beyond the declared
pieces are the caller's responsibility.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InfiniteMass,
    ModelFormatError,
    NonFiniteIntegrand,
    QuadratureError,
    UnsupportedMeasure,
    ZeroMass,
)

NODE_CAP = 1 << 20
GAUSS_ORDER = 8
_OVERLAP_TOL = 1e-8  # overlap_stats
_SAMPLER_TOL = 1e-6  # LevySampler: relative change of rate and mean between levels

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


def compile_density_expr(expr: str) -> Callable:
    """Compile an arithmetic expression in z into a vectorized callable.

    Only z plus exp/log/pow/abs/sqrt/minimum/maximum/where/pi/e are allowed.
    """
    code = compile(expr, "<density-expr>", "eval")
    for name in code.co_names:
        if name not in _SAFE_FUNCS and name != "z":
            raise ValueError(f"name {name!r} not allowed in density expression")

    def fn(z):
        return eval(code, {"__builtins__": {}}, {**_SAFE_FUNCS, "z": z})

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

        Atoms appear as zero-width cells carrying their exact weight; a NaN/inf
        or negative density value raises NonFiniteIntegrand or DomainError.
        """
        xs, dxs, ws = [], [], []
        for p in self.pieces:
            if p.hi == p.lo:
                continue
            x, wq, h = _axis_cells(p.lo, p.hi, p.nodes, level, k)
            xs.append(x)
            dxs.append(np.full(x.size, h))
            val = np.broadcast_to(np.asarray(p.fn(x), dtype=float), x.shape)
            if not np.all(np.isfinite(val)):
                raise NonFiniteIntegrand("density evaluated to NaN/inf")
            if np.any(val < -1e-12):
                raise DomainError("density must be nonnegative")
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

    def where(self, keep: Callable[[float, float], bool]) -> "Marginal1D":
        """The atoms a with keep(a, a) and the pieces with keep(lo, hi)."""
        return Marginal1D(
            atoms=tuple((a, w) for a, w in self.atoms if keep(a, a)),
            pieces=tuple(p for p in self.pieces if keep(p.lo, p.hi)),
        )

    def restrict(self, lo: float, hi: float) -> "Marginal1D":
        return self.split_at((lo, hi)).where(lambda a, b: lo <= a and b <= hi)

    def split_at(self, points: Sequence[float]) -> "Marginal1D":
        """Refine piece boundaries so each piece lies on one side of each point."""
        pieces = tuple(replace(p, lo=a, hi=b) for p in self.pieces for a, b in _split_interval(p.lo, p.hi, points))
        return Marginal1D(atoms=self.atoms, pieces=pieces)

    def shift(self, a: float) -> "Marginal1D":
        atoms = tuple((pos + a, w) for pos, w in self.atoms)
        pieces = tuple(
            replace(p, lo=p.lo + a, hi=p.hi + a, fn=lambda x, fn=p.fn: fn(np.asarray(x) - a)) for p in self.pieces
        )
        return Marginal1D(atoms=atoms, pieces=pieces)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], tol: float = 1e-8):
        """Integral of f (or of each integrand f stacks) on the nodes and
        weights of `cells`, refined on the node-doubling loop `_converge`."""
        rule = lambda level: None if self.n_cells(level) > NODE_CAP else self.cells(level)[::2]
        return _converge(rule, f, tol, self.is_purely_atomic)[1]

    def mass(self) -> float:
        return self.integrate(np.ones_like)

    def support_bounds(self) -> tuple[float, float]:
        los = [p.lo for p in self.pieces] + [a for a, _ in self.atoms]
        his = [p.hi for p in self.pieces] + [a for a, _ in self.atoms]
        if not los:
            return (0.0, 0.0)
        return (min(los), max(his))


# ---------------------------------------------------------------------------
# LevyMeasure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevyMeasure:
    """A measure on G \\ {0} with G = R+ x R: weighted atoms (z1, z2, w)
    plus a sum of products of a z1 and a z2 marginal.

    Every method takes the atoms, then each product in order.  A model file
    holds atoms or one product; a truncation may leave several products.
    """

    atoms: tuple[tuple[float, float, float], ...] = ()
    products: tuple[tuple[Marginal1D, Marginal1D], ...] = ()

    def __post_init__(self):
        for z1, z2, w in self.atoms:
            if z1 < 0:
                raise DomainError("atom z1 must be >= 0")
            if z1 == 0 and z2 == 0:
                raise DomainError("atoms must avoid the origin")
            if w < 0:
                raise DomainError("atom weights must be >= 0")
        if any(m1.support_bounds()[0] < 0 for m1, _ in self.products):
            raise DomainError("z1 marginal must live on R+")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def atomic(atoms: Iterable[tuple[float, float, float]]) -> "LevyMeasure":
        return LevyMeasure(atoms=tuple(atoms))

    @staticmethod
    def zero() -> "LevyMeasure":
        return LevyMeasure()

    @staticmethod
    def product(m1: Marginal1D, m2: Marginal1D) -> "LevyMeasure":
        return LevyMeasure(products=((m1, m2),))

    @staticmethod
    def union(mus: Iterable["LevyMeasure"]) -> "LevyMeasure":
        """The sum of the measures mus: their atoms, then their products."""
        mus = tuple(mus)
        return _sum((a for mu in mus for a in mu.atoms), (p for mu in mus for p in mu.products))

    def is_empty(self) -> bool:
        return self.n_cells(0) == 0

    @property
    def is_atomic(self) -> bool:
        """No density piece: every integral is exact on level 0's cells."""
        return all(m1.is_purely_atomic and m2.is_purely_atomic for m1, m2 in self.products)

    # -- cells --------------------------------------------------------------

    def n_cells(self, level: int, k: int = GAUSS_ORDER) -> int:
        return len(self.atoms) + sum(m1.n_cells(level, k) * m2.n_cells(level, k) for m1, m2 in self.products)

    def cells(self, level: int, k: int = GAUSS_ORDER):
        """Arrays (z1, z2, dz1, dz2, w) at this level: nodes, the widths of
        their panels and weights, with k Gauss-Legendre nodes per panel; the
        atoms first, then each product's tensor rule of its marginals."""
        parts = []
        if self.atoms:
            a = np.array(self.atoms, dtype=float)
            zero = np.zeros(len(self.atoms))
            parts.append((a[:, 0], a[:, 1], zero, zero.copy(), a[:, 2]))
        for m1, m2 in self.products:
            x1, d1, w1 = m1.cells(level, k)
            x2, d2, w2 = m2.cells(level, k)
            Z1, Z2 = np.meshgrid(x1, x2, indexing="ij")
            D1, D2 = np.meshgrid(d1, d2, indexing="ij")
            parts.append((Z1.ravel(), Z2.ravel(), D1.ravel(), D2.ravel(), np.outer(w1, w2).ravel()))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate([np.zeros(0), *(p[i] for p in parts)]) for i in range(5))

    # -- restriction / truncation ------------------------------------------

    def restrict(self, region) -> "LevyMeasure":
        """Exact restriction to a rectangle ((z1lo,z1hi),(z2lo,z2hi))."""
        (r1lo, r1hi), (r2lo, r2hi) = region
        if r1lo < 0 and not math.isinf(r1lo):
            raise DomainError("region exits G: z1 lower bound < 0")
        return _sum(
            ((z1, z2, w) for z1, z2, w in self.atoms if r1lo <= z1 <= r1hi and r2lo <= z2 <= r2hi),
            ((m1.restrict(r1lo, r1hi), m2.restrict(r2lo, r2hi)) for m1, m2 in self.products),
        )

    def split_at(self, z1_points: Sequence[float], z2_points: Sequence[float]) -> "LevyMeasure":
        """The same measure with every density piece cut at these z1 and z2
        points (`Marginal1D.split_at`), so an integrand with a kink there
        is smooth on each panel; atoms are left as they are."""
        products = tuple((m1.split_at(z1_points), m2.split_at(z2_points)) for m1, m2 in self.products)
        return replace(self, products=products) if products else self

    def split_small(self, eps: float) -> tuple["LevyMeasure", "LevyMeasure"]:
        """The parts of mu outside and inside the sup-norm ball
        {max(z1,|z2|) < eps}, exactly: each density piece is cut at the
        ball's edges first, so it lies on one side of them."""
        if eps <= 0:
            return self, LevyMeasure.zero()
        out, small = [], []
        for m1, m2 in self.products:
            m1, m2_cut = m1.split_at((eps,)), m2.split_at((-eps, eps))
            m1_in = m1.where(lambda a, b: a < eps)
            out.append((m1.where(lambda a, b: a >= eps), m2))
            out.append((m1_in, m2_cut.where(lambda a, b: b <= -eps or a >= eps)))
            small.append((m1_in, m2_cut.where(lambda a, b: b > -eps and a < eps)))
        inside = [max(z1, abs(z2)) < eps for z1, z2, _ in self.atoms]
        return (
            _sum((a for a, i in zip(self.atoms, inside) if not i), out),
            _sum((a for a, i in zip(self.atoms, inside) if i), small),
        )

    def truncate_small(self, eps: float) -> "LevyMeasure":
        """Exact removal of the sup-norm ball {max(z1,|z2|) < eps}."""
        return self.split_small(eps)[0]

    # -- marginals ----------------------------------------------------------

    def z2_marginal(self) -> Marginal1D:
        """The z2-marginal n(R+ x dz2) as a 1-D measure."""
        parts = [Marginal1D(atoms=tuple(sorted(_merge_atoms((z2, w) for _, z2, w in self.atoms))))]
        parts += [_scale_marginal(m2, m1.mass()) for m1, m2 in self.products if m1.n_cells(0) and m2.n_cells(0)]
        return Marginal1D(
            atoms=tuple(a for p in parts for a in p.atoms),
            pieces=tuple(q for p in parts for q in p.pieces),
        )

    # -- mass ---------------------------------------------------------------

    def total_mass(self) -> float:
        """mu(G), inf when it diverges under node doubling."""
        return _try_integral(self, lambda z1, z2: np.ones_like(z1))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if not self.products:
            return {"kind": "atomic", "atoms": [list(a) for a in self.atoms]}
        if self.atoms or len(self.products) > 1:
            raise UnsupportedMeasure("a sum of atoms and products, or of several products, is internal-only")
        (m1, m2), = self.products
        return {"kind": "product", "z1": _marginal_to_json(m1), "z2": _marginal_to_json(m2)}

    @staticmethod
    def from_json(d: dict) -> "LevyMeasure":
        kind = check_keys(d, "measure", ("kind",), d)["kind"]  # the kind's keys are checked below
        if not isinstance(kind, str) or kind not in _JSON_KEYS:
            raise UnsupportedMeasure(
                f"unknown measure kind {kind!r}: the kinds are {' and '.join(map(repr, _JSON_KEYS))}; "
                "a separable density is a 'product' of two marginal densities"
            )
        check_keys(d, f"{kind} measure", ("kind", *_JSON_KEYS[kind]))
        if kind == "atomic":
            key = "atomic measure atoms"
            with reading(key):
                atoms = tuple((number(z1, key), number(z2, key), number(w, key)) for z1, z2, w in d["atoms"])
            return LevyMeasure.atomic(atoms)
        return LevyMeasure.product(_marginal_from_json(d["z1"]), _marginal_from_json(d["z2"]))


_JSON_KEYS = {"atomic": ("atoms",), "product": ("z1", "z2")}


def _sum(atoms: Iterable, products: Iterable) -> LevyMeasure:
    """The measure of these atoms and products, less the products without cells."""
    return LevyMeasure(tuple(atoms), tuple((m1, m2) for m1, m2 in products if m1.n_cells(0) and m2.n_cells(0)))


def check_keys(d, name: str, required: Iterable[str], optional: Iterable[str] = ()) -> dict:
    """d, after checking that it is a JSON object with every key in
    `required` and no other key than those and `optional`; ModelFormatError
    naming the missing and the unknown keys otherwise."""
    if not isinstance(d, dict):
        raise ModelFormatError(f"{name} must be a JSON object, not {type(d).__name__}")
    missing = [k for k in required if k not in d]
    unknown = sorted(set(d).difference(required, optional))
    problems = [f"{what} keys {keys}" for what, keys in (("missing", missing), ("unknown", unknown)) if keys]
    if problems:
        raise ModelFormatError(f"{name}: {', '.join(problems)}")
    return d


def number(v, key: str, count: bool = False):
    """v as a float if it is a finite JSON number, or with `count` as an int
    >= 1 (a bool or a string is neither); ModelFormatError naming the key it
    was read from otherwise."""
    if not isinstance(v, bool) and isinstance(v, int if count else (int, float)):
        # abs(v) <= max is False for NaN, +-inf and ints beyond the float range
        if v >= 1 if count else abs(v) <= sys.float_info.max:
            return v if count else float(v)
    raise ModelFormatError(f"{key}: {v!r} is not {'an integer >= 1' if count else 'a finite number'}")


@contextlib.contextmanager
def reading(key: str):
    """Re-raises the error of converting a model file's value as a
    ModelFormatError naming the key it was read from."""
    try:
        yield
    except (IndexError, SyntaxError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{key}: {exc}") from exc


def _axis_cells(lo, hi, panels: int, level: int, k: int = GAUSS_ORDER):
    """Nodes, weights and panel width of the k-point Gauss-Legendre rule on
    each of the ``panels << level`` equal panels of [lo, hi] (k = 1: the
    midpoint rule); a row of them per interval for arrays lo, hi."""
    n = panels << level
    lo, hi = np.asarray(lo)[..., None, None], np.asarray(hi)[..., None, None]
    h = (hi - lo) / n
    t, wt = _gauss_legendre(k)
    x = lo + h * (np.arange(n)[:, None] + t)
    shape = x.shape[:-2] + (-1,)
    return x.reshape(shape), np.tile(h * wt, n).reshape(shape), h[..., 0, 0]


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


def _octaves(lo: float, hi: float) -> list[tuple[float, float]]:
    """[lo, hi] cut at lo * 2^j (whole if lo <= 0)."""
    cuts = [lo]
    while lo > 0 and 2 * cuts[-1] < hi:
        cuts.append(2 * cuts[-1])
    return _split_interval(lo, hi, cuts[1:])


def _graded(mu: LevyMeasure) -> LevyMeasure:
    """mu with every z1 density piece split into its octaves (LevySampler)."""
    octaves = lambda m1: tuple(replace(p, lo=a, hi=b) for p in m1.pieces for a, b in _octaves(p.lo, p.hi))
    return replace(mu, products=tuple((replace(m1, pieces=octaves(m1)), m2) for m1, m2 in mu.products))


def _scale_marginal(m: Marginal1D, c: float) -> Marginal1D:
    atoms = tuple((a, w * c) for a, w in m.atoms)
    pieces = tuple(replace(p, fn=lambda x, fn=p.fn: c * np.asarray(fn(x))) for p in m.pieces)
    return Marginal1D(atoms=atoms, pieces=pieces)


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
    """A product's marginal {"atoms": [[z, w], ...], "density": {"expr",
    "domain", "nodes"}}, each key optional but "expr" and "domain"."""
    check_keys(d, "marginal", (), ("atoms", "density"))
    key = "marginal atoms"
    with reading(key):
        atoms = tuple((number(z, key), number(w, key)) for z, w in d.get("atoms", ()))
    pieces = ()
    if "density" in d:
        dd = check_keys(d["density"], "marginal density", ("expr", "domain"), ("nodes",))
        with reading("marginal density expr"):
            fn = compile_density_expr(dd["expr"])
        key = "marginal density domain"
        with reading(key):
            lo, hi = dd["domain"]
        nodes = number(dd.get("nodes", 64), "marginal density nodes", count=True)
        pieces = (DensityPiece(number(lo, key), number(hi, key), fn, nodes),)
    return Marginal1D(atoms=atoms, pieces=pieces)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def levy_integral(mu: LevyMeasure, f: Callable, region=None, tol: float = 1e-8):
    """Integral of f(z1, z2) against mu, exact for atoms, Gauss panels
    refined by node doubling (`_converge`) for densities."""
    if region is not None:
        mu = mu.restrict(region)
    return _on_measure(mu, f, tol)[1]


def _try_integral(mu: LevyMeasure, f: Callable, region=None) -> float:
    """Real part of levy_integral(mu, f, region); inf when it diverges."""
    try:
        return float(np.real(levy_integral(mu, f, region=region)))
    except QuadratureError:
        return math.inf


def _converge(rule: Callable[[int], tuple | None], f: Callable, tol: float, exact: bool = False,
              rowwise: bool = False):
    """The node-doubling loop behind every integral and the jump sampler.

    rule(level) is the caller's rule at that level: node arrays, which f
    takes, then their weights; None past NODE_CAP nodes.  Returns the rule
    of the first level whose integral of f differs from the previous
    level's by at most tol * max(1, |value|), that value and the level.  f
    may return a stack of integrands (shape (..., n)); each must then meet
    the test, and with `rowwise` keeps the value of the level where it first
    met it, as if integrated alone.  An `exact` rule (atoms only) stops at
    level 0.  Raises QuadratureError past NODE_CAP, or for a non-finite sum,
    which would not converge on a grid that has stopped growing.
    """
    prev = met = None
    for level in itertools.count():
        cells = rule(level)
        if cells is None:
            raise QuadratureError(f"no convergence to tol {tol:g} within {NODE_CAP} nodes")
        w = cells[-1]
        if w.size == 0:
            return cells, 0.0, level
        vals = np.asarray(f(*cells[:-1]))
        if not np.all(np.isfinite(vals)):
            raise NonFiniteIntegrand("integrand evaluated to NaN/inf at a node")
        val = np.sum(w * vals, axis=-1)
        if rowwise and met is not None:
            val = np.where(met, prev, val)
        met = prev is not None and np.abs(val - prev) <= tol * np.maximum(1.0, np.abs(val))
        if exact or np.all(met):
            return cells, (val.item() if val.ndim == 0 else val), level
        if not np.all(np.isfinite(val)):
            raise QuadratureError("quadrature sum is not finite")
        prev = val


def _on_measure(mu: LevyMeasure, f: Callable, tol: float, k: int = GAUSS_ORDER):
    """`_converge` on mu's cells (z1, z2, dz1, dz2, w), with k Gauss nodes
    per panel; f takes (z1, z2)."""
    rule = lambda level: None if mu.n_cells(level, k) > NODE_CAP else mu.cells(level, k)
    return _converge(rule, lambda z1, z2, dz1, dz2: f(z1, z2), tol, mu.is_atomic)


def levy_restrict_tail(n: LevyMeasure, eps: float) -> Marginal1D:
    """The paper-style finite measure n_eps on the z2 axis, as a 1-D law.

    The full z2-marginal when n has finite total mass, else the z2-marginal
    of n restricted to {|z2| >= eps}.  InfiniteMass if that still has
    non-finite mass.
    """
    if eps <= 0:
        raise DomainError("eps must be > 0")
    try:
        if not math.isfinite(n.total_mass()):
            n = LevyMeasure.union(n.restrict(((0.0, np.inf), band)) for band in ((-np.inf, -eps), (eps, np.inf)))
        marg = n.z2_marginal()
        mass = marg.mass()
    except QuadratureError as exc:
        raise InfiniteMass("restricted z2-marginal still has non-finite mass") from exc
    if not math.isfinite(mass):
        raise InfiniteMass("restricted z2-marginal still has non-finite mass")
    return marg


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


class LevySampler:
    """Draws i.i.d. points with law mu / mu(G).

    Atoms are drawn by inverse CDF over weights; the cells of a product's
    marginal densities (the one-node-per-panel midpoint cells, crossed with
    the other marginal's cells) by grid-cell inverse CDF with uniform jitter
    within the selected cell.  Each z1 density piece [lo, hi] with
    lo > 0 is graded: cut at lo * 2^j, every octave gets the piece's base
    panel count, so the cells shrink towards a truncation edge where a
    density like exp(-z)/z is steep.  The cells are refined on `_converge`
    until mass and mean agree to _SAMPLER_TOL between levels;
    QuadratureError if that needs more than NODE_CAP cells.
    """

    def __init__(self, mu: LevyMeasure):
        moments = lambda z1, z2: np.stack([np.ones_like(z1), z1, z2])
        z1, z2, d1, d2, w = _on_measure(_graded(mu), moments, _SAMPLER_TOL, k=1)[0]
        if float(np.sum(w)) <= 0.0:
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
        u, j1, j2 = rng.random((3, size))  # the values of three calls of size
        idx = np.searchsorted(self._cum, u, side="right")
        idx = np.minimum(idx, len(self.w) - 1)
        z1 = self.z1[idx] + (j1 - 0.5) * self.d1[idx]
        z2 = self.z2[idx] + (j2 - 0.5) * self.d2[idx]
        return z1, z2


# ---------------------------------------------------------------------------
# 1-D overlap / total-variation helpers (used by condition checkers)
# ---------------------------------------------------------------------------


def overlap_stats(mu: Marginal1D, nu: Marginal1D) -> tuple[float, float, float, float]:
    """(overlap, tv, mass_mu, mass_nu) with overlap = (mu ^ nu)(R) and
    tv = |mu - nu|(R).

    The densities are integrated in one `_converge` call to _OVERLAP_TOL
    between the piece edges of both marginals (`on_cut`), so a density may
    jump at its edges; QuadratureError if they do not converge.  Atoms match
    exactly (position tolerance 1e-12); atom-vs-density pairs never overlap.
    """
    overlap = tv = mass_mu = mass_nu = 0.0
    if mu.pieces or nu.pieces:

        def stack(x):
            p, q = mu.density_at(x), nu.density_at(x)
            return np.stack([np.minimum(p, q), np.abs(p - q), p, q])

        overlap, tv, mass_mu, mass_nu = map(float, on_cut(np.ones_like, mu, nu).integrate(stack, _OVERLAP_TOL))
    mu_atoms = dict(_merge_atoms(mu.atoms))
    nu_atoms = dict(_merge_atoms(nu.atoms))
    matched_nu = set()
    for k, wm in sorted(mu_atoms.items()):
        kn = next((kn for kn in nu_atoms if abs(kn - k) <= 1e-12), None)
        matched_nu.add(kn)
        wn = nu_atoms.get(kn, 0.0)
        overlap += min(wm, wn)
        tv += abs(wm - wn)
        mass_mu += wm
        mass_nu += wn
    for kn, w in nu_atoms.items():
        if kn not in matched_nu:
            tv += w
            mass_nu += w
    return overlap, tv, mass_mu, mass_nu


def on_cut(fn: Callable, *margs: Marginal1D) -> Marginal1D:
    """The density fn on the pieces of margs cut at every piece edge of all
    of them: disjoint pieces, each with the largest node count of the pieces
    that cover it."""
    edges = [e for m in margs for p in m.pieces for e in (p.lo, p.hi)]
    cut: dict[tuple[float, float], int] = {}
    pieces = [p for m in margs for p in m.split_at(edges).pieces if p.hi > p.lo]
    for p in pieces:
        cut[p.lo, p.hi] = max(p.nodes, cut.get((p.lo, p.hi), 0))
    return Marginal1D(pieces=tuple(DensityPiece(lo, hi, fn, n) for (lo, hi), n in cut.items()))


def _merge_atoms(atoms):
    agg: dict[float, float] = {}
    for a, w in atoms:
        agg[a] = agg.get(a, 0.0) + w
    return agg.items()
