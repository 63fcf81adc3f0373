import hashlib
import importlib.resources
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_ergo.errors import DomainError, EmptyDistribution, InfiniteMass, QuadratureError, ZeroMass
from affine_ergo.measures import (
    DensityPiece,
    LevyMeasure,
    LevySampler,
    Marginal1D,
    compile_density_expr,
    levy_integral,
    levy_restrict_tail,
    overlap_stats,
)
from affine_ergo.mechanisms import Mechanisms
from affine_ergo.model import load_model
from affine_ergo.riccati import build_vbar_table
from affine_ergo.rng import M_JUMP, stream


def atomic(*atoms):
    return LevyMeasure.atomic(atoms)


def on_z1_axis(expr, lo, hi, nodes):
    """The density expr(z1) on [lo, hi] x {0}: a product with a unit z2 atom at 0."""
    m1 = Marginal1D(pieces=(DensityPiece(lo, hi, compile_density_expr(expr), nodes),))
    return LevyMeasure.product(m1, Marginal1D(atoms=((0.0, 1.0),)))


class TestLevyIntegral:
    def test_single_atom_sum(self):
        mu = atomic((1.0, 0.0, 2.0))
        assert levy_integral(mu, lambda z1, z2: z1) == 2.0

    def test_empty_measure(self):
        assert levy_integral(LevyMeasure.zero(), lambda z1, z2: z1 + z2) == 0.0

    def test_gamma_integral_oracle(self):
        # int_0^40 z * e^{-z} dz = Gamma(2) = 1 up to the 1e-18 tail
        mu = on_z1_axis("exp(-z)", 0.0, 40.0, 64)
        val = levy_integral(mu, lambda z1, z2: z1)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_gauss_panels_exact_for_degree_15(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("pow(z, 15)")
        mu = Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 1),))
        assert mu.mass() == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_one_point_rule_is_midpoint_cells(self):
        mu = on_z1_axis("exp(-z)", 0.0, 3.0, 4)
        z1, _, d1, _, w = mu.cells(1, k=1)
        h = 3.0 / 8
        assert np.array_equal(z1, 0.0 + h * (np.arange(8) + 0.5))
        assert np.array_equal(d1, np.full(8, h))
        assert np.array_equal(w, np.exp(-z1) * h)

    def test_overflowed_sum_on_a_grid_that_stops_growing_raises(self):
        # a zero-width piece makes the measure non-atomic, but no level adds cells
        mu = LevyMeasure.product(
            Marginal1D(atoms=((1.0, 1e308),)),
            Marginal1D(atoms=((0.5, 10.0),), pieces=(DensityPiece(0.5, 0.5, np.ones_like),)),
        )
        with np.errstate(over="ignore"), pytest.raises(QuadratureError):
            levy_integral(mu, lambda z1, z2: np.ones_like(z1))
        with np.errstate(over="ignore"):
            assert mu.total_mass() == math.inf

    def test_region_outside_cone_rejected(self):
        mu = atomic((1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            levy_integral(mu, lambda z1, z2: z1, region=((-1.0, 1.0), (-1.0, 1.0)))

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity_atomic(self, a, b):
        mu = atomic((1.0, 0.5, 2.0), (0.5, -1.0, 1.5))
        f = lambda z1, z2: z1
        g = lambda z1, z2: z2**2
        lhs = levy_integral(mu, lambda z1, z2: a * f(z1, z2) + b * g(z1, z2))
        rhs = a * levy_integral(mu, f) + b * levy_integral(mu, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_linearity_density(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("exp(-abs(z))")
        mu = LevyMeasure.product(
            Marginal1D(atoms=((1.0, 1.0),)),
            Marginal1D(pieces=(DensityPiece(-10.0, 10.0, fn, 64),)),
        )
        f = lambda z1, z2: z1
        g = lambda z1, z2: np.abs(z2)
        lhs = levy_integral(mu, lambda z1, z2: 2.0 * f(z1, z2) + 3.0 * g(z1, z2))
        rhs = 2.0 * levy_integral(mu, f) + 3.0 * levy_integral(mu, g)
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestRestrictTail:
    def test_finite_mass_full_marginal(self):
        mu = atomic((1.0, 0.5, 1.0), (2.0, -0.5, 2.0))
        assert levy_restrict_tail(mu, 0.7).mass() == pytest.approx(3.0, abs=1e-9)

    def _infinite_mass_measure(self):
        # z2-marginal density 1/z2^2 on 0 < |z2| <= 1 (infinite total mass)
        z1 = Marginal1D(atoms=((0.0, 1.0),))
        fn = compile_density_expr("1/(z*z)")
        z2 = Marginal1D(pieces=())
        from affine_ergo.measures import DensityPiece

        z2 = Marginal1D(
            pieces=(
                DensityPiece(-1.0, 0.0, fn, 256),
                DensityPiece(0.0, 1.0, fn, 256),
            )
        )
        return LevyMeasure.product(z1, z2)

    def test_infinite_mass_restricted(self):
        assert math.isinf(self._infinite_mass_measure().total_mass())
        # 2 * (1/0.5 - 1/1) = 2
        assert levy_restrict_tail(self._infinite_mass_measure(), 0.5).mass() == pytest.approx(2.0, rel=1e-6)

    def test_eps_beyond_support_empty(self):
        assert levy_restrict_tail(self._infinite_mass_measure(), 2.0).mass() == pytest.approx(0.0, abs=1e-12)

    def test_mass_nonincreasing_in_eps(self):
        mu = self._infinite_mass_measure()
        masses = [levy_restrict_tail(mu, e).mass() for e in (0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b - 1e-9 for a, b in zip(masses, masses[1:]))


class TestDensity2D:
    """A density on the plane, the product of exp(-z1) on [0, 2] and
    exp(-z2^2) on [-2, 2]."""

    MU = LevyMeasure.product(
        Marginal1D(pieces=(DensityPiece(0.0, 2.0, compile_density_expr("exp(-z)"), 4),)),
        Marginal1D(pieces=(DensityPiece(-2.0, 2.0, compile_density_expr("exp(-z*z)"), 16),)),
    )

    @staticmethod
    def z2_mass(lo, hi):
        """int_lo^hi exp(-z2^2) dz2."""
        return 0.5 * math.sqrt(math.pi) * (math.erf(hi) - math.erf(lo))

    def test_z2_marginal_closed_form(self):
        marg = self.MU.z2_marginal()
        z2 = np.linspace(-2.0, 2.0, 41)
        closed = (1.0 - math.exp(-2.0)) * np.exp(-z2 * z2)
        assert np.allclose(marg.density_at(z2), closed, rtol=1e-12, atol=0.0)
        assert marg.mass() == pytest.approx((1.0 - math.exp(-2.0)) * self.z2_mass(-2.0, 2.0), rel=1e-8)

    # 1/z1^2 on (0, 1] times 1 on [-1, 1]: no z1 rule converges on it
    DIVERGENT = LevyMeasure.product(
        Marginal1D(pieces=(DensityPiece(0.0, 1.0, compile_density_expr("1/(z*z)"), 16),)),
        Marginal1D(pieces=(DensityPiece(-1.0, 1.0, np.ones_like, 16),)),
    )

    def test_divergent_z2_marginal_raises(self):
        with pytest.raises(QuadratureError):
            self.DIVERGENT.z2_marginal()

    def test_divergent_restrict_tail_raises(self):
        with pytest.raises(InfiniteMass):
            levy_restrict_tail(self.DIVERGENT, 0.1)

    def test_restrict_mass(self):
        total = levy_integral(self.MU, lambda z1, z2: np.ones_like(z1))
        assert total == pytest.approx((1.0 - math.exp(-2.0)) * self.z2_mass(-2.0, 2.0), rel=1e-8)
        left = levy_integral(self.MU.restrict(((0.0, 1.0), (-np.inf, np.inf))), lambda z1, z2: np.ones_like(z1))
        assert left == pytest.approx((1.0 - math.exp(-1.0)) * self.z2_mass(-2.0, 2.0), rel=1e-8)
        right = levy_integral(self.MU.restrict(((1.0, 5.0), (-2.0, 2.0))), lambda z1, z2: np.ones_like(z1))
        assert left + right == pytest.approx(total, rel=1e-8)
        assert self.MU.restrict(((3.0, 4.0), (-1.0, 1.0))).is_empty()

    def test_truncate_small_mass(self):
        eps = 0.5
        total = levy_integral(self.MU, lambda z1, z2: np.ones_like(z1))
        box = (1.0 - math.exp(-eps)) * self.z2_mass(-eps, eps)
        kept = levy_integral(self.MU.truncate_small(eps), lambda z1, z2: np.ones_like(z1))
        assert kept == pytest.approx(total - box, rel=1e-8)


def half(z):
    return 0.5 * np.ones_like(z)


# atoms at exactly z1 = 0.5 and z2 = +-0.5, constant pieces straddling both
EDGE = LevyMeasure.product(
    Marginal1D(atoms=((0.25, 0.5), (0.5, 1.0), (1.0, 0.5)), pieces=(DensityPiece(0.25, 1.0, np.ones_like, 2),)),
    Marginal1D(atoms=((-0.5, 0.5), (0.0, 1.0), (0.5, 0.25), (2.0, 0.25)), pieces=(DensityPiece(-1.0, 1.0, half, 2),)),
)


class TestEdges:
    """Truncation and restriction at the edges of their boxes."""

    @staticmethod
    def mass_where(mu, cond):
        return levy_integral(mu, lambda z1, z2: np.where(cond(z1, z2), 1.0, 0.0))

    def test_truncate_small_keeps_the_open_box_edges(self):
        kept = EDGE.truncate_small(0.5)
        # 2.75 * 3.0 in all, less (0.5 + 0.25) * (1.0 + 0.5) in {z1 < 0.5, |z2| < 0.5}
        assert levy_integral(kept, lambda z1, z2: np.ones_like(z1)) == pytest.approx(7.125, rel=1e-14)
        # the atom at z1 = 0.5 keeps all of its z2 mass, the atom at z1 = 0.25
        # its z2 atoms at +-0.5 and 2.0 and the z2 piece beyond +-0.5
        assert self.mass_where(kept, lambda z1, z2: z1 == 0.5) == pytest.approx(1.0 * 3.0, rel=1e-14)
        assert self.mass_where(kept, lambda z1, z2: (z1 == 0.25) & (np.abs(z2) == 0.5)) == 0.5 * 0.75
        assert self.mass_where(kept, lambda z1, z2: z1 == 0.25) == pytest.approx(0.5 * 1.5, rel=1e-14)
        # the z1 piece below 0.5 keeps the same z2 mass as the atom at 0.25
        assert self.mass_where(kept, lambda z1, z2: (z1 > 0.25) & (z1 < 0.5)) == pytest.approx(
            0.25 * 1.5, rel=1e-14
        )

    def test_truncate_small_of_a_box_edge_atom(self):
        kept = LevyMeasure.product(Marginal1D(atoms=((0.5, 1.0), (0.25, 2.0))), Marginal1D(atoms=((0.5, 3.0),)))
        assert levy_integral(kept.truncate_small(0.5), lambda z1, z2: np.ones_like(z1)) == 9.0
        assert levy_integral(kept.truncate_small(0.5000001), lambda z1, z2: np.ones_like(z1)) == 0.0

    @pytest.mark.parametrize("lo,hi,atoms,piece,mass", [
        (-np.inf, np.inf, (-1.0, 0.0, 1.0), (-2.0, 2.0), 10.0),
        (-1.0, 1.0, (-1.0, 0.0, 1.0), (-1.0, 1.0), 8.0),
        (-np.inf, 0.5, (-1.0, 0.0), (-2.0, 0.5), 5.5),
        (0.0, np.inf, (0.0, 1.0), (0.0, 2.0), 7.0),
        (-0.5, 0.5, (0.0,), (-0.5, 0.5), 3.0),
        (3.0, np.inf, (), None, 0.0),
    ])
    def test_marginal_restrict(self, lo, hi, atoms, piece, mass):
        # atoms of weight 1, 2, 3 at -1, 0, 1 and density 1 on [-2, 2]
        m = Marginal1D(atoms=((-1.0, 1.0), (0.0, 2.0), (1.0, 3.0)), pieces=(DensityPiece(-2.0, 2.0, np.ones_like, 4),))
        r = m.restrict(lo, hi)
        assert tuple(a for a, _ in r.atoms) == atoms
        assert [(p.lo, p.hi, p.nodes) for p in r.pieces] == ([] if piece is None else [(*piece, 4)])
        assert r.mass() == pytest.approx(mass, rel=1e-14)


class TestSplitAt:
    """LevyMeasure.split_at cuts density pieces and keeps the measure."""

    # polynomial densities, which the Gauss panels integrate exactly, each
    # with an atom on a cut point and a piece that straddles the cuts
    M1 = Marginal1D(atoms=((1.0, 0.7), (2.0, 0.3)), pieces=(DensityPiece(0.0, 3.0, compile_density_expr("1 + z"), 4),))
    M2 = Marginal1D(
        atoms=((-1.0, 0.4), (0.0, 0.2), (1.0, 0.5)),
        pieces=(DensityPiece(-2.0, 2.0, compile_density_expr("1 + z*z"), 4),),
    )
    PRODUCT = LevyMeasure.product(M1, M2)
    UNION = LevyMeasure.union([
        PRODUCT,
        atomic((1.0, -1.0, 0.25), (0.5, 1.0, 0.5)),
        LevyMeasure.product(Marginal1D(atoms=((1.0, 2.0),)), Marginal1D(pieces=(DensityPiece(-1.5, 0.5, np.ones_like, 2),))),
    ])
    MOMENTS = staticmethod(lambda z1, z2: np.stack([np.ones_like(z1), z1, z2**2]))

    @staticmethod
    def atom_cells(mu):
        z1, z2, d1, d2, w = mu.cells(0)
        return sorted(zip(z1[(d1 == 0) & (d2 == 0)], z2[(d1 == 0) & (d2 == 0)], w[(d1 == 0) & (d2 == 0)]))

    @pytest.mark.parametrize("name", ["PRODUCT", "UNION"])
    def test_measure_unchanged(self, name):
        mu = getattr(self, name)
        cut = mu.split_at((1.0,), (-1.0, 1.0))
        assert (cut.atoms, len(cut.products)) == (mu.atoms, len(mu.products))
        assert levy_integral(cut, self.MOMENTS) == pytest.approx(levy_integral(mu, self.MOMENTS), rel=1e-13)
        assert self.atom_cells(cut) == self.atom_cells(mu)

    def test_product_moments_closed_form(self):
        # m1: mass 0.7 + 0.3 + 7.5, first moment 0.7 + 0.6 + 13.5; m2: mass
        # 1.1 + 4 + 16/3, second moment 0.9 + 16/3 + 64/5
        cut = self.PRODUCT.split_at((1.0,), (-1.0, 1.0))
        mass1, mom1, mass2, mom2 = 8.5, 14.8, 1.1 + 4 + 16 / 3, 0.9 + 16 / 3 + 64 / 5
        assert levy_integral(cut, self.MOMENTS) == pytest.approx([mass1 * mass2, mom1 * mass2, mass1 * mom2], rel=1e-13)

    def test_pieces_lie_on_one_side_of_each_cut(self):
        (m1, m2), = self.PRODUCT.split_at((1.0,), (-1.0, 1.0)).products
        assert [(p.lo, p.hi, p.nodes) for p in m1.pieces] == [(0.0, 1.0, 4), (1.0, 3.0, 4)]
        assert [(p.lo, p.hi) for p in m2.pieces] == [(-2.0, -1.0), (-1.0, 1.0), (1.0, 2.0)]
        assert (m1.atoms, m2.atoms) == (self.M1.atoms, self.M2.atoms)

    def test_atomic_measure_is_itself(self):
        mu = atomic((1.0, -1.0, 0.25))
        assert mu.split_at((1.0,), (-1.0, 1.0)) is mu


class TestSampler:
    def test_atom_frequencies(self):
        mu = atomic((1.0, 0.0, 1.0), (2.0, 0.0, 3.0))
        s = LevySampler(mu)
        rng = np.random.default_rng(42)
        z1, _ = s.draw(rng, 10_000)
        freq = float(np.mean(z1 == 2.0))
        assert 0.70 <= freq <= 0.80

    def test_single_atom(self):
        s = LevySampler(atomic((1.5, -0.5, 2.0)))
        z1, z2 = s.draw(np.random.default_rng(0), 100)
        assert np.all(z1 == 1.5) and np.all(z2 == -0.5)

    def test_uniform_density_mean(self):
        mu = LevyMeasure.product(
            Marginal1D(pieces=(DensityPiece(0.0, 1.0, compile_density_expr("0.5 + 0*z"), 1),)),
            Marginal1D(pieces=(DensityPiece(-1.0, 1.0, np.ones_like, 128),)),
        )
        s = LevySampler(mu)
        _, z2 = s.draw(np.random.default_rng(7), 100_000)
        assert 0.48 <= float(np.mean(np.abs(z2))) <= 0.52

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            LevySampler(LevyMeasure.zero())

    def test_unconverged_grid_raises(self):
        # 1/z on (0, 1] has infinite mass: every doubling adds about log 2
        m1 = Marginal1D(pieces=(DensityPiece(0.0, 1.0, compile_density_expr("1/z"), 64),))
        mu = LevyMeasure.product(m1, Marginal1D(atoms=((0.0, 1.0),)))
        with pytest.raises(QuadratureError):
            LevySampler(mu)

    def test_graded_cells_at_a_small_truncation(self):
        # gamma_imm's n without its jumps below 1e-3: int_{1e-3}^{30} e^{-z}/z dz
        import importlib.resources

        from affine_ergo.model import load_model

        p = load_model(str(importlib.resources.files("affine_ergo") / "models" / "gamma_imm.json"))
        s = LevySampler(p.n.truncate_small(1e-3))
        assert s.w.size < 10_000
        assert s.rate == pytest.approx(6.331539364, rel=1e-6)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 7, 164, 1001])
    def test_draw_matches_three_calls(self, k):
        # one (3, k) draw holds the values of three calls of k in their order
        s = LevySampler(LevyMeasure.product(
            Marginal1D(pieces=(DensityPiece(0.0, 5.0, compile_density_expr("exp(-z)"), 16),)),
            Marginal1D(pieces=(DensityPiece(-1.0, 1.0, np.ones_like, 4),)),
        ))
        ref_g, g = stream(5, 1, M_JUMP), stream(5, 1, M_JUMP)
        z1, z2 = s.draw(g, k)
        u, j1, j2 = ref_g.random(k), ref_g.random(k), ref_g.random(k)
        idx = np.minimum(np.searchsorted(s._cum, u, side="right"), len(s.w) - 1)
        assert np.array_equal(z1, s.z1[idx] + (j1 - 0.5) * s.d1[idx])
        assert np.array_equal(z2, s.z2[idx] + (j2 - 0.5) * s.d2[idx])
        # the stream is left where three calls leave it
        assert g.random() == ref_g.random()

    def test_ks_distance_exponential_marginal(self):
        s = LevySampler(on_z1_axis("exp(-z)", 0.0, 30.0, 256))
        n = 100_000
        z1, _ = s.draw(np.random.default_rng(3), n)
        z1 = np.sort(z1)
        cdf = 1.0 - np.exp(-z1)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
        assert ks < 2.0 / math.sqrt(n)


class TestOverlap:
    def test_overlap_tv_identity(self):
        # (mu ^ nu)(R) = (mass_mu + mass_nu - |mu - nu|(R)) / 2
        fn = compile_density_expr("exp(-z*z/2)/sqrt(2*pi)")
        from affine_ergo.measures import DensityPiece

        mu = Marginal1D(pieces=(DensityPiece(-6.0, 6.0, fn, 256),))
        nu = mu.shift(0.8)
        ov, tv, mm, mn = overlap_stats(mu, nu)
        assert ov == pytest.approx(0.5 * (mm + mn - tv), abs=1e-8)

    def test_step_inside_a_piece_raises(self):
        # the density steps at 0.3, which is not an edge of its piece
        fn = compile_density_expr("where(z < 0.3, 1.0, 0.0)")
        mu = Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 64),))
        with pytest.raises(QuadratureError):
            overlap_stats(mu, mu.shift(0.01))

    def test_step_at_piece_edges_converges(self):
        # the same density with its step at a piece edge: exact to the tolerance
        mu = Marginal1D(pieces=(DensityPiece(0.0, 0.3, np.ones_like, 64),))
        ov, tv, mm, mn = overlap_stats(mu, mu.shift(0.01))
        assert (ov, tv, mm, mn) == pytest.approx((0.29, 0.02, 0.3, 0.3), rel=1e-12)

    def test_float_shifted_atoms_match(self):
        # 0.1 + 0.2 != 0.3 in floats, but within the 1e-12 matching tolerance
        mu = Marginal1D(atoms=((0.3, 1.0), (2.0, 0.5)))
        nu = Marginal1D(atoms=((0.1, 0.75), (-1.0, 0.25))).shift(0.2)
        assert nu.atoms[0][0] != 0.3
        assert overlap_stats(mu, nu) == (0.75, 1.0, 1.5, 1.0)
        assert overlap_stats(nu, mu) == (0.75, 1.0, 1.0, 1.5)

    def test_atom_vs_density_no_overlap(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("1 + 0*z")
        mu = Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 64),))
        nu = Marginal1D(atoms=((0.5, 1.0),))
        ov, _, _, _ = overlap_stats(mu, nu)
        assert ov == 0.0


class TestJsonRoundTrip:
    def test_atomic(self):
        mu = atomic((1.0, -0.5, 2.0))
        again = LevyMeasure.from_json(mu.to_json())
        assert again.atoms == mu.atoms

    def test_product(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("exp(-z*z/2)/sqrt(2*pi)")
        mu = LevyMeasure.product(
            Marginal1D(atoms=((0.0, 0.5), (0.5, 0.5))),
            Marginal1D(pieces=(DensityPiece(-5.0, 5.0, fn, 64),)),
        )
        again = LevyMeasure.from_json(mu.to_json())
        assert again.total_mass() == pytest.approx(mu.total_mass(), rel=1e-12)


def bundled(name):
    return load_model(str(importlib.resources.files("affine_ergo") / "models" / f"{name}.json"))


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestFrozenTables:
    """The cells behind the sampler, the z2 tails and the phi/psi rules,
    byte for byte: the simulator's draws only see the sampler, so a change
    that reorders cells elsewhere fails here by name."""

    @pytest.mark.parametrize("name,kind,eps,cells,expected", [
        ("jump_cbi_ou", "n", 1e-3, 384, "a04efba0dd75016fe09442d47e402797d5c7d1518155e57f293b6295147d2331"),
        ("jump_cbi_ou", "n", 0.6, 4096, "dbcb63f75e8c13c9fbc61e1f2a54de268c268bb63db7359ebc97e3ad1dc4e76d"),
        ("jump_cbi_ou", "m", 1e-3, 2, "43f3fa774dbaf770f5cca0d1911c9743929ede61b0c32c4ca23ea00a9402eab1"),
        ("jump_cbi_ou", "m", 0.6, 1, "f0cdbbe5f2f2f065a22e8b5c89fa6f51489abd469f8de96004ff0660c56e19fc"),
        ("gamma_imm", "n", 1e-3, 7680, "d13336291f5997b9d2fc10a36311728d51a0563fefbe773b0ba02abca69b82fa"),
        ("gamma_imm", "n", 0.6, 3072, "44e6b4446b52030256c9113f34db04a47b6f4617af4f95765bf3691b2a9cb6b3"),
        ("edge", None, 0.5, 103, "51d853a58446e9d498bc2fb7a82c88bb9a0fedbdb9bfc64a09ce2d30e332cfdd"),
    ])
    def test_sampler_tables(self, name, kind, eps, cells, expected):
        mu = EDGE if name == "edge" else getattr(bundled(name), kind)
        s = LevySampler(mu.truncate_small(eps))
        assert s.w.size == cells
        assert digest(s.z1, s.z2, s.d1, s.d2, s.w) == expected

    @pytest.mark.parametrize("name,expected", [
        ("jump_cbi_ou", "c7aac1655909965b79220d2c1363f823336b86b169f30d73520479707e5847bb"),
        ("gamma_imm", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),  # empty
        ("edge", "9edc3b6359b2be4cb70691d36c90d95af450a8dd2d1776e03b323d272522cbea"),
    ])
    def test_restrict_tail_cells(self, name, expected):
        marg = levy_restrict_tail(EDGE if name == "edge" else bundled(name).n, 0.1)
        assert digest(*marg.cells(0), *marg.cells(3)) == expected

    @pytest.mark.parametrize("name,expected", [
        ("jump_cbi_ou", "3636baa4cdb3da931003bdfdc250629abbb996f2f56e8403532e9e9e098edec3"),
        ("gamma_imm", "6bd8157b2e0c030d5aa8a54698873a712dee103941551cd1b52aea39a3268c99"),
    ])
    def test_mechanism_rules(self, name, expected):
        mech = Mechanisms(bundled(name))
        mech.phi(-3.0, 0.5j)
        mech.psi(-0.5 + 2j, 3j)
        mech.psi(np.array([-1.0, -5.0]), np.array([0.2j, 4j]))
        keys = sorted(mech._rules, key=repr)
        assert keys == [("m", None), ("n", (0, -1, 0)), ("n", (0, 1, 2)), ("n", (3, -1, 2))]
        assert digest(*(a for k in keys for a in mech._rules[k])) == expected

    @pytest.mark.parametrize("name,values,windows", [
        ("cir_ou", "0118e74f626d99995c0014e714369b2d655b6e07d576349e75b406a0a7225e49",
         "c22464f21a39add355082d00267c78769fb594dda96ee07097982e45af23abd8"),
        ("jump_cbi_ou", "db53e606f68d1b954650495df9b3e1ac14e12b10716d637e9369cf14490edc24",
         "703d5f0024c6b99f98e92e7a55e1c08042c55ccf562620ce06a248100d6b68bd"),
        ("gamma_imm", "97682eec8b39dad6fa92c48ab297df17b314ffd33c8ce3e47b472a57928e2b7d",
         "463a5e43c6a4253c8dde7c460a2c3afdfd1467a6f4274e0cee29b9dc886742bb"),
    ])
    def test_vbar_tables(self, name, values, windows):
        # a 21-point vbar table and the window table T(2^j) behind it, as
        # (j, T) rows; both as they were when each 1/phi0 integral ran on a
        # product with a unit atom rather than on bare Gauss panels
        p = bundled(name)
        assert digest(build_vbar_table(p, n=21).values) == values
        assert digest(np.array(sorted(p.vbar._T.items()), dtype=float)) == windows
