import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_ergo.errors import DomainError, EmptyDistribution, ZeroMass
from affine_ergo.measures import (
    LevyMeasure,
    LevySampler,
    Marginal1D,
    compile_density_expr,
    levy_integral,
    levy_restrict_tail,
    overlap_stats,
)


def atomic(*atoms):
    return LevyMeasure.atomic(atoms)


class TestLevyIntegral:
    def test_single_atom_sum(self):
        mu = atomic((1.0, 0.0, 2.0))
        assert levy_integral(mu, lambda z1, z2: z1) == 2.0

    def test_empty_measure(self):
        assert levy_integral(LevyMeasure.zero(), lambda z1, z2: z1 + z2) == 0.0

    def test_gamma_integral_oracle(self):
        # int_0^40 z * e^{-z} dz = Gamma(2) = 1 up to the 1e-18 tail
        fn = compile_density_expr("exp(-z1)", ("z1", "z2"))
        mu = LevyMeasure.from_density(fn, ((0.0, 40.0), (0.0, 0.0)), (64, 1))
        val = levy_integral(mu, lambda z1, z2: z1)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_gauss_panels_exact_for_degree_15(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("pow(z, 15)", ("z",))
        mu = Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 1),))
        assert mu.mass() == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_one_point_rule_is_midpoint_cells(self):
        fn = compile_density_expr("exp(-z1)", ("z1", "z2"))
        mu = LevyMeasure.from_density(fn, ((0.0, 3.0), (0.0, 0.0)), (4, 1))
        z1, _, d1, _, w = mu.cells(1, k=1)
        h = 3.0 / 8
        assert np.array_equal(z1, 0.0 + h * (np.arange(8) + 0.5))
        assert np.array_equal(d1, np.full(8, h))
        assert np.array_equal(w, np.exp(-z1) * h)

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

        fn = compile_density_expr("exp(-abs(z))", ("z",))
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
        out = levy_restrict_tail(mu, 0.7)
        finite, mass = out.total_mass()
        assert finite
        assert mass == pytest.approx(3.0, abs=1e-9)

    def _infinite_mass_measure(self):
        # z2-marginal density 1/z2^2 on 0 < |z2| <= 1 (infinite total mass)
        z1 = Marginal1D(atoms=((0.0, 1.0),))
        fn = compile_density_expr("1/(z*z)", ("z",))
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
        out = levy_restrict_tail(self._infinite_mass_measure(), 0.5)
        finite, mass = out.total_mass()
        assert finite
        # 2 * (1/0.5 - 1/1) = 2
        assert mass == pytest.approx(2.0, rel=1e-6)

    def test_eps_beyond_support_empty(self):
        out = levy_restrict_tail(self._infinite_mass_measure(), 2.0)
        finite, mass = out.total_mass()
        assert finite
        assert mass == pytest.approx(0.0, abs=1e-12)

    def test_mass_nonincreasing_in_eps(self):
        mu = self._infinite_mass_measure()
        masses = [levy_restrict_tail(mu, e).total_mass()[1] for e in (0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b - 1e-9 for a, b in zip(masses, masses[1:]))


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
        fn = compile_density_expr("0.5 + 0*z1", ("z1", "z2"))
        mu = LevyMeasure.from_density(fn, ((0.0, 1.0), (-1.0, 1.0)), (1, 128))
        s = LevySampler(mu)
        _, z2 = s.draw(np.random.default_rng(7), 100_000)
        assert 0.48 <= float(np.mean(np.abs(z2))) <= 0.52

    def test_zero_mass(self):
        with pytest.raises(ZeroMass):
            LevySampler(LevyMeasure.zero())

    def test_ks_distance_exponential_marginal(self):
        fn = compile_density_expr("exp(-z1)", ("z1", "z2"))
        mu = LevyMeasure.from_density(fn, ((0.0, 30.0), (0.0, 0.0)), (256, 1))
        s = LevySampler(mu)
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
        fn = compile_density_expr("exp(-z*z/2)/sqrt(2*pi)", ("z",))
        from affine_ergo.measures import DensityPiece

        mu = Marginal1D(pieces=(DensityPiece(-6.0, 6.0, fn, 256),))
        nu = mu.shift(0.8)
        ov, tv, mm, mn = overlap_stats(mu, nu)
        assert ov == pytest.approx(0.5 * (mm + mn - tv), abs=1e-8)

    def test_atom_vs_density_no_overlap(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("1 + 0*z", ("z",))
        mu = Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 64),))
        nu = Marginal1D(atoms=((0.5, 1.0),))
        ov, _, _, _ = overlap_stats(mu, nu)
        assert ov == 0.0


class TestJsonRoundTrip:
    def test_atomic(self):
        mu = atomic((1.0, -0.5, 2.0))
        again = LevyMeasure.from_json(mu.to_json())
        assert again.atoms == mu.atoms

    def test_density(self):
        fn = compile_density_expr("exp(-z1-z2*z2)", ("z1", "z2"))
        mu = LevyMeasure.from_density(fn, ((0.0, 4.0), (-2.0, 2.0)), (32, 32))
        again = LevyMeasure.from_json(mu.to_json())
        v1 = levy_integral(mu, lambda z1, z2: z1, tol=1e-5)
        v2 = levy_integral(again, lambda z1, z2: z1, tol=1e-5)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_product(self):
        from affine_ergo.measures import DensityPiece

        fn = compile_density_expr("exp(-z*z/2)/sqrt(2*pi)", ("z",))
        mu = LevyMeasure.product(
            Marginal1D(atoms=((0.0, 0.5), (0.5, 0.5))),
            Marginal1D(pieces=(DensityPiece(-5.0, 5.0, fn, 64),)),
        )
        again = LevyMeasure.from_json(mu.to_json())
        assert again.total_mass()[1] == pytest.approx(mu.total_mass()[1], rel=1e-12)
