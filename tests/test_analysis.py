import math

import numpy as np
import pytest

from affine_ergo.errors import EmptyDistribution, SubcriticalityViolated
from affine_ergo.measures import LevyMeasure
from affine_ergo.model import ModelParams, load_model
from affine_ergo.riccati import delta1
from affine_ergo.simulator import SimConfig
from affine_ergo.analysis import (
    BoundReport,
    EmpiricalDistribution,
    c_bar,
    coalescence_curve,
    ergodicity_curve,
    kappa_coeff,
    lemma31_check,
    lemma31_constants,
    lemma51_constants,
    noise_floor,
    prop33_bound,
    prop42_bound,
    prop42_constants,
    stationary_moments,
    strong_feller_probe,
    tv_both,
    tv_hat,
)


def make_params(**kw):
    base = dict(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                alpha=((0.25, 0.0), (0.0, 0.0)))
    base.update(kw)
    return ModelParams(**base)


def dist(y, z):
    return EmpiricalDistribution.from_samples(np.asarray(y, float), np.asarray(z, float))


class TestTvHat:
    def test_identical(self):
        P = dist([1, 2, 3], [0, 0, 0])
        assert tv_hat(P, P) == 0.0

    def test_disjoint(self):
        P = dist(np.zeros(100), np.zeros(100))
        Q = dist(np.full(100, 10.0), np.full(100, 10.0))
        v, paper = tv_both(P, Q)
        assert v == pytest.approx(1.0)
        assert paper == pytest.approx(2.0)

    def test_half_overlap_bins(self):
        # P uniform on cells {1,2}, Q uniform on cells {2,3}: tv = 0.5
        P = dist([1.0] * 50 + [2.0] * 50, [0.0] * 100)
        Q = dist([2.0] * 50 + [3.0] * 50, [0.0] * 100)
        assert tv_hat(P, Q, bins=(3, 1)) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        P = dist(rng.normal(size=1000), rng.normal(size=1000))
        Q = dist(rng.normal(1, 1, 1000), rng.normal(0, 2, 1000))
        assert tv_hat(P, Q) == pytest.approx(tv_hat(Q, P), abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        samples = [
            dist(rng.normal(m, 1, 2000), rng.normal(0, 1, 2000)) for m in (0.0, 0.5, 1.0)
        ]
        # evaluate all three pairs on one shared grid for an exact triangle
        pooled_y = np.concatenate([d.Y for d in samples])
        pooled_z = np.concatenate([d.Z for d in samples])
        ey = np.linspace(np.quantile(pooled_y, 0.01), np.quantile(pooled_y, 0.99), 51)
        ez = np.linspace(np.quantile(pooled_z, 0.01), np.quantile(pooled_z, 0.99), 51)
        h = [d.histogram(ey, ez) for d in samples]
        d01 = 0.5 * np.abs(h[0] - h[1]).sum()
        d12 = 0.5 * np.abs(h[1] - h[2]).sum()
        d02 = 0.5 * np.abs(h[0] - h[2]).sum()
        assert d02 <= d01 + d12 + 1e-12

    def test_noise_floor_pinned(self):
        # calibration law: Y gamma-like, Z a deterministic function of Y, so
        # the histogram occupies ~50 cells.  For diffuse 2-D laws the same
        # estimator floors near 0.085; that value is what curve comparisons
        # subtract, this pin guards the estimator itself.
        rng = np.random.default_rng(2)
        n = 100_000
        y1, y2 = rng.gamma(2.0, 0.5, n), rng.gamma(2.0, 0.5, n)
        P = dist(y1, 0.3 * y1)
        Q = dist(y2, 0.3 * y2)
        assert tv_hat(P, Q, bins=(50, 50)) < 0.05

    def test_noise_floor_diffuse_calibration(self):
        rng = np.random.default_rng(3)
        n = 100_000
        P = dist(rng.normal(size=n), rng.normal(size=n))
        Q = dist(rng.normal(size=n), rng.normal(size=n))
        assert tv_hat(P, Q, bins=(50, 50)) < 0.10

    def test_empty_rejected(self):
        with pytest.raises(EmptyDistribution):
            EmpiricalDistribution.from_samples(np.array([]), np.array([]))


class TestConstants:
    def test_lemma31_examples(self):
        p = make_params(b1=0.0)
        assert lemma31_constants(p)[3] == 0.0
        p = make_params(a1=2.0, b2=0.5, m=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        C11, C12, C1, C2 = lemma31_constants(p)
        assert C11 == pytest.approx(1.0)
        p = make_params(alpha=((0.25, 0.0), (0.0, 0.0)))
        assert lemma31_constants(p)[2] == 0.0  # C1 = 0 with no z2 activity

    def test_subcriticality_required(self):
        with pytest.raises(SubcriticalityViolated):
            lemma31_constants(make_params(a1=1.0, b2=0.6))

    def test_pinned_regression_set(self):
        # (a1, b1, b2, a21, a22, m-z2-second-moment, C_eps, Lambda)
        # = (2, 1, 0.5, 0, 0, 1, 1, 1)
        p = make_params(
            a1=2.0, b1=1.0, b2=0.5,
            m=LevyMeasure.atomic([(0.0, 1.0, 1.0)]),
            n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]),
        )
        C11, C12, C1, C2 = lemma31_constants(p)
        assert (C11, C12, C1) == pytest.approx((1.0, 0.0, 4.0))
        assert C2 == pytest.approx(2.0 / 3.0)
        consts = prop42_constants(p, eps=0.1, Lambda=1.0)
        assert consts["C_eps"] == pytest.approx(1.0)
        assert consts["kappa_tilde"] == pytest.approx(1.0 / 3.0)
        assert consts["C_tilde"] == pytest.approx(2.0)

    def test_kappa(self):
        assert kappa_coeff(make_params(b2=1.0)) == 1.0  # b2 >= 1/e
        assert kappa_coeff(make_params(b2=0.1)) == pytest.approx(1 / (math.e * 0.1))

    def test_kappa_tilde_example(self):
        p = make_params(a1=3.0, b2=1.0, n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        consts = prop42_constants(p, eps=0.1, Lambda=1.0)
        assert consts["kappa_tilde"] == pytest.approx(0.5)  # C_eps=1, b2=1

    def test_c_tilde_floor_two(self):
        p = make_params(n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        consts = prop42_constants(p, eps=0.1, Lambda=1e-6)
        assert consts["C_tilde"] == 2.0


class TestProp33:
    def test_equal_points_is_c_hat(self):
        p = make_params(alpha=((1.0, 0.0), (0.0, 0.0)))
        assert prop33_bound(p, (1.0, 0.5), (1.0, 0.5), 1.0, C_hat=3.7) == pytest.approx(3.7)

    def test_decreasing_in_t(self):
        p = make_params(alpha=((1.0, 0.0), (0.0, 0.0)))
        vals = [prop33_bound(p, (2.0, 1.0), (1.0, 0.0), t, 1.0) for t in (1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestProp42:
    def test_equal_points(self):
        p = make_params(a1=3.0, b2=1.0, alpha=((1.0, 0.0), (0.0, 0.0)),
                        n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        consts = prop42_constants(p, eps=0.1, Lambda=1.0)
        val = prop42_bound(p, (1.0, 0.0), (1.0, 0.0), 2.0, eps=0.1, constants=consts)
        assert val == pytest.approx(consts["C_tilde"] * math.exp(-consts["kappa_tilde"] * 2.0))


class TestLemma51:
    def test_c2_zero_when_b1_zero(self):
        c = lemma51_constants(make_params(b1=0.0), 1.0, 1.0, 1.0)
        assert c["C2_t"] == 0.0

    def test_c1_formula(self):
        # a1=2, b2=0.5, c_bar=1 scaled: C1(1) = (1 - e^{-1})
        p = make_params(a1=2.0, b2=0.5, m=LevyMeasure.atomic([(0.0, 0.5, 1.0)]))
        assert c_bar(p) == pytest.approx(1.0)
        c = lemma51_constants(p, 1.0, 1.0, 1.0)
        assert c["C1_t"] == pytest.approx(1.0 - math.exp(-1.0))

    def test_degenerate_conventions(self):
        p = make_params(a1=1.0, b2=0.5, m=LevyMeasure.atomic([(0.0, 0.5, 1.0)]))
        c = lemma51_constants(p, 2.0, 1.0, 1.0)  # 2 b2 = a1 -> C1(t) = c_bar t
        assert c["C1_t"] == pytest.approx(c_bar(p) * 2.0)
        p2 = make_params(a1=0.5, b2=0.5, b1=0.7)
        c2 = lemma51_constants(p2, 3.0, 1.0, 1.0)  # b2 = a1 -> C2(t) = |b1| t
        assert c2["C2_t"] == pytest.approx(0.7 * 3.0)

    def test_ck8(self):
        c = lemma51_constants(make_params(), 1.0, sigma_k_mass=4.0, Lambda_k=1.0)
        assert c["C_k8"] == pytest.approx(0.25)


class TestLemma31Check:
    def test_cir_ou_no_violations(self):
        p = make_params()
        cfg = SimConfig(dt=0.005, T=1.0, n_paths=20_000, seed=30)
        rep = lemma31_check(p, (2.0, 1.0), (1.0, 0.0), (0.5, 1.0, 2.0), cfg)
        assert not rep.any_violation

    def test_equal_points_trivial(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=500, seed=31)
        rep = lemma31_check(p, (1.0, 0.5), (1.0, 0.5), (0.5, 1.0), cfg)
        assert np.all(rep.empirical == 0.0)
        assert np.all(rep.bound == 0.0)

    def test_tail_probabilities(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=5_000, seed=32)
        rep = lemma31_check(p, (2.0, 1.0), (1.0, 0.0), (1.0,), cfg, eta_grid=(2.0, 5.0))
        for row in rep.extras["tails"].values():
            assert row["empirical"] <= row["bound"] + 3 * row["se"]


class TestCoalescence:
    def test_equal_starts_zero(self):
        p = make_params(alpha=((1.0, 0.0), (0.0, 0.0)))
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=200, seed=33)
        rep = coalescence_curve(p, 1.0, 1.0, (0.5, 1.0), cfg)
        assert np.all(rep.empirical == 0.0)

    def test_quadratic_model_bound(self):
        p = make_params(a1=2.0, a2=0.0, b1=0.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        cfg = SimConfig(dt=0.002, T=2.0, n_paths=20_000, seed=34)
        rep = coalescence_curve(p, 1.5, 0.5, (0.5, 1.0, 2.0), cfg)
        bias = rep.constants["coal_tol_bias"]
        assert np.all(rep.empirical <= rep.bound + 3 * rep.se + bias + 1e-12)

    def test_bound_is_closed_form(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=100, seed=35)
        rep = coalescence_curve(p, 2.0, 1.0, (0.5, 1.0), cfg)
        for t, b in zip(rep.t_grid, rep.bound):
            assert b == pytest.approx(min(1.0, 2.0 / (math.exp(2 * t) - 1.0)), rel=1e-8)


class TestStationaryMoments:
    def test_cir_delta1(self):
        p = make_params()
        cfg = SimConfig(dt=0.02, T=1.0, n_paths=20_000, seed=36)
        out = stationary_moments(p, cfg)
        assert out["delta1_within_3se"]

    def test_pure_ou_folded_normal(self):
        p = make_params(a2=0.0, alpha=((0, 0), (0, 0)), b1=0.0)
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=20_000, seed=37)
        out = stationary_moments(p, cfg)
        mu, s2 = -p.b0 / p.b2, p.sigma**2 / (2 * p.b2)
        s = math.sqrt(s2)
        from scipy.stats import norm

        folded = s * math.sqrt(2 / math.pi) * math.exp(-mu**2 / (2 * s2)) + abs(mu) * (
            1 - 2 * norm.cdf(-abs(mu) / s)
        )
        assert abs(out["D2_hat"] - folded) <= 3 * out["D2_se"] + 5e-3

    def test_deterministic_fixed_point(self):
        p = make_params(a2=0.0, sigma=0.0, alpha=((0, 0), (0, 0)), b0=0.4, b1=0.0)
        cfg = SimConfig(dt=0.005, T=1.0, n_paths=16, seed=38)
        out = stationary_moments(p, cfg)
        assert out["D2_hat"] == pytest.approx(p.b0 / p.b2, abs=1e-3)

    def test_horizon_stability_and_delta1_convergence(self):
        p = make_params()
        cfg = SimConfig(dt=0.02, T=1.0, n_paths=20_000, seed=39)
        out = stationary_moments(p, cfg)
        assert out["horizon_stability"]


class TestErgodicityCurve:
    def test_cir_curve_decreasing(self):
        p = make_params()
        cfg = SimConfig(dt=0.02, T=1.0, n_paths=20_000, seed=40)
        rep = ergodicity_curve(p, (3.0, 2.0), (0.5, 1.0, 2.0, 4.0), cfg)
        emp = rep.empirical
        tol = 3 * rep.se
        assert np.all(emp[1:] <= emp[:-1] + tol[1:])
        assert rep.constants["fitted_decay_rate"] > 0

    def test_start_at_proxy_is_flat(self):
        p = make_params()
        cfg = SimConfig(dt=0.02, T=1.0, n_paths=20_000, seed=41)
        floor = noise_floor(p, cfg, 16.0)
        rep = ergodicity_curve(p, (delta1(p), -p.b0 / p.b2), (1.0, 2.0, 4.0), cfg)
        assert np.all(rep.empirical <= 2.5 * floor)


class TestStrongFeller:
    def test_radius_shrinks_tv(self):
        p = make_params()
        cfg = SimConfig(dt=0.02, T=1.0, n_paths=20_000, seed=42)
        rows = strong_feller_probe(p, (1.0, 0.0), 1.0, (1.0, 0.25, 0.0), cfg)
        tvs = [r["tv2"] for r in rows]
        assert tvs[0] > tvs[1] > 0
        # zero radius sits at the estimator noise floor
        assert tvs[2] <= 2.0 * rows[2]["noise_floor"]

    def test_domination_with_supplied_constants(self):
        p = make_params()
        cfg = SimConfig(dt=0.02, T=1.0, n_paths=20_000, seed=43)
        rows = strong_feller_probe(
            p, (1.0, 0.0), 1.0, (0.5, 0.1), cfg, sigma_k_mass=1.0, Lambda_k=1.0
        )
        assert all(r["dominated"] for r in rows)


class TestBoundReport:
    def test_roundtrip_and_purity(self):
        p = make_params(m=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        import json

        d = ModelParams.from_json(json.loads(json.dumps(p.to_json())))
        assert lemma31_constants(p) == lemma31_constants(d)

    def test_csv_rows(self):
        rep = BoundReport(
            label="x",
            t_grid=np.array([1.0]),
            empirical=np.array([0.5]),
            se=np.array([0.01]),
            bound=np.array([0.6]),
        )
        rows = list(rep.csv_rows())
        assert rows[0] == ("t", "empirical", "se", "bound", "violation")
        assert rows[1][-1] == 0
        assert not rep.any_violation
