import cmath
import math

import numpy as np
import pytest

from scipy.integrate import quad

from affine_ergo.errors import ConditionAViolated, DomainError, QuadratureError
from affine_ergo.measures import DensityPiece, LevyMeasure, Marginal1D, compile_density_expr
from affine_ergo.mechanisms import UPoint, phi0
from affine_ergo.model import ModelParams, load_model
from affine_ergo.riccati import (
    Vbar,
    build_vbar_table,
    cbi_mean,
    char_fn,
    delta1,
    solve_V,
    stationary_transform,
    stationary_transform_closed,
)


def make_params(**kw):
    base = dict(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                alpha=((0.25, 0.0), (0.0, 0.0)))
    base.update(kw)
    return ModelParams(**base)


def bundled(name):
    import importlib.resources

    return load_model(str(importlib.resources.files("affine_ergo") / "models" / f"{name}.json"))


def quad_time_from(p, v):
    """int_v^inf dz/phi0(z) by scipy quad: in s = log z below 1, in z above."""
    f = lambda z: 1.0 / phi0(z, p)
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)
    if v >= 1.0:
        return quad(f, v, np.inf, **opts)[0]
    below = quad(lambda s: math.exp(s) * f(math.exp(s)), math.log(v), 0.0, **opts)[0]
    return below + quad(f, 1.0, np.inf, **opts)[0]


def cir_v1(t, u1, a1, alpha):
    # scalar Riccati closed form for V1' = -a1 V1 + alpha V1^2
    e = math.exp(-a1 * t)
    return u1 * e / (1.0 - alpha * u1 * (1.0 - e) / a1)


class TestSolveV:
    def test_zero_u(self):
        sol = solve_V(make_params(), UPoint(0.0, 0.0), 2.0)
        for t in (0.5, 1.0, 2.0):
            assert abs(sol.V1(t)) < 1e-12
            assert abs(sol.psi_accum(t)) < 1e-12

    def test_cir_closed_form(self):
        p = make_params()
        alpha = p.alpha_y
        for u1 in (-0.5, -1.0, -2.0):
            sol = solve_V(p, UPoint(u1, 0.0), 5.0)
            for t in (0.1, 1.0, 5.0):
                exact = cir_v1(t, u1, p.a1, alpha)
                assert sol.V1(t).real == pytest.approx(exact, rel=1e-8)

    def test_linear_decay(self):
        p = make_params(alpha=((0, 0), (0, 0)), b1=0.0)
        sol = solve_V(p, UPoint(-1.0, 0.0), 3.0)
        for t in (0.3, 1.0, 3.0):
            assert sol.V1(t).real == pytest.approx(-math.exp(-2 * t), rel=1e-9)

    def test_v2_exact(self):
        p = make_params()
        sol = solve_V(p, UPoint(-1.0, 0.7j), 2.0)
        assert sol.V2(1.3) == pytest.approx(cmath.exp(-p.b2 * 1.3) * 0.7j, abs=1e-14)

    def test_initial_conditions(self):
        sol = solve_V(make_params(), UPoint(-2.0, 0.5j), 1.0)
        assert sol.V1(0.0) == pytest.approx(-2.0, abs=1e-12)
        assert sol.psi_accum(0.0) == 0.0

    def test_u_stays_in_U(self):
        p = make_params(m=LevyMeasure.atomic([(0.5, 0.2, 0.8)]))
        sol = solve_V(p, UPoint(-1.0 + 2j, 1j), 4.0)
        for t in np.linspace(0.1, 4.0, 17):
            assert sol.V1(t).real <= 1e-9

    def test_flow_property(self):
        p = make_params(m=LevyMeasure.atomic([(0.5, 0.2, 0.8)]))
        u = UPoint(-1.0, 0.5j)
        s, t = 0.4, 0.9
        full = solve_V(p, u, s + t)
        first = solve_V(p, u, s)
        u_mid = UPoint(first.V1(s), cmath.exp(-p.b2 * s) * u.u2)
        second = solve_V(p, u_mid, t)
        assert second.V1(t) == pytest.approx(full.V1(s + t), abs=1e-7)


class TestCharFn:
    def test_normalization(self):
        p = make_params()
        assert char_fn(p, 1.0, (2.0, -1.0), UPoint(0.0, 0.0)) == pytest.approx(1.0)

    def test_t_zero_limit(self):
        p = make_params()
        u = UPoint(-1.0, 0.5j)
        x = (2.0, -1.0)
        val = char_fn(p, 1e-9, x, u)
        assert val == pytest.approx(cmath.exp(x[0] * u.u1 + x[1] * u.u2), abs=1e-6)

    def test_pure_ou_gaussian(self):
        p = make_params(a2=0.0, alpha=((0, 0), (0, 0)), b1=0.0)
        th = 0.8
        t, x2 = 1.3, -0.4
        b0, b2, s = p.b0, p.b2, p.sigma
        log_exact = (
            1j * th * math.exp(-b2 * t) * x2
            - 1j * th * b0 * (1 - math.exp(-b2 * t)) / b2
            - s**2 * th**2 * (1 - math.exp(-2 * b2 * t)) / (4 * b2)
        )
        val = char_fn(p, t, (0.0, x2), UPoint(0.0, 1j * th))
        assert val == pytest.approx(cmath.exp(log_exact), rel=1e-8)

    def test_modulus_bound(self):
        p = make_params(m=LevyMeasure.atomic([(0.5, 0.2, 0.8)]),
                        n=LevyMeasure.atomic([(1.0, -0.3, 0.4)]))
        for th1 in (0.5, 2.0):
            for th2 in (-1.0, 1.5):
                v = char_fn(p, 1.0, (1.0, 0.5), UPoint(1j * th1, 1j * th2))
                assert abs(v) <= 1.0 + 1e-10


    @pytest.mark.parametrize("u1", [-0.5, -2.0, 0.4j])
    def test_gamma_imm_cir_oracle(self, u1):
        # m = 0 and u2 = 0: V1 is the CIR closed form and
        # psi((v, 0)) = a2 v - log(1 - v) for n = z^-1 e^-z dz x delta_0
        import importlib.resources

        p = load_model(str(importlib.resources.files("affine_ergo") / "models" / "gamma_imm.json"))
        t, x = 1.0, (1.3, -0.7)
        v1 = lambda s: cir_v1(s, u1, p.a1, p.alpha_y)
        psi = lambda s: p.a2 * v1(s) - cmath.log(1.0 - v1(s))
        opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
        integral = quad(lambda s: psi(s).real, 0.0, t, **opts)[0] + 1j * quad(lambda s: psi(s).imag, 0.0, t, **opts)[0]
        exact = cmath.exp(x[0] * v1(t) + integral)
        assert abs(char_fn(p, t, x, UPoint(u1, 0.0)) - exact) < 1e-10


class TestNonConvergence:
    def test_divergent_immigration_rule_raises(self):
        # n has z1-density 1/z1^2 on (0, 1]: int (1 - e^{-z1}) n(dz) = inf, so
        # no frozen n rule converges and char_fn must not return a value
        fn = compile_density_expr("1/(z*z)", ("z",))
        n = LevyMeasure.product(
            Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 64),)),
            Marginal1D(atoms=((0.0, 1.0),)),
        )
        with pytest.raises(QuadratureError):
            char_fn(make_params(n=n), 1.0, (1.0, 0.0), UPoint(-1.0, 0.0))


class TestVbar:
    def test_pure_quadratic(self):
        p = make_params(a1=0.0, a2=0.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        vb = Vbar(p)
        for t in (0.05, 0.5, 2.0):
            assert vb(t) == pytest.approx(1.0 / t, rel=1e-8)

    def test_logistic_closed_form(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        vb = Vbar(p)
        for t in np.geomspace(0.01, 10.0, 25):
            exact = 2.0 / (math.exp(2 * t) - 1.0)
            assert vb(t) == pytest.approx(exact, rel=1e-8)

    def test_monotone(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        vb = Vbar(p)
        vals = [vb(t) for t in np.geomspace(0.01, 10.0, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_table_monotone(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        table = build_vbar_table(p)
        assert np.all(np.diff(table.values) < 0)

    def test_grey_violation(self):
        p = make_params(alpha=((0, 0), (0, 0)))
        with pytest.raises(ConditionAViolated):
            Vbar(p)

    def test_t_nonpositive(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        with pytest.raises(DomainError):
            Vbar(p)(0.0)

    def test_built_once_per_model(self):
        p = bundled("jump_cbi_ou")
        assert p.vbar is p.vbar

    @pytest.mark.parametrize("name", ["jump_cbi_ou", "gamma_imm"])
    def test_time_from_matches_quad_oracle(self, name):
        p = bundled(name)
        for v in (1e-6, 1e-2, 1.0, 1e2):
            assert p.vbar.time_from(v) == pytest.approx(quad_time_from(p, v), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("name", ["jump_cbi_ou", "gamma_imm"])
    def test_time_from_inverts_vbar(self, name):
        vb = bundled(name).vbar
        for t in np.geomspace(0.01, 10.0, 9):
            assert vb.time_from(vb(t)) == pytest.approx(t, rel=1e-12, abs=0.0)


class TestStationary:
    def test_normalization(self):
        assert stationary_transform(make_params(), UPoint(0.0, 0.0)).value == pytest.approx(1.0)

    def test_pure_ou_stationary(self):
        p = make_params(a2=0.0, alpha=((0, 0), (0, 0)), b1=0.0)
        th = 0.7
        exact = cmath.exp(-1j * th * p.b0 / p.b2 - p.sigma**2 * th**2 / (4 * p.b2))
        val = stationary_transform(p, UPoint(0.0, 1j * th)).value
        assert val == pytest.approx(exact, rel=1e-8)

    def test_cir_gamma_stationary(self):
        p = make_params(sigma=0.0, b0=0.0, b1=0.0)
        alpha = p.alpha_y
        for u1 in (-0.5, -2.0):
            exact = (1.0 - alpha * u1 / p.a1) ** (-p.a2 / alpha)
            val = stationary_transform(p, UPoint(u1, 0.0)).value
            assert val.real == pytest.approx(exact, rel=1e-7)
            assert abs(val.imag) < 1e-10

    def test_closed_matches_quadrature(self):
        p = make_params()  # the bundled cir_ou parameters
        for u1 in (-0.25, -1.0, -4.0):
            a = stationary_transform(p, UPoint(u1, 0.0)).value.real
            b = stationary_transform_closed(p, u1)
            assert b == pytest.approx(a, abs=1e-10)

    @pytest.mark.parametrize("name", ["jump_cbi_ou", "gamma_imm"])
    def test_closed_matches_riccati_on_jump_models(self, name):
        p = bundled(name)
        for u1 in (-0.25, -1.0, -4.0):
            a = stationary_transform(p, UPoint(u1, 0.0)).value.real
            assert stationary_transform_closed(p, u1) == pytest.approx(a, rel=0.0, abs=1e-10)

    def test_closed_at_zero(self):
        assert stationary_transform_closed(make_params(), 0.0) == pytest.approx(1.0)

    def test_closed_derivative_is_delta1(self):
        p = make_params(n=LevyMeasure.atomic([(0.5, 0.0, 1.0)]))
        h = 1e-5
        fd = (stationary_transform_closed(p, 0.0) - stationary_transform_closed(p, -h)) / h
        assert fd == pytest.approx(delta1(p), rel=1e-3)

    def test_transform_converges_to_stationary(self):
        p = make_params()
        u = UPoint(-1.0, 0.0)
        horizon = 40.0 / min(p.a1, p.b2)
        finite = char_fn(p, horizon, (delta1(p), 0.0), u)
        limit = stationary_transform(p, u).value
        assert abs(finite - limit) < 1e-4


class TestDeltaAndMean:
    def test_delta1_formula(self):
        assert delta1(make_params(a1=2.0, a2=1.0)) == pytest.approx(0.5)
        assert delta1(make_params(a2=0.0)) == 0.0
        p = make_params(a1=1.0, a2=0.0, n=LevyMeasure.atomic([(3.0, 0.0, 1.0)]))
        assert delta1(p) == pytest.approx(3.0)

    def test_cbi_mean(self):
        p = make_params(a1=2.0, a2=1.0)
        assert cbi_mean(p, 0.0, 1.5) == pytest.approx(1.5)
        val = cbi_mean(p, 1.0, 1.0)
        assert val == pytest.approx(math.exp(-2) + 0.5 * (1 - math.exp(-2)), abs=1e-12)
        assert cbi_mean(p, 50.0, 7.0) == pytest.approx(delta1(p), abs=1e-12)
