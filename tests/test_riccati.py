import cmath
import dataclasses
import math

import numpy as np
import pytest

from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from affine_ergo import dop853, riccati
from affine_ergo.errors import (
    AffineError,
    ConditionAViolated,
    DomainError,
    NoConvergence,
    QuadratureError,
    StiffnessFailure,
)
from affine_ergo.measures import DensityPiece, LevyMeasure, Marginal1D, compile_density_expr
from affine_ergo.mechanisms import UPoint
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
    f = lambda z: 1.0 / p.mechanisms.phi(-z, 0.0).real
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

    def test_reads_outside_horizon_raise(self):
        # the dense interpolant extrapolates outside [0, T]: on cir_ou it
        # read V1(3.0) = 0j and V1(-0.5) = -607.6 against -0.0022 and -3.46
        p = bundled("cir_ou")
        sol = solve_V(p, UPoint(-1.0, 0.0), 1.0)
        for t in (-0.5, 3.0, math.nextafter(1.0, 2.0)):
            with pytest.raises(DomainError):
                sol.V1(t)
            with pytest.raises(DomainError):
                sol.psi_accum(t)
        for t in (0.0, 1.0):  # the endpoints are inside
            assert sol.V1(t).real == pytest.approx(cir_v1(t, -1.0, p.a1, p.alpha_y), rel=1e-8)

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


class TestContinuation:
    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou"])
    def test_matches_fresh_solve(self, name):
        p = bundled(name)
        u = UPoint(-1.0, 0.5j)
        T = 2.0
        first = solve_V(p, u, T)
        continued = solve_V(p, u, 2 * T, start=first)
        fresh = solve_V(p, u, 2 * T)
        for t in (0.1 * T, T, 1.5 * T, 2 * T):
            assert abs(continued.V1(t) - fresh.V1(t)) <= 1e-10
            assert abs(continued.psi_accum(t) - fresh.psi_accum(t)) <= 1e-10

    def test_counts_and_clamp_flags(self):
        p = bundled("cir_ou")
        u = UPoint(-1.0, 0.0)
        first = solve_V(p, u, 1.0)
        continued = solve_V(p, u, 3.0, start=first)
        # nfev counts the segment [1, 3] only
        assert 0 < continued.nfev < solve_V(p, u, 3.0).nfev
        assert continued.clamped is first.clamped is False
        # a clamp in either segment marks the whole solution
        assert solve_V(p, u, 3.0, start=dataclasses.replace(first, clamped=True)).clamped is True

    def test_rejects_mismatched_start(self):
        p = make_params()
        first = solve_V(p, UPoint(-1.0, 0.0), 1.0)
        with pytest.raises(DomainError):
            solve_V(p, UPoint(-1.0, 0.0), 1.0, start=first)
        with pytest.raises(DomainError):
            solve_V(p, UPoint(-2.0, 0.0), 2.0, start=first)


# criterion 2's u-points
U_POINTS = (UPoint(-0.5, 0.0), UPoint(-1.0, 0.5j), UPoint(-2.0, 0.0),
            UPoint(0.0, 0.8j), UPoint(0.4j, 0.6j), UPoint(-1.5, -0.7j))


def solve_V_rhs(p, u):
    """solve_V's right-hand side, for scipy's solver."""
    mech = p.mechanisms

    def rhs(t, y):
        v1 = y[0] if y[0].real <= 0.0 else 1j * y[0].imag
        u2 = np.exp(-p.b2 * t) * u.u2
        return np.array([mech.phi(v1, u2), mech.psi(v1, u2)], dtype=complex)

    return rhs


def bits(y):
    """The bit patterns of a complex array: equality that tells -0.0 from 0.0."""
    return np.ascontiguousarray(y).view(np.uint64)


class TestDop853:
    """The package's DOP853 against scipy's, which it reproduces operation
    for operation: equality is exact, not within a tolerance.  Its steps do
    the work of scipy's non-dense solve, and its dense output, built a step
    at a time when first read, equals scipy's dense one."""

    OPTS = dict(method="DOP853", rtol=riccati._ODE_TOL, atol=riccati._ODE_TOL * 1e-4)

    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou", "gamma_imm"])
    def test_bit_identical_to_solve_ivp(self, name):
        p = bundled(name)
        for u in U_POINTS:
            rhs, y0 = solve_V_rhs(p, u), np.array([u.u1, 0.0], dtype=complex)
            ref = solve_ivp(rhs, (0.0, 1.0), y0, first_step=1e-3, dense_output=True, **self.OPTS)
            # the continued segment picks its own first step
            ref2 = solve_ivp(rhs, (1.0, 2.0), ref.y[:, -1], dense_output=True, **self.OPTS)
            lean = solve_ivp(rhs, (0.0, 1.0), y0, first_step=1e-3, **self.OPTS)
            lean2 = solve_ivp(rhs, (1.0, 2.0), ref.y[:, -1], **self.OPTS)
            sol = solve_V(p, u, 1.0)
            assert np.array_equal(sol._sol.t, ref.t) and np.array_equal(sol._sol.y, ref.y)
            assert (sol.nfev, sol.nsteps) == (lean.nfev, len(ref.t))
            cont = solve_V(p, u, 2.0, start=sol)
            assert np.array_equal(cont._sol.t, np.concatenate([ref.t, ref2.t[1:]]))
            assert np.array_equal(cont._sol.y[:, len(ref.t) - 1:], ref2.y)
            assert (cont.nfev, cont.nsteps) == (lean2.nfev, len(ref2.t))
            for t in np.concatenate([np.linspace(0.0, 2.0, 37), ref.t, ref2.t]):
                expected = ref.sol(t) if t <= 1.0 else ref2.sol(t)
                assert np.array_equal(bits(cont._sol(t)), bits(expected)), (u, t)

    def test_stages_run_once_per_step_read(self):
        calls = []
        fun = lambda t, y: calls.append(t) or np.array([-y[0] + 1j * y[1], y[0] * y[1]])
        dense, nfev = dop853.solve(fun, 0.0, np.array([1.0, 0.5j]), 1.0, rtol=1e-10, atol=1e-14)
        assert len(calls) == nfev and dense.nfev == 0
        t_mid = 0.5 * (dense.t[2] + dense.t[3])
        first = dense(t_mid)
        assert len(calls) == nfev + 3 and dense.nfev == 3
        assert np.array_equal(bits(dense(t_mid)), bits(first))
        assert len(calls) == nfev + 3 and dense.nfev == 3
        # a step's right end needs none of its stages
        dense(dense.t[5]), dense(dense.t[-1])
        assert len(calls) == nfev + 3
        # a continuation keeps the interpolants built before it
        later, nfev2 = dop853.solve(fun, 1.0, dense.y[:, -1], 2.0, rtol=1e-10, atol=1e-14)
        both = dense.extended(later)
        assert np.array_equal(bits(both(t_mid)), bits(first))
        assert len(calls) == nfev + nfev2 + 3 and both.nfev == 0
        both(1.5)
        assert len(calls) == nfev + nfev2 + 6 and both.nfev == 3

    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou"])
    def test_char_fn_costs_the_non_dense_solve(self, name, monkeypatch):
        # char_fn reads its solve at the last step's right end only
        p = bundled(name)
        mech = p.mechanisms
        for u in U_POINTS:
            calls = []
            monkeypatch.setattr(mech, "psi", lambda u1, u2, psi=type(mech).psi: calls.append(1) or psi(mech, u1, u2))
            char_fn(p, 1.0, (1.0, 0.5), u)
            monkeypatch.undo()
            lean = solve_ivp(solve_V_rhs(p, u), (0.0, 1.0), np.array([u.u1, 0.0], dtype=complex),
                             first_step=1e-3, **self.OPTS)
            assert len(calls) == lean.nfev, u

    def test_blow_up_raises(self):
        # y' = y^2, y(0) = 1 has y = 1 / (1 - t): the step underflows at t = 1
        with pytest.raises(StiffnessFailure):
            dop853.solve(lambda t, y: y**2, 0.0, np.array([1.0, 0.0], dtype=complex), 2.0,
                         rtol=1e-10, atol=1e-14)


class TestBrent:
    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou", "gamma_imm"])
    def test_same_root_and_evaluations_as_scipy(self, name, monkeypatch):
        brackets = []
        monkeypatch.setattr(riccati, "_brentq", lambda f, a, b: brackets.append((f, a, b)) or 1.0)
        vb = bundled(name).vbar
        for t in np.geomspace(1e-3, 30.0, 61):
            vb(t)
        assert len(brackets) == 61
        monkeypatch.undo()
        for f, a, b in brackets:
            calls = []
            counted = lambda w: calls.append(w) or f(w)
            root = riccati._brentq(counted, a, b)
            ours = len(calls)
            ref, info = brentq(counted, a, b, xtol=1e-300, rtol=1e-12, full_output=True)
            assert root == ref and ours == len(calls) - ours == info.function_calls

    def test_same_sign_bracket_raises(self):
        with pytest.raises(AffineError):
            riccati._brentq(lambda x: x * x + 1.0, -1.0, 1.0)


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
        fn = compile_density_expr("1/(z*z)")
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

    def test_below_the_table(self):
        # t below T(2^top), where the table's geometric T(2^k) and time_from(2^k)
        # (which integrates the window above 2^k) differ; the second t lies
        # between the two, so a bracket walked on the first has no sign change
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        vb = Vbar(p)
        k = vb._top + 1
        assert all(vb._tail(j) == vb.time_from(2.0**j) for j in range(-3, vb._top))
        assert vb._tail(k) != vb.time_from(2.0**k)
        for t in (vb._rest / 3, 0.5 * (vb._tail(k) + vb.time_from(2.0**k))):
            assert vb(t) == pytest.approx(2.0 / math.expm1(2 * t), rel=1e-8)

    def test_table_monotone(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        table = build_vbar_table(p)
        assert np.all(np.diff(table.values) < 0)

    def test_small_t_against_mpmath_oracle(self):
        # v large at t = 0.01: the tail beyond the table is a visible part of t
        import mpmath

        p = bundled("jump_cbi_ou")

        def phi0_mp(z):
            return p.a1 * z + mpmath.mpf(p.alpha_y) * z**2 + sum(
                mpmath.mpf(w) * (mpmath.expm1(-z * z1) + z * z1) for z1, _, w in p.m.atoms
            )

        with mpmath.workdps(30):
            t = mpmath.mpf("0.01")
            tail = lambda v: mpmath.quad(lambda z: 1 / phi0_mp(z), [v, 10 * v, mpmath.inf])
            exact = float(mpmath.findroot(lambda v: tail(v) - t, 1 / (p.alpha_y * t)))
        assert Vbar(p)(0.01) == pytest.approx(exact, rel=1e-11, abs=0.0)

    def test_phi0_overflow_raises(self):
        # phi0 = 2z + z^2 overflows past z ~ 1e154, long before vbar(1e-300) ~ 1e300
        p = ModelParams(a1=2.0, a2=0.0, b0=0.0, b1=0.0, b2=0.5, sigma=0.0,
                        alpha=((1.0, 0.0), (0.0, 0.0)))
        vb = Vbar(p)
        with pytest.raises(NoConvergence):
            vb(1e-300)
        assert vb(1e-3) == pytest.approx(2.0 / math.expm1(2e-3), rel=1e-12, abs=0.0)

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

    def test_cost_guard(self):
        # the horizon doublings continue one solve: about 1k RHS evaluations
        # here, where a restart from 0 at every doubling spent about 8k
        st = stationary_transform(bundled("cir_ou"), UPoint(-1.0, 0.0))
        assert st.nfev < 1500
        assert st.clamped is False

    def test_closed_at_zero(self):
        assert stationary_transform_closed(make_params(), 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("u1", [0.5, -math.inf, math.nan])
    def test_closed_rejects_u1(self, u1):
        with pytest.raises(DomainError):
            stationary_transform_closed(make_params(), u1)

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
