import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from affine_ergo.errors import DomainError, DominationViolated, QuadratureError
from affine_ergo.measures import (
    DensityPiece,
    LevyMeasure,
    Marginal1D,
    compile_density_expr,
    levy_integral,
)
from affine_ergo.mechanisms import (
    ConditionReport,
    P_mech,
    UPoint,
    check_A,
    check_B,
    check_C,
    check_Cprime,
    check_D,
    phi,
    phi0,
    phi0_tilde,
    psi,
    shift_tv_ratio,
)
from affine_ergo.model import ModelParams, load_model


def make_params(**kw):
    base = dict(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                alpha=((0.25, 0.0), (0.0, 0.0)))
    base.update(kw)
    return ModelParams(**base)


def bundled(name):
    import importlib.resources

    return load_model(str(importlib.resources.files("affine_ergo") / "models" / f"{name}.json"))


def normal_z2_measure(z1_atom=0.0, weight=1.0):
    fn = compile_density_expr("exp(-z*z/2)/sqrt(2*pi)", ("z",))
    return LevyMeasure.product(
        Marginal1D(atoms=((z1_atom, weight),)),
        Marginal1D(pieces=(DensityPiece(-6.0, 6.0, fn, 128),)),
    )


class TestUPoint:
    def test_membership(self):
        UPoint(-1.0, 1j)
        with pytest.raises(DomainError):
            UPoint(0.1, 0.0)
        with pytest.raises(DomainError):
            UPoint(-1.0, 0.5 + 1j)

    def test_conjugate(self):
        u = UPoint(-1.0 + 2j, 3j)
        c = u.conj()
        assert c.u1 == (-1.0 - 2j) and c.u2 == -3j


class TestPhiPsi:
    def test_phi_at_zero(self):
        assert phi(UPoint(0.0, 0.0), make_params()) == 0.0

    def test_phi_drift_only(self):
        p = make_params(a1=2.0, b1=0.0, alpha=((0, 0), (0, 0)))
        assert phi(UPoint(-1.0, 0.0), p) == pytest.approx(2.0, abs=1e-12)

    def test_phi_single_atom(self):
        p = make_params(a1=0.0, b1=0.0, alpha=((0, 0), (0, 0)),
                        m=LevyMeasure.atomic([(1.0, 0.0, 1.0)]))
        # e^{-1} - 1 - (-1) = e^{-1}
        assert phi(UPoint(-1.0, 0.0), p) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_psi_at_zero(self):
        assert psi(UPoint(0.0, 0.0), make_params()) == 0.0

    def test_psi_drift_only(self):
        p = make_params(a2=1.0, sigma=0.0)
        assert psi(UPoint(-3.0, 0.0), p) == pytest.approx(-3.0, abs=1e-12)

    def test_psi_diffusion(self):
        p = make_params(a2=0.0, sigma=2.0, b0=0.0)
        assert psi(UPoint(0.0, 1j), p) == pytest.approx(-2.0, abs=1e-12)

    @given(
        re1=st.floats(-3, 0, allow_nan=False),
        im1=st.floats(-3, 3, allow_nan=False),
        im2=st.floats(-3, 3, allow_nan=False),
    )
    @settings(max_examples=20, deadline=None)
    def test_conjugation_symmetry(self, re1, im1, im2):
        p = make_params(m=LevyMeasure.atomic([(0.5, 0.2, 0.8)]),
                        n=LevyMeasure.atomic([(1.0, -0.3, 0.4)]))
        u = UPoint(complex(re1, im1), complex(0.0, im2))
        assert phi(u.conj(), p) == pytest.approx(np.conj(phi(u, p)), abs=1e-10)
        assert psi(u.conj(), p) == pytest.approx(np.conj(psi(u, p)), abs=1e-10)


class TestMechanismsObject:
    def test_built_once_per_model(self):
        p = bundled("jump_cbi_ou")
        assert p.mechanisms is p.mechanisms

    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou", "gamma_imm"])
    def test_bundled_rules_are_small(self, name):
        mech = bundled(name).mechanisms
        assert all(mech.rule(kind, -1.0, 1j)[2].size <= 4096 for kind in ("m", "n"))

    @pytest.mark.parametrize("name", ["jump_cbi_ou", "gamma_imm"])
    def test_frozen_rules_match_adaptive_integral(self, name):
        # u near the base probe (-1, i) and far from it, in one vectorised call
        # (which takes the rule of the largest u) and one call per point; the
        # reference converges its own integral for each u
        p = bundled(name)
        u1 = np.array([-0.3 + 1j, -2.0, -400.0, -1.5 + 60j, 0.0])
        u2 = np.array([0.5j, -1j, 0.0, 3j, 60j])
        vec = p.mechanisms.psi(u1, u2)
        for a, b, v in zip(u1, u2, vec):
            jumps = levy_integral(p.n, lambda z1, z2: np.exp(a * z1 + b * z2) - 1.0 - b * z2, tol=1e-12)
            ref = p.a2 * a - p.b0 * b + 0.5 * p.sigma**2 * b**2 + jumps
            for val in (v, psi(UPoint(a, b), p)):
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("u1", [-0.5, -2.0, 0.4j, -50.0, -1000.0, 30j])
    def test_gamma_imm_psi_closed_form(self, u1):
        # n = z^-1 e^-z dz x delta_0 on (0, 30]: int (e^{u z} - 1) n(dz) = -log(1 - u)
        # up to the E1(30) ~ 1e-14 tail
        p = bundled("gamma_imm")
        exact = p.a2 * u1 - np.log(1.0 - complex(u1))
        assert abs(psi(UPoint(u1, 0.0), p) - exact) < 1e-12

    def test_unresolvable_u_raises(self):
        # at u1 = -1e7 the n kernel varies on a scale of 1e-7, beyond what
        # NODE_CAP nodes on (0, 30] resolve: the rule must not be used unconverged
        p = bundled("gamma_imm")
        with pytest.raises(QuadratureError):
            psi(UPoint(-1e7, 0.0), p)


class TestPhi0:
    def test_at_zero(self):
        assert phi0(0.0, make_params()) == 0.0

    def test_arithmetic(self):
        p = make_params(a1=2.0, alpha=((0.5, 0.5), (0.0, 0.0)))
        assert phi0(1.0, p) == pytest.approx(3.0, abs=1e-12)

    def test_atom(self):
        p = make_params(a1=0.0, alpha=((0, 0), (0, 0)),
                        m=LevyMeasure.atomic([(1.0, 0.0, 1.0)]))
        assert phi0(1.0, p) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_matches_phi_when_m_on_axis(self):
        p = make_params(m=LevyMeasure.atomic([(0.7, 0.0, 1.3)]))
        for x in (0.5, 1.0, 3.0):
            assert phi0(x, p) == pytest.approx(phi(UPoint(-x, 0.0), p).real, abs=1e-10)

    @pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-6, 1e-3, 1.0])
    def test_small_argument_no_cancellation(self, z):
        # e^x - 1 - x and e^x - 1 must not lose their leading terms at small x
        p = bundled("jump_cbi_ou")
        exact = p.a1 * z + p.alpha_y * z**2 + sum(
            w * (math.expm1(-z * z1) + z * z1) for z1, _, w in p.m.atoms
        )
        assert phi0(z, p) == pytest.approx(exact, rel=1e-13, abs=0.0)
        # n = (delta_0 + delta_0.5)/2 in z1 times the standard normal on [-5, 5] in z2
        exact = -p.a2 * z + 0.5 * math.expm1(-0.5 * z) * math.erf(5.0 / math.sqrt(2.0))
        assert P_mech(-z, p) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @given(x=st.floats(0, 10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_tilde_identity(self, x):
        p = make_params(m=LevyMeasure.atomic([(0.5, 0.1, 1.0)]))
        assert phi0_tilde(-x, p) == pytest.approx(phi0(x, p), abs=1e-10)


class TestPMech:
    def test_at_zero(self):
        p = make_params()
        assert P_mech(0.0, p) == 0.0
        assert phi0_tilde(0.0, p) == 0.0

    def test_drift(self):
        p = make_params(a2=1.0)
        assert P_mech(-2.0, p) == pytest.approx(-2.0, abs=1e-12)

    def test_tilde_arithmetic(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        assert phi0_tilde(-1.0, p) == pytest.approx(3.0, abs=1e-12)


class TestConditionA:
    def test_quadratic_holds(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        assert check_A(p).verdict == "holds"

    def test_linear_fails(self):
        p = make_params(a1=2.0, alpha=((0, 0), (0, 0)))
        assert check_A(p).verdict == "fails"

    def test_negative_drift_fails(self):
        p = make_params(a1=-1.0, alpha=((0, 0), (0, 0)))
        assert check_A(p).verdict == "fails"

    def test_evidence_matches_quad_oracle(self):
        p = bundled("jump_cbi_ou")
        rep = check_A(p)
        # each evidence entry is (upper edge of its window, increment)
        edges = [rep.extras["theta"]] + [z for z, _ in rep.evidence]
        for lo, hi, (_, inc) in zip(edges, edges[1:], rep.evidence):
            ref = quad(lambda z: 1.0 / phi0(z, p), lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert inc == pytest.approx(ref, rel=1e-10, abs=0.0)


class TestConditionB:
    def test_normal_holds_with_known_overlap(self):
        p = make_params(n=normal_z2_measure())
        rep = check_B(p, eps=0.1, eta=1.0)
        assert rep.verdict == "holds"
        # shift by a: overlap = 2 Phi(-|a|/2); at a = 1 that is 0.6171
        from scipy.stats import norm

        assert rep.extras["min_overlap"] == pytest.approx(2 * norm.cdf(-0.5), abs=5e-3)

    def test_single_atom_fails(self):
        p = make_params(n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        assert check_B(p, eps=0.1, eta=0.5).verdict == "fails"

    def test_zero_shift_overlap_is_full_mass(self):
        p = make_params(n=normal_z2_measure())
        rep = check_B(p, eps=0.1, eta=1.0, a_grid=(0.0,))
        assert rep.extras["min_overlap"] == pytest.approx(rep.extras["C_eps"], rel=1e-8)


class TestConditionC:
    def test_normal_holds_with_derivative_limit(self):
        p = make_params(n=normal_z2_measure())
        rep = check_C(p, eps=0.1)
        assert rep.verdict == "holds"
        # ||rho - rho(.-a)||_1 / a -> int |rho'| = 2 phi(0) = 0.7979
        small_rho_vals = [v for r, v in rep.evidence if r <= 1e-2]
        assert small_rho_vals[-1] == pytest.approx(math.sqrt(2 / math.pi), rel=2e-2)

    def test_uniform_density_ratio_two(self):
        fn = compile_density_expr("1 + 0*z", ("z",))
        marg = Marginal1D(pieces=(DensityPiece(0.0, 1.0, fn, 4096),))
        assert shift_tv_ratio(marg, 1e-3) == pytest.approx(2.0, rel=1e-2)

    def test_atom_fails(self):
        p = make_params(n=LevyMeasure.atomic([(0.5, 1.0, 1.0)]))
        assert check_C(p, eps=0.1).verdict == "fails"

    def test_cprime_adds_second_moment(self):
        p = make_params(n=normal_z2_measure())
        rep = check_Cprime(p, eps=0.1)
        assert rep.verdict == "holds"
        assert "z2_sq_tail_moment" in rep.extras

    def test_lambda_dominates_probes_and_mass_cap(self):
        p = make_params(n=normal_z2_measure())
        rep = check_C(p, eps=0.1)
        lam = rep.extras["Lambda"]
        C_eps = rep.extras["C_eps"]
        for rho, val in rep.evidence:
            assert lam + 1e-12 >= val
            assert val * rho <= 2 * C_eps + 1e-9


class TestConditionD:
    def test_unbounded_sigma0(self):
        fn = compile_density_expr("1/(z*z)", ("z",))
        n = LevyMeasure.product(
            Marginal1D(atoms=((0.0, 1.0),)),
            Marginal1D(pieces=(DensityPiece(-1.0, 0.0, fn, 256), DensityPiece(0.0, 1.0, fn, 256))),
        )
        p = make_params(n=n)
        rho0 = lambda z: np.where((z > 0.04) & (z <= 1.0), 1.0 / np.maximum(z, 1e-9) ** 2, 0.0)
        g = lambda z: np.exp(-np.abs(z))
        rep = check_D(p, rho0, g, domain=(-1.0, 1.0), k_list=(1, 4, 16, 64), K=1)
        masses = [row["mass"] for row in rep.extras["rows"]]
        # sigma_1 = min(e^{-|z|}, rho0) = e^{-z} on (0.04, 1]
        assert masses[0] == pytest.approx(math.exp(-0.04) - math.exp(-1.0), rel=1e-4)
        assert all(b > a for a, b in zip(masses, masses[1:]))
        assert rep.extras["sigma0_mass_unbounded_evidence"]

    def test_bounded_rho0_plateaus(self):
        p = make_params(n=normal_z2_measure(weight=10.0))
        rho0 = lambda z: np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        g = lambda z: np.exp(-np.abs(z))
        rep = check_D(p, rho0, g, domain=(-6.0, 6.0), k_list=(1, 4, 16, 64), K=1)
        masses = [row["mass"] for row in rep.extras["rows"]]
        assert masses[-1] == pytest.approx(1.0, rel=1e-3)
        assert not rep.extras["sigma0_mass_unbounded_evidence"]

    def test_domination_violated(self):
        p = make_params(n=normal_z2_measure())
        rho0 = lambda z: np.full_like(z, 10.0)
        g = lambda z: np.exp(-np.abs(z))
        with pytest.raises(DominationViolated):
            check_D(p, rho0, g, domain=(-6.0, 6.0), k_list=(1, 2), K=1)

    def test_k_zero_rejected(self):
        p = make_params(n=normal_z2_measure())
        rho0 = lambda z: np.exp(-np.abs(z))
        g = lambda z: np.exp(-np.abs(z))
        with pytest.raises(DomainError):
            check_D(p, rho0, g, domain=(-6.0, 6.0), k_list=(0, 1), K=1)


class TestReportSerialization:
    def test_json_shape(self):
        p = make_params(n=normal_z2_measure())
        d = check_C(p, eps=0.1).to_json()
        assert d["condition"] == "C"
        assert d["verdict"] in ("holds", "fails", "inconclusive")
        assert isinstance(d["evidence"], list)

    def test_non_finite_values_serialize_as_null(self):
        rep = ConditionReport(
            condition="D",
            verdict="inconclusive",
            evidence=((1.0, math.inf),),
            inputs={"k_list": np.array([0, 1])},
            extras={
                "Lambda": math.inf,
                "rate": np.float64("nan"),
                "rows": [{"mass": math.inf, "tail": {"moment": math.nan, "ok": np.bool_(True)}}],
            },
        )
        d = json.loads(json.dumps(rep.to_json(), allow_nan=False))
        assert d["evidence"] == [[1.0, None]]
        assert d["inputs"] == {"k_list": [0, 1]}
        assert d["Lambda"] is None and d["rate"] is None
        assert d["rows"] == [{"mass": None, "tail": {"moment": None, "ok": True}}]
        assert json.loads(rep.dumps()) == d
