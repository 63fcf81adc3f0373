import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_ergo.errors import DomainError, DominationViolated
from affine_ergo.measures import (
    DensityPiece,
    LevyMeasure,
    Marginal1D,
    compile_density_expr,
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
from affine_ergo.model import ModelParams


def make_params(**kw):
    base = dict(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                alpha=((0.25, 0.0), (0.0, 0.0)))
    base.update(kw)
    return ModelParams(**base)


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
