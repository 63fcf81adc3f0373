import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from affine_ergo.analysis import prop42_constants
from affine_ergo.errors import DomainError, QuadratureError
from affine_ergo.measures import (
    DensityPiece,
    LevyMeasure,
    Marginal1D,
    compile_density_expr,
    levy_integral,
    levy_restrict_tail,
    overlap_stats,
)
from affine_ergo import mechanisms
from affine_ergo.mechanisms import (
    ConditionReport,
    UPoint,
    _axis_sums,
    check_A,
    check_B,
    check_C,
    check_Cprime,
    _m_kernel,
    _n_kernel,
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
    fn = compile_density_expr("exp(-z*z/2)/sqrt(2*pi)")
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

    @pytest.mark.parametrize("u1,u2", [(math.nan, 0.0), (-1.0, 1j * math.nan), (-math.inf, 0.0),
                                       (-1.0, 1j * math.inf), (complex(-1.0, math.inf), 0.0)])
    def test_non_finite_rejected(self, u1, u2):
        # NaN fails both sign tests, so it is rejected on its own
        with pytest.raises(DomainError, match="finite"):
            UPoint(u1, u2)


class TestPhiPsi:
    def test_phi_at_zero(self):
        assert make_params().mechanisms.phi(0.0, 0.0) == 0.0

    def test_phi_drift_only(self):
        p = make_params(a1=2.0, b1=0.0, alpha=((0, 0), (0, 0)))
        assert p.mechanisms.phi(-1.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_phi_single_atom(self):
        p = make_params(a1=0.0, b1=0.0, alpha=((0, 0), (0, 0)),
                        m=LevyMeasure.atomic([(1.0, 0.0, 1.0)]))
        # e^{-1} - 1 - (-1) = e^{-1}
        assert p.mechanisms.phi(-1.0, 0.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_psi_at_zero(self):
        assert make_params().mechanisms.psi(0.0, 0.0) == 0.0

    def test_psi_drift_only(self):
        p = make_params(a2=1.0, sigma=0.0)
        assert p.mechanisms.psi(-3.0, 0.0) == pytest.approx(-3.0, abs=1e-12)

    def test_psi_diffusion(self):
        p = make_params(a2=0.0, sigma=2.0, b0=0.0)
        assert p.mechanisms.psi(0.0, 1j) == pytest.approx(-2.0, abs=1e-12)

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
        c = UPoint(u.u1.conjugate(), u.u2.conjugate())
        for f in (p.mechanisms.phi, p.mechanisms.psi):
            assert f(c.u1, c.u2) == pytest.approx(np.conj(f(u.u1, u.u2)), abs=1e-10)


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
            for val in (v, p.mechanisms.psi(a, b)):
                assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("u1", [-0.5, -2.0, 0.4j, -50.0, -1000.0, 30j])
    def test_gamma_imm_psi_closed_form(self, u1):
        # n = z^-1 e^-z dz x delta_0 on (0, 30]: int (e^{u z} - 1) n(dz) = -log(1 - u)
        # up to the E1(30) ~ 1e-14 tail
        p = bundled("gamma_imm")
        exact = p.a2 * u1 - np.log(1.0 - complex(u1))
        assert abs(p.mechanisms.psi(u1, 0.0) - exact) < 1e-12

    def test_unresolvable_u_raises(self):
        # at u1 = -1e7 the n kernel varies on a scale of 1e-7, beyond what
        # NODE_CAP nodes on (0, 30] resolve: the rule must not be used unconverged
        p = bundled("gamma_imm")
        with pytest.raises(QuadratureError):
            p.mechanisms.psi(-1e7, 0.0)


def tensor_phi_psi(p, kind, u1, u2):
    """phi (kind "m") or psi (kind "n") with the jump kernel summed over the
    tensor rule."""
    z1, z2, w = p.mechanisms.rule(kind, u1, u2)
    if kind == "m":
        c12 = 2.0 * (math.sqrt(p.a11 * p.a21) + math.sqrt(p.a12 * p.a22))
        rest = -p.a1 * u1 - p.b1 * u2 + p.alpha_y * u1**2 + c12 * u1 * u2 + (p.a21 + p.a22) * u2**2
        return rest + np.sum(w * _m_kernel(u1, u2, z1, z2), axis=-1)
    rest = p.a2 * u1 - p.b0 * u2 + 0.5 * p.sigma**2 * u2**2
    return rest + np.sum(w * _n_kernel(u1, u2, z1, z2), axis=-1)


def two_density_product():
    """(1 + z1) on [0.2, 0.9] times the normal density of z2 on [-1, 2]."""
    return LevyMeasure.product(
        Marginal1D(pieces=(DensityPiece(0.2, 0.9, compile_density_expr("1+z"), 8),)),
        Marginal1D(pieces=(DensityPiece(-1.0, 2.0, compile_density_expr("exp(-z*z/2)"), 8),)),
    )


def several_terms():
    """Atoms, two_density_product() and its truncate_small(0.5), which is two
    products: a measure of atoms and three products."""
    product = two_density_product()
    atoms = LevyMeasure.atomic([(0.5, 0.2, 0.8), (0.0, -0.3, 0.4)])
    return LevyMeasure.union([atoms, product, product.truncate_small(0.5)])


class TestPerAxisSums:
    """phi and psi of a measure whose products are summed per axis, against
    the kernel summed over the tensor rule of the same level."""

    # three u arrays, each served by a rule of its own
    U = (
        (np.array([-0.3 + 0.5j, -1.0, 0.0]), np.array([0.5j, -1j, 0.2j])),
        (np.array([-3.0, -0.5 + 2j, -1e-6]), np.array([3j, 0.0, -1e-6j])),
        (np.array([-40.0 + 7j, 0.0, -2.0]), np.array([0.0, 17j, 1j])),
    )

    @pytest.mark.parametrize("params,kind", [
        (bundled("jump_cbi_ou"), "n"),
        (bundled("gamma_imm"), "n"),  # infinite activity; z2 is a unit atom at 0
        (make_params(m=two_density_product()), "m"),
        (make_params(n=two_density_product()), "n"),
        (make_params(m=several_terms(), n=several_terms()), "m"),
        (make_params(m=several_terms(), n=several_terms()), "n"),
    ], ids=["jump_cbi_ou-n", "gamma_imm-n", "two-densities-m", "two-densities-n", "several-terms-m",
            "several-terms-n"])
    def test_matches_tensor_rule(self, params, kind):
        mech = params.mechanisms
        for u1, u2 in self.U:
            factored = (mech.phi if kind == "m" else mech.psi)(u1, u2)
            tensor = tensor_phi_psi(params, kind, u1, u2)
            assert np.all(np.abs(factored - tensor) <= 1e-13 * np.abs(tensor))
        assert sum(key[0] == kind for key in mech._axes) == len(self.U) + 1  # and the object's own


def expm1_axis_sums(u, axis):
    """E and K of `_axis_sums` in the complex-expm1 form, for any u."""
    x, w = axis
    e = np.multiply.outer(u, x)
    em = np.expm1(e)
    return np.sum(w * em, axis=-1), np.sum(w * (em - e), axis=-1)


class TestImaginaryAxisSums:
    """A scalar u = iy is summed in real arithmetic; every other u in the
    complex-expm1 form."""

    @pytest.fixture(scope="class", params=["jump_cbi_ou", "two-densities"])
    def axes(self, request):
        params = bundled("jump_cbi_ou") if request.param == "jump_cbi_ou" else make_params(n=two_density_product())
        mech = params.mechanisms
        mech.psi(-1.0, 40j)  # the rule for |u2| up to 64 too
        return [axis for key, (_, products) in mech._axes.items() if key[0] == "n" for pair, _ in products for axis in pair]

    @pytest.mark.parametrize("u", [1e-8j, -1e-8j, 0.7j, -3j, 40j, np.complex128(0.7j)])
    def test_matches_expm1_form(self, axes, u):
        for x, w in axes:
            E, K = _axis_sums(u, (x, w), True)
            E_ref, K_ref = expm1_axis_sums(u, (x, w))
            # E's imaginary part sums sin(yx) over z2 nodes of both signs: on the
            # symmetric jump_cbi_ou law at |y| = 1e-8 it is rounding in either
            # form, so E is held to the scale of its terms
            assert abs(E - E_ref) <= 1e-13 * np.sum(np.abs(w * np.expm1(u * x)))
            # K subtracts yx node by node, as the reference does: no cancellation
            # between sums, so K holds to 1e-13 of itself at every |y|
            assert abs(K - K_ref) <= 1e-13 * abs(K_ref)
            assert _axis_sums(u, (x, w), False) == (E, None)

    @pytest.mark.parametrize("u", [0.0, 0j, -0j, np.complex128(0.0), np.float64(0.0)])
    def test_zero_gives_exact_zeros(self, axes, u):
        for axis in axes:
            E, K = _axis_sums(u, axis, True)
            assert E == 0 and K == 0

    @pytest.mark.parametrize("u", [np.array([0.7j]), np.array([0.7j, -3j]), 1e-13 + 0.7j, -1e-13 - 3j])
    def test_arrays_and_off_axis_keep_expm1_form(self, axes, u):
        for axis in axes:
            E, K = _axis_sums(u, axis, True)
            E_ref, K_ref = expm1_axis_sums(u, axis)
            assert np.array_equal(E, E_ref) and np.array_equal(K, K_ref)

    def test_column_takes_z2_sums_once(self, monkeypatch):
        # a psi column at one scalar u2 sums the 1,024 z2 nodes once, not per u1
        mech = bundled("jump_cbi_ou").mechanisms
        u1 = 1j * math.pi / 4 * np.arange(64)
        column = mech.psi(u1, 0.7j)
        shapes = []
        real = mechanisms._axis_sums
        monkeypatch.setattr(mechanisms, "_axis_sums", lambda u, axis, c: shapes.append(np.shape(u)) or real(u, axis, c))
        assert np.array_equal(mech.psi(u1, 0.7j), column)
        assert shapes == [(64,), ()]


class TestPhi0:
    def test_at_zero(self):
        assert make_params().mechanisms.phi(0.0, 0.0).real == 0.0

    def test_arithmetic(self):
        p = make_params(a1=2.0, alpha=((0.5, 0.5), (0.0, 0.0)))
        assert p.mechanisms.phi(-1.0, 0.0).real == pytest.approx(3.0, abs=1e-12)

    def test_atom(self):
        p = make_params(a1=0.0, alpha=((0, 0), (0, 0)),
                        m=LevyMeasure.atomic([(1.0, 0.0, 1.0)]))
        assert p.mechanisms.phi(-1.0, 0.0).real == pytest.approx(math.exp(-1), abs=1e-12)

    @pytest.mark.parametrize("z", [1e-12, 1e-9, 1e-6, 1e-3, 1.0])
    def test_small_argument_no_cancellation(self, z):
        # e^x - 1 - x and e^x - 1 must not lose their leading terms at small x
        p = bundled("jump_cbi_ou")
        exact = p.a1 * z + p.alpha_y * z**2 + sum(
            w * (math.expm1(-z * z1) + z * z1) for z1, _, w in p.m.atoms
        )
        assert p.mechanisms.phi(-z, 0.0).real == pytest.approx(exact, rel=1e-13, abs=0.0)
        # n = (delta_0 + delta_0.5)/2 in z1 times the standard normal on [-5, 5] in z2
        exact = -p.a2 * z + 0.5 * math.expm1(-0.5 * z) * math.erf(5.0 / math.sqrt(2.0))
        assert p.mechanisms.psi(-z, 0).real == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestLineIntegral:
    def test_batch_equals_lone_integrals(self):
        # rows that converge at different levels keep their own level's value
        f = lambda s: np.exp(s) * np.cos(3.0 * s)
        lo, hi = [0.0, -1.0, 0.0, 2.0], [0.1, 1.0, 12.0, 2.5]
        batch, level = mechanisms._line_integral(f, lo, hi)
        lone = [mechanisms._line_integral(f, [a], [b]) for a, b in zip(lo, hi)]
        assert batch.tolist() == [v[0] for v, _ in lone]
        assert level == max(lv for _, lv in lone) > min(lv for _, lv in lone)
        exact = lambda s: math.exp(s) * (math.cos(3.0 * s) + 3.0 * math.sin(3.0 * s)) / 10.0
        assert batch == pytest.approx([exact(b) - exact(a) for a, b in zip(lo, hi)], rel=1e-12)


class TestPMech:
    def test_at_zero(self):
        p = make_params()
        assert p.mechanisms.psi(0.0, 0).real == 0.0
        assert p.mechanisms.phi(0.0, 0).real == 0.0

    def test_drift(self):
        p = make_params(a2=1.0)
        assert p.mechanisms.psi(-2.0, 0).real == pytest.approx(-2.0, abs=1e-12)

    def test_tilde_arithmetic(self):
        p = make_params(a1=2.0, alpha=((1.0, 0.0), (0.0, 0.0)))
        assert p.mechanisms.phi(-1.0, 0).real == pytest.approx(3.0, abs=1e-12)


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
            ref = quad(lambda z: 1.0 / p.mechanisms.phi(-z, 0.0).real, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
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

    @pytest.mark.parametrize("a_grid,noted", [
        ((0.0,), False),  # no shift: full overlap
        ((0.0, 1.0), False),  # -0.5 + 1.0 lands on the atom at 0.5
        ((0.0, 0.3), True),  # no shifted atom meets an atom
        ((1.0, -0.3), True),
    ])
    def test_note_exactly_when_a_shifted_atomic_n_eps_misses(self, a_grid, noted):
        p = make_params(n=LevyMeasure.atomic([(0.5, -0.5, 1.0), (0.5, 0.5, 2.0)]))
        rep = check_B(p, eps=0.1, eta=1.0, a_grid=a_grid)
        zero = any(a != 0.0 and ov == 0.0 for a, ov in rep.evidence)
        assert zero == noted
        assert (rep.note != "") == noted

    def test_no_note_for_a_density(self):
        assert check_B(make_params(n=normal_z2_measure()), eps=0.1, eta=1.0).note == ""


class TestConditionC:
    def test_normal_holds_with_derivative_limit(self):
        p = make_params(n=normal_z2_measure())
        rep = check_C(p, eps=0.1)
        assert rep.verdict == "holds"
        # ||rho - rho(.-a)||_1 / a -> int |rho'| = 2 phi(0) = 0.7979
        small_rho_vals = [v for r, v in rep.evidence if r <= 1e-2]
        assert small_rho_vals[-1] == pytest.approx(math.sqrt(2 / math.pi), rel=2e-2)

    def test_uniform_density_ratio_two(self):
        fn = compile_density_expr("1 + 0*z")
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

    @pytest.mark.parametrize("a", [0.8, 1e-3, 5e-4])
    def test_shift_tv_closed_form(self, a):
        # n_eps of jump_cbi_ou is N(0, 1) on [-5, 5]; the truncation takes
        # from |rho - rho(. - a)| what it adds past the edges, so
        # |n_eps - shift_a n_eps|(R) = 2 (2 Phi(a/2) - 1) = 2 erf(a / 2^1.5)
        marg = levy_restrict_tail(bundled("jump_cbi_ou").n, 0.1)
        tv = overlap_stats(marg, marg.shift(a))[1]
        assert tv == pytest.approx(2.0 * math.erf(a / 2**1.5), rel=1e-9, abs=0.0)

    def test_lambda_closed_form(self):
        # the sup of the ratios is at the smallest shift, rho/2 with rho = 1e-3
        a = 5e-4
        rep = check_C(bundled("jump_cbi_ou"), eps=0.1)
        assert rep.extras["Lambda"] == pytest.approx(2.0 * math.erf(a / 2**1.5) / a, rel=1e-9, abs=0.0)

    def test_one_C_eps(self):
        p = bundled("jump_cbi_ou")
        assert check_C(p, 0.1).extras["C_eps"] == prop42_constants(p, 0.1)["C_eps"]

    def test_lambda_dominates_probes_and_mass_cap(self):
        p = make_params(n=normal_z2_measure())
        rep = check_C(p, eps=0.1)
        lam = rep.extras["Lambda"]
        C_eps = rep.extras["C_eps"]
        for rho, val in rep.evidence:
            assert lam + 1e-12 >= val
            assert val * rho <= 2 * C_eps + 1e-9


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
