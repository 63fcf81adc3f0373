import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import affine_ergo
from affine_ergo.errors import ConfigError, TimeNotRecorded
from affine_ergo.measures import LevyMeasure
from affine_ergo.model import ModelParams, load_model
from affine_ergo.riccati import cbi_mean, char_fn
from affine_ergo.mechanisms import UPoint
from affine_ergo.simulator import (
    BLOCK,
    SimConfig,
    _jump_sums,
    _JumpSpec,
    _Normals,
    simulate_coupled,
    simulate_paths,
)


def make_params(**kw):
    base = dict(a1=2.0, a2=0.5, b0=0.2, b1=0.3, b2=0.5, sigma=0.5,
                alpha=((0.25, 0.0), (0.0, 0.0)))
    base.update(kw)
    return ModelParams(**base)


def bundled(name):
    import importlib.resources

    return load_model(str(importlib.resources.files("affine_ergo") / "models" / f"{name}.json"))


def jump_model():
    return bundled("jump_cbi_ou")


def atom_in_box_model():
    """make_params with branching jumps, one atom inside the eps_trunc=0.5 box."""
    return make_params(m=LevyMeasure.atomic([(0.4, 0.1, 2.0), (1.0, -0.3, 0.4)]))


def full_alpha_model():
    """All four alpha entries > 0: W2, two D_W normals per step and the
    a12, a21, a22 terms; jumps of both kinds with z2 parts."""
    return make_params(alpha=((0.25, 0.1), (0.15, 0.2)),
                       m=LevyMeasure.atomic([(0.5, 0.2, 0.8), (1.0, -0.3, 0.4)]),
                       n=LevyMeasure.atomic([(0.3, 0.4, 1.0)]))


def no_immigration_model():
    """a2 = b0 = 0 and no n-jumps: the coefficients of a coupled run's
    difference chain, with all four alpha entries > 0 and m atoms."""
    return make_params(a2=0.0, b0=0.0, alpha=((0.25, 0.1), (0.15, 0.2)),
                       m=LevyMeasure.atomic([(0.5, 0.2, 0.8), (1.0, -0.3, 0.4)]))


GOLDEN_MODELS = {
    "atom_in_box": atom_in_box_model,
    "full_alpha": full_alpha_model,
    "sigma_zero": lambda: make_params(sigma=0.0),
    "no_immigration": no_immigration_model,
}


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.0, T=1.0, n_paths=1, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(dt=0.5, T=0.1, n_paths=1, seed=0)
        with pytest.raises(ConfigError):
            SimConfig(dt=0.1, T=1.0, n_paths=1, seed=0, eps_trunc=-1.0)
        with pytest.raises(ConfigError):
            SimConfig(dt=0.1, T=1.0, n_paths=1, seed=0, threads=0)

    def test_record_time_off_grid(self):
        cfg = SimConfig(dt=0.1, T=1.0, n_paths=1, seed=0, record_times=(0.55,))
        with pytest.raises(ConfigError):
            cfg.record_steps()

    def test_infinite_activity_needs_truncation(self):
        p = bundled("gamma_imm")
        cfg = SimConfig(dt=0.01, T=0.1, n_paths=10, seed=0, eps_trunc=0.0)
        with pytest.raises(ConfigError):
            simulate_paths(p, (1.0, 0.0), cfg)


class TestSinglePath:
    def test_zero_start_no_immigration_absorbing(self):
        p = make_params(a2=0.0)
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=500, seed=1, record_times=(0.5, 1.0))
        ens = simulate_paths(p, (0.0, 0.3), cfg)
        assert np.all(ens.Y == 0.0)
        assert np.std(ens.Z[1]) > 0.0  # Z still diffuses

    def test_cir_mean_matches_closed_form(self):
        p = make_params()
        cfg = SimConfig(dt=0.005, T=1.0, n_paths=100_000, seed=2)
        ens = simulate_paths(p, (1.0, 0.0), cfg)
        mean = float(ens.Y[0].mean())
        se = float(ens.Y[0].std(ddof=1) / math.sqrt(ens.n_paths))
        assert abs(mean - cbi_mean(p, 1.0, 1.0)) < 3 * se + 2e-3

    def test_deterministic_ode_limit(self):
        p = make_params(sigma=0.0, alpha=((0, 0), (0, 0)), b1=0.0)
        dt = 1e-4
        cfg = SimConfig(dt=dt, T=1.0, n_paths=3, seed=3)
        ens = simulate_paths(p, (1.0, 0.0), cfg)
        exact = cbi_mean(p, 1.0, 1.0)
        assert np.allclose(ens.Y[0], exact, atol=5 * dt)

    def test_positivity(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=2000, seed=4, record_times=(0.1, 0.5, 1.0))
        ens = simulate_paths(p, (0.05, 0.0), cfg)
        assert np.all(ens.Y >= 0.0)

    def test_charfn_cross_module(self):
        p = jump_model()
        cfg = SimConfig(dt=0.005, T=1.0, n_paths=50_000, seed=5)
        ens = simulate_paths(p, (1.0, 0.5), cfg)
        for u in (UPoint(-0.5, 0.0), UPoint(-1.0, 0.4j), UPoint(0.0, 0.8j)):
            exact = char_fn(p, 1.0, (1.0, 0.5), u)
            vals = np.exp(u.u1 * ens.Y[0] + u.u2 * ens.Z[0])
            mc = complex(vals.mean())
            se = float(np.abs(vals - mc).std(ddof=1) / math.sqrt(vals.size))
            assert abs(mc - exact) < 3 * se + 1e-3


class TestDeterminism:
    def test_thread_count_invariance(self):
        # 20,000 paths are three chunks, and 50 steps are not a multiple of BLOCK
        p = jump_model()
        base = dict(dt=0.01, T=0.5, n_paths=20_000, seed=6, record_times=(0.25, 0.5))
        assert round(base["T"] / base["dt"]) % BLOCK != 0
        e1 = simulate_paths(p, (1.0, 0.0), SimConfig(**base, threads=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often while blocks are in flight
        try:
            for threads in (2, 3, 8):
                en = simulate_paths(p, (1.0, 0.0), SimConfig(**base, threads=threads))
                assert np.array_equal(e1.Y, en.Y), threads
                assert np.array_equal(e1.Z, en.Z), threads
        finally:
            sys.setswitchinterval(interval)

    def test_seed_changes_output(self):
        p = make_params()
        cfg1 = SimConfig(dt=0.01, T=0.5, n_paths=100, seed=7)
        cfg2 = SimConfig(dt=0.01, T=0.5, n_paths=100, seed=8)
        e1 = simulate_paths(p, (1.0, 0.0), cfg1)
        e2 = simulate_paths(p, (1.0, 0.0), cfg2)
        assert not np.array_equal(e1.Y, e2.Y)

    def test_coupled_thread_invariance(self):
        p = atom_in_box_model()
        base = dict(dt=0.01, T=0.5, n_paths=20_000, seed=9, record_times=(0.5,), eps_trunc=0.5)
        c1 = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), SimConfig(**base, threads=1))
        for threads in (2, 3, 8):
            cn = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), SimConfig(**base, threads=threads))
            for f in ("Yx", "Zx", "Yy", "Zy", "varsigma", "threshold_absorbed"):
                assert np.array_equal(getattr(c1, f), getattr(cn, f)), (f, threads)

    # SHA-256 of the raw output bytes (signed zeros included).  A mismatch
    # means a seed's output changed: bump `__version__`, recompute GOLDEN and
    # set GOLDEN_VERSION to the new version.
    GOLDEN_VERSION = "0.3.0"
    GOLDEN = {  # (Y, Z) of simulate_paths; all six arrays of simulate_coupled
        "cir_ou": (
            "aceeb5b4a5fc0c22bc1f46d9204ee121d206a01f0fa320932cbe2fc143ce38b8",
            "e2b6c7143447477b7eedd9a68af02fa2a9ad67ca8425cf21611fca834a78aded",
        ),
        "jump_cbi_ou": (
            "51950e1977dd38549c8a51cb16eb91c4421474a0ba3134c17aacca3afb0fd228",
            "af8c2315356c8e91ed1b137e54b48fbbdd2127477735469eb3dc6a51aee06f05",
        ),
        "gamma_imm": (
            "74f15010f4c34f2384ac061dd3383a16f8d64fab197839012297a3e100c716d7",
            "331d56411a8279c39905d256808584d0e37ce3d4f83f87e99c5f09e84da2f45d",
        ),
        "atom_in_box": (
            "c63ed219a3968b394d56e74f7e3daff3291dee097a448a889c436af6e66e4ea7",
            "f382fef850d988e2b33dff7937db4d26a7eec5e7a83c994f5391a1dc2b6541f6",
        ),
        "full_alpha": (
            "0351794947bf1eb61a086365daa9bb0523ee2312d5de63bbe3194613e179afc5",
            "4e6b4d9d7196966649f2c378afac62bd00ebc64673737149e8170c45fef3724e",
        ),
        "sigma_zero": (
            "8dee14c917e0fe14823ac26aa9caedda8f6c3ed345bcc6f8d94e533cbd471493",
            "d151763bac65b2f3b46b88f51b9efcfcd0e6bc879b01a7e4d88dfd620116f99c",
        ),
        "no_immigration": (
            "9d7ed998c7c6a5f22852a99cf53d67969ea08a005d0f4938e981ce1e5cb3f430",
            "656d387f32fb66eb5a54c50a126608cf6bb14c24943f7213b5957867e0729201",
        ),
    }
    # Y of simulate_paths; Yx, Yy, varsigma and threshold_absorbed of
    # simulate_coupled.  Unchanged since 0.2.0: the draws of Y and of the
    # coalescence times have not changed since then.
    GOLDEN_Y = {
        "cir_ou": (
            "70b6afde1f0938232c8cfabae694af4027b8d7a67de8f4305191e343d2b96ed6",
            "39d6e74b1ca59d2924ac76d9222cba154fabdacbcc98c1c7570ede8ba77131b1",
        ),
        "jump_cbi_ou": (
            "ab742e1c30cec7df43c8bff648356803ff178b1e194f24dd7141af8fffb1dd97",
            "4994739690ee6092ce230516babf444084526fefae86fe2a8547f41707b5b14e",
        ),
        "gamma_imm": (
            "9ccaf2bfb19d78e660fe7a09beb9e18d658f5b425be26fa2ae572a8d73432573",
            "8f1154c8c2d59b505b7d2fe1f981a19ee6f2952d4569e9e421482bf74a48dd71",
        ),
        "atom_in_box": (
            "5a5ec959a0be45c781ab786dc77879d9558c2d5d99d0a10dff8356ee0dfb8e4f",
            "1113c9d731f459540cc2699d7d43447270a0305b0fc5c0194beea9a7bff5730c",
        ),
        "full_alpha": (
            "0828291f092920fc552d003cd7c1193e933392e49aa93772a8cf7cae6168212a",
            "9358d104fad3c6e264f61d4a66b093d65b05bfed4a3483d3499ac5207eaa4fe7",
        ),
        "sigma_zero": (  # sigma does not enter Y, so these are cir_ou's
            "70b6afde1f0938232c8cfabae694af4027b8d7a67de8f4305191e343d2b96ed6",
            "39d6e74b1ca59d2924ac76d9222cba154fabdacbcc98c1c7570ede8ba77131b1",
        ),
        "no_immigration": (
            "a64a5ac5fd85d1786c1f768c7c3fffb61d7806b6f576b4c22c9abea7a217ffcd",
            "acc6cb546f626c477810b0f73a95df395d59796934c7299da8edf933c21ac208",
        ),
    }

    def test_golden_version(self):
        assert self.GOLDEN_VERSION == affine_ergo.__version__

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name,eps", [("cir_ou", 0.0), ("jump_cbi_ou", 0.6),
                                          ("gamma_imm", 1e-2), ("atom_in_box", 0.5),
                                          ("full_alpha", 0.0), ("sigma_zero", 0.0),
                                          ("no_immigration", 0.0)])
    def test_golden_digests(self, name, eps, threads):
        # 9,000 paths are two chunks; atom_in_box has an m atom inside the eps box
        p = GOLDEN_MODELS[name]() if name in GOLDEN_MODELS else bundled(name)
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=9_000, seed=23, record_times=(0.25, 0.5),
                        eps_trunc=eps, threads=threads)

        def digest(*arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        e = simulate_paths(p, (2.0, 1.0), cfg)
        c = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), cfg)
        got_y = (digest(e.Y), digest(c.Yx, c.Yy, c.varsigma, c.threshold_absorbed))
        assert got_y == self.GOLDEN_Y[name], "the draws of Y or of the coalescence times changed"
        got = (digest(e.Y, e.Z), digest(c.Yx, c.Zx, c.Yy, c.Zy, c.varsigma, c.threshold_absorbed))
        assert got == self.GOLDEN[name], "draws changed: bump `__version__` and update the digests"


class TestRecordOU:
    """Z's W0 part is drawn at record steps only; the recorded Z keeps the
    joint law of the Euler chain Z_k = rho*Z_{k-1} - b0*h + sigma*sqrt(h)*xi_k,
    rho = 1 - b2*h, at every pair of record times."""

    def test_euler_ar1_law(self):
        # a2 = 0, x1 = 0 and no jumps: Y stays 0 and Z is the Gaussian AR(1)
        b0, b2, sigma, h, z0 = 0.2, 0.5, 0.5, 0.2, 1.0
        p = make_params(a2=0.0, b0=b0, b2=b2, sigma=sigma)
        cfg = SimConfig(dt=h, T=1.0, n_paths=100_000, seed=41, record_times=(0.4, 1.0))
        e = simulate_paths(p, (0.0, z0), cfg)
        assert np.all(e.Y == 0.0)
        rho = 1.0 - b2 * h
        ks = (2, 5)

        def mean(k):
            return rho**k * z0 - b0 * h * sum(rho**i for i in range(k))

        def var(k):
            return sigma**2 * h * sum(rho ** (2 * i) for i in range(k))

        dev = e.Z - np.array([[mean(k)] for k in ks])
        n = cfg.n_paths
        for i, k in enumerate(ks):
            z = dev[i]
            assert abs(z.mean()) <= 3 * z.std() / math.sqrt(n), k
            sq = z * z
            se = sq.std() / math.sqrt(n)
            assert abs(sq.mean() - var(k)) <= 3 * se, k
            # the continuous OU variance is more than 5 SE away, so the
            # check tells the Euler law from the exact one
            t = k * h
            assert abs(sigma**2 * (1 - math.exp(-2 * b2 * t)) / (2 * b2) - var(k)) > 5 * se, k
        cross = dev[0] * dev[1]
        se = cross.std() / math.sqrt(n)
        cov = rho ** (ks[1] - ks[0]) * var(ks[0])
        assert abs(cross.mean() - cov) <= 3 * se
        assert cov > 5 * se  # G drawn afresh at each record time would read 0


class TestNormals:
    """`_Normals` blocks hold exactly the draws of one call per step."""

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_blocks_match_per_step_draws(self, k, pooled):
        n, n_steps = 5, 2 * BLOCK + 3
        ref_g, g = np.random.default_rng(31), np.random.default_rng(31)
        with ThreadPoolExecutor(max_workers=2) as pool:
            src = _Normals(g, k, n, n_steps, pool if pooled else None)
            for _ in range(n_steps):
                want = np.array([ref_g.standard_normal(n) for _ in range(k)]).reshape(k, n)
                assert np.array_equal(src.next(), want)
        # the stream is left where per-step draws leave it
        assert g.random() == ref_g.random()


class TestJumpCounts:
    """The superposed counts of `_jump_sums`: one Poisson total per step,
    placed on the paths in proportion to their intensity."""

    @staticmethod
    def counts(intensity, n, steps, h, seed):
        # unit z1 jumps: the per-path sum of z1 is the per-path count
        spec = _JumpSpec(LevyMeasure.atomic([(1.0, 0.0, 2.0)]), 0.0, "m")
        g_count, g_jump = np.random.default_rng(seed), np.random.default_rng(seed + 1)
        total = np.zeros(n)
        for _ in range(steps):
            total += _jump_sums(spec, g_count, g_jump, intensity, h, n)[0]
        return total

    def test_zero_intensity_never_jumps(self):
        # zero-intensity paths at both ends and in between
        intensity = np.tile([0.0, 1.0, 3.0, 0.0], 250)
        c = self.counts(intensity, intensity.size, 200, 0.01, 40)
        assert np.all(c[intensity == 0.0] == 0.0)
        assert np.all(c[intensity == 3.0] > 0.0)

    def test_zero_y_gets_no_branching_jump(self):
        # no immigration: paths at Y = 0 stay there although m has mass
        p = make_params(a2=0.0, m=LevyMeasure.atomic([(0.5, 0.2, 4.0)]))
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=500, seed=41, record_times=(0.5, 1.0))
        assert np.all(simulate_paths(p, (0.0, 0.3), cfg).Y == 0.0)
        assert np.all(simulate_coupled(p, (1.0, 0.3), (0.0, 0.0), cfg).Yy == 0.0)

    @pytest.mark.parametrize("intensity", [np.repeat([0.25, 1.0, 4.0], 4000), 1.0])
    def test_per_path_counts_are_poisson(self, intensity):
        # an array intensity (the Y- and D-driven jumps) and a constant one (immigration)
        n, steps, h, rate = 12_000, 100, 0.01, 2.0
        c = self.counts(intensity, n, steps, h, 42)
        lam_of_path = np.broadcast_to(intensity, (n,))
        for lam in np.unique(lam_of_path):
            x = c[lam_of_path == lam]
            mu = lam * rate * h * steps
            m = x.size
            assert abs(x.mean() - mu) < 3 * math.sqrt(mu / m)
            # Var(s^2) = (mu4 - sigma^4 (m-3)/(m-1)) / m with mu4 = mu + 3 mu^2
            assert abs(x.var(ddof=1) - mu) < 3 * math.sqrt((mu + 2 * mu**2 * m / (m - 1)) / m)


class TestCoupled:
    def test_equal_starts(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=100, seed=10, record_times=(0.5,))
        ce = simulate_coupled(p, (1.0, 0.5), (1.0, 0.5), cfg)
        assert np.all(ce.varsigma == 0.0)
        assert np.array_equal(ce.Yx, ce.Yy)
        assert np.array_equal(ce.Zx, ce.Zy)

    def test_pathwise_order(self):
        p = jump_model()
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=20_000, seed=11, record_times=(0.25, 0.5, 1.0))
        ce = simulate_coupled(p, (2.0, 1.0), (0.5, 0.0), cfg)
        assert np.all(ce.Yx >= ce.Yy)

    def test_mean_gap_decay(self):
        p = make_params()
        cfg = SimConfig(dt=0.002, T=1.0, n_paths=100_000, seed=12, record_times=(0.5, 1.0))
        ce = simulate_coupled(p, (2.0, 0.0), (1.0, 0.0), cfg)
        for t in (0.5, 1.0):
            k = ce.index_of(t)
            d = ce.Yx[k] - ce.Yy[k]
            se = float(d.std(ddof=1) / math.sqrt(d.size))
            assert abs(float(d.mean()) - math.exp(-p.a1 * t)) < 3 * se + 5e-4

    def test_martingale_scaled_gap(self):
        # e^{a1 t} E[D_t] should be flat in t
        p = make_params()
        cfg = SimConfig(dt=0.002, T=1.0, n_paths=50_000, seed=13, record_times=(0.25, 0.5, 1.0))
        ce = simulate_coupled(p, (1.5, 0.0), (1.0, 0.0), cfg)
        scaled = []
        for t in (0.25, 0.5, 1.0):
            k = ce.index_of(t)
            d = ce.Yx[k] - ce.Yy[k]
            scaled.append(math.exp(p.a1 * t) * float(d.mean()))
            se = math.exp(p.a1 * t) * float(d.std(ddof=1) / math.sqrt(d.size))
        assert abs(scaled[0] - scaled[-1]) < 3 * se + 0.01

    def test_swap_flag(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=50, seed=14, record_times=(0.5,))
        ce = simulate_coupled(p, (0.5, 0.0), (1.5, 0.0), cfg)
        assert ce.swapped
        assert np.all(ce.Yx >= ce.Yy)

    @pytest.mark.parametrize("name,eps", [("cir_ou", 0.0), ("jump_cbi_ou", 0.05), ("gamma_imm", 1e-2)])
    def test_base_copy_matches_simulate_paths(self, name, eps):
        # the lower-start copy consumes exactly the noise of a single run from its start
        p = bundled(name)
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=9_000, seed=22, record_times=(0.25, 0.5),
                        eps_trunc=eps)
        ce = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), cfg)
        ens = simulate_paths(p, (1.0, 0.0), cfg)
        assert np.array_equal(ce.Yy, ens.Y)
        assert np.array_equal(ce.Zy, ens.Z)

    def test_post_coalescence_z_gap_decays(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=2.0, n_paths=5_000, seed=15, record_times=(1.0, 2.0))
        ce = simulate_coupled(p, (1.2, 2.0), (1.0, 0.0), cfg)
        done = ce.coalesced_by(1.0)
        assert done.sum() > 100
        g1 = np.abs(ce.Zx[0] - ce.Zy[0])[done]
        g2 = np.abs(ce.Zx[1] - ce.Zy[1])[done]
        # exact exponential decay of the Z gap on coalesced paths
        assert np.allclose(g2, g1 * math.exp(-p.b2 * 1.0), rtol=1e-10)


class TestEmpirical:
    def test_time_not_recorded(self):
        p = make_params()
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=10, seed=18, record_times=(0.5,))
        ens = simulate_paths(p, (1.0, 0.0), cfg)
        with pytest.raises(TimeNotRecorded):
            ens.index_of(0.25)


class TestWeakOrder:
    def test_dt_halving_within_mc_error(self):
        p = make_params()
        means = []
        for dt in (0.02, 0.01):
            cfg = SimConfig(dt=dt, T=1.0, n_paths=100_000, seed=20)
            ens = simulate_paths(p, (1.0, 0.0), cfg)
            means.append(float(ens.Y[0].mean()))
            se = float(ens.Y[0].std(ddof=1) / math.sqrt(ens.n_paths))
        assert abs(means[0] - means[1]) < 3 * se

