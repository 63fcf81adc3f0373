import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import affine_ergo
from affine_ergo import rng, simulator
from affine_ergo.errors import ConfigError, TimeNotRecorded
from affine_ergo.measures import LevyMeasure, levy_integral
from affine_ergo.model import ModelParams, load_model
from affine_ergo.riccati import cbi_mean, char_fn
from affine_ergo.mechanisms import UPoint
from affine_ergo.simulator import (
    BLOCK,
    SimConfig,
    _Compiled,
    _jumps,
    _JumpSpec,
    _step,
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


def spans_chunks(n_paths):
    """n_paths fill at least one chunk and end in a partial one."""
    return n_paths > rng.CHUNK_SIZE and n_paths % rng.CHUNK_SIZE != 0


def digest(*arrays):
    """SHA-256 of the arrays' raw bytes, signed zeros included."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


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


class TestTruncation:
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("name", ["cir_ou", "jump_cbi_ou", "gamma_imm"])
    def test_sampled_and_dropped_parts_sum_to_the_measure(self, name, eps):
        # the dropped small jumps, restored as drift, are the complement of
        # the sampled ones: an atom on the box's edge (jump_cbi_ou's z1 = 0.5
        # in m and n at eps 0.5, its m atom at z1 = 1 at eps 1) counts once
        p = bundled(name)
        z1 = lambda a, b: a
        for label, mu in (("m", p.m), ("n", p.n)):
            kept = levy_integral(mu.truncate_small(eps), z1)
            dropped = _JumpSpec(mu, eps, label).drop_mean_z1
            assert kept + dropped == pytest.approx(levy_integral(mu, z1), rel=1e-10, abs=0.0), label


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
        # two chunks, the last one partial, and 50 steps are not a multiple of BLOCK
        p = jump_model()
        base = dict(dt=0.01, T=0.5, n_paths=rng.CHUNK_SIZE + 3_000, seed=6,
                    record_times=(0.25, 0.5))
        assert spans_chunks(base["n_paths"])
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
        base = dict(dt=0.01, T=0.5, n_paths=rng.CHUNK_SIZE + 3_000, seed=9, record_times=(0.5,),
                    eps_trunc=0.5)
        assert spans_chunks(base["n_paths"])
        c1 = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), SimConfig(**base, threads=1))
        for threads in (2, 3, 8):
            cn = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), SimConfig(**base, threads=threads))
            for f in ("Yx", "Zx", "Yy", "Zy", "varsigma", "threshold_absorbed"):
                assert np.array_equal(getattr(c1, f), getattr(cn, f)), (f, threads)

    # SHA-256 of the raw output bytes (signed zeros included).  A mismatch
    # means a seed's output changed: bump `__version__`, recompute GOLDEN and
    # set GOLDEN_VERSION to the new version.
    GOLDEN_VERSION = "0.5.1"
    GOLDEN = {  # (Y, Z) of simulate_paths; all six arrays of simulate_coupled
        "cir_ou": (
            "13819f8de60bcfc18a24c0076f5815c4471f9036efd8e88055332ba1ddbe0798",
            "ca7822bc7e294028a4605da72ad7e7eedce386fa6d51735c591b0a9c528c5163",
        ),
        "jump_cbi_ou": (
            "27ecf952a5f38830eb307b1bbe1a7617cc12ec3fabe0fdf1b447f5bdb93a1a6c",
            "e06b02dccd919f5f0a92b05fc06c74bac5988ded4e3f06e17e86066863fb6680",
        ),
        "gamma_imm": (
            "2c5a807dda8c74c369a4ba2c4f86310b5e0cf77daad7c63b0becbe186cd0481a",
            "cbae63632e3052c0554173b4a992a9b26823d20e37bab621ff3f3e8fda3da93c",
        ),
        "atom_in_box": (
            "8b4b762f4da1dbb565e8d24c419a1033e92166454b5f2a03b58fdfc49714e065",
            "b671aee36b8068012a19e2b36c30335f2099d81cf622cf6524cd826fd014e34c",
        ),
        "full_alpha": (
            "7378e399f5b2df28ac7472347a01b5f971eea755de90d63e2c9bb50ad282f293",
            "68b47ed6567ee991da9ab2551bb34c8c8a97615d0aa41a388e51363a0f15b60d",
        ),
        "sigma_zero": (
            "5a29b431ef00fa5e9587eb39825467239f41db69faa37dc79c0674aa5c146662",
            "dd13b97d67de5ec3900eb71566598b8915069e2688057e481e142e3f4cbbd22e",
        ),
        "no_immigration": (
            "0c73ac4450d95ea528ee0cd32bcc854c037f3dae1c143f6ac37d7361c15209b2",
            "01e17399cc458c48018b5d7515ffbe5455a7e04b566c7f55c2e80b11ff978c24",
        ),
    }
    # Y of simulate_paths; Yx, Yy, varsigma and threshold_absorbed of
    # simulate_coupled.  A draw change that touches Z alone (as 0.3.0's
    # did) leaves these; 0.4.0 changed every draw and 0.5.0 every draw past
    # the first 8,192 paths, so they were recomputed.
    GOLDEN_Y = {
        "cir_ou": (
            "d2fbadfce96dd4c52d06d59e31d1496f88b62d42c371c2ff735d581e7486ad97",
            "4a825cfcd14f166986069b34bf3da5d2c0eba2ca270d2ee09f4d81878bd0e08b",
        ),
        "jump_cbi_ou": (
            "5411ea8078c5ad6406987a93367dc1c465b269622a2c6e1097cb5b03308da7cf",
            "f529f92b3c2439af9462ba591775e4552af13d838fd620c43abfba9555911164",
        ),
        "gamma_imm": (
            "c4e8e43402e9caaf9319d43a07b5d64b7b8664fac3cec98a71d012ba8f270b87",
            "e03786e196345a67841addbb4e405ee865ba8a9d9d1ea36575d167253a2b1da8",
        ),
        "atom_in_box": (
            "37c3fd62e55b64239741d3357e0bba85b8eb37e782463dcb0159f6834164004c",
            "a1406dec4cd65a784c6800c05ab280a895c0c1f6905f1007f5195459c34096ba",
        ),
        "full_alpha": (
            "17b36387f9c80373d0121e3c57084279a7cefe975b289fee538630e7838e8a6a",
            "1d862530b76618cfde0adeed1cf49418922bab37f76d4f4ac46e34d0798d351f",
        ),
        "sigma_zero": (  # sigma does not enter Y, so these are cir_ou's
            "d2fbadfce96dd4c52d06d59e31d1496f88b62d42c371c2ff735d581e7486ad97",
            "4a825cfcd14f166986069b34bf3da5d2c0eba2ca270d2ee09f4d81878bd0e08b",
        ),
        "no_immigration": (
            "f1a2b4b6c5ed74c142c02b05948ec1fe653e45008d64c213d87b169cc8a33c1d",
            "62d2c7f1759a9d28f9ceaee73f80376fce232f3b94887c61138b640fd26ffa97",
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
        # two chunks, the last one partial; atom_in_box has an m atom inside the eps box
        p = GOLDEN_MODELS[name]() if name in GOLDEN_MODELS else bundled(name)
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=rng.CHUNK_SIZE + 3_000, seed=23,
                        record_times=(0.25, 0.5), eps_trunc=eps, threads=threads)
        assert spans_chunks(cfg.n_paths)
        e = simulate_paths(p, (2.0, 1.0), cfg)
        c = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), cfg)
        got_y = (digest(e.Y), digest(c.Yx, c.Yy, c.varsigma, c.threshold_absorbed))
        assert got_y == self.GOLDEN_Y[name], "the draws of Y or of the coalescence times changed"
        got = (digest(e.Y, e.Z), digest(c.Yx, c.Zx, c.Yy, c.Zy, c.varsigma, c.threshold_absorbed))
        assert got == self.GOLDEN[name], "draws changed: bump `__version__` and update the digests"

    # Runs of at most 8,192 paths were one chunk under 0.4.0 as they are
    # now, so their draws are 0.4.0's: this digest was computed at 0.4.0.
    SMALL_RUNS_040 = "33b9d0b17ec688c933911836261a08b594c80367b61b35e47de91a6cddae0b72"

    def test_small_runs_unchanged_since_040(self):
        arrays = []
        for name, eps in (("cir_ou", 0.0), ("jump_cbi_ou", 0.6), ("gamma_imm", 1e-2)):
            p = bundled(name)
            for n in (5_000, 8_192):
                cfg = SimConfig(dt=0.01, T=0.5, n_paths=n, seed=24, record_times=(0.25, 0.5),
                                eps_trunc=eps, threads=2)
                e = simulate_paths(p, (2.0, 1.0), cfg)
                c = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), cfg)
                arrays += [e.Y, e.Z, c.Yx, c.Zx, c.Yy, c.Zy, c.varsigma, c.threshold_absorbed]
        assert digest(*arrays) == self.SMALL_RUNS_040

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_pool_counts_calling_thread(self, threads, monkeypatch):
        # the calling thread steps the paths; threads - 1 workers draw normals ahead
        opened = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(simulator, "ThreadPoolExecutor", Recording)
        cfg = SimConfig(dt=0.1, T=0.5, n_paths=100, seed=25, threads=threads)
        simulate_paths(make_params(), (1.0, 0.0), cfg)
        simulate_coupled(make_params(), (2.0, 0.0), (1.0, 0.0), cfg)
        assert opened == ([threads - 1] * 2 if threads > 1 else [])


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
    """The thinned counts of `_jumps`: one Poisson total of candidates per
    step, on uniform paths, each kept with probability intensity / max."""

    @staticmethod
    def counts(intensity, n, steps, h, seed):
        # unit z1 jumps: the per-path sum of z1 is the per-path count
        spec = _JumpSpec(LevyMeasure.atomic([(1.0, 0.0, 2.0)]), 0.0, "m")
        g_count, g_jump = np.random.default_rng(seed), np.random.default_rng(seed + 1)
        total = np.zeros(n)
        for _ in range(steps):
            j = _jumps(spec, g_count, g_jump, intensity, h, n)
            if j is not None:
                paths, z1, _ = j
                np.add.at(total, paths, z1)
        return total

    def test_zero_intensity_never_jumps(self):
        # zero-intensity paths at both ends and in between
        intensity = np.tile([0.0, 1.0, 3.0, 0.0], 250)
        c = self.counts(intensity, intensity.size, 200, 0.01, 40)
        assert np.all(c[intensity == 0.0] == 0.0)
        assert np.all(c[intensity == 3.0] > 0.0)
        spec = _JumpSpec(LevyMeasure.atomic([(1.0, 0.0, 2.0)]), 0.0, "m")
        g = np.random.default_rng(43)
        assert _jumps(spec, g, g, np.zeros(100), 10.0, 100) is None

    def test_zero_y_gets_no_branching_jump(self):
        # no immigration: paths at Y = 0 stay there although m has mass
        p = make_params(a2=0.0, m=LevyMeasure.atomic([(0.5, 0.2, 4.0)]))
        cfg = SimConfig(dt=0.01, T=1.0, n_paths=500, seed=41, record_times=(0.5, 1.0))
        assert np.all(simulate_paths(p, (0.0, 0.3), cfg).Y == 0.0)
        assert np.all(simulate_coupled(p, (1.0, 0.3), (0.0, 0.0), cfg).Yy == 0.0)

    @pytest.mark.parametrize("intensity", [
        np.repeat([0.25, 1.0, 4.0], 4000),
        # ten paths hold most of the intensity (max / mean ~ 240): most
        # candidates land on the other paths and are rejected
        np.concatenate([np.full(10, 400.0), np.ones(11_990)]),
        1.0,
    ])
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


class TestStreams:
    def test_keyed_streams(self):
        # distinct (seed, chunk, id) triples give distinct streams, among
        # them triples whose parts are permuted or sum to the same key
        triples = [(s, c, i) for s in (0, 1, 2) for c in (0, 1, 2) for i in (0, 1, 9)]
        first = {t: tuple(rng.stream(*t).integers(0, 2**63, 4)) for t in triples}
        assert len(set(first.values())) == len(triples)
        for t in triples:
            assert tuple(rng.stream(*t).integers(0, 2**63, 4)) == first[t], t
        a, b = rng.stream(5, 3, rng.W1), rng.stream(5, 3, rng.W1)
        assert np.array_equal(a.standard_normal(1000), b.standard_normal(1000))


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

    def test_copies_in_callers_order(self):
        # x below y: (Yx, Zx) is the copy from x, the lower start, and so
        # consumes the noise of a single run from x
        p = make_params()
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=50, seed=14, record_times=(0.5,))
        ce = simulate_coupled(p, (0.5, 2.0), (1.5, 0.0), cfg)
        assert np.all(ce.Yy >= ce.Yx)
        ens = simulate_paths(p, (0.5, 2.0), cfg)
        assert np.array_equal(ce.Yx, ens.Y) and np.array_equal(ce.Zx, ens.Z)

    @pytest.mark.parametrize("name,eps", [("cir_ou", 0.0), ("jump_cbi_ou", 0.05), ("gamma_imm", 1e-2)])
    def test_base_copy_matches_simulate_paths(self, name, eps):
        # the lower-start copy consumes exactly the noise of a single run from its start
        p = bundled(name)
        cfg = SimConfig(dt=0.01, T=0.5, n_paths=rng.CHUNK_SIZE + 3_000, seed=22,
                        record_times=(0.25, 0.5), eps_trunc=eps)
        assert spans_chunks(cfg.n_paths)
        ce = simulate_coupled(p, (2.0, 1.0), (1.0, 0.0), cfg)
        ens = simulate_paths(p, (1.0, 0.0), cfg)
        assert np.array_equal(ce.Yy, ens.Y)
        assert np.array_equal(ce.Zy, ens.Z)

    @pytest.mark.parametrize("model", [full_alpha_model, lambda: make_params(a1=-0.5)],
                             ids=["full_alpha", "negative_a1"])
    def test_absorbed_d_stays_positive_zero(self, model):
        # on an absorbed path the folded drift subtracts y1*0 (a signed zero
        # of either sign) and the diffusion terms add +-0.0; D stays +0.0
        n = 1000
        cfg = SimConfig(dt=0.01, T=0.2, n_paths=n, seed=0)
        diff = _Compiled(model(), cfg).difference()
        g = {sid: rng.stream(cfg.seed, 0, sid) for sid in range(rng.N_USED)}
        normals, gn, gm = diff.noise(g, n, None)
        D = np.where(np.arange(n) % 2, 0.0, 0.5)
        dZ = np.ones(n)
        buf = np.empty((3, n))
        for _ in range(cfg.n_steps):
            _step(diff, *normals(), gn, gm, D, dZ, buf)
            absorbed = D[1::2]
            assert np.all(absorbed == 0.0) and not np.any(np.signbit(absorbed))
        assert np.any(D[::2] != 0.5)

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
        # Without jumps E[Y] of the Euler chain follows m <- m + (a2 - a1*m)*h
        # as long as the clamp at 0 does not act, so after K = T/h steps
        # m(h) = a2/a1 + (x1 - a2/a1)*(1 - a1*h)^K.  Each sample mean is
        # checked against its own m(h), and m(h) against the exact mean for
        # the bias of a weak-order-1 scheme, which halves with h.
        p = make_params()
        x1, T = 1.0, 1.0
        exact = cbi_mean(p, x1, T)
        bias = {}
        for dt in (0.02, 0.01):
            cfg = SimConfig(dt=dt, T=T, n_paths=100_000, seed=20)
            ens = simulate_paths(p, (x1, 0.0), cfg)
            mean = float(ens.Y[0].mean())
            se = float(ens.Y[0].std(ddof=1) / math.sqrt(ens.n_paths))
            m_h = p.a2 / p.a1 + (x1 - p.a2 / p.a1) * (1 - p.a1 * dt) ** cfg.n_steps
            assert abs(mean - m_h) < 3 * se, dt
            bias[dt] = m_h - exact
        assert bias[0.02] == pytest.approx(2 * bias[0.01], rel=0.02)
        assert abs(bias[0.01]) > 1e-3  # the check sees the Euler bias
