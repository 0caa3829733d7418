"""Tests for the Jackson radial quadrature and the resolution check."""

import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquon import qcore
from biquon.cli import ConfigError, run_config
from biquon.pseudoquon import (
    IdentitySimilarity,
    RankOneDeformation,
    RankOneSimilarity,
    build_family,
    worked_deformation,
)
from biquon.resolution import (
    ROUNDOFF,
    quadrature_to_csv,
    residual_report,
    resolution_check,
    solve_moment_measure,
)


def quad_moment(quad, k: int) -> float:
    return float(np.sum(quad.weights * quad.nodes ** (2 * k)))


def moment(q: float, k: int) -> float:
    """Target radial moment m_k = [k]! / (2 pi)."""
    return qcore.q_number_factorial(q, k) / (2.0 * math.pi)


class TestMoments:
    def test_zeroth_moment_is_total_mass(self):
        # rho_0 = 2 pi sum_j w_j, the total mass in units of its target
        quad = solve_moment_measure(0.5, 2)
        assert quad.residuals[0] == pytest.approx(
            abs(2.0 * math.pi * np.sum(quad.weights) - 1.0), abs=1e-16)
        assert quad.residuals[0] <= 1e-15

    def test_factorial_identity(self):
        # 2 pi m_k recovers the squared q-factorial
        quad = solve_moment_measure(0.3, 8)
        for k in range(8):
            assert 2.0 * math.pi * quad_moment(quad, k) == pytest.approx(
                qcore.q_factorial_sq(0.3, k - 1), rel=1e-14)


class TestSolver:
    def test_total_mass_matched(self):
        quad = solve_moment_measure(0.5, 12)
        assert quad_moment(quad, 0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
    def test_gauss_path_residuals(self, q):
        quad = solve_moment_measure(q, 8)
        assert quad.method == "jackson"
        assert quad.max_residual < 1e-10
        for k in range(8):
            assert quad_moment(quad, k) == pytest.approx(
                moment(q, k), rel=2e-10)

    @pytest.mark.parametrize("k_mom", [12, 24, 60])
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_moment_residuals_at_roundoff(self, q, k_mom):
        quad = solve_moment_measure(q, k_mom)
        assert len(quad.residuals) == k_mom
        assert quad.max_residual <= 1e-13

    @pytest.mark.parametrize("q", [0.05, 0.5, 0.99])
    def test_truncation_is_first_index_below_roundoff(self, q):
        quad = solve_moment_measure(q, 12)
        n_atoms = len(quad.nodes)
        assert quad.tail_bound == pytest.approx(q ** n_atoms / (1.0 - q), rel=1e-12)
        assert quad.tail_bound < ROUNDOFF
        assert q ** (n_atoms - 1) / (1.0 - q) >= ROUNDOFF
        report = residual_report(quad)
        assert report["tail_bound"] == quad.tail_bound
        assert report["n_atoms"] == n_atoms
        assert report["method"] == "jackson"

    def test_atoms_are_jackson_points(self):
        q = 0.3
        quad = solve_moment_measure(q, 12)
        j = np.arange(len(quad.nodes))
        assert np.allclose(quad.nodes, qcore.disc_radius(q) * q ** (j / 2.0),
                           rtol=1e-14, atol=0.0)
        # w_j = q^j (q^{j+1}; q)_inf / (2 pi), the infinite product taken
        # far past the truncation
        expected = [q ** i * np.prod(1.0 - q ** np.arange(i + 1, 200))
                    / (2.0 * math.pi) for i in j]
        assert np.allclose(quad.weights, expected, rtol=1e-14, atol=0.0)

    def test_weights_nonnegative_nodes_inside(self):
        for q in (0.1, 0.5, 0.9):
            quad = solve_moment_measure(q, 12)
            assert np.all(quad.weights >= 0.0)
            assert np.all(quad.nodes >= 0.0)
            # the measure lives on [0, rho]: only the j = 0 atom is on the rim
            assert quad.nodes[0] == quad.rho
            assert np.all(quad.nodes[1:] < quad.rho)

    def test_near_boson_moments(self):
        # close to q = 1 the matched moments approach k!/(2 pi)
        q = 0.999
        quad = solve_moment_measure(q, 10)
        for k in range(5):
            assert quad_moment(quad, k) == pytest.approx(
                math.factorial(k) / (2.0 * math.pi), rel=1e-2)

    def test_large_kmom_accepted(self):
        quad = solve_moment_measure(0.5, 30)
        assert quad.max_residual <= 1e-13

    def test_kmom_4000_at_roundoff(self):
        # the unscaled moment m_k = [k]!/(2 pi) overflows double from k = 1024
        # at q = 0.5; the scaled rho_k stay at 1
        quad = solve_moment_measure(0.5, 4000)
        assert len(quad.residuals) == 4000
        assert quad.max_residual <= 1e-13

    @pytest.mark.parametrize("q", [0.5, 0.99, 0.997])
    def test_every_moment_held(self, q):
        assert solve_moment_measure(q, 12).moment_limit == math.inf

    def test_moments_held_up_to_limit_near_one(self):
        # at q = 0.999 the weights of the first atoms fall below the smallest
        # normal double; rho_k stays at roundoff for k < moment_limit
        q = 0.999
        limit = solve_moment_measure(q, 12).moment_limit
        assert limit == 286
        quad = solve_moment_measure(q, limit)
        assert np.all(np.isfinite(quad.residuals))
        assert quad.max_residual <= 1e-12

    def test_q_too_close_to_one_rejected(self):
        with pytest.raises(ValueError, match="atoms"):
            solve_moment_measure(1.0 - 1e-6, 12)

    def test_small_kmom_rejected(self):
        with pytest.raises(ValueError):
            solve_moment_measure(0.5, 1)

    def test_csv_export(self):
        quad = solve_moment_measure(0.5, 8)
        buf = io.StringIO()
        quadrature_to_csv(quad, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "r,w"
        assert len(lines) == len(quad.nodes) + 1


class TestAngularExactness:
    def test_trapezoid_kills_cross_terms(self):
        n_theta, k_max = 64, 12
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        for k in range(k_max + 1):
            for l in range(k_max + 1):
                val = np.sum(np.exp(1j * (k - l) * theta)) * (2 * np.pi / n_theta)
                expected = 2.0 * np.pi if k == l else 0.0
                assert abs(val - expected) < 1e-12


@pytest.fixture(scope="module")
def setup():
    q, dim = 0.5, 64
    quad = solve_moment_measure(q, 12)
    identity = build_family(IdentitySimilarity(), q, dim)
    worked = build_family(RankOneSimilarity(worked_deformation(1j)), q, dim)
    return q, dim, quad, identity, worked


class TestResolutionCheck:
    def basis(self, dim, n):
        e = np.zeros(dim, dtype=complex)
        e[n] = 1.0
        return e

    def test_vacuum_identity(self, setup):
        _, dim, quad, identity, _ = setup
        e0 = self.basis(dim, 0)
        val = resolution_check(identity, quad, 64, e0, e0)
        assert abs(val - 1.0) < 1e-10

    def test_moment_telescoping_identity_family(self, setup):
        # for f = g = e_k the integral reduces algebraically to
        # 2 pi (matched moment_k) / (beta_{k-1}!)^2, which is 1 when the
        # moment is exact; verify both the reduction and the near-1 value
        q, dim, quad, identity, _ = setup
        for k in range(6):
            e_k = self.basis(dim, k)
            val = resolution_check(identity, quad, 64, e_k, e_k)
            reduced = 2.0 * math.pi * quad_moment(quad, k) \
                / qcore.q_factorial_sq(q, k - 1)
            assert abs(val - reduced) < 1e-12
            exact = 2.0 * math.pi * moment(q, k) / qcore.q_factorial_sq(q, k - 1)
            assert exact == pytest.approx(1.0, rel=1e-14)
            assert abs(val - 1.0) < 1e-9

    def test_off_diagonal_vanishes(self, setup):
        _, dim, quad, _, worked = setup
        val = resolution_check(worked, quad, 64, self.basis(dim, 1),
                               self.basis(dim, 3))
        assert abs(val) < 1e-9

    def test_superposition_pair(self, setup):
        _, dim, quad, _, worked = setup
        f = (self.basis(dim, 0) + self.basis(dim, 2)) / math.sqrt(2.0)
        val = resolution_check(worked, quad, 64, f, f)
        assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("kind", ["identity", "worked"])
    def test_seeded_random_pairs(self, setup, kind):
        _, dim, quad, identity, worked = setup
        family = identity if kind == "identity" else worked
        rng = np.random.default_rng(321)
        for _ in range(20):
            f = np.zeros(dim, dtype=complex)
            g = np.zeros(dim, dtype=complex)
            f[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            g[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            val = resolution_check(family, quad, 64, f, g)
            assert abs(val - np.vdot(f, g)) < 1e-8

    def test_too_few_angles_rejected(self, setup):
        _, dim, quad, identity, _ = setup
        f = self.basis(dim, 5)
        with pytest.raises(ValueError):
            resolution_check(identity, quad, 10, f, f)

    def test_q_mismatch_rejected(self, setup):
        _, dim, quad, identity, _ = setup
        other = build_family(IdentitySimilarity(), 0.4, dim)
        with pytest.raises(ValueError):
            resolution_check(other, quad, 64, self.basis(dim, 0),
                             self.basis(dim, 0))


# u = e_0 + 0.3 e_6 + (0.2 + 0.1i) e_11 and v = e_0 + (0.1 + 0.2i) e_8: the
# overlaps of vectors supported on the first 6 indices reach index 11
COMPACT = RankOneDeformation.from_alpha(
    [1, 0, 0, 0, 0, 0, 0.3, 0, 0, 0, 0, 0.2 + 0.1j], [1, 0, 0, 0, 0, 0, 0, 0, 0.1 + 0.2j], 1j)
SOURCES = {
    "identity": IdentitySimilarity(),
    "worked": RankOneSimilarity(worked_deformation(1j)),
    "compact": RankOneSimilarity(COMPACT),
}


def per_atom_resolution(family, quad, n_theta, f, g) -> complex:
    """Reference: the resolution sum evaluated atom by atom and angle by angle,
    up to the last index where either overlap is nonzero."""
    fact = np.array([qcore.q_factorial(family.q, k - 1) for k in range(family.K)])
    a_k = (family.phi.adjoint() @ np.asarray(f, dtype=complex)).conj() / fact
    b_l = (family.psi.adjoint() @ np.asarray(g, dtype=complex)) / fact
    reach = 1 + int(np.flatnonzero((a_k != 0) | (b_l != 0)).max(initial=-1))
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    total = 0.0 + 0.0j
    for r_j, w_j in zip(quad.nodes, quad.weights):
        z = r_j * np.exp(1j * theta)
        powers = z[:, None] ** np.arange(reach)[None, :]
        f_series = powers @ a_k[:reach]            # N^{-1} <f, phi(z)>
        g_series = powers.conj() @ b_l[:reach]     # N^{-1} <psi(z), g>
        total += w_j * np.sum(f_series * g_series)
    return complex(total * (2.0 * math.pi / n_theta))


class TestJacksonProperties:
    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.05, 0.99), k=st.integers(0, 39))
    def test_moments_match_targets(self, q, k):
        quad = solve_moment_measure(q, 40)
        assert quad_moment(quad, k) == pytest.approx(moment(q, k), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.05, 0.99), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(sorted(SOURCES)))
    def test_contraction_matches_per_atom_loop(self, q, seed, kind):
        dim = 16
        family = build_family(SOURCES[kind], q, dim)
        quad = solve_moment_measure(q, 12)
        rng = np.random.default_rng(seed)
        f = np.zeros(dim, dtype=complex)
        g = np.zeros(dim, dtype=complex)
        f[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        expected = per_atom_resolution(family, quad, 64, f, g)
        assert abs(resolution_check(family, quad, 64, f, g) - expected) \
            <= 1e-12 * max(1.0, abs(expected))


class TestWholeSafeBlock:
    """support = safe_dim at K = 4096: the overlaps reach the whole safe
    block, far past any power of rho that double precision holds."""

    @pytest.mark.parametrize("q", [0.5, 0.99])
    @pytest.mark.parametrize("kind", ["identity", "worked"])
    def test_resolution_over_safe_block(self, q, kind):
        K = 4096
        safe_dim = SOURCES[kind].safe_dim(K)
        family = {"kind": kind} if kind == "identity" else \
            {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]}
        cfg = {"q": q, "K": K, "family": family, "seed": 7,
               "tasks": [{"task": "resolution", "support": safe_dim, "K_mom": K,
                          "n_theta": 2 * safe_dim, "n_pairs": 2}]}
        tracemalloc.start()
        start = time.perf_counter()
        try:
            summary, code = run_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"q={q} {kind}: {time.perf_counter() - start:.2f} s, "
              f"traced peak {peak / 2 ** 20:.1f} MB")
        report = summary["tasks"]["resolution"]
        assert code == 0
        assert report["max_residual"] <= 1e-8
        assert report["moment_residual"] <= 1e-13
        assert peak < 32 * 2 ** 20

    def test_near_boson_safe_block_bounded_by_moment_limit(self):
        # q = 0.999: (q; q)_k underflows near k = 350 and the first atoms'
        # weights underflow; support = safe_dim needs rho_k past
        # the moment limit 286 and exits 2, support = 286 passes
        q, K = 0.999, 512
        safe_dim = SOURCES["identity"].safe_dim(K)
        quad = solve_moment_measure(q, 12)
        limit = quad.moment_limit

        def config(support: int) -> dict:
            return {"q": q, "K": K, "seed": 7,
                    "tasks": [{"task": "resolution", "support": support,
                               "n_theta": 2 * support, "n_pairs": 2}]}

        with pytest.raises(ConfigError, match=r"^tasks\[0\]\.support:"):
            run_config(config(safe_dim))
        summary, code = run_config(config(limit))
        assert code == 0
        assert summary["tasks"]["resolution"]["max_residual"] <= 1e-8
        family = build_family(SOURCES["identity"], q, K)
        f = np.zeros(K, dtype=complex)
        f[limit] = 1.0
        with pytest.raises(ValueError, match="hold"):
            resolution_check(family, quad, 2 * K, f, f)
