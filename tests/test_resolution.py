"""Tests for the Jackson radial quadrature and the resolution check."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquon import qcore
from biquon.cli import run_config
from biquon.pseudoquon import (
    Deformation,
    build_family,
    worked_deformation,
)
from biquon.resolution import (
    ROUNDOFF,
    residual_report,
    resolution_check,
    solve_moment_measure,
)


def quad_moment(quad, k: int) -> float:
    return float(np.sum(quad.weights * quad.nodes ** (2 * k)))


def moment(q: float, k: int) -> float:
    """Target radial moment m_k = [k]! / (2 pi)."""
    return qcore.BetaSequence(q, k).factorial_sq[k] / (2.0 * math.pi)


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
        fact_sq = qcore.BetaSequence(0.3, 8).factorial_sq
        for k in range(8):
            assert 2.0 * math.pi * quad_moment(quad, k) == pytest.approx(fact_sq[k], rel=1e-14)


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

    @pytest.mark.parametrize("q", [0.5, 0.99, 0.997, 0.999, 0.9999])
    def test_every_moment_held(self, q):
        # rho_k over the safe block of a K = 1024 family; from q ~ 0.998 the
        # first weights fall below the smallest normal double
        quad = solve_moment_measure(q, SOURCES["identity"].safe_dim(1024))
        assert (quad.weights[0] < np.finfo(float).tiny) == (q > 0.998)
        assert quad.max_residual <= 1e-12

    def test_q_too_close_to_one_rejected(self):
        with pytest.raises(ValueError, match="atoms"):
            solve_moment_measure(1.0 - 1e-6, 12)

    def test_small_kmom_rejected(self):
        with pytest.raises(ValueError):
            solve_moment_measure(0.5, 1)


@pytest.fixture(scope="module")
def setup():
    q, dim = 0.5, 64
    quad = solve_moment_measure(q, 12)
    identity = build_family(Deformation(), q, dim)
    worked = build_family(worked_deformation(1j), q, dim)
    return q, dim, quad, identity, worked


class TestResolutionCheck:
    def basis(self, dim, n):
        e = np.zeros(dim, dtype=complex)
        e[n] = 1.0
        return e

    def test_vacuum_identity(self, setup):
        _, dim, quad, identity, _ = setup
        e0 = self.basis(dim, 0)
        val = resolution_check(identity, quad, e0, e0)
        assert abs(val - 1.0) < 1e-10

    def test_moment_telescoping_identity_family(self, setup):
        # for f = g = e_k the integral reduces algebraically to
        # 2 pi (matched moment_k) / (beta_{k-1}!)^2, which is 1 when the
        # moment is exact; verify both the reduction and the near-1 value
        q, dim, quad, identity, _ = setup
        fact_sq = qcore.BetaSequence(q, 6).factorial_sq         # (beta_{k-1}!)^2
        for k in range(6):
            e_k = self.basis(dim, k)
            val = resolution_check(identity, quad, e_k, e_k)
            reduced = 2.0 * math.pi * quad_moment(quad, k) / fact_sq[k]
            assert abs(val - reduced) < 1e-12
            exact = 2.0 * math.pi * moment(q, k) / fact_sq[k]
            assert exact == pytest.approx(1.0, rel=1e-14)
            assert abs(val - 1.0) < 1e-9

    def test_off_diagonal_vanishes(self, setup):
        _, dim, quad, _, worked = setup
        val = resolution_check(worked, quad, self.basis(dim, 1),
                               self.basis(dim, 3))
        assert abs(val) < 1e-9

    def test_superposition_pair(self, setup):
        _, dim, quad, _, worked = setup
        f = (self.basis(dim, 0) + self.basis(dim, 2)) / math.sqrt(2.0)
        val = resolution_check(worked, quad, f, f)
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
            val = resolution_check(family, quad, f, g)
            assert abs(val - np.vdot(f, g)) < 1e-8

    def test_q_mismatch_rejected(self, setup):
        _, dim, quad, identity, _ = setup
        other = build_family(Deformation(), 0.4, dim)
        with pytest.raises(ValueError):
            resolution_check(other, quad, self.basis(dim, 0),
                             self.basis(dim, 0))


# u = e_0 + 0.3 e_6 + (0.2 + 0.1i) e_11 and v = e_0 + (0.1 + 0.2i) e_8: the
# overlaps of vectors supported on the first 6 indices reach index 11
COMPACT = Deformation(
    [1, 0, 0, 0, 0, 0, 0.3, 0, 0, 0, 0, 0.2 + 0.1j], [1, 0, 0, 0, 0, 0, 0, 0, 0.1 + 0.2j], 1j)
SOURCES = {
    "identity": Deformation(),
    "worked": worked_deformation(1j),
    "compact": COMPACT,
}


def overlaps(family, f, g) -> tuple[np.ndarray, np.ndarray, int]:
    """<f, phi_k> / beta_{k-1}!, <psi_l, g> / beta_{l-1}! and their reach,
    one plus the last index where either is nonzero."""
    fact = qcore.BetaSequence(family.q, family.K).factorial[:family.K]
    a_k = (family.phi.adjoint() @ np.asarray(f, dtype=complex)).conj() / fact
    b_l = (family.psi.adjoint() @ np.asarray(g, dtype=complex)) / fact
    return a_k, b_l, 1 + int(np.flatnonzero((a_k != 0) | (b_l != 0)).max(initial=-1))


def per_atom_resolution(family, quad, n_theta, f, g) -> complex:
    """Reference: the resolution sum evaluated atom by atom and on n_theta
    equally spaced angles, up to the reach of the overlaps."""
    a_k, b_l, reach = overlaps(family, f, g)
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
        got = resolution_check(family, quad, f, g)
        # n angles are exact on e^{i(k-l) theta} for |k - l| < n, so the
        # fewest exact points are the reach; one fewer aliases the corners
        reach = overlaps(family, f, g)[2]
        for n_theta in (reach, 64):
            expected = per_atom_resolution(family, quad, n_theta, f, g)
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))
        aliased = per_atom_resolution(family, quad, reach - 1, f, g)
        assert abs(aliased - got) > 1e-6 * max(1.0, abs(got))


    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.05, 0.99), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(sorted(SOURCES)), n_pairs=st.integers(1, 8))
    def test_batch_matches_per_pair_loop(self, q, seed, kind, n_pairs):
        # column j is supported on its first 1 + j % 6 indices, so the
        # columns reach different indices and the batch sums to the largest
        dim = 16
        family = build_family(SOURCES[kind], q, dim)
        quad = solve_moment_measure(q, 12)
        rng = np.random.default_rng(seed)
        f, g = np.zeros((2, dim, n_pairs), dtype=complex)
        for j in range(n_pairs):
            n = 1 + j % 6
            f[:n, j] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            g[:n, j] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        batch = resolution_check(family, quad, f, g)
        assert batch.shape == (n_pairs,)
        for j in range(n_pairs):
            one = resolution_check(family, quad, f[:, j], g[:, j])
            assert abs(batch[j] - one) <= 1e-13 * max(1.0, abs(one))


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
                          "n_pairs": 2}]}
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

    @pytest.mark.parametrize("support", [680, 1022])
    def test_near_boson_safe_block_passes(self, support):
        # q = 0.999: the first atoms' weights underflow, and (q; q)_k does
        # near k = 350; the overlaps reach the whole safe block all the same
        summary, code = run_config({"q": 0.999, "K": 1024, "seed": 7,
                                    "tasks": [{"task": "resolution", "support": support,
                                               "n_pairs": 2}]})
        assert code == 0
        assert summary["tasks"]["resolution"]["max_residual"] <= 1e-8
