"""Acceptance suite: every numbered contract check, with its tolerance.

Each check produces a :class:`CheckResult`; the CLI prints them and the
test suite asserts them one by one.  A result may be marked
``known_discrepancy`` when the check is expected to fail for a documented
mathematical reason; such results are reported loudly but excluded from
the process exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bicoherent, positionrep, pseudoquon, qcore, resolution
from .fock import qmutator_residual

__all__ = ["CheckResult", "run_all", "format_results", "DEFAULT_SEED"]

DEFAULT_SEED = 1234


@dataclass
class CheckResult:
    criterion: str
    value: float
    tolerance: float
    passed: bool
    known_discrepancy: bool = False
    note: str = ""
    detail: dict = field(default_factory=dict)

    @property
    def unexpected_failure(self) -> bool:
        return not self.passed and not self.known_discrepancy


def _result(criterion: str, value: float, tolerance: float, **kw) -> CheckResult:
    return CheckResult(criterion=criterion, value=float(value),
                       tolerance=tolerance, passed=bool(value <= tolerance), **kw)


def _worked_family(q: float, dim: int):
    source = pseudoquon.RankOneSimilarity(pseudoquon.worked_deformation(1j))
    family = pseudoquon.build_family(source, q, dim)
    a, b = pseudoquon.make_pair(source, q, dim)
    return source, family, a, b


def _identity_family(q: float, dim: int):
    source = pseudoquon.IdentitySimilarity()
    family = pseudoquon.build_family(source, q, dim)
    a, b = pseudoquon.make_pair(source, q, dim)
    return source, family, a, b


def check_qmutator(rng) -> list[CheckResult]:
    worst = 0.0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        for build in (_identity_family, _worked_family):
            source, family, a, b = build(q, 64)
            worst = max(worst, qmutator_residual(a, b, q, family.safe_dim))
    return [_result("01-qmutator-identity", worst, 1e-12)]


def check_biorthogonality(rng) -> list[CheckResult]:
    _, family, _, _ = _worked_family(0.4, 64)
    return [_result("02-biorthogonality", pseudoquon.gram_deviation(family), 1e-11)]


def check_ladder(rng) -> list[CheckResult]:
    worst = 0.0
    for q in (0.3, 0.7):
        for build in (_identity_family, _worked_family):
            _, family, a, b = build(q, 64)
            worst = max(worst, pseudoquon.check_ladder(family, a, b)["max_residual"])
    out = [_result("03a-ladder-fock", worst, 1e-11)]
    pos = positionrep.ladder_check(positionrep.PositionParams(0.5, 0.6), 6)
    out.append(_result("03b-ladder-position", pos["max_residual"], 1e-10))
    return out


def check_number_operator(rng) -> list[CheckResult]:
    worst = 0.0
    spec_dev = 0.0
    for q in (0.3, 0.7):
        _, family, a, b = _worked_family(q, 64)
        rep = pseudoquon.number_eigencheck(family, a, b)
        worst = max(worst, rep["residual_phi"], rep["residual_psi"])
        safe = family.safe_dim
        nmat = (b.matrix @ a.matrix)[:safe, :safe]
        ev = np.linalg.eigvals(nmat)
        ev_dag = np.linalg.eigvals(nmat.conj().T)
        spec_dev = max(spec_dev,
                       float(np.max(np.abs(np.sort(ev.real) - np.sort(ev_dag.real)))),
                       float(np.max(np.abs(ev.imag))))
    return [
        _result("04a-number-eigenvalues", worst, 1e-11),
        _result("04b-number-isospectral", spec_dev, 1e-9),
    ]


def check_theta(rng) -> list[CheckResult]:
    q = 0.4
    source, family, a, b = _worked_family(q, 64)
    theta = pseudoquon.build_theta(family)
    theta_inv = pseudoquon.build_theta_inverse(family)
    closed = pseudoquon.closed_form_theta(source, 64)
    series_dev = float(np.max(np.abs(theta.matrix - closed.matrix)))
    conj = pseudoquon.check_theta_conjugate(a, b, theta, family.safe_dim, family)
    inv_dev = float(np.max(np.abs(theta.matrix @ theta_inv.matrix - np.eye(64))))
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (theta.matrix + theta.matrix.conj().T))))
    return [
        _result("05a-theta-series-vs-closed", series_dev, 1e-11),
        _result("05b-theta-conjugation", conj["conjugation_residual"], 1e-10),
        _result("05c-theta-inverse", inv_dev, 1e-11),
        CheckResult("05d-theta-positive", eigmin, 0.0, passed=eigmin > 0.0,
                    note="value is the smallest eigenvalue; must be positive"),
    ]


def check_bicoherent_eigen(rng) -> list[CheckResult]:
    q, dim = 0.5, 256
    _, family, a, b = _worked_family(q, dim)
    rho = bicoherent.family_radius(family)
    worst_eig = worst_pair = 0.0
    for frac in np.linspace(0.18, 0.9, 5):
        for theta in 2 * np.pi * np.arange(8) / 8:
            z = frac * rho * np.exp(1j * theta)
            state = bicoherent.bicoherent_state(family, z)
            r_phi, r_psi = bicoherent.eigen_check(state, a, b)
            worst_eig = max(worst_eig, r_phi, r_psi)
            worst_pair = max(worst_pair, abs(bicoherent.pairing(state) - 1.0))
    return [
        _result("06a-bicoherent-eigen", worst_eig, 1e-9),
        _result("06b-bicoherent-pairing", worst_pair, 1e-9),
    ]


def check_radii(rng) -> list[CheckResult]:
    worst_rank_one = worst_pos = 0.0
    worst_emp_rank_one = worst_emp_pos = 0.0
    for q in (0.3, 0.5, 0.8):
        _, family, _, _ = _worked_family(q, 48)
        norms = np.linalg.norm(family.phi, axis=1)
        norms_psi = np.linalg.norm(family.psi, axis=1)
        rep = bicoherent.radius_report(norms, norms_psi, q, "riesz")
        target = qcore.disc_radius(q)
        worst_rank_one = max(worst_rank_one, abs(rep.rho - target) / target)
        worst_emp_rank_one = max(
            worst_emp_rank_one,
            abs(rep.empirical_rho_phi - target) / target,
            abs(rep.empirical_rho_psi - target) / target)

        params = positionrep.PositionParams(q, 0.5)
        pos_norms = positionrep.family_norms(params, 40)
        rep_pos = bicoherent.radius_report(pos_norms, pos_norms, q, "position")
        target_pos = math.sqrt(1.0 - q)
        worst_pos = max(worst_pos, abs(rep_pos.rho - target_pos) / target_pos)
        worst_emp_pos = max(worst_emp_pos,
                            abs(rep_pos.empirical_rho_phi - target_pos) / target_pos)
    return [
        _result("07a-radius-rank-one-analytic", worst_rank_one, 1e-12),
        _result("07b-radius-position-analytic", worst_pos, 1e-12),
        _result("07c-radius-rank-one-empirical", worst_emp_rank_one, 0.05),
        _result("07d-radius-position-empirical", worst_emp_pos, 0.05,
                known_discrepancy=True,
                note="root test on measured norms estimates the true series "
                     "radius 1/sqrt(1-q); the guaranteed-bound radius "
                     "sqrt(1-q) is smaller by the factor 1-q (the family "
                     "norms stay polynomially bounded), so a 5% match is "
                     "unattainable"),
    ]


def check_resolution(rng) -> list[CheckResult]:
    q, dim = 0.5, 64
    quad = resolution.solve_moment_measure(q, 12)
    worst = 0.0
    for build in (_identity_family, _worked_family):
        _, family, _, _ = build(q, dim)
        for _ in range(20):
            f = np.zeros(dim, dtype=complex)
            g = np.zeros(dim, dtype=complex)
            f[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            g[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            val = resolution.resolution_check(family, quad, 64, f, g)
            worst = max(worst, abs(val - np.vdot(f, g)))
    return [_result("08-resolution-identity", worst, 1e-8,
                    detail={"quadrature_method": quad.method,
                            "moment_residual": quad.max_residual})]


def check_uncertainty(rng) -> list[CheckResult]:
    worst = 0.0
    for q in (0.5, 0.9):
        _, family, a, b = _worked_family(q, 256)
        rho = bicoherent.family_radius(family)
        for frac in (0.0, 0.3, 0.6):
            z = frac * rho * np.exp(0.4j)
            res = bicoherent.uncertainty_product(family, a, b, z)
            worst = max(worst, abs(res.product - res.predicted))
    _, fam1, a1, b1 = _identity_family(1.0 - 1e-6, 64)
    res1 = bicoherent.uncertainty_product(fam1, a1, b1, 0.9 + 0.2j)
    return [
        _result("09a-uncertainty-product", worst, 1e-7),
        _result("09b-uncertainty-boson-limit", abs(res1.product - 0.5), 1e-4),
    ]


def check_position_example(rng) -> list[CheckResult]:
    coeff_dev = 0.0
    for q in (0.3, 0.6):
        params = positionrep.PositionParams(q, 0.5)
        e = math.exp(-params.alpha ** 2)
        table = positionrep.coefficient_recursion(params, 2)
        expected = [
            np.array([1.0]),
            np.array([-e, 1.0]),
            np.array([e * e, -e - e ** 3, 1.0]),
        ]
        for n in range(3):
            coeff_dev = max(coeff_dev, float(np.max(np.abs(table.row(n) - expected[n]))))

    norm_dev = 0.0
    bound_margin = 0.0
    for q in (0.3, 0.6):
        for gamma in (0.0, 0.5, 1.0):
            params = positionrep.PositionParams(q, gamma)
            rep = positionrep.norm_formula_check(params, 5)
            norm_dev = max(norm_dev, rep["max_rel_err"])
        params8 = positionrep.PositionParams(q, 0.5)
        for n in range(9):
            lv = positionrep.l_value(params8, n)
            bound_margin = max(bound_margin, lv.real / (n + 1) ** 2)
    return [
        _result("10a-position-coefficients", coeff_dev, 1e-14,
                note="constant coefficient of the two-step row is "
                     "+exp(-2 alpha^2), the sign the displayed state fixes"),
        _result("10b-position-norm-formula", norm_dev, 1e-6),
        _result("10c-position-L-bound", bound_margin, 1.0),
    ]


def check_closed_form_states(rng) -> list[CheckResult]:
    q, dim = 0.45, 128
    deformation = pseudoquon.worked_deformation(1j)
    source = pseudoquon.RankOneSimilarity(deformation)
    family = pseudoquon.build_family(source, q, dim)
    rho = bicoherent.family_radius(family)
    bs = qcore.BetaSequence(q, dim)
    fact = np.array([bs.factorial(k - 1) for k in range(dim)])
    u = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    u[:len(deformation.u)] = deformation.u
    v[:len(deformation.v)] = deformation.v
    worst = 0.0
    for _ in range(10):
        z = 0.9 * rho * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        state = bicoherent.bicoherent_state(family, z)
        ez = bicoherent.quon_coherent_vector(q, z, dim, state.norm_const)
        zpow = z ** np.arange(dim)
        gamma1 = np.sum(zpow * u.conj() / fact)
        gamma2 = np.sum(zpow * v.conj() / fact)
        phi_closed = ez + deformation.alpha_def * state.norm_const * gamma1 * v
        psi_closed = ez + np.conj(deformation.beta_def) * state.norm_const * gamma2 * u
        worst = max(worst,
                    float(np.max(np.abs(state.phi_z - phi_closed))),
                    float(np.max(np.abs(state.psi_z - psi_closed))))
    return [_result("11-closed-form-bicoherent", worst, 1e-10)]


def check_limits(rng) -> list[CheckResult]:
    q = 1.0 - 1e-6
    _, family, _, _ = _identity_family(q, 64)
    state = bicoherent.bicoherent_state(family, 0.8)
    boson = np.exp(-0.5 * 0.8 ** 2) * np.array(
        [0.8 ** k / math.sqrt(math.factorial(k)) for k in range(21)])
    boson_dev = float(np.max(np.abs(state.phi_z[:21] - boson)))
    fermi = qcore.beta(-1.0, 1)
    return [
        _result("12a-boson-limit", boson_dev, 1e-4),
        CheckResult("12b-fermionic-truncation", fermi, 0.0,
                    passed=(fermi == 0.0),
                    note="beta_1 at q = -1 must vanish exactly"),
    ]


ALL_CHECKS = [
    check_qmutator,
    check_biorthogonality,
    check_ladder,
    check_number_operator,
    check_theta,
    check_bicoherent_eigen,
    check_radii,
    check_resolution,
    check_uncertainty,
    check_position_example,
    check_closed_form_states,
    check_limits,
]


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        results.extend(check(rng))
    return results


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        if r.passed:
            status = "PASS"
        elif r.known_discrepancy:
            status = "FAIL(expected)"
        else:
            status = "FAIL"
        line = f"{status:>14}  {r.criterion:<34} value={r.value:.3e} tol={r.tolerance:.1e}"
        if r.note:
            line += f"  [{r.note}]"
        lines.append(line)
    return "\n".join(lines)
