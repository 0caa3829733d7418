"""Acceptance suite: every numbered contract check, with its tolerance.

Each check produces a :class:`CheckResult`; the CLI prints them and the
test suite asserts them one by one.  A criterion that a ``biquon run`` task
computes reads its value, and the bound the task applies, from the report
of :func:`biquon.cli.run_config` on the equivalent config, so ``biquon
selftest`` and ``biquon run`` print the same numbers.  A result may be marked
``known_discrepancy`` when the check is expected to fail for a documented
mathematical reason; such results are reported loudly but excluded from
the process exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bicoherent, cli, positionrep, pseudoquon, qcore
from .cli import DEFAULT_SEED

__all__ = ["CheckResult", "run_all", "format_results", "DEFAULT_SEED"]

IDENTITY = {"kind": "identity"}
WORKED = {"kind": "rank_one", "preset": "worked", "alpha_def": [0.0, 1.0]}
WORKED_SOURCE = pseudoquon.RankOneSimilarity(pseudoquon.worked_deformation(1j))


@dataclass
class CheckResult:
    criterion: str
    value: float
    tolerance: float
    passed: bool
    known_discrepancy: bool = False
    note: str = ""

    @property
    def unexpected_failure(self) -> bool:
        return not self.passed and not self.known_discrepancy


def _result(criterion: str, value: float, tolerance: float, **kw) -> CheckResult:
    return CheckResult(criterion=criterion, value=float(value),
                       tolerance=tolerance, passed=bool(value <= tolerance), **kw)


def _reports(task: dict, families, qs, K: int = 64,
             seed: int = DEFAULT_SEED) -> list[dict]:
    """The ``task`` report of one ``biquon run`` per (family, q)."""
    return [cli.run_config({"q": q, "K": K, "family": fam, "tasks": [task],
                            "seed": seed})[0]["tasks"][task["task"]]
            for fam in families for q in qs]


def _task_result(criterion: str, reports: list[dict], *metrics: str,
                 tolerance: float | None = None) -> CheckResult:
    """Worst of the metrics over the reports, against the bound the task
    applied to them unless a tighter ``tolerance`` is given."""
    value = max(r[m] for r in reports for m in metrics)
    if tolerance is None:
        tolerance = reports[0].get("bounds", {}).get(metrics[0],
                                                     reports[0]["tolerance"])
    return _result(criterion, value, tolerance)


def check_qmutator(seed) -> list[CheckResult]:
    reports = _reports({"task": "mutator"}, (IDENTITY, WORKED),
                       (0.1, 0.3, 0.5, 0.7, 0.9))
    return [_task_result("01-qmutator-identity", reports, "max_residual")]


def check_biorthogonality(seed) -> list[CheckResult]:
    reports = _reports({"task": "family"}, (WORKED,), (0.4,))
    return [_task_result("02-biorthogonality", reports, "gram_deviation")]


def check_ladder(seed) -> list[CheckResult]:
    reports = _reports({"task": "family"}, (IDENTITY, WORKED), (0.3, 0.7))
    position = _reports({"task": "position", "n_max": 6},
                        ({"kind": "position", "gamma": 0.6},), (0.5,))
    return [
        _task_result("03a-ladder-fock", reports,
                     "raise_phi", "lower_phi", "raise_psi", "lower_psi"),
        _task_result("03b-ladder-position", position, "ladder_residual"),
    ]


def check_number_operator(seed) -> list[CheckResult]:
    reports = _reports({"task": "family"}, (WORKED,), (0.3, 0.7))
    spec_dev = 0.0
    for q in (0.3, 0.7):
        family = pseudoquon.build_family(WORKED_SOURCE, q, 64)
        safe = family.safe_dim
        nmat = (family.b @ family.a).dense(safe)
        ev = np.linalg.eigvals(nmat)
        ev_dag = np.linalg.eigvals(nmat.conj().T)
        spec_dev = max(spec_dev,
                       float(np.max(np.abs(np.sort(ev.real) - np.sort(ev_dag.real)))),
                       float(np.max(np.abs(ev.imag))))
    return [
        _task_result("04a-number-eigenvalues", reports,
                     "number_residual_phi", "number_residual_psi"),
        _result("04b-number-isospectral", spec_dev, 1e-9),
    ]


def check_theta(seed) -> list[CheckResult]:
    reports = _reports({"task": "theta"}, (WORKED,), (0.4,))
    theta = pseudoquon.build_theta(pseudoquon.build_family(WORKED_SOURCE, 0.4, 64))
    # Theta is the identity past its leading block: its spectrum is the
    # block window's and 1
    head = theta.dense(len(theta.block))
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (head + head.conj().T)), initial=1.0))
    return [
        _task_result("05a-theta-series-vs-closed", reports, "series_vs_closed",
                     tolerance=1e-11),
        _task_result("05b-theta-conjugation", reports, "conjugation_residual"),
        _task_result("05c-theta-inverse", reports, "inverse_residual", tolerance=1e-11),
        CheckResult("05d-theta-positive", eigmin, 0.0, passed=eigmin > 0.0,
                    note="value is the smallest eigenvalue; must be positive"),
    ]


def check_bicoherent_eigen(seed) -> list[CheckResult]:
    reports = _reports({"task": "bicoherent", "n_r": 5, "n_theta": 8, "r_frac": 0.9},
                       (WORKED,), (0.5,), K=256)
    return [
        _task_result("06a-bicoherent-eigen", reports, "eigen_residual"),
        _task_result("06b-bicoherent-pairing", reports, "pairing_residual"),
    ]


def check_radii(seed) -> list[CheckResult]:
    worst_rank_one = worst_pos = 0.0
    worst_emp_rank_one = worst_emp_pos = 0.0
    for q in (0.3, 0.5, 0.8):
        family = pseudoquon.build_family(WORKED_SOURCE, q, 48)
        norms = family.phi.column_norms(family.K)
        norms_psi = family.psi.column_norms(family.K)
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


def check_resolution(seed) -> list[CheckResult]:
    reports = _reports({"task": "resolution"}, (IDENTITY, WORKED), (0.5,), seed=seed)
    return [_task_result("08-resolution-identity", reports, "max_residual")]


def check_uncertainty(seed) -> list[CheckResult]:
    worst = 0.0
    for q in (0.5, 0.9):
        family = pseudoquon.build_family(WORKED_SOURCE, q, 256)
        rho = bicoherent.family_radius(family)
        zs = np.array([0.0, 0.3, 0.6]) * rho * np.exp(0.4j)
        res = bicoherent.uncertainty_product(bicoherent.bicoherent_state(family, zs),
                                             family.a, family.b)
        worst = np.max([worst, *res.residual])
    fam1 = pseudoquon.build_family(pseudoquon.IdentitySimilarity(), 1.0 - 1e-6, 64)
    res1 = bicoherent.uncertainty_product(
        bicoherent.bicoherent_state(fam1, 0.9 + 0.2j), fam1.a, fam1.b)
    return [
        _result("09a-uncertainty-product", worst,
                cli.TOLERANCES["bicoherent.uncertainty_residual"]),
        _result("09b-uncertainty-boson-limit", abs(res1.product - 0.5), 1e-4),
    ]


def check_position_example(seed) -> list[CheckResult]:
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
        lvs = positionrep.l_value(positionrep.PositionParams(q, 0.5), 8)
        bound_margin = max(bound_margin, float(np.max(lvs / np.arange(1, 10) ** 2)))
    return [
        _result("10a-position-coefficients", coeff_dev, 1e-14,
                note="constant coefficient of the two-step row is "
                     "+exp(-2 alpha^2), the sign the displayed state fixes"),
        _result("10b-position-norm-formula", norm_dev, 1e-6),
        _result("10c-position-L-bound", bound_margin, 1.0),
    ]


def check_closed_form_states(seed) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    q, dim = 0.45, 128
    deformation = WORKED_SOURCE.deformation
    family = pseudoquon.build_family(WORKED_SOURCE, q, dim)
    rho = bicoherent.family_radius(family)
    bs = qcore.BetaSequence(q, dim)
    fact = np.array([bs.factorial(k - 1) for k in range(dim)])
    u = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    u[:len(deformation.u)] = deformation.u
    v[:len(deformation.v)] = deformation.v
    # ten points, each drawn as (radius, angle) in turn
    radius, angle = rng.uniform(size=(10, 2)).T
    zs = 0.9 * rho * np.sqrt(radius) * np.exp(2j * np.pi * angle)
    state = bicoherent.bicoherent_state(family, zs)
    ez = bicoherent.quon_coherent_vector(q, zs, dim)
    zpow = zs ** np.arange(dim)[:, None]
    gamma1 = (u.conj() / fact) @ zpow
    gamma2 = (v.conj() / fact) @ zpow
    phi_closed = ez + deformation.alpha_def * np.outer(v, state.norm_const * gamma1)
    psi_closed = ez + np.conj(deformation.beta_def) * np.outer(u, state.norm_const * gamma2)
    worst = np.max([np.abs(state.phi_z - phi_closed), np.abs(state.psi_z - psi_closed)])
    return [_result("11-closed-form-bicoherent", worst, 1e-10)]


def check_limits(seed) -> list[CheckResult]:
    q = 1.0 - 1e-6
    family = pseudoquon.build_family(pseudoquon.IdentitySimilarity(), q, 64)
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
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        results.extend(check(seed))
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
