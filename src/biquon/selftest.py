"""Acceptance suite: every numbered contract check, with its tolerance.

Each check produces a :class:`CheckResult`; the CLI prints them and the
test suite asserts them one by one.  A criterion that a ``biquon run`` task
computes is a row of :data:`TASK_CRITERIA`: it reads its value, and the
bound the task applies, from the reports of :func:`biquon.cli.run_config`
on the row's configs, so ``biquon selftest`` and ``biquon run`` print the
same numbers.  A result may be marked ``known_discrepancy`` when the check
is expected to fail for a documented mathematical reason; such results are
reported loudly but excluded from the process exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bicoherent, cli, positionrep, pseudoquon, qcore

__all__ = ["CheckResult", "TASK_CRITERIA", "run_all", "format_results"]

IDENTITY = {"kind": "identity"}
WORKED = {"kind": "rank_one"}
POSITION = {"kind": "position", "gamma": 0.6}
WORKED_SOURCE = pseudoquon.worked_deformation(1j)


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


class TaskCriterion(NamedTuple):
    """The worst of metrics over the task reports of one ``biquon run`` per
    (family, q), against the bound the task applied to the first metric
    unless a tighter one is given."""

    criterion: str
    task: dict
    families: tuple
    qs: tuple
    K: int
    metrics: tuple
    tighter: float | None = None

    def configs(self, seed: int) -> list[dict]:
        return [{"q": q, "K": self.K, "family": fam, "tasks": [self.task], "seed": seed}
                for fam in self.families for q in self.qs]


FAMILY, THETA = {"task": "family"}, {"task": "theta"}
BICOHERENT = {"task": "bicoherent", "n_r": 5, "n_theta": 8, "r_frac": 0.9}
TASK_CRITERIA = [
    TaskCriterion("01-qmutator-identity", {"task": "mutator"}, (IDENTITY, WORKED),
                  (0.1, 0.3, 0.5, 0.7, 0.9), 64, ("qmutator_residual",)),
    TaskCriterion("02-biorthogonality", FAMILY, (WORKED,), (0.4,), 64,
                  ("gram_deviation",)),
    TaskCriterion("03a-ladder-fock", FAMILY, (WORKED,), (0.3, 0.7), 64,
                  ("raise_phi", "lower_phi", "raise_psi", "lower_psi")),
    TaskCriterion("03b-ladder-position", {"task": "position", "n_max": 6},
                  (POSITION,), (0.5,), 64, ("ladder_residual",)),
    TaskCriterion("04a-number-eigenvalues", FAMILY, (WORKED,), (0.3, 0.7), 64,
                  ("number_residual_phi", "number_residual_psi")),
    TaskCriterion("05a-theta-series-vs-closed", THETA, (WORKED,), (0.4,), 64,
                  ("series_vs_closed",), 1e-11),
    TaskCriterion("05b-theta-conjugation", THETA, (WORKED,), (0.4,), 64,
                  ("conjugation_residual",)),
    TaskCriterion("05c-theta-inverse", THETA, (WORKED,), (0.4,), 64,
                  ("inverse_residual",), 1e-11),
    TaskCriterion("06a-bicoherent-eigen", BICOHERENT, (WORKED,), (0.5,), 256,
                  ("eigen_residual",)),
    TaskCriterion("06b-bicoherent-pairing", BICOHERENT, (WORKED,), (0.5,), 256,
                  ("pairing_residual",)),
    TaskCriterion("08-resolution-identity", {"task": "resolution"}, (IDENTITY, WORKED),
                  (0.5,), 64, ("resolution_residual",)),
    TaskCriterion("09a-uncertainty-product", BICOHERENT, (WORKED,), (0.5, 0.9), 256,
                  ("uncertainty_residual",)),
]


def _group(cfg: dict) -> str:
    """The (family, q, K) of a config, as one key."""
    return repr((cfg["family"], cfg["q"], cfg["K"]))


class TaskReports:
    """The task reports of one :func:`run_all`.  The table's configs are
    grouped by (family, q, K), and each group runs once, with every task
    its rows name, when a check first needs it."""

    def __init__(self, seed: int):
        self.seed = seed
        self._tasks: dict[str, list[dict]] = {}
        for row in TASK_CRITERIA:
            for cfg in row.configs(seed):
                tasks = self._tasks.setdefault(_group(cfg), [])
                if row.task not in tasks:
                    tasks.append(row.task)
        self._reports: dict[str, dict] = {}

    def _report(self, cfg: dict) -> dict:
        key = _group(cfg)
        if key not in self._reports:
            self._reports[key] = cli.run_config({**cfg, "tasks": self._tasks[key]})[0]["tasks"]
        return self._reports[key][cfg["tasks"][0]["task"]]

    def results(self, number: str) -> list[CheckResult]:
        """The table's criteria numbered ``number`` ("01" .. "12"), in table
        order."""
        out = []
        for row in TASK_CRITERIA:
            if row.criterion[:2] != number:
                continue
            reports = [self._report(cfg) for cfg in row.configs(self.seed)]
            value = max(r[m] for r in reports for m in row.metrics)
            bound = reports[0]["bounds"][row.metrics[0]]
            out.append(_result(row.criterion, value, row.tighter or bound))
        return out


def check_qmutator(reports: TaskReports) -> list[CheckResult]:
    return reports.results("01")


def check_biorthogonality(reports: TaskReports) -> list[CheckResult]:
    return reports.results("02")


def check_ladder(reports: TaskReports) -> list[CheckResult]:
    return reports.results("03")


def check_number_operator(reports: TaskReports) -> list[CheckResult]:
    spec_dev = 0.0
    for q in (0.3, 0.7):
        family = pseudoquon.build_family(WORKED_SOURCE, q, 64)
        safe = family.safe_dim
        # a maps the leading safe columns into the leading safe rows, so the
        # product of the two windows is N = ba's window
        nmat = family.b.dense(safe) @ family.a.dense(safe)
        ev = np.linalg.eigvals(nmat)
        ev_dag = np.linalg.eigvals(nmat.conj().T)
        spec_dev = max(spec_dev,
                       float(np.max(np.abs(np.sort(ev.real) - np.sort(ev_dag.real)))),
                       float(np.max(np.abs(ev.imag))))
    return reports.results("04") + [_result("04b-number-isospectral", spec_dev, 1e-9)]


def check_theta(reports: TaskReports) -> list[CheckResult]:
    theta = pseudoquon.build_theta(pseudoquon.build_family(WORKED_SOURCE, 0.4, 64))
    # Theta is the identity past its leading block: its spectrum is the
    # block window's and 1
    head = theta.dense(len(theta.block))
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (head + head.conj().T)), initial=1.0))
    return reports.results("05") + [
        CheckResult("05d-theta-positive", eigmin, 0.0, passed=eigmin > 0.0,
                    note="value is the smallest eigenvalue; must be positive"),
    ]


def check_bicoherent_eigen(reports: TaskReports) -> list[CheckResult]:
    return reports.results("06")


def check_radii(reports: TaskReports) -> list[CheckResult]:
    """07a and 07c on the worked family, whose norms are 1 past its block;
    07b and 07d on the position family at gamma = 0.5, n <= 40.

    07a is the ratio test at the last safe index, where q^K is below
    roundoff at K = 192; 07b the largest ratio of ||phi_n||, 1 <= n <= 40,
    to the bound that gives the radius sqrt(1-q) (at n = 0 it is exactly 1).
    """
    worst_ratio = worst_bound = worst_emp = worst_emp_pos = 0.0
    gamma = 0.5
    for q in (0.3, 0.5, 0.8):
        family = pseudoquon.build_family(WORKED_SOURCE, q, 192)
        target = qcore.disc_radius(q)
        for op in (family.phi, family.psi):
            norms = op.column_norms(family.safe_dim)
            worst_ratio = max(worst_ratio,
                              abs(bicoherent.ratio_radius(norms, q) - target) / target)
            coeffs = norms[:48] / qcore.BetaSequence(q, 48).factorial[:48]
            worst_emp = max(worst_emp,
                            abs(bicoherent.empirical_radius(coeffs) - target) / target)

        params = positionrep.PositionParams(q, gamma)
        pos_norms = positionrep.norm(
            positionrep.build_families(params, 40, positionrep.lattice(params, 40))[0])
        ratios = bicoherent.radius_bound_ratios(pos_norms, q, 0.5 * gamma ** 2)
        worst_bound = max(worst_bound, float(np.max(ratios[1:])))
        target_pos = math.sqrt(1.0 - q)
        emp_pos = bicoherent.empirical_radius(
            pos_norms / qcore.BetaSequence(q, 41).factorial[:41])
        worst_emp_pos = max(worst_emp_pos, abs(emp_pos - target_pos) / target_pos)
    return [
        _result("07a-radius-rank-one-analytic", worst_ratio, 1e-12),
        _result("07b-radius-position-analytic", worst_bound, 1.0),
        _result("07c-radius-rank-one-empirical", worst_emp, 0.05),
        _result("07d-radius-position-empirical", worst_emp_pos, 0.05,
                known_discrepancy=True,
                note="root test on measured norms estimates the true series "
                     "radius 1/sqrt(1-q); the guaranteed-bound radius "
                     "sqrt(1-q) is smaller by the factor 1-q (the family "
                     "norms stay polynomially bounded), so a 5% match is "
                     "unattainable"),
    ]


def check_resolution(reports: TaskReports) -> list[CheckResult]:
    return reports.results("08")


def check_uncertainty(reports: TaskReports) -> list[CheckResult]:
    fam1 = pseudoquon.build_family(pseudoquon.Deformation(), 1.0 - 1e-6, 64)
    res1 = bicoherent.uncertainty_product(bicoherent.bicoherent_state(fam1, 0.9 + 0.2j))
    return reports.results("09") + [
        _result("09b-uncertainty-boson-limit", abs(res1.product - 0.5), 1e-4),
    ]


def check_position_example(reports: TaskReports) -> list[CheckResult]:
    coeff_dev = norm_dev = bound_margin = 0.0
    for q in (0.3, 0.6):
        # the lattice is gamma-free, so the coefficient rows and the three
        # gammas read one
        params = positionrep.PositionParams(q)
        table = positionrep.lattice(params, 5)
        e = math.exp(-params.alpha ** 2)
        expected = [[1.0], [-e, 1.0], [e * e, -e - e ** 3, 1.0]]
        for n, row in enumerate(expected):
            coeff_dev = max(coeff_dev, float(np.max(np.abs(table.coeffs[n, :n + 1] - row))))
        for gamma in (0.0, 0.5, 1.0):
            rep = positionrep.norm_formula_check(positionrep.PositionParams(q, gamma), 5, table)
            norm_dev = max(norm_dev, rep["max_rel_err"])
        # L_0 = 1 = (0 + 1)^2 always, so n = 0 would pin the value at the bound
        params = positionrep.PositionParams(q, 0.5)
        lvs = positionrep.l_value(params, 8, positionrep.lattice(params, 8))
        bound_margin = max(bound_margin, float(np.max(lvs[1:] / np.arange(2, 10) ** 2)))
    return [
        _result("10a-position-coefficients", coeff_dev, 1e-14,
                note="constant coefficient of the two-step row is "
                     "+exp(-2 alpha^2), the sign the displayed state fixes"),
        _result("10b-position-norm-formula", norm_dev, 1e-6),
        _result("10c-position-L-bound", bound_margin, 1.0),
    ]


def check_closed_form_states(reports: TaskReports) -> list[CheckResult]:
    rng = np.random.default_rng(reports.seed)
    q, dim = 0.45, 128
    deformation = WORKED_SOURCE
    family = pseudoquon.build_family(deformation, q, dim)
    rho = qcore.disc_radius(q)
    fact = qcore.BetaSequence(q, dim).factorial[:dim]
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


def check_limits(reports: TaskReports) -> list[CheckResult]:
    q = 1.0 - 1e-6
    family = pseudoquon.build_family(pseudoquon.Deformation(), q, 64)
    state = bicoherent.bicoherent_state(family, 0.8)
    boson = np.exp(-0.5 * 0.8 ** 2) * np.array(
        [0.8 ** k / math.sqrt(math.factorial(k)) for k in range(21)])
    boson_dev = float(np.max(np.abs(state.phi_z[:21] - boson)))
    fermi = math.sqrt(qcore.bracket(-1.0, 2))      # beta_1
    return [
        _result("12a-boson-limit", boson_dev, 1e-4),
        _result("12b-fermionic-truncation", fermi, 0.0,
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


def run_all(seed: int) -> list[CheckResult]:
    reports = TaskReports(seed)
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        results.extend(check(reports))
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
