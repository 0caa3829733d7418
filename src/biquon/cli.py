"""Batch front-end: config-driven experiment runner and small subcommands.

Exit codes: 0 all checks passed, 1 a tolerance was exceeded, 2 bad
configuration or arguments.  Summaries are JSON with sorted keys so that
identical configs and seeds produce identical bytes (timings live under
their own key and are the only nondeterministic field).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bicoherent, positionrep, pseudoquon, qcore, resolution
from .fock import identity_plus, operator_to_csv, qmutator_residual
from .qcore import BetaSequence

__all__ = ["main", "ConfigError", "run_config", "DEFAULT_SEED"]

DEFAULT_SEED = 1234


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the field path."""


FOCK_TASKS = {"mutator", "family", "theta", "bicoherent", "resolution"}
POSITION_TASKS = {"mutator", "family", "theta", "position"}
TASK_ORDER = ["family", "mutator", "theta", "bicoherent", "resolution", "position"]

# Every bound a task applies.  "task" is its bound, "task.<family kind>" its
# bound on that kind, and "task.<metric>" the bound of a metric judged on
# its own.  tolerances.<task> replaces the task's bound and scales its metric
# bounds in proportion; --tolerance-scale multiplies every bound.
TOLERANCES = {
    "mutator": 1e-12,
    "mutator.position": 1e-10,
    "family": 1e-11,
    "family.position": 1e-9,
    "theta": 1e-10,
    "bicoherent": 1e-9,
    "bicoherent.uncertainty_residual": 1e-7,
    "resolution": 1e-8,
    "position": 1e-6,
    "position.ladder_residual": 1e-10,
}
# least admissible value of each integer task parameter
TASK_INT_MINIMA = {
    "family": {"n_max": 0},
    "bicoherent": {"n_r": 1, "n_theta": 1},
    "resolution": {"K_mom": 2, "n_pairs": 1, "support": 1, "n_theta": 1},
    "position": {"n_max": 0},
}
# position families: ||phi_n||^2 scales as exp(gamma^2), finite below this
GAMMA_MAX = math.sqrt(math.log(sys.float_info.max))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_int(value, path: str) -> int:
    try:
        out = int(value)
        if out == float(value):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{path}: not an integer ({value!r})")


def _parse_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: not a number ({value!r})") from None


def _parse_positive(value, path: str) -> float:
    out = _parse_float(value, path)
    if not 0.0 < out < math.inf:
        raise ConfigError(f"{path}: must be positive and finite, got {out}")
    return out


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"{path}: expected number or [re, im] pair, got {value!r}")


def _parse_sparse_vector(entries, path: str) -> np.ndarray:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: expected nonempty list of [index, re, im]")
    idx_max = 0
    parsed = []
    for i, item in enumerate(entries):
        if not (isinstance(item, list) and len(item) == 3):
            raise ConfigError(f"{path}[{i}]: expected [index, re, im]")
        k = item[0]
        if not isinstance(k, int) or k < 0:
            raise ConfigError(f"{path}[{i}]: index must be a nonnegative integer")
        parsed.append((k, complex(item[1], item[2])))
        idx_max = max(idx_max, k)
    vec = np.zeros(idx_max + 1, dtype=complex)
    for k, z in parsed:
        vec[k] += z
    return vec


def _normalize_tasks(raw, path: str) -> list[dict]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{path}: expected nonempty task list")
    tasks = []
    for i, item in enumerate(raw):
        if isinstance(item, str):
            tasks.append({"task": item})
        elif isinstance(item, dict) and "task" in item:
            tasks.append(dict(item))
        else:
            raise ConfigError(f"{path}[{i}]: expected task name or "
                              f"object with a 'task' field")
    return tasks


def _validate_task_params(task: dict, path: str, q: float, dim: int,
                          extent: int) -> None:
    """Parse and range-check, in place, the task parameters the config sets;
    extent is the support extent of the family's deformation."""
    for key, least in TASK_INT_MINIMA.get(task["task"], {}).items():
        if key in task:
            task[key] = _parse_int(task[key], f"{path}.{key}")
            if task[key] < least:
                raise ConfigError(f"{path}.{key}: must be at least {least}, "
                                  f"got {task[key]}")
    if task["task"] == "bicoherent":
        if "r_frac" in task:
            task["r_frac"] = _parse_float(task["r_frac"], f"{path}.r_frac")
            if not 0.0 < task["r_frac"] < 1.0:
                raise ConfigError(f"{path}.r_frac: must lie in (0, 1), "
                                  f"got {task['r_frac']}")
        # the largest |z| of the sweep; N(|z|) converges more slowly with |z|
        try:
            bicoherent.normalization(q, task.get("r_frac", 0.7) * qcore.disc_radius(q))
        except bicoherent.ConvergenceError as exc:
            raise ConfigError(f"{path}.r_frac: {exc}") from None
    if task["task"] == "resolution":
        try:
            limit = resolution.solve_moment_measure(q, 2).moment_limit
        except ValueError as exc:
            raise ConfigError(f"q: {exc}") from None
        # the overlaps of f, g with the family reach past their support to
        # the end of the deformation's block, which ends below K - 2
        reach = max(task.get("support", min(6, dim)), extent)
        for key, n in (("K_mom", task.get("K_mom", 2)), ("support", reach)):
            if n > min(dim, limit):
                raise ConfigError(f"{path}.{key}: needs rho_k for k < {n}, past "
                                  f"K = {dim} or the k < {limit} the float "
                                  f"Jackson weights hold at q={q}")
        n_theta = task.get("n_theta", 64)
        if n_theta <= 2 * (reach - 1):
            raise ConfigError(f"{path}.n_theta: must exceed 2 (max(support, "
                              f"support extent) - 1) = {2 * (reach - 1)}, "
                              f"got {n_theta}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    if "q" not in cfg:
        raise ConfigError("q: missing")
    out: dict = {"q": _parse_float(cfg["q"], "q")}
    out["K"] = _parse_int(cfg.get("K", 64), "K")
    if out["K"] < 2:
        raise ConfigError(f"K: must be at least 2, got {out['K']}")

    fam = cfg.get("family", {"kind": "identity"})
    if not isinstance(fam, dict) or "kind" not in fam:
        raise ConfigError("family: expected object with a 'kind' field")
    kind = fam["kind"]
    if kind not in ("identity", "rank_one", "position"):
        raise ConfigError(f"family.kind: unknown kind {kind!r}")
    out["family"] = {"kind": kind}
    extent = 0
    if kind == "rank_one":
        alpha = _parse_complex(fam.get("alpha_def", [0.0, 1.0]), "family.alpha_def")
        if fam.get("preset") == "worked" or ("u" not in fam and "v" not in fam):
            out["family"]["deformation"] = pseudoquon.worked_deformation(alpha)
        else:
            u = _parse_sparse_vector(fam.get("u"), "family.u")
            v = _parse_sparse_vector(fam.get("v"), "family.v")
            try:
                out["family"]["deformation"] = \
                    pseudoquon.RankOneDeformation.from_alpha(u, v, alpha)
            except ValueError as exc:
                raise ConfigError(f"family: {exc}") from None
        extent = out["family"]["deformation"].support_extent
        if out["K"] < extent + 3:
            raise ConfigError(f"K: must be at least support extent + 3 = "
                              f"{extent + 3} to leave a safe block, got {out['K']}")
    elif kind == "position":
        gamma = _parse_float(fam.get("gamma", 0.0), "family.gamma")
        if not abs(gamma) < GAMMA_MAX:
            raise ConfigError(f"family.gamma: |gamma| must stay below {GAMMA_MAX:.4g}, "
                              f"where ||phi_n||^2 ~ exp(gamma^2) overflows; got {gamma}")
        out["family"]["gamma"] = gamma
    try:
        if kind == "position":
            qcore.validate_q_disc(out["q"])
        else:   # q >= -1 and finite, and beta_K^2 finite for build_family
            qcore.BetaSequence(out["q"], out["K"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"q: {exc}") from None

    tasks = _normalize_tasks(cfg.get("tasks"), "tasks")
    allowed = POSITION_TASKS if kind == "position" else FOCK_TASKS
    for i, task in enumerate(tasks):
        name = task["task"]
        if name not in FOCK_TASKS | POSITION_TASKS:
            raise ConfigError(f"tasks[{i}]: unknown task {name!r}")
        if name not in allowed:
            raise ConfigError(f"tasks[{i}]: task {name!r} is not valid for "
                              f"family kind {kind!r}")
        if name == "family" and kind != "position" and "n_max" in task:
            raise ConfigError(f"tasks[{i}].n_max: only the position family "
                              f"reads n_max, not family kind {kind!r}")
        if name in ("bicoherent", "resolution") and not (0.0 < out["q"] < 1.0):
            raise ConfigError(f"tasks[{i}]: task {name!r} requires 0 < q < 1 "
                              f"(convergence radius undefined at q={out['q']})")
        _validate_task_params(task, f"tasks[{i}]", out["q"], out["K"], extent)
    order = {name: i for i, name in enumerate(TASK_ORDER)}
    out["tasks"] = sorted(tasks, key=lambda t: order[t["task"]])

    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances: expected an object")
    for key in tol:
        if key not in TASK_ORDER:
            raise ConfigError(f"tolerances.{key}: unknown task")
    out["tolerances"] = {key: _parse_positive(value, f"tolerances.{key}")
                         for key, value in tol.items()}
    out["seed"] = _parse_int(cfg.get("seed", DEFAULT_SEED), "seed")
    if out["seed"] < 0:
        raise ConfigError(f"seed: must be nonnegative, got {out['seed']}")
    return out


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

class _Workspace:
    """Shared state built once per run: family, rng, output dir."""

    def __init__(self, cfg: dict, out_dir: Path | None, tol_scale: float):
        self.cfg = cfg
        self.out = out_dir
        self.tol_scale = tol_scale
        self.rng = np.random.default_rng(cfg["seed"])
        self.kind = cfg["family"]["kind"]
        self.csv_rows: list[tuple[str, str, float]] = []
        self.params = self.family = None
        if self.kind == "position":
            self.params = positionrep.PositionParams(cfg["q"], cfg["family"]["gamma"])
        else:
            if self.kind == "identity":
                source = pseudoquon.IdentitySimilarity()
            else:
                source = pseudoquon.RankOneSimilarity(cfg["family"]["deformation"])
            self.family = pseudoquon.build_family(source, cfg["q"], cfg["K"])

    def bound(self, task: str, metric: str | None = None) -> float:
        """The bound this run applies to a task, or to one of its metrics."""
        default = TOLERANCES.get(f"{task}.{self.kind}", TOLERANCES[task])
        tol = self.cfg["tolerances"].get(task, default) * self.tol_scale
        if metric is None:
            return tol
        return TOLERANCES[f"{task}.{metric}"] * (tol / default)

    def write_text(self, name: str, text: str) -> None:
        if self.out is not None:
            (self.out / name).write_text(text)

    def open_csv(self, name: str):
        if self.out is None:
            return None
        return (self.out / name).open("w", newline="")


def _finish(ws: _Workspace, task: str, report: dict, residual: float,
            *own_bound: str) -> dict:
    """Judge residual against the task's bound, and each report metric named
    in own_bound against its own bound, which report["bounds"] records."""
    report["max_residual"] = residual
    report["tolerance"] = ws.bound(task)
    report["passed"] = bool(residual <= report["tolerance"])
    if own_bound:
        report["bounds"] = {m: ws.bound(task, m) for m in own_bound}
        report["passed"] &= all(report[m] <= b for m, b in report["bounds"].items())
    for key, value in report.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            ws.csv_rows.append((task, key, float(value)))
    return report


def _task_mutator(ws: _Workspace, task: dict) -> dict:
    if ws.kind == "position":
        states = list(positionrep.build_families(ws.params, 3)[0])
        resid = positionrep.qmutation_grid_check(ws.params, states)
        return _finish(ws, "mutator", {"realization": "analytic"}, resid)
    fam = ws.family
    resid = qmutator_residual(fam.a, fam.b, ws.cfg["q"], fam.safe_dim)
    if task.get("dump_operators"):
        for op, name in ((fam.a, "a.csv"), (fam.b, "b.csv")):
            stream = ws.open_csv(name)
            if stream:
                with stream:
                    operator_to_csv(op, stream)
    report = {"realization": "fock", "safe_dim": fam.safe_dim}
    return _finish(ws, "mutator", report, resid)


def _task_family(ws: _Workspace, task: dict) -> dict:
    if ws.kind == "position":
        n_max = int(task.get("n_max", 6))
        rep = positionrep.similarity_check(ws.params, n_max)
        resid = np.max([rep["similarity_phi"], rep["similarity_psi"],
                        rep["biorthogonality"]])
        return _finish(ws, "family", rep, resid)
    fam = ws.family
    ladder = pseudoquon.check_ladder(fam)
    report = {
        "gram_deviation": pseudoquon.gram_deviation(fam),
        "iteration_deviation": fam.iteration_deviation,
        **{k: v for k, v in ladder.items() if k != "safe_dim"},
        "safe_dim": ladder["safe_dim"],
    }
    # np.max and np.maximum keep a NaN, where Python's max may drop it
    resid = np.maximum(report["gram_deviation"], ladder["max_residual"])
    number = pseudoquon.number_eigencheck(fam)
    report["number_residual_phi"] = number["residual_phi"]
    report["number_residual_psi"] = number["residual_psi"]
    resid = np.max([resid, number["residual_phi"], number["residual_psi"]])
    stream = ws.open_csv("family.json")
    if stream:
        with stream:
            pseudoquon.family_to_json(fam, stream, residual_report=report)
    return _finish(ws, "family", report, resid)


def _task_theta(ws: _Workspace, task: dict) -> dict:
    if ws.kind == "position":
        states = positionrep.build_families(ws.params, 2)[0]
        resid = positionrep.theta_conjugacy_check(ws.params, states)
        return _finish(ws, "theta", {"realization": "analytic"}, resid)
    fam = ws.family
    theta = pseudoquon.build_theta(fam)
    closed = pseudoquon.closed_form_theta(fam.source, fam.K)
    series_dev = (theta - closed).max_abs()
    conj = pseudoquon.check_theta_conjugate(fam.a, fam.b, theta, fam.safe_dim, fam)
    # Theta^{-1} from its own series sum_n |phi_n><phi_n| = S S^dag
    inv_dev = (theta @ (fam.phi @ fam.phi.adjoint()) - identity_plus(fam.K)).max_abs()
    report = {
        "series_vs_closed": series_dev,
        "conjugation_residual": conj["conjugation_residual"],
        "mapping_residual": conj["mapping_residual"],
        "inverse_residual": inv_dev,
    }
    return _finish(ws, "theta", report,
                   max(series_dev, conj["conjugation_residual"], inv_dev))


def _task_bicoherent(ws: _Workspace, task: dict) -> dict:
    n_r = int(task.get("n_r", 4))
    n_theta = int(task.get("n_theta", 8))
    # reaching 0.9 of the disc radius needs K around 256; the default grid
    # stays where the default truncation converges
    r_frac = float(task.get("r_frac", 0.7))
    rho = bicoherent.family_radius(ws.family)
    stream = ws.open_csv("bicoherent.csv")
    rows = []
    worst_eig = worst_pair = worst_unc = 0.0
    for frac in np.linspace(r_frac / n_r, r_frac, n_r):
        for ang in 2 * np.pi * np.arange(n_theta) / n_theta:
            z = frac * rho * np.exp(1j * ang)
            state = bicoherent.bicoherent_state(ws.family, z)
            r_phi, r_psi = bicoherent.eigen_check(state, ws.family.a, ws.family.b)
            pair = bicoherent.pairing(state)
            unc = bicoherent.uncertainty_product(state, ws.family.a, ws.family.b)
            worst_eig = np.max([worst_eig, r_phi, r_psi])
            worst_pair = np.maximum(worst_pair, abs(pair - 1.0))
            worst_unc = np.maximum(worst_unc, abs(unc.product - unc.predicted))
            rows.append([z.real, z.imag, state.norm_const, r_phi, r_psi,
                         pair.real, pair.imag, unc.product.real,
                         unc.product.imag, unc.predicted])
    if stream:
        with stream:
            writer = csv.writer(stream)
            writer.writerow(["re_z", "im_z", "norm_const", "eigen_phi",
                             "eigen_psi", "pairing_re", "pairing_im",
                             "uncertainty_re", "uncertainty_im",
                             "uncertainty_predicted"])
            writer.writerows([[f"{v:.17g}" for v in row] for row in rows])
    report = {
        "n_points": len(rows),
        "rho": rho,
        "eigen_residual": worst_eig,
        "pairing_residual": worst_pair,
        "uncertainty_residual": worst_unc,
    }
    return _finish(ws, "bicoherent", report, np.maximum(worst_eig, worst_pair),
                   "uncertainty_residual")


def _task_resolution(ws: _Workspace, task: dict) -> dict:
    k_mom = int(task.get("K_mom", min(12, ws.family.K)))
    n_theta = int(task.get("n_theta", 64))
    n_pairs = int(task.get("n_pairs", 20))
    support = int(task.get("support", min(6, ws.family.K)))
    quad = resolution.solve_moment_measure(ws.cfg["q"], k_mom)
    draw = ws.rng.standard_normal
    worst = 0.0
    for _ in range(n_pairs):
        f, g = np.zeros((2, ws.family.K), dtype=complex)
        for x in (f, g):
            x[:support] = draw(support) + 1j * draw(support)
        val = resolution.resolution_check(ws.family, quad, n_theta, f, g)
        worst = np.maximum(worst, abs(val - np.vdot(f, g)))
    stream = ws.open_csv("quadrature.csv")
    if stream:
        with stream:
            resolution.quadrature_to_csv(quad, stream)
    ws.write_text("moments.json",
                  json.dumps(resolution.residual_report(quad), sort_keys=True,
                             indent=2))
    report = {
        "quadrature": resolution.residual_report(quad),
        "moment_residual": quad.max_residual,
        "n_pairs": n_pairs,
    }
    return _finish(ws, "resolution", report, worst)


def _task_position(ws: _Workspace, task: dict) -> dict:
    n_max = int(task.get("n_max", 5))
    table = positionrep.coefficient_recursion(ws.params, n_max)
    stream = ws.open_csv("coefficients.csv")
    if stream:
        with stream:
            writer = csv.writer(stream)
            writer.writerow(["n", "k", "re", "im"])
            for n in range(n_max + 1):
                for k, c in enumerate(table.row(n)):
                    writer.writerow([n, k, f"{c.real:.17g}", f"{c.imag:.17g}"])
    norm_rep = positionrep.norm_formula_check(ws.params, n_max)
    ladder = positionrep.ladder_check(ws.params, min(n_max, 6))
    vacuum = positionrep.vacuum_check(ws.params)
    if task.get("dump_states"):
        x = positionrep.default_grid(ws.params.gamma)
        for n in range(n_max + 1):
            stream = ws.open_csv(f"phi_{n}.csv")
            if stream:
                with stream:
                    positionrep.state_to_csv(
                        positionrep.phi_state(ws.params, n, table), x, stream)
    report = {
        "norm_formula_max_rel": norm_rep["max_rel_err"],
        "norm_symmetry": norm_rep["norm_symmetry"],
        "L_bound_ok": norm_rep["L_bound_ok"],
        "ladder_residual": ladder["max_residual"],
        "vacuum_a_phi0": vacuum["a_phi0"],
        "vacuum_bdag_psi0": vacuum["bdag_psi0"],
        "vacuum_pairing_error": abs(vacuum["pairing"] - 1.0),
        "n_max": n_max,
    }
    resid = norm_rep["max_rel_err"] if norm_rep["L_bound_ok"] else math.inf
    return _finish(ws, "position", report, resid, "ladder_residual")


TASK_RUNNERS = {
    "mutator": _task_mutator,
    "family": _task_family,
    "theta": _task_theta,
    "bicoherent": _task_bicoherent,
    "resolution": _task_resolution,
    "position": _task_position,
}


def run_config(cfg: dict, out_dir: Path | None = None,
               tol_scale: float = 1.0) -> tuple[dict, int]:
    """Execute every task; returns (summary, exit_code)."""
    cfg = validate_config(cfg)
    tol_scale = _parse_positive(tol_scale, "--tolerance-scale")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    ws = _Workspace(cfg, out_dir, tol_scale)
    summary: dict = {
        "q": cfg["q"],
        "K": cfg["K"],
        "family_kind": ws.kind,
        "seed": cfg["seed"],
        "tasks": {},
    }
    timings = {}
    all_pass = True
    for task in cfg["tasks"]:
        name = task["task"]
        start = time.perf_counter()
        report = TASK_RUNNERS[name](ws, task)
        timings[name] = time.perf_counter() - start
        summary["tasks"][name] = report
        all_pass = all_pass and report["passed"]
    summary["all_pass"] = all_pass
    if out_dir is not None:
        with (out_dir / "summary.json").open("w") as fh:
            json.dump({**summary, "timings": timings}, fh, sort_keys=True, indent=2)
            fh.write("\n")
        with (out_dir / "residuals.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "metric", "value"])
            for row in ws.csv_rows:
                writer.writerow([row[0], row[1], f"{row[2]:.17g}"])
    return summary, 0 if all_pass else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _mini_config(args, tasks: list) -> dict:
    fam: dict = {"kind": args.family}
    if args.family == "rank_one":
        fam["preset"] = "worked"
        fam["alpha_def"] = [0.0, 1.0]
    if args.family == "position":
        fam["gamma"] = args.gamma
    return {"q": args.q, "K": args.dim, "family": fam, "tasks": tasks,
            "seed": args.seed}


def _cmd_beta(args) -> int:
    if args.n_max < 0:
        raise ConfigError(f"n_max: must be nonnegative, got {args.n_max}")
    try:
        bs = BetaSequence(args.q, args.n_max)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"q: {exc}") from None
    lines = ["n,beta,beta_factorial" + (",log_number" if 0 < args.q < 1 else "")]
    for n in range(args.n_max + 1):
        row = f"{n},{bs.beta(n):.17g},{bs.factorial(n):.17g}"
        if 0 < args.q < 1:
            row += f",{qcore.log_number_eigenvalue(args.q, n):.17g}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "beta.csv").write_text(text)
    print(text, end="")
    return 0


def _run_and_report(cfg: dict, args) -> int:
    summary, code = run_config(cfg, Path(args.out) if args.out else None,
                               args.tolerance_scale)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return code


def _cmd_simple_task(task_name: str, options: list[str]):
    def cmd(args) -> int:
        task: dict = {"task": task_name}
        for opt in options:
            if getattr(args, opt) is not None:
                task["K_mom" if opt == "k_mom" else opt] = getattr(args, opt)
        return _run_and_report(_mini_config(args, [task]), args)
    return cmd


def _cmd_run(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"--config: no such file {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: invalid JSON ({exc})") from None
    if args.seed is not None:
        cfg["seed"] = args.seed
    return _run_and_report(cfg, args)


def _cmd_selftest(args) -> int:
    from . import selftest      # selftest runs its criteria through this module
    results = selftest.run_all(seed=args.seed if args.seed is not None
                               else DEFAULT_SEED)
    print(selftest.format_results(results))
    unexpected = [r for r in results if r.unexpected_failure]
    expected = [r for r in results if r.known_discrepancy and not r.passed]
    print(f"\n{len(results)} checks: "
          f"{sum(r.passed for r in results)} passed, "
          f"{len(unexpected)} failed, {len(expected)} expected failures")
    return 1 if unexpected else 0


def _add_common(parser: argparse.ArgumentParser, with_family=True) -> None:
    parser.add_argument("--q", type=float, default=0.5)
    parser.add_argument("--out", type=str, default=None,
                        help="directory for JSON/CSV artifacts")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--tolerance-scale", type=float, default=1.0)
    if with_family:
        parser.add_argument("--dim", type=int, default=64)
        parser.add_argument("--family", type=str, default="identity",
                            choices=["identity", "rank_one", "position"])
        parser.add_argument("--gamma", type=float, default=0.5,
                            help="shift parameter (position family)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biquon",
        description="deformed quon algebras, biorthogonal families and "
                    "bi-coherent states on truncated spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="tabulate the coefficient sequence")
    _add_common(p, with_family=False)
    p.add_argument("--n-max", type=int, default=16)
    p.set_defaults(func=_cmd_beta)

    for name, extra in [
        ("mutator", ["dump_operators"]),
        ("family", ["n_max"]),
        ("theta", []),
        ("bicoherent", ["n_r", "n_theta", "r_frac"]),
        ("resolution", ["k_mom", "n_theta", "n_pairs"]),
        ("position", ["n_max", "dump_states"]),
    ]:
        p = sub.add_parser(name, help=f"run the {name} checks")
        _add_common(p)
        for opt in extra:
            flag = "--" + opt.replace("_", "-")
            if opt.startswith("dump_"):
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=float if opt == "r_frac" else int)
        if name == "position":
            p.set_defaults(family="position")
        p.set_defaults(func=_cmd_simple_task(name, extra))

    p = sub.add_parser("run", help="execute a full experiment config")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance-scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # as a script this file is a second module; run_config raises the
    # ConfigError of biquon.cli
    from biquon.cli import main as package_main
    sys.exit(package_main())
