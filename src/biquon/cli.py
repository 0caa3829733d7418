"""Batch front-end: config-driven experiment runner and small subcommands.

Exit codes: 0 all checks passed, 1 a tolerance was exceeded, 2 bad
configuration or arguments.  Summaries are JSON with sorted keys so that
identical configs and seeds produce identical bytes (timings live under
their own key and are the only nondeterministic field).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import bicoherent, positionrep, pseudoquon, qcore, resolution
from .fock import qmutator_residual
from .qcore import BetaSequence

__all__ = ["main", "ConfigError", "run_config", "DEFAULT_SEED"]

DEFAULT_SEED = 1234


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the field path."""


FOCK_KINDS = ("identity", "rank_one")
FOCK_TASKS = {"mutator", "family", "theta", "bicoherent", "resolution"}
POSITION_TASKS = {"mutator", "family", "theta", "position"}

# Every bound a task applies.  "task" is its bound, "task.<family kind>" its
# bound on that kind, and "task.<metric>" the bound of a metric judged on
# its own; every other metric of the task is held to the task's bound.
# tolerances.<task> replaces the task's bound and scales its metric bounds
# in proportion.
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
# Every key a task reads, in the order the runs take the tasks, as (type,
# the family kinds that read it, default, admissible range); the type is int
# or float.  A default may be a function of K.  A range is closed for an int
# and open for a float, and "K" stands for the config's K: the moments and
# the overlaps of a resolution task read rho_k for k below K_mom and support.
TASK_PARAMS = {
    "family": {"n_max": (int, ("position",), 6, (0, math.inf))},
    "mutator": {},
    "theta": {},
    "bicoherent": {"n_r": (int, FOCK_KINDS, 4, (1, math.inf)),
                   "n_theta": (int, FOCK_KINDS, 8, (1, math.inf)),
                   "r_frac": (float, FOCK_KINDS, 0.7, (0.0, 1.0))},
    "resolution": {"K_mom": (int, FOCK_KINDS, lambda dim: min(12, dim), (2, "K")),
                   "n_pairs": (int, FOCK_KINDS, 20, (1, math.inf)),
                   "support": (int, FOCK_KINDS, lambda dim: min(6, dim), (1, "K"))},
    "position": {"n_max": (int, ("position",), 5, (0, math.inf))},
}
CONFIG_KEYS = ("q", "K", "family", "tasks", "tolerances", "seed")
FAMILY_KEYS = {"identity": ("kind",), "rank_one": ("kind", "alpha_def", "preset", "u", "v"),
               "position": ("kind", "gamma")}
# the highest state index of the position mutator and theta checks
MUTATOR_N_MAX, THETA_N_MAX = 3, 2
# position families: ||phi_n||^2 scales as exp(gamma^2), finite below this
GAMMA_MAX = math.sqrt(math.log(sys.float_info.max))
# The largest support extent of u and v.  The dense blocks and windows of a
# Fock family cost extent^3 time: family, mutator and theta take about 5 s
# and 330 MB peak RSS at extent 1024 on a 2-core Xeon, 7.5 s and 505 MB at 1300.
MAX_SUPPORT_EXTENT = 1024
# The most entries of any one array a run may ask for: a Fock family holds
# arrays of K, a bicoherent task of (K + 1) n_r n_theta, a resolution task of
# K n_pairs, a position lattice of (n_max + 2)^2 and a beta table of n_max + 2
# entries.  2^40 doubles are 8 TiB, so every refused size would fail to allocate.
MAX_ARRAY_ENTRIES = 2 ** 40


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _bound(cfg: dict, task: str, metric: str | None = None) -> float:
    """The bound a run applies to a task, or to one of its metrics, as
    validate_config resolved it."""
    return cfg["bounds"].get(f"{task}.{metric}", cfg["bounds"][task])


def _parse_int(value, path: str) -> int:
    # a JSON true, false or string is no number, though int() takes each; an
    # int is taken as it is, where float(value) would round it past 2^53
    try:
        if not isinstance(value, (bool, str)):
            out = int(value)
            if isinstance(value, int) or out == float(value):
                return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{path}: not an integer ({value!r})")


def _parse_float(value, path: str) -> float:
    try:
        if not isinstance(value, (bool, str)):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{path}: not a number ({value!r})")


def _parse_ranged(kind_of: type, value, path: str, lo, hi=math.inf):
    """An int in [lo, hi] or a float in (lo, hi)."""
    out = (_parse_int if kind_of is int else _parse_float)(value, path)
    if not (lo < out < hi if kind_of is float else lo <= out <= hi):
        span = f"({lo}, {hi})" if kind_of is float else f"[{lo}, {hi}]"
        raise ConfigError(f"{path}: must lie in {span}, got {out}")
    return out


def _parse_complex(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        value = [value, 0.0]
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{path}: expected number or [re, im] pair, got {value!r}")
    re, im = (_parse_float(x, path) for x in value)
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ConfigError(f"{path}: must be finite, got {[re, im]}")
    return complex(re, im)


def _parse_sparse_vector(entries, path: str, dim: int) -> np.ndarray:
    """A vector from [index, re, im] triples, each index below dim and
    MAX_SUPPORT_EXTENT and named once."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: expected nonempty list of [index, re, im]")
    parsed: dict[int, tuple[int, complex]] = {}
    for i, item in enumerate(entries):
        if not (isinstance(item, list) and len(item) == 3):
            raise ConfigError(f"{path}[{i}]: expected [index, re, im]")
        k = item[0]
        if type(k) is not int or not 0 <= k < min(dim, MAX_SUPPORT_EXTENT):
            raise ConfigError(f"{path}[{i}]: index must be an integer below K = {dim} "
                              f"and MAX_SUPPORT_EXTENT = {MAX_SUPPORT_EXTENT}, got {k!r}")
        if k in parsed:
            raise ConfigError(f"{path}[{i}]: index {k} is already set by "
                              f"{path}[{parsed[k][0]}]")
        parsed[k] = (i, _parse_complex(item[1:], f"{path}[{i}]"))
    vec = np.zeros(max(parsed) + 1, dtype=complex)
    # += on +0 turns a -0.0 part into +0.0, as the parse always has
    vec[list(parsed)] += [z for _, z in parsed.values()]
    return vec


def _refuse_unknown(keys, known, path: str, owner: str) -> None:
    for key in keys:
        if key not in known:
            raise ConfigError(f"{path}{key}: unknown key; {owner} reads {list(known)}")


def _check_keys(cfg: dict) -> tuple[str, dict, list[dict]]:
    """The config's family kind, family and tasks, once every key of the
    config, its family and each task is one that CONFIG_KEYS, FAMILY_KEYS
    and TASK_PARAMS list there, every tolerances key names a listed task,
    and no task is named twice."""
    _refuse_unknown(cfg, CONFIG_KEYS, "", "a config")
    fam = cfg.get("family", {"kind": "identity"})
    if not isinstance(fam, dict) or "kind" not in fam:
        raise ConfigError("family: expected object with a 'kind' field")
    kind = fam["kind"]
    if not isinstance(kind, str) or kind not in FAMILY_KEYS:
        raise ConfigError(f"family.kind: unknown kind {kind!r}")
    _refuse_unknown(fam, FAMILY_KEYS[kind], "family.", f"family kind {kind!r}")
    if not isinstance(cfg.get("tasks"), list) or not cfg["tasks"]:
        raise ConfigError("tasks: expected nonempty task list")
    tasks: dict[str, dict] = {}
    for i, item in enumerate(cfg["tasks"]):
        path, item = f"tasks[{i}]", {"task": item} if isinstance(item, str) else item
        if not (isinstance(item, dict) and "task" in item):
            raise ConfigError(f"{path}: expected task name or object with a 'task' field")
        name = item["task"]
        if not isinstance(name, str) or name not in TASK_PARAMS:
            raise ConfigError(f"{path}: unknown task {name!r}")
        if name not in (POSITION_TASKS if kind == "position" else FOCK_TASKS):
            raise ConfigError(f"{path}: task {name!r} is not valid for family "
                              f"kind {kind!r}")
        # the summary keeps one report per task name
        if name in tasks:
            raise ConfigError(f"{path}: task {name!r} is listed twice")
        known = ["task"] + [key for key, (_, kinds, *_) in TASK_PARAMS[name].items()
                            if kind in kinds]
        _refuse_unknown(item, known, f"{path}.", f"task {name!r} of family kind {kind!r}")
        tasks[name] = dict(item)
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances: expected an object")
    # a bound for a task the config does not run would change no number
    _refuse_unknown(tol, tasks, "tolerances.", "tolerances")
    return kind, fam, list(tasks.values())


def _validate_task(task: dict, path: str, cfg: dict) -> None:
    """Parse and range-check, in place, the keys the task sets, fill in the
    defaults of the others, and refuse a task the config cannot run."""
    name, kind, q, dim = task["task"], cfg["family"]["kind"], cfg["q"], cfg["K"]
    for key, (kind_of, kinds, default, ends) in TASK_PARAMS[name].items():
        if kind not in kinds:
            continue
        if key not in task:
            task[key] = default(dim) if callable(default) else default
        else:
            lo, hi = ends
            task[key] = _parse_ranged(kind_of, task[key], f"{path}.{key}", lo,
                                      dim if hi == "K" else hi)
    keys, entries = (), 0
    if name == "bicoherent":
        keys, entries = ("n_r", "n_theta"), (dim + 1) * task["n_r"] * task["n_theta"]
    elif name == "resolution":
        keys, entries = ("n_pairs",), dim * task["n_pairs"]
    elif "n_max" in task:
        keys, entries = ("n_max",), (task["n_max"] + 2) ** 2
    if entries >= MAX_ARRAY_ENTRIES:
        raise ConfigError(f"{path}.{max(keys, key=task.get)}: the task's largest array "
                          f"would hold {entries} entries, at least MAX_ARRAY_ENTRIES = "
                          f"2^40; lower {' or '.join(keys)}")
    if name in ("bicoherent", "resolution") and not 0.0 < q < 1.0:
        raise ConfigError(f"{path}: task {name!r} requires 0 < q < 1 "
                          f"(convergence radius undefined at q={q})")
    if name in ("family", "theta") and kind != "position" and 1.0 + np.max(
            np.abs(cfg["family"]["deformation"].blocks()[0]), initial=0.0) == 1.0:
        # where S rounds to 1 every residual of these tasks is exactly 0.0
        remedy = ("use a rank_one family" if kind == "identity" else
                  f"alpha_def = {cfg['family']['deformation'].alpha_def} rounds "
                  f"S = 1 + alpha_def P_{{u,v}} to the identity; raise |alpha_def|")
        raise ConfigError(f"{path}: S = 1 leaves nothing to check in task {name!r}; "
                          f"{remedy}")
    if name == "bicoherent":
        # At the sweep's largest |z| the truncated undeformed state obeys
        # c e_K(z) - z e_K(z) = -z c_{K-1} e_{K-1}, so its relative eigen
        # residual |z| |c_{K-1}| / ||c_{<K}|| is exact, and N(|z|) cancels.
        r = task["r_frac"] * qcore.disc_radius(q)
        log_mod = bicoherent.log_coefficients(q, r, dim)
        mod = np.exp(log_mod - np.max(log_mod))
        resid = r * mod[-1] / np.linalg.norm(mod)
        bound = _bound(cfg, "bicoherent")
        if not resid <= bound:
            raise ConfigError(f"{path}.r_frac: at |z| = r_frac rho = {r:.6g} the "
                              f"K = {dim} truncation leaves an eigen residual "
                              f"{resid:.3e} above the bound {bound:.3e}; lower "
                              f"r_frac or raise K")
    if name == "resolution":
        try:
            resolution.atom_count(q)
        except ValueError as exc:
            raise ConfigError(f"q: {exc}") from None


def _position_lattice(cfg: dict, tasks: list[dict]) -> positionrep.Lattice:
    """The run's lattice, up to the largest row a task reads, once its
    rounding is known to fit every position task's bound.

    A task is refused where its states have lattice coefficients that cancel
    so far that rounding alone exceeds the task's bound.  The norms of the
    mutator and position tasks carry the phase of gamma; the phi/psi
    pairings of the family and theta tasks meet without it.  The lag sums
    behind the cancellation factors are gamma-free, so both gammas read
    them from the one lattice; the refusal reads nothing else of it, so a
    refused lattice never forms its states.
    """
    def n_max(task: dict) -> int:
        return task.get("n_max", MUTATOR_N_MAX if task["task"] == "mutator" else THETA_N_MAX)

    def params(task: dict) -> positionrep.PositionParams:
        return (cfg["family"]["params"] if task["task"] in ("mutator", "position")
                else positionrep.PositionParams(cfg["q"]))

    # the ladder check of the position task reads one row past its n_max
    table = positionrep.lattice(cfg["family"]["params"], max(map(n_max, tasks)) + 1)
    factors = {p: positionrep.cancellation(p, table.n_max, table) for p in set(map(params, tasks))}
    for i, task in enumerate(tasks):
        row = n_max(task)
        floor = sys.float_info.epsilon * factors[params(task)][row]
        bound = _bound(cfg, task["task"])
        if not floor <= bound:
            path, remedy = ((f"tasks[{i}].n_max", "n_max or q") if "n_max" in task
                            else (f"tasks[{i}]", "q"))
            raise ConfigError(f"{path}: the lattice coefficients of phi_n, "
                              f"n <= {row}, cancel so far at q={cfg['q']} that "
                              f"rounding alone reaches {floor:.3e}, above the "
                              f"bound {bound:.3e}; lower {remedy}")
    return table


def validate_config(cfg: dict) -> dict:
    """Parse and check a config.  The result is the run: "bounds" holds
    every bound it applies, resolved once, and a position family its
    PositionParams and lattice.  An unknown key is the first error named:
    every key is checked before any value is read."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    kind, fam, tasks = _check_keys(cfg)
    if "q" not in cfg:
        raise ConfigError("q: missing")
    out: dict = {"q": _parse_float(cfg["q"], "q")}
    out["K"] = _parse_ranged(int, cfg.get("K", 64), "K", 2, MAX_ARRAY_ENTRIES - 1)

    out["family"] = {"kind": kind}
    if kind == "position":
        out["family"]["gamma"] = _parse_ranged(float, fam.get("gamma", 0.5), "family.gamma",
                                               -GAMMA_MAX, GAMMA_MAX)
    else:
        if kind == "identity":
            deformation = pseudoquon.Deformation()
        else:
            alpha = _parse_complex(fam.get("alpha_def", [0.0, 1.0]), "family.alpha_def")
            worked = "u" not in fam and "v" not in fam
            if "preset" in fam and (fam["preset"] != "worked" or not worked):
                raise ConfigError(f"family.preset: got {fam['preset']!r} with keys "
                                  f"{list(fam)}; the one preset, 'worked', fixes u and v")
            if not worked:
                u = _parse_sparse_vector(fam.get("u"), "family.u", out["K"])
                v = _parse_sparse_vector(fam.get("v"), "family.v", out["K"])
            try:
                deformation = (pseudoquon.worked_deformation(alpha) if worked
                               else pseudoquon.Deformation.from_alpha(u, v, alpha))
            except ValueError as exc:
                raise ConfigError(f"family: {exc}") from None
        if deformation.safe_dim(out["K"]) < 1:
            raise ConfigError(f"K: must be at least support extent + 3 = "
                              f"{deformation.support_extent + 3} to leave a safe "
                              f"block, got {out['K']}")
        out["family"]["deformation"] = deformation
    try:
        if kind == "position":
            qcore.validate_q_disc(out["q"])
        elif not math.isfinite(qcore.bracket(out["q"], out["K"] + 1)):
            # q >= -1 and finite, and beta_K^2 = [K + 1] finite for build_family
            raise ConfigError(f"q: beta_{out['K']}^2 overflows at q={out['q']}")
    except ValueError as exc:
        raise ConfigError(f"q: {exc}") from None

    out["tolerances"] = {key: _parse_ranged(float, value, f"tolerances.{key}", 0.0)
                         for key, value in cfg.get("tolerances", {}).items()}
    out["bounds"] = bounds = {}
    for task in TASK_PARAMS:
        default = TOLERANCES.get(f"{task}.{kind}", TOLERANCES[task])
        bounds[task] = out["tolerances"].get(task, default)
        for key, value in TOLERANCES.items():
            owner, _, metric = key.partition(".")
            if owner == task and metric and metric not in FAMILY_KEYS:
                bounds[key] = value * (bounds[task] / default)
    for i, task in enumerate(tasks):
        _validate_task(task, f"tasks[{i}]", out)
    if kind == "position":
        out["family"]["params"] = positionrep.PositionParams(out["q"], out["family"]["gamma"])
        out["family"]["lattice"] = _position_lattice(out, tasks)
    order = list(TASK_PARAMS)
    out["tasks"] = sorted(tasks, key=lambda t: order.index(t["task"]))

    out["seed"] = _parse_ranged(int, cfg.get("seed", DEFAULT_SEED), "seed", 0)
    return out


# ---------------------------------------------------------------------------
# artefacts
# ---------------------------------------------------------------------------

def _write_text(out: Path | None, name: str, text: str) -> None:
    """Write text to out/name as it stands, CRLF line ends kept, making out
    if it is missing; nothing without --out.  An unusable --out is a config
    error."""
    if out is None:
        return
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, newline="")
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from None


def _write_table(out: Path | None, name: str, header: list[str], columns) -> None:
    """A table, one numeric column per array or sequence, as csv.writer
    writes its rows with each number as the string f"{v:.17g}", CRLF line
    ends included, from one template: '%.17g' % v is f"{v:.17g}" for every
    double, nan, +-inf, -0 and subnormals included."""
    if out is None:
        return
    template = ",".join(["%.17g"] * len(columns))
    values = itertools.chain.from_iterable(zip(*(np.asarray(c).tolist() for c in columns)))
    _write_text(out, name, ",".join(header) + "\r\n"
                + (template + "\r\n") * len(columns[0]) % tuple(values))


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

def _finish(cfg: dict, task: str, metrics: dict, **info) -> dict:
    """The task's report: each metric judged against its bound, which
    report["bounds"] records, and the info fields, which are not judged.

    max_residual is the largest metric held to the task's bound; a NaN
    metric fails.
    """
    metrics = {m: float(v) for m, v in metrics.items()}
    bounds = {m: _bound(cfg, task, m) for m in metrics}
    # np.max keeps a NaN, where Python's max may drop it
    resid = np.max([v for m, v in metrics.items() if f"{task}.{m}" not in TOLERANCES])
    return {**info, **metrics, "bounds": bounds, "max_residual": float(resid),
            "tolerance": _bound(cfg, task),
            "passed": all(v <= bounds[m] for m, v in metrics.items())}


def _task_mutator(cfg: dict, task: dict, out: Path | None) -> dict:
    fam = cfg["family"]
    if fam["kind"] == "position":
        states = positionrep.build_families(fam["params"], MUTATOR_N_MAX, fam["lattice"])[0]
        resid = positionrep.qmutation_grid_check(fam["params"], states)
        return _finish(cfg, "mutator", {"qmutator_residual": resid}, realization="analytic")
    fock = fam["fock"]
    resid = qmutator_residual(fock.a, fock.b, cfg["q"], fock.safe_dim)
    return _finish(cfg, "mutator", {"qmutator_residual": resid}, realization="fock",
                   safe_dim=fock.safe_dim)


def _task_family(cfg: dict, task: dict, out: Path | None) -> dict:
    fam = cfg["family"]
    if fam["kind"] == "position":
        return _finish(cfg, "family",
                       positionrep.similarity_check(fam["params"], task["n_max"], fam["lattice"]),
                       n_max=task["n_max"])
    fock = fam["fock"]
    metrics = {
        "gram_deviation": pseudoquon.gram_deviation(fock),
        **pseudoquon.check_ladder(fock),
        **pseudoquon.number_eigencheck(fock),
    }
    return _finish(cfg, "family", metrics, safe_dim=fock.safe_dim,
                   source=pseudoquon.family_to_json(fock))


def _task_theta(cfg: dict, task: dict, out: Path | None) -> dict:
    fam = cfg["family"]
    if fam["kind"] == "position":
        resid = positionrep.theta_conjugacy_check(fam["params"], THETA_N_MAX, fam["lattice"])
        return _finish(cfg, "theta", {"conjugacy_residual": resid}, realization="analytic")
    fock = fam["fock"]
    theta = pseudoquon.build_theta(fock)
    closed = pseudoquon.closed_form_theta(fock.source, fock.K)
    metrics = {
        "series_vs_closed": np.max(np.abs(theta.block - closed.block), initial=0.0),
        **pseudoquon.check_theta_conjugate(fock, theta),
    }
    return _finish(cfg, "theta", metrics)


def _task_bicoherent(cfg: dict, task: dict, out: Path | None) -> dict:
    # validate_config refused an r_frac whose K-term truncation misses the
    # bound at the rim of the sweep (r_frac 0.9 needs K around 256 at q = 0.5)
    n_r, n_theta, r_frac = task["n_r"], task["n_theta"], task["r_frac"]
    fock = cfg["family"]["fock"]
    rho = qcore.disc_radius(fock.q)
    # the whole n_r x n_theta grid, ring by ring, is one column batch
    fracs = np.linspace(r_frac / n_r, r_frac, n_r)
    angs = 2 * np.pi * np.arange(n_theta) / n_theta
    zs = (fracs[:, None] * rho * np.exp(1j * angs)).ravel()
    state = bicoherent.bicoherent_state(fock, zs)
    r_phi, r_psi = bicoherent.eigen_check(state)
    pair = bicoherent.pairing(state)
    unc = bicoherent.uncertainty_product(state)
    _write_table(out, "bicoherent.csv",
                 ["re_z", "im_z", "norm_const", "eigen_phi", "eigen_psi", "pairing_re",
                  "pairing_im", "uncertainty_re", "uncertainty_im", "uncertainty_predicted"],
                 [zs.real, zs.imag, state.norm_const, r_phi, r_psi, pair.real, pair.imag,
                  unc.product.real, unc.product.imag, unc.predicted])
    # np.max keeps a NaN, where Python's max may drop it
    metrics = {
        "eigen_residual": np.max([r_phi, r_psi]),
        "pairing_residual": np.max(np.abs(pair - 1.0)),
        "uncertainty_residual": np.max(unc.residual),
    }
    return _finish(cfg, "bicoherent", metrics, n_points=len(zs), rho=rho)


def _task_resolution(cfg: dict, task: dict, out: Path | None) -> dict:
    n_pairs, support = task["n_pairs"], task["support"]
    fock = cfg["family"]["fock"]
    quad = resolution.solve_moment_measure(cfg["q"], task["K_mom"])
    # the draws of pair j are re f_j, im f_j, re g_j, im g_j, in that order;
    # this task is the one consumer of the seed's stream
    draws = np.random.default_rng(cfg["seed"]).standard_normal((n_pairs, 2, 2, support))
    f, g = np.zeros((2, fock.K, n_pairs), dtype=complex)
    f[:support] = (draws[:, 0, 0] + 1j * draws[:, 0, 1]).T
    g[:support] = (draws[:, 1, 0] + 1j * draws[:, 1, 1]).T
    val = resolution.resolution_check(fock, quad, f, g)
    metrics = {
        "resolution_residual": np.max(np.abs(val - np.sum(f.conj() * g, axis=0))),
        "moment_residual": quad.max_residual,
    }
    return _finish(cfg, "resolution", metrics, quadrature=resolution.residual_report(quad),
                   n_pairs=n_pairs)


def _task_position(cfg: dict, task: dict, out: Path | None) -> dict:
    n_max, fam = task["n_max"], cfg["family"]
    norm_rep = positionrep.norm_formula_check(fam["params"], n_max, fam["lattice"])
    ladder = positionrep.ladder_check(fam["params"], min(n_max, 6), fam["lattice"])
    # where the formula's side claim L_n <= (n+1)^2 fails, the formula fails
    rel = norm_rep["max_rel_err"] if norm_rep["L_bound_ok"] else math.inf
    metrics = {"norm_formula_max_rel": rel, "ladder_residual": ladder["max_residual"]}
    return _finish(cfg, "position", metrics, L_bound_ok=norm_rep["L_bound_ok"], n_max=n_max)


TASK_RUNNERS = {
    "mutator": _task_mutator,
    "family": _task_family,
    "theta": _task_theta,
    "bicoherent": _task_bicoherent,
    "resolution": _task_resolution,
    "position": _task_position,
}


def run_config(cfg: dict, out_dir: Path | None = None,
               echo: Callable[[str], object] | None = None) -> tuple[dict, int]:
    """Execute every task; returns (summary, exit_code).  The summary is
    encoded once, for summary.json in out_dir and for echo, which is given
    that text without the timings, and not at all without either.  out_dir
    holds only it, with every verdict, and the tables the tasks write."""
    cfg = validate_config(cfg)
    if cfg["family"]["kind"] != "position":
        cfg["family"]["fock"] = pseudoquon.build_family(cfg["family"]["deformation"],
                                                        cfg["q"], cfg["K"])
    summary: dict = {
        "q": cfg["q"],
        "K": cfg["K"],
        "family_kind": cfg["family"]["kind"],
        "seed": cfg["seed"],
        "tasks": {},
    }
    timings = {}
    for task in cfg["tasks"]:
        name = task["task"]
        start = time.perf_counter()
        report = TASK_RUNNERS[name](cfg, task, out_dir)
        timings[name] = time.perf_counter() - start
        summary["tasks"][name] = report
    # validate_config refused a task named twice, so every report is here
    all_pass = summary["all_pass"] = all(r["passed"] for r in summary["tasks"].values())
    if out_dir is None and echo is None:
        return summary, 0 if all_pass else 1
    text = json.dumps(summary, sort_keys=True, indent=2)
    if out_dir is not None:
        # "timings" sorts after every other key: '{\n  "timings": ...}' goes on after a comma
        timed = json.dumps({"timings": timings}, sort_keys=True, indent=2)
        _write_text(out_dir, "summary.json", text[:-2] + "," + timed[1:] + "\n")
    if echo is not None:
        echo(text)
    return summary, 0 if all_pass else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_beta(args) -> int:
    _parse_ranged(int, args.n_max, "n_max", 0, MAX_ARRAY_ENTRIES - 1)
    try:
        bs = BetaSequence(args.q, args.n_max)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"q: {exc}") from None
    lines = ["n,beta,beta_factorial"]
    for n, (beta, fact) in enumerate(zip(bs.beta[1:].tolist(), bs.factorial[1:].tolist())):
        if not math.isfinite(fact):
            raise ConfigError(f"n_max: beta_{n}! overflows at q={args.q}; "
                              f"the largest n_max is {n - 1}")
        lines.append(f"{n},{beta:.17g},{fact:.17g}")
    print("\n".join(lines))
    return 0


def _cmd_task(args) -> int:
    task = {"task": args.command}
    task.update((key, getattr(args, key)) for key in TASK_PARAMS[args.command]
                if getattr(args, key) is not None)
    # a rank_one family with neither u nor v is the worked preset; a given
    # --gamma is passed on, so that a Fock family refuses it
    family = {"kind": args.family}
    if args.gamma is not None:
        family["gamma"] = args.gamma
    return run_config({"q": args.q, "K": args.dim, "family": family, "tasks": [task],
                       "seed": args.seed}, Path(args.out) if args.out else None, echo=print)[1]


def _cmd_run(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from None
    except ValueError as exc:     # undecodable bytes or invalid JSON
        raise ConfigError(f"--config: invalid JSON ({exc})") from None
    return run_config(cfg, Path(args.out) if args.out else None, echo=print)[1]


def _cmd_selftest(args) -> int:
    from . import selftest      # selftest runs its criteria through this module
    results = selftest.run_all(args.seed)
    print(selftest.format_results(results))
    unexpected = [r for r in results if r.unexpected_failure]
    expected = [r for r in results if r.known_discrepancy and not r.passed]
    print(f"\n{len(results)} checks: "
          f"{sum(r.passed for r in results)} passed, "
          f"{len(unexpected)} failed, {len(expected)} expected failures")
    return 1 if unexpected else 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=float, default=0.5)
    parser.add_argument("--out", type=str, default=None,
                        help="directory for JSON/CSV artifacts")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--family", type=str, default="identity",
                        choices=["identity", "rank_one", "position"])
    parser.add_argument("--gamma", type=float,
                        help="shift parameter of a position family (default 0.5)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="biquon",
        description="deformed quon algebras, biorthogonal families and "
                    "bi-coherent states on truncated spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="tabulate the coefficient sequence")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--n-max", type=int, default=16)
    p.set_defaults(func=_cmd_beta)

    for name, params in TASK_PARAMS.items():
        p = sub.add_parser(name, help=f"run the {name} checks")
        _add_common(p)
        # a flag left out sets nothing, so validate_config fills its default
        for key, (kind_of, *_) in params.items():
            p.add_argument("--" + key.lower().replace("_", "-"), dest=key, type=kind_of)
        if name in ("family", "theta", "position"):
            # S = 1 leaves the Fock family and theta tasks nothing to check
            p.set_defaults(family="position" if name == "position" else "rank_one")
        p.set_defaults(func=_cmd_task)

    p = sub.add_parser("run", help="execute a full experiment config")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("selftest", help="run the acceptance checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_selftest)
    return parser


def _silence(stream) -> None:
    """Point stream's file descriptor at the null device: the flush at exit
    would meet the same broken pipe and set the status to 120."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _config_error(message: str) -> int:
    """Report a refusal on standard error, which may be a closed pipe too;
    the exit status is 2 either way."""
    try:
        print(f"config error: {message}", file=sys.stderr, flush=True)
    except BrokenPipeError:
        _silence(sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # flush while a broken pipe can still exit 2; print skips a None stdout
        print(end="", flush=True)
        return code
    except BrokenPipeError as exc:
        _silence(sys.stdout)
        return _config_error(f"standard output: {exc}")
    except ConfigError as exc:
        return _config_error(str(exc))
    except MemoryError as exc:
        # a size below MAX_ARRAY_ENTRIES can still exceed the memory there is
        return _config_error(f"out of memory ({exc})")


if __name__ == "__main__":
    # as a script this file is a second module; run_config raises the
    # ConfigError of biquon.cli
    from biquon.cli import main as package_main
    sys.exit(package_main())
