"""Tests for the command-line front-end: configs, artifacts, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biquon
from biquon.cli import ConfigError, main, run_config, validate_config

WORKED_CONFIG = {
    "q": 0.5,
    "K": 64,
    "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]},
    "tasks": ["mutator", "family", "theta",
              {"task": "bicoherent", "n_r": 3, "n_theta": 6, "r_frac": 0.7},
              {"task": "resolution", "n_pairs": 5}],
    "seed": 99,
}


class TestValidation:
    def test_minimal_config(self):
        cfg = validate_config({"q": 0.5, "K": 64,
                               "family": {"kind": "identity"},
                               "tasks": ["mutator"]})
        assert cfg["tasks"] == [{"task": "mutator"}]

    def test_missing_q(self):
        with pytest.raises(ConfigError, match="q"):
            validate_config({"tasks": ["mutator"]})

    def test_unknown_task_named_in_path(self):
        with pytest.raises(ConfigError, match=r"tasks\[1\]"):
            validate_config({"q": 0.5, "family": {"kind": "identity"},
                             "tasks": ["mutator", "frobnicate"]})

    def test_position_task_needs_position_family(self):
        with pytest.raises(ConfigError, match="position"):
            validate_config({"q": 0.5, "family": {"kind": "identity"},
                             "tasks": ["position"]})

    def test_bicoherent_outside_unit_interval(self):
        with pytest.raises(ConfigError, match="radius undefined"):
            validate_config({"q": 1.5, "family": {"kind": "identity"},
                             "tasks": ["bicoherent"]})

    def test_mutator_allows_algebraic_q(self):
        cfg = validate_config({"q": 1.5, "family": {"kind": "identity"},
                               "tasks": ["mutator"]})
        assert cfg["q"] == 1.5

    def test_explicit_rank_one_vectors(self):
        cfg = validate_config({
            "q": 0.5,
            "family": {"kind": "rank_one", "alpha_def": [0, 1],
                       "u": [[0, 1.0, 0.0]], "v": [[0, 1.0, 0.0]]},
            "tasks": ["mutator"]})
        assert cfg["family"]["deformation"].alpha_def == 1j

    def test_bad_pairing_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="family"):
            validate_config({
                "q": 0.5,
                "family": {"kind": "rank_one", "alpha_def": [0, 1],
                           "u": [[0, 1.0, 0.0]], "v": [[0, 2.0, 0.0]]},
                "tasks": ["mutator"]})

    def test_tolerances_copied_not_rewritten(self):
        tolerances = {"mutator": "1e-3"}
        cfg = validate_config({"q": 0.5, "family": {"kind": "identity"},
                               "tasks": ["mutator"], "tolerances": tolerances})
        assert cfg["tolerances"] == {"mutator": 1e-3}
        assert tolerances == {"mutator": "1e-3"}

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="tolerances"):
            validate_config({"q": 0.5, "family": {"kind": "identity"},
                             "tasks": ["mutator"],
                             "tolerances": {"nonsense": 1.0}})


POSITION = {"kind": "position", "gamma": 0.5}
# u = e_0 + 0.3 e_6 + (0.2 + 0.1i) e_11, v = e_0 + (0.1 + 0.2i) e_8: the
# resolution overlaps reach index 11, past the default support of 6
COMPACT = {"kind": "rank_one", "alpha_def": [0, 1],
           "u": [[0, 1, 0], [6, 0.3, 0], [11, 0.2, 0.1]],
           "v": [[0, 1, 0], [8, 0.1, 0.2]]}

BAD_CONFIGS = {
    "q-nan": ({"q": float("nan")}, "q"),
    "q-inf": ({"q": float("inf")}, "q"),
    "q-below-minus-one": ({"q": -2}, "q"),
    "q-beta-overflow": ({"q": 3, "K": 4000}, "q"),
    "position-q-above-one": ({"q": 1.5, "family": POSITION}, "q"),
    "position-q-zero": ({"q": 0, "family": POSITION}, "q"),
    "position-n_max": ({"family": POSITION, "tasks": [{"task": "position", "n_max": -1}]},
                       r"tasks\[0\].n_max"),
    "family-n_max": ({"tasks": [{"task": "family", "n_max": -1}]}, r"tasks\[0\].n_max"),
    "fock-family-n_max": ({"family": {"kind": "rank_one"},
                           "tasks": [{"task": "family", "n_max": 3}]},
                          r"tasks\[0\].n_max"),
    "tolerance-negative": ({"tolerances": {"mutator": -1e-3}}, "tolerances.mutator"),
    "K-not-integer": ({"K": "abc"}, "K"),
    "K-fractional": ({"K": 64.5}, "K"),
    "seed-not-integer": ({"seed": "x"}, "seed"),
    "seed-negative": ({"seed": -1}, "seed"),
    "gamma-not-number": ({"family": {"kind": "position", "gamma": "x"},
                          "tasks": ["mutator"]}, "family.gamma"),
    "gamma-27-overflows": ({"family": {"kind": "position", "gamma": 27},
                            "tasks": ["mutator"]}, "family.gamma"),
    "gamma-30-overflows": ({"family": {"kind": "position", "gamma": -30},
                            "tasks": ["mutator"]}, "family.gamma"),
    "rank_one-K-below-extent": ({"K": 4, "family": {"kind": "rank_one"}}, "K"),
    "rank_one-K-no-safe-block": ({"K": 8, "family": {"kind": "rank_one"}}, "K"),
    "bicoherent-n_r": ({"tasks": [{"task": "bicoherent", "n_r": 0}]},
                       r"tasks\[0\].n_r"),
    "bicoherent-n_theta": ({"tasks": [{"task": "bicoherent", "n_theta": 0}]},
                           r"tasks\[0\].n_theta"),
    "bicoherent-r_frac": ({"tasks": [{"task": "bicoherent", "r_frac": 1.2}]},
                          r"tasks\[0\].r_frac"),
    "bicoherent-norm-overflow": ({"q": 0.9999, "tasks": ["bicoherent"]},
                                 r"tasks\[0\].r_frac"),
    "resolution-K_mom-small": ({"tasks": [{"task": "resolution", "K_mom": 1}]},
                               r"tasks\[0\].K_mom"),
    "resolution-K_mom-overflow": ({"tasks": [{"task": "resolution",
                                              "K_mom": 5000}]},
                                  r"tasks\[0\].K_mom"),
    "resolution-n_pairs": ({"tasks": [{"task": "resolution", "n_pairs": 0}]},
                           r"tasks\[0\].n_pairs"),
    "resolution-q-near-one": ({"q": 0.999999, "tasks": ["resolution"]}, "q"),
    "resolution-K_mom-past-moment-limit": ({"q": 0.999, "K": 512,
                                            "tasks": [{"task": "resolution",
                                                       "K_mom": 287}]},
                                           r"tasks\[0\].K_mom"),
    "resolution-support-past-moment-limit": ({"q": 0.999, "K": 512,
                                              "tasks": [{"task": "resolution",
                                                         "support": 510,
                                                         "n_theta": 1100}]},
                                             r"tasks\[0\].support"),
    "resolution-support-0": ({"tasks": [{"task": "resolution", "support": 0}]},
                             r"tasks\[0\].support"),
    "resolution-support-above-K": ({"tasks": [{"task": "resolution", "support": 33}]},
                                   r"tasks\[0\].support"),
    "resolution-n_theta": ({"tasks": [{"task": "resolution", "n_theta": 4}]},
                           r"tasks\[0\].n_theta"),
    "resolution-n_theta-below-extent": ({"K": 64, "family": COMPACT,
                                         "tasks": [{"task": "resolution", "K_mom": 24,
                                                    "n_theta": 12}]},
                                        r"tasks\[0\].n_theta"),
}


BAD_ARGS = {
    "mutator-q-nan": (["mutator", "--q", "nan"], "q"),
    "mutator-q-below-minus-one": (["mutator", "--q", "-2"], "q"),
    "position-q-above-one": (["position", "--q", "1.5"], "q"),
    "position-family-q-zero": (["mutator", "--family", "position", "--q", "0"], "q"),
    "mutator-beta-overflow": (["mutator", "--q", "3", "--dim", "4000"], "q"),
    "position-n-max": (["position", "--n-max", "-1"], r"tasks[0].n_max"),
    "beta-q-nan": (["beta", "--q", "nan"], "q"),
    "beta-n-max": (["beta", "--n-max", "-1"], "n_max"),
    "beta-overflow": (["beta", "--q", "1.5", "--n-max", "5000"], "q"),
    "tolerance-scale-zero": (["mutator", "--tolerance-scale", "0"], "--tolerance-scale"),
    "tolerance-scale-nan": (["mutator", "--tolerance-scale", "nan"], "--tolerance-scale"),
    "selftest-seed-negative": (["selftest", "--seed", "-1"], "seed"),
    "family-rank_one-n-max": (["family", "--family", "rank_one", "--n-max", "3"],
                              "tasks[0].n_max"),
    "bicoherent-r-frac-rim": (["bicoherent", "--q", "0.5", "--r-frac", "0.999"],
                              "tasks[0].r_frac"),
}


class TestExitCodeContract:
    """Malformed configs exit 2 with the offending field path, never 1."""

    @pytest.mark.parametrize("patch,path", BAD_CONFIGS.values(),
                             ids=BAD_CONFIGS.keys())
    def test_bad_config_exits_2(self, patch, path, tmp_path, capsys):
        cfg = {"q": 0.5, "K": 32, "family": {"kind": "identity"},
               "tasks": ["mutator"], **patch}
        with pytest.raises(ConfigError, match=f"^{path}:"):
            validate_config(cfg)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,path", BAD_ARGS.values(), ids=BAD_ARGS.keys())
    def test_bad_arguments_exit_2(self, argv, path, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    def test_largest_finite_gamma_runs_without_exception(self, capsys):
        assert main(["position", "--gamma", "26"]) in (0, 1)

    def test_resolution_beyond_old_moment_cap_exits_0(self, capsys):
        assert main(["resolution", "--q", "0.5", "--k-mom", "30"]) == 0
        report = json.loads(capsys.readouterr().out)["tasks"]["resolution"]
        assert report["quadrature"]["method"] == "jackson"
        assert report["moment_residual"] <= 1e-13

    def test_resolution_overlaps_past_support_exit_0(self):
        summary, code = run_config({"q": 0.5, "K": 64, "family": COMPACT,
                                    "tasks": [{"task": "resolution", "K_mom": 12}]})
        assert code == 0
        assert summary["tasks"]["resolution"]["max_residual"] <= 1e-8


def _package_env() -> dict:
    path = [str(Path(biquon.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_module_entry_point_keeps_exit_code_contract():
    proc = subprocess.run([sys.executable, "-m", "biquon.cli", "selftest", "--seed", "-1"],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: seed:")


def test_cli_import_does_not_load_scipy():
    subprocess.run([sys.executable, "-c",
                    "import sys, biquon.cli; assert 'scipy' not in sys.modules"],
                   env=_package_env(), check=True, timeout=60)


class TestRunConfig:
    def test_minimal_run_passes(self):
        summary, code = run_config({"q": 0.5, "K": 64,
                                    "family": {"kind": "identity"},
                                    "tasks": ["mutator"]})
        assert code == 0
        assert summary["all_pass"]
        assert summary["tasks"]["mutator"]["max_residual"] < 1e-12

    def test_worked_reproduction(self, tmp_path):
        summary, code = run_config(WORKED_CONFIG, tmp_path)
        assert code == 0
        assert summary["all_pass"]
        for name in ("mutator", "family", "theta", "bicoherent", "resolution"):
            assert summary["tasks"][name]["passed"], name
        for artifact in ("summary.json", "residuals.csv", "family.json",
                         "bicoherent.csv", "quadrature.csv", "moments.json"):
            assert (tmp_path / artifact).exists(), artifact

    def test_position_family_run(self, tmp_path):
        cfg = {"q": 0.5, "K": 32,
               "family": {"kind": "position", "gamma": 0.6},
               "tasks": ["mutator", "family", "theta",
                         {"task": "position", "n_max": 4}]}
        summary, code = run_config(cfg, tmp_path)
        assert code == 0
        assert summary["tasks"]["position"]["L_bound_ok"]
        assert (tmp_path / "coefficients.csv").exists()

    def test_tolerance_scale_can_force_failure(self):
        _, code = run_config({"q": 0.5, "K": 64,
                              "family": {"kind": "identity"},
                              "tasks": ["mutator"]}, tol_scale=1e-20)
        assert code == 1

    def test_determinism_modulo_timings(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_config(WORKED_CONFIG, d1)
        run_config(WORKED_CONFIG, d2)
        s1 = json.loads((d1 / "summary.json").read_text())
        s2 = json.loads((d2 / "summary.json").read_text())
        s1.pop("timings")
        s2.pop("timings")
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    def test_every_summary_numeric_in_csv(self, tmp_path):
        summary, _ = run_config(WORKED_CONFIG, tmp_path)
        with (tmp_path / "residuals.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        recorded = {(r["task"], r["metric"]) for r in rows}
        for task, report in summary["tasks"].items():
            for key, value in report.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    assert (task, key) in recorded, (task, key)


class TestMainEntry:
    def test_beta_subcommand(self, capsys):
        assert main(["beta", "--q", "0.5", "--n-max", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,beta,beta_factorial")
        assert len(lines) == 5

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"q": 0.5, "K": 32, "family": {"kind": "identity"},
             "tasks": ["mutator"]}))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert json.loads(capsys.readouterr().out)["all_pass"]

    def test_run_missing_config_exits_2(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    def test_run_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(
            {"q": 1.5, "family": {"kind": "identity"}, "tasks": ["bicoherent"]}))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_mutator_subcommand(self, capsys):
        assert main(["mutator", "--q", "0.3", "--family", "rank_one"]) == 0

    def test_mutator_dump_operators(self, tmp_path, capsys):
        assert main(["mutator", "--q", "0.3", "--family", "rank_one",
                     "--dump-operators", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "a.csv").exists()
        assert (tmp_path / "b.csv").exists()

    def test_bicoherent_rim_needs_larger_dim(self, capsys):
        assert main(["bicoherent", "--q", "0.5", "--family", "rank_one",
                     "--dim", "256", "--r-frac", "0.9"]) == 0

    def test_position_subcommand(self, capsys):
        assert main(["position", "--q", "0.4", "--gamma", "0.5",
                     "--n-max", "3"]) == 0

    def test_selftest_subcommand(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "01-qmutator-identity" in out
        assert "FAIL(expected)" in out      # the documented radius discrepancy
        assert "\nFAIL " not in out



@st.composite
def _fock_family(draw) -> tuple[dict, int]:
    """A Fock family config and the support extent of its deformation."""
    kind = draw(st.sampled_from(["identity", "worked", "compact"]))
    if kind == "identity":
        return {"kind": "identity"}, 0
    theta = draw(st.floats(-2.5, 2.5))      # alpha_def = e^{i theta}
    family = {"kind": "rank_one", "alpha_def": [math.cos(theta), math.sin(theta)]}
    if kind == "worked":
        return {**family, "preset": "worked"}, 6
    # u = e_0 + (entries on some indices), v = e_0 + (entries on others), so
    # <u, v> = 1; the last index of the extent belongs to u or v
    extent = draw(st.integers(1, 14))
    owners = draw(st.lists(st.sampled_from(["u", "v", None]),
                           min_size=extent - 1, max_size=extent - 1))
    if extent > 1:
        owners[-1] = draw(st.sampled_from(["u", "v"]))
    part = st.floats(-1.0, 1.0)
    vectors = {"u": [[0, 1.0, 0.0]], "v": [[0, 1.0, 0.0]]}
    for index, owner in enumerate(owners, start=1):
        if owner:
            vectors[owner].append([index, draw(part), draw(part)])
    return {**family, **vectors}, extent


def _task_params(draw, K: int, extent: int) -> dict:
    """(in range, out of range) strategies per task parameter; the n_theta
    bound follows the support drawn before it."""
    support = draw(st.none() | st.integers(1, K))
    reach = max(min(6, K) if support is None else support, extent)
    return {
        "resolution": {
            "K_mom": (st.integers(2, K), st.integers(-1, 1) | st.integers(K + 1, K + 20)),
            "support": (st.just(support), st.integers(-1, 0) | st.integers(K + 1, K + 20)),
            "n_theta": (st.integers(2 * reach - 1, 2 * reach + 40),
                        st.integers(-1, 2 * reach - 2)),
            "n_pairs": (st.integers(1, 3), st.integers(-1, 0)),
        },
        "bicoherent": {
            "r_frac": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                       | st.sampled_from([0.7, 0.9, 0.99, 0.999]),
                       st.sampled_from([0.0, 1.0, 1.5, -0.1])),
            "n_r": (st.integers(1, 3), st.integers(-1, 0)),
            "n_theta": (st.integers(1, 4), st.integers(-1, 0)),
        },
    }


@st.composite
def _fock_config(draw) -> dict:
    """A resolution and/or bicoherent config; each task leaves its parameters
    out or sets them in range, except at most one set out of range."""
    K = draw(st.integers(2, 64))
    family, extent = draw(_fock_family())
    params = _task_params(draw, K, extent)
    tasks = []
    for name in draw(st.lists(st.sampled_from(["resolution", "bicoherent"]),
                              min_size=1, max_size=2, unique=True)):
        bad = draw(st.sampled_from([None, None, None, *params[name]]))
        task = {"task": name}
        for key, (valid, invalid) in params[name].items():
            value = draw(invalid if key == bad else st.none() | valid)
            if value is not None:
                task[key] = value
        tasks.append(task)
    q = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
             | st.sampled_from([0.5, 0.9, 0.99, 0.999, 0.9999]))
    return {"q": q, "K": K, "family": family, "tasks": tasks, "seed": 5}


class TestConfigFuzz:
    """Every Fock resolution or bicoherent config keeps the exit-code
    contract in process: a verdict of 0 or 1, or a ConfigError (exit 2)."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=_fock_config())
    def test_run_config_keeps_exit_code_contract(self, cfg):
        try:
            summary, code = run_config(cfg)
        except ConfigError:
            return
        assert code in (0, 1)
        # a NaN residual must not hide behind a verdict
        for report in summary["tasks"].values():
            assert math.isfinite(report["max_residual"])
