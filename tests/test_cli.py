"""Tests for the command-line front-end: configs, artifacts, exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biquon
from biquon import bicoherent, cli, positionrep, pseudoquon, resolution
from biquon.cli import GAMMA_MAX, ConfigError, main, run_config, validate_config
from biquon.fock import FockOperator

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

    def test_seed_past_2_53_is_taken_exactly(self):
        # 2^53 + 1 has no float; the parent refused it as "not an integer"
        seed = 2 ** 53 + 1
        cfg = {"q": 0.5, "K": 32, "family": {"kind": "identity"}, "tasks": ["mutator"],
               "seed": seed}
        assert validate_config(cfg)["seed"] == seed
        assert run_config(cfg)[0]["seed"] == seed

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
        # the JSON int 1 is parsed to the float 1.0 in the copy alone
        tolerances = {"mutator": 1}
        cfg = validate_config({"q": 0.5, "family": {"kind": "identity"},
                               "tasks": ["mutator"], "tolerances": tolerances})
        assert type(cfg["tolerances"]["mutator"]) is float
        assert type(tolerances["mutator"]) is int

    def test_defaults_are_filled_in(self):
        cfg = validate_config({"q": 0.5, "tasks": ["resolution", "bicoherent"]})
        assert cfg["tasks"] == [
            {"task": "bicoherent", "n_r": 4, "n_theta": 8, "r_frac": 0.7},
            {"task": "resolution", "K_mom": 12, "n_pairs": 20, "support": 6}]
        # K_mom and support stop at K
        cfg = validate_config({"q": 0.5, "K": 4, "tasks": ["resolution"]})
        assert cfg["tasks"][0] | {"K_mom": 4, "support": 4} == cfg["tasks"][0]

    def test_support_extent_budget_is_inclusive(self):
        def family(extent):
            return {"kind": "rank_one", "u": [[0, 1, 0], [extent - 1, 1, 0]],
                    "v": [[0, 1, 0]]}
        budget = cli.MAX_SUPPORT_EXTENT
        cfg = validate_config({"q": 0.5, "K": 2 * budget, "tasks": ["mutator"],
                               "family": family(budget)})
        assert cfg["family"]["deformation"].support_extent == budget
        with pytest.raises(ConfigError, match=r"^family.v\[0\]: index"):
            validate_config({"q": 0.5, "K": 2 * budget, "tasks": ["mutator"],
                             "family": {**family(2), "v": [[budget, 1, 0]]}})

    def test_unknown_tolerance_key(self):
        with pytest.raises(ConfigError, match="tolerances"):
            validate_config({"q": 0.5, "family": {"kind": "identity"},
                             "tasks": ["mutator"],
                             "tolerances": {"nonsense": 1.0}})


POSITION = {"kind": "position", "gamma": 0.5}
WORKED = WORKED_CONFIG["family"]
UNIT = {"kind": "rank_one", "alpha_def": [0, 1], "u": [[0, 0.6, 0], [1, 0.8, 0]],
        "v": [[0, 0.6, 0], [1, 0.8, 0]]}
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
    # L_n rounds to 0 at n = 2 (traceback at the parent), and phi_n's lattice
    # coefficients cancel past the family bound at q = 0.99; the lookahead
    # asks that the rounding refusal names the field
    "position-n_max-cancels": ({"q": 1 - 2 ** -52, "family": POSITION,
                                "tasks": [{"task": "position", "n_max": 6}]},
                               r"tasks\[0\].n_max(?=: the lattice coefficients)"),
    "position-family-n_max-cancels": ({"q": 0.99, "family": POSITION,
                                       "tasks": [{"task": "family", "n_max": 12}]},
                                      r"tasks\[0\].n_max(?=: the lattice coefficients)"),
    # row 40 of the state prefactors (-i/sqrt(1-q))^n, 2^1040, overflows a
    # float: the refusal must not form the states
    "position-family-n_max-cancels-overflow": (
        {"q": 1 - 2 ** -52, "family": POSITION, "tasks": [{"task": "family", "n_max": 39}]},
        r"tasks\[0\].n_max(?=: the lattice coefficients)"),
    # at q = 0.999 the mutator reads 7.0e-9 on rounding (exit 1 at the
    # parent), and theta's phi/psi pairing of n <= 2 reaches 1.7e-10
    "position-mutator-cancels": ({"q": 0.999, "family": POSITION, "tasks": ["mutator"]},
                                 r"tasks\[0\](?=: the lattice coefficients)"),
    "position-theta-cancels": ({"q": 0.999, "family": POSITION, "tasks": ["theta"]},
                               r"tasks\[0\](?=: the lattice coefficients)"),
    "fock-family-n_max": ({"family": {"kind": "rank_one"},
                           "tasks": [{"task": "family", "n_max": 3}]},
                          r"tasks\[0\].n_max"),
    # the position mutator and theta tasks check fixed n <= 3 and n <= 2
    "position-mutator-n_max": ({"family": POSITION,
                                "tasks": [{"task": "mutator", "n_max": 40}]},
                               r"tasks\[0\].n_max"),
    "position-theta-n_max": ({"family": POSITION,
                              "tasks": [{"task": "theta", "n_max": -3}]},
                             r"tasks\[0\].n_max"),
    "tolerance-negative": ({"tolerances": {"mutator": -1e-3}}, "tolerances.mutator"),
    # a bound for a task the config does not list changes no number; each
    # exited 0 at the parent, the first with tasks its family cannot run
    "tolerances-unlisted-position": ({"family": POSITION, "tasks": ["mutator"],
                                      "tolerances": {"bicoherent": 1e-3, "resolution": 5.0}},
                                     "tolerances.bicoherent(?=: unknown key)"),
    "tolerances-unlisted-fock": ({"family": WORKED, "tolerances": {"theta": 1e-3}},
                                 "tolerances.theta(?=: unknown key)"),
    "K-not-integer": ({"K": "abc"}, "K"),
    "K-fractional": ({"K": 64.5}, "K"),
    "identity-K-no-safe-block": ({"K": 2}, "K"),
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
    "resolution-support-0": ({"tasks": [{"task": "resolution", "support": 0}]},
                             r"tasks\[0\].support"),
    "resolution-support-above-K": ({"tasks": [{"task": "resolution", "support": 33}]},
                                   r"tasks\[0\].support"),
    # the angle integral is exact, so a resolution task reads no n_theta
    "resolution-n_theta": ({"tasks": [{"task": "resolution", "n_theta": 64}]},
                           r"tasks\[0\].n_theta(?=: unknown key)"),
    # S and S^-1 whose blocks fail to invert each other by 1.2e-7 and 7e283
    # (a traceback at the parent); NaN parts passed every tolerance test
    # there and left NaN residuals
    "alpha-near-minus-one-worked": ({"K": 16, "family": {**WORKED, "alpha_def": [-1 + 1e-9, 0]}},
                                    "family"),
    "alpha-near-minus-one-unit": ({"K": 16, "family": {**UNIT, "alpha_def": [-1 + 1e-9, 0]}},
                                  "family"),
    "alpha-1e300": ({"K": 16, "family": {**WORKED, "alpha_def": [1e300, 0]}}, "family"),
    "alpha-nan": ({"K": 16, "family": {**WORKED, "alpha_def": [math.nan, 0]}},
                  "family.alpha_def"),
    "u-nan": ({"K": 16, "family": {**UNIT, "u": [[0, 0.6, 0], [1, math.nan, 0]]}},
              r"family.u\[1\]"),
    "alpha-part-not-number": ({"K": 16, "family": {**WORKED, "alpha_def": [1, "x"]}},
                              "family.alpha_def"),
    "u-part-not-number": ({"K": 16, "family": {**UNIT, "u": [[0, "a", 0]]}},
                          r"family.u\[0\]"),
    # a JSON true passed as index 1 at the parent
    "u-index-true": ({"K": 16, "family": {**UNIT, "u": [[0, 0.6, 0], [True, 0.8, 0]]}},
                     r"family.u\[1\]"),
    # the parent allocated the 10^9 + 1 entries before its K check
    "u-index-past-K": ({"K": 16, "family": {**UNIT, "u": [[10 ** 9, 1, 0]]}},
                       r"family.u\[0\]"),
    # the parent summed the two entries and ran u = e_0 (v = e_0)
    "u-index-repeated": ({"K": 16, "family": {**UNIT, "u": [[0, 0.5, 0], [0, 0.5, 0]],
                                              "v": [[0, 1, 0]]}},
                         r"family.u\[1\](?=: index 0 is already set by family.u\[0\])"),
    "v-index-repeated": ({"K": 16, "family": {**UNIT, "u": [[0, 1, 0]],
                                              "v": [[0, 0.6, 0], [1, 0.8, 0], [0, 0.4, 0]]}},
                         r"family.v\[2\](?=: index 0 is already set by family.v\[0\])"),
    # with S = 1 every family and theta residual is exactly 0.0
    "identity-family-task": ({"tasks": ["family"]}, r"tasks\[0\]"),
    "identity-theta-task": ({"tasks": ["mutator", "theta"]}, r"tasks\[1\]"),
    # S = 1 + alpha P rounds to 1, so these ran with every residual 0.0
    **{f"alpha-def-{alpha:g}-rounds-to-identity": (
        {"K": 64, "family": {**WORKED, "alpha_def": [alpha, 0.0]},
         "tasks": ["family", "theta"]}, r"tasks\[0\]") for alpha in (1e-300, 1e-17)},
    # each of these ran at the parent: an unknown key was ignored, the string
    # "false" dumped, the second task's report replaced the first's, S = 1
    # passed with every residual exactly 0.0, a misspelt preset ran the
    # worked family and the worked preset ignored an explicit u
    "bicoherent-key-misspelt": ({"K": 64, "tasks": [{"task": "bicoherent", "rfrac": 0.95}]},
                                r"tasks\[0\].rfrac"),
    "bicoherent-n_pairs": ({"K": 64, "tasks": [{"task": "bicoherent", "n_pairs": 0}]},
                           r"tasks\[0\].n_pairs"),
    "config-key-unknown": ({"Kk": 4}, "Kk"),
    # a JSON true read as 1 and 1.0 at the parent
    "resolution-n_pairs-true": ({"tasks": [{"task": "resolution", "n_pairs": True}]},
                                r"tasks\[0\].n_pairs"),
    "q-true": ({"q": True}, "q"),
    # a JSON string is no number either: each of these ran at the parent,
    # which parsed the string
    "q-string": ({"q": "0.5"}, "q"),
    "q-string-spaces": ({"q": " 0.5 "}, "q"),
    "K-string": ({"K": "32"}, "K"),
    "seed-string": ({"seed": "7"}, "seed"),
    "gamma-string": ({"family": {**POSITION, "gamma": "0.5"}}, "family.gamma"),
    "resolution-n_pairs-string": ({"tasks": [{"task": "resolution", "n_pairs": "3"}]},
                                  r"tasks\[0\].n_pairs"),
    "tolerance-string": ({"tolerances": {"mutator": "1e-3"}}, "tolerances.mutator"),
    "alpha-strings": ({"K": 16, "family": {**WORKED, "alpha_def": ["0", "1"]}},
                      "family.alpha_def"),
    "u-part-string": ({"K": 16, "family": {**UNIT, "u": [[0, "0.6", 0], [1, 0.8, 0]]}},
                      r"family.u\[0\]"),
    "rank_one-gamma": ({"family": {**WORKED, "gamma": 0.5}}, "family.gamma"),
    "position-alpha_def": ({"family": {**POSITION, "alpha_def": [0, 1]}},
                           "family.alpha_def"),
    # the dump options are gone: each key is an unknown one
    "dump_operators-string": ({"tasks": [{"task": "mutator", "dump_operators": "false"}]},
                              r"tasks\[0\].dump_operators(?=: unknown key)"),
    "dump_states-true": ({"family": POSITION,
                          "tasks": [{"task": "position", "dump_states": True}]},
                         r"tasks\[0\].dump_states(?=: unknown key)"),
    "task-twice": ({"tasks": [{"task": "resolution", "n_pairs": 3},
                              {"task": "resolution", "n_pairs": 7}]}, r"tasks\[1\]"),
    "alpha-zero-family-task": ({"family": {**WORKED, "alpha_def": [0, 0]},
                                "tasks": ["family"]}, r"tasks\[0\]"),
    "alpha-zero-theta-task": ({"family": {**UNIT, "alpha_def": 0}, "tasks": ["theta"]},
                              r"tasks\[0\]"),
    "preset-misspelt": ({"family": {**WORKED, "preset": "worke"}}, "family.preset"),
    "preset-with-u": ({"family": {**UNIT, "preset": "worked"}}, "family.preset"),
    # each exited 1 with a traceback at the parent: a MemoryError for the
    # 8 PiB of K = 2^50, numpy's "Maximum allowed dimension exceeded" for
    # the others
    "K-2^50": ({"K": 2 ** 50}, "K"),
    "K-1e20": ({"K": 10 ** 20}, "K"),
    # "not an integer" at the parent, which compared the int with its float
    "K-2^53+1": ({"K": 2 ** 53 + 1}, r"K(?=: must lie in \[2, )"),
    "bicoherent-n_r-1e20": ({"K": 64, "tasks": [{"task": "bicoherent", "n_r": 10 ** 20}]},
                            r"tasks\[0\].n_r"),
    "resolution-n_pairs-1e20": ({"tasks": [{"task": "resolution", "n_pairs": 10 ** 20}]},
                                r"tasks\[0\].n_pairs"),
    "position-family-n_max-1e20": ({"family": POSITION,
                                    "tasks": [{"task": "family", "n_max": 10 ** 20}]},
                                   r"tasks\[0\].n_max(?=: the task's largest array)"),
    # the parent asked for 2^44 entries of a dense block and exited 1
    "u-extent-over-budget": ({"K": 2 ** 23, "family": {**UNIT, "u": [[0, 1, 0],
                                                                     [2 ** 22, 1, 0]],
                                                       "v": [[0, 1, 0]]}},
                             r"family.u\[1\]"),
}

# the largest K whose beta_K^2 = [K + 1] is a finite float, per q; one past it
# the overflow refusal names q
LARGEST_K = {1.05: 14485, 1.5: 1747, 2.0: 1022, 2.9: 665, 7.3: 356, 1e3: 101, 1e50: 5}
BAD_CONFIGS.update({f"q-{q:g}-K-{K + 1}-beta-overflow": ({"q": q, "K": K + 1}, "q")
                    for q, K in LARGEST_K.items()})


def test_smallest_deformation_that_moves_a_bit_runs():
    # alpha_def = 1e-15 moves S off the identity, so its checks have work
    summary, code = run_config({"q": 0.5, "K": 64,
                                "family": {**WORKED, "alpha_def": [1e-15, 0.0]},
                                "tasks": ["family", "theta"]})
    assert code == 0
    assert summary["tasks"]["family"]["gram_deviation"] > 0.0


@pytest.mark.parametrize("alpha", [1e-300, 1e-17])
def test_rounded_deformation_refusal_names_alpha_def(alpha):
    # the parent told a rank_one family to use a rank_one family
    with pytest.raises(ConfigError) as err:
        validate_config({"q": 0.5, "K": 64, "family": {**WORKED, "alpha_def": [alpha, 0.0]},
                         "tasks": ["family"]})
    assert "alpha_def" in str(err.value)
    assert "use a rank_one family" not in str(err.value)
    with pytest.raises(ConfigError, match="use a rank_one family$"):
        validate_config({"q": 0.5, "family": {"kind": "identity"}, "tasks": ["family"]})


BAD_ARGS = {
    "mutator-q-nan": (["mutator", "--q", "nan"], "q"),
    "mutator-q-below-minus-one": (["mutator", "--q", "-2"], "q"),
    "position-q-above-one": (["position", "--q", "1.5"], "q"),
    "position-family-q-zero": (["mutator", "--family", "position", "--q", "0"], "q"),
    "mutator-beta-overflow": (["mutator", "--q", "3", "--dim", "4000"], "q"),
    "position-n-max": (["position", "--n-max", "-1"], r"tasks[0].n_max"),
    "beta-q-nan": (["beta", "--q", "nan"], "q"),
    "beta-n-max": (["beta", "--n-max", "-1"], "n_max"),
    # named q at the parent, from numpy's "Maximum allowed size exceeded"
    "beta-n-max-1e20": (["beta", "--n-max", str(10 ** 20)], "n_max"),
    "beta-overflow": (["beta", "--q", "1.5", "--n-max", "5000"], "q"),
    "beta-factorial-overflow": (["beta", "--q", "0.999", "--n-max", "3000"], "n_max"),
    "selftest-seed-negative": (["selftest", "--seed", "-1"], "seed"),
    "family-rank_one-n-max": (["family", "--family", "rank_one", "--n-max", "3"],
                              "tasks[0].n_max"),
    "bicoherent-r-frac-rim": (["bicoherent", "--q", "0.5", "--r-frac", "0.999"],
                              "tasks[0].r_frac"),
    "family-identity": (["family", "--family", "identity"], "tasks[0]"),
    "theta-identity": (["theta", "--family", "identity"], "tasks[0]"),
    "resolution-support": (["resolution", "--support", "0"], "tasks[0].support"),
    # a Fock family reads no gamma; each of these exited 0 at the parent,
    # which dropped the flag
    "mutator-rank_one-gamma": (["mutator", "--family", "rank_one", "--gamma", "99"],
                               "family.gamma"),
    "theta-rank_one-gamma": (["theta", "--gamma", "0.3"], "family.gamma"),
    # the mutator subcommand sets no family kind of its own
    "mutator-gamma-without-family": (["mutator", "--gamma", "0.3"], "family"),
}

# flags that no longer exist: the dump options; flags that changed no number
# (resolution --n-theta, beta --seed, beta --tolerance-scale, --seed on every
# task subcommand but resolution, position --dim); flags that could only exit
# 2 (position --family, --gamma on the Fock-only bicoherent and resolution);
# and second ways in, --tolerance-scale to tolerances.<task>, run --seed to
# the config's seed and beta --out to a copy of standard output
REMOVED_FLAGS = {
    "position-mutator-dump-operators": ["mutator", "--family", "position", "--dump-operators"],
    "mutator-dump-operators": ["mutator", "--dump-operators"],
    "position-dump-states": ["position", "--dump-states"],
    "resolution-n-theta": ["resolution", "--n-theta", "64"],
    "beta-seed": ["beta", "--seed", "5"],
    "beta-tolerance-scale": ["beta", "--tolerance-scale", "2"],
    "mutator-tolerance-scale": ["mutator", "--tolerance-scale", "0.5"],
    "run-seed": ["run", "--config", "c", "--seed", "3"],
    "run-tolerance-scale": ["run", "--config", "c", "--tolerance-scale", "2"],
    "beta-out": ["beta", "--out", "d"],
    "mutator-seed": ["mutator", "--seed", "5"],
    "family-seed": ["family", "--seed", "5"],
    "theta-seed": ["theta", "--seed", "5"],
    "bicoherent-seed": ["bicoherent", "--seed", "5"],
    "position-seed": ["position", "--seed", "5"],
    "position-dim": ["position", "--dim", "32"],
    "position-family": ["position", "--family", "rank_one"],
    "bicoherent-gamma-nan": ["bicoherent", "--gamma", "nan"],
    "resolution-gamma": ["resolution", "--gamma", "0.3"],
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

    @pytest.mark.parametrize("argv", REMOVED_FLAGS.values(), ids=REMOVED_FLAGS.keys())
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        flag = max(i for i, arg in enumerate(argv) if arg.startswith("--"))
        assert f"unrecognized arguments: {' '.join(argv[flag:])}\n" in err
        assert "Traceback" not in err

    # the first three once raised FileExistsError, IsADirectoryError and
    # UnicodeDecodeError; validate_config refuses a config that is no object
    @pytest.mark.parametrize("case", ["mutator-out-is-a-file", "config-is-a-directory",
                                      "config-not-utf8", "config-is-a-list"])
    def test_unusable_path_exits_2(self, case, tmp_path, capsys):
        not_utf8 = tmp_path / "not-utf8.json"
        not_utf8.write_bytes(b'{"q": "\xff"}')
        a_list = tmp_path / "list.json"
        a_list.write_text("[1]")
        argv, path = {
            "mutator-out-is-a-file": (["mutator", "--out", str(a_list)], "--out"),
            "config-is-a-directory": (["run", "--config", str(tmp_path)], "--config"),
            "config-not-utf8": (["run", "--config", str(not_utf8)], "--config"),
            "config-is-a-list": (["run", "--config", str(a_list)], "config"),
        }[case]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}:")

    @pytest.mark.parametrize("q,K", LARGEST_K.items())
    def test_largest_finite_K_is_accepted(self, q, K):
        _, code = run_config({"q": q, "K": K, "family": {"kind": "identity"},
                              "tasks": ["mutator"]})
        assert code == 0

    # exit 1 at the parent, where the absolute residual read the rounding of
    # entries of size beta_n^2 (1025 at q = 2, K = 64)
    @pytest.mark.parametrize("q,K,kind", [
        (0.9999, 4096, "identity"), (0.99999, 65536, "identity"), (1.5, 64, "identity"),
        (1.5, 64, "worked"), (2.0, 64, "identity"), (2.9, 32, "worked"),
        (2.0, 1022, "identity")])
    def test_mutator_is_judged_against_its_scale(self, q, K, kind):
        family = WORKED_CONFIG["family"] if kind == "worked" else {"kind": "identity"}
        summary, code = run_config({"q": q, "K": K, "family": family, "tasks": ["mutator"]})
        assert code == 0
        assert summary["tasks"]["mutator"]["qmutator_residual"] < 1e-15

    def test_largest_finite_gamma_runs_without_exception(self, capsys):
        assert main(["position", "--gamma", "26"]) in (0, 1)

    @pytest.mark.parametrize("q,K,r_frac,code", [
        (0.5, 256, 0.99, 2),        # eigen residual 1.6e-2 from truncation
        (0.999, 64, 0.7, 2),        # N ~ 1e-124 and eigen residual 20.7
        (0.5, 32768, 0.999, 0),     # N(|z|) in closed form at the rim
        (0.5, 4096, 0.99, 0),
    ])
    def test_bicoherent_truncation_decides_exit_code(self, q, K, r_frac, code,
                                                     tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "q": q, "K": K, "family": WORKED_CONFIG["family"],
            "tasks": [{"task": "bicoherent", "n_r": 1, "n_theta": 2,
                       "r_frac": r_frac}]}))
        assert main(["run", "--config", str(cfg_path)]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith(
                "config error: tasks[0].r_frac: at |z| = r_frac rho")

    def test_truncation_check_applies_the_run_bound(self, capsys):
        argv = ["bicoherent", "--q", "0.5", "--dim", "256", "--r-frac", "0.99",
                "--n-r", "1", "--n-theta", "2"]
        assert main(argv) == 2
        _, code = run_config({"q": 0.5, "K": 256, "family": {"kind": "identity"},
                              "tasks": [{"task": "bicoherent", "r_frac": 0.99,
                                         "n_r": 1, "n_theta": 2}],
                              "tolerances": {"bicoherent": 0.1}})
        assert code == 0

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


def _identity_bicoherent(q: float, K: int, r_frac: float, n_r: int,
                         n_theta: int) -> dict:
    return {"q": q, "K": K, "family": {"kind": "identity"},
            "tasks": [{"task": "bicoherent", "n_r": n_r, "n_theta": n_theta,
                       "r_frac": r_frac}]}


class TestBicoherentResiduals:
    def test_phase_of_the_rim_state_holds_to_roundoff(self):
        # arg(z) k rounds more as k grows (2.3e-13 at K = 32768); a running
        # product of e^{i arg z} keeps the eigen residual at roundoff
        summary, code = run_config(_identity_bicoherent(0.5, 32768, 0.999, 1, 2))
        assert code == 0
        assert summary["tasks"]["bicoherent"]["eigen_residual"] <= 1e-15

    def test_uncertainty_residual_is_relative_to_the_z_scale(self):
        # |z|^2 ~ 8100: the absolute residual reads 7.5e-7, eigen 3.0e-10 and
        # pairing 9.2e-11; relative to 1 + |z|^2 it reads about 9e-11
        summary, code = run_config(_identity_bicoherent(0.9999, 32768, 0.9, 2, 4))
        assert code == 0
        assert summary["tasks"]["bicoherent"]["uncertainty_residual"] <= 1e-9

    def test_uncertainty_residual_still_sees_a_shifted_prediction(self, monkeypatch):
        real = bicoherent.uncertainty_product

        def shifted(state):
            return real(dataclasses.replace(
                state, family=dataclasses.replace(state.family, q=state.family.q + 1e-5)))

        monkeypatch.setattr(bicoherent, "uncertainty_product", shifted)
        summary, code = run_config(_identity_bicoherent(0.9999, 32768, 0.9, 2, 4))
        assert code == 1
        assert summary["tasks"]["bicoherent"]["uncertainty_residual"] > 1e-7


# nan, +-inf, -0, the least subnormal and 1e308 among ordinary values
SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -2.5e-300])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im entry by entry; re + 1j * im turns 1j * inf into nan + inf i."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def csv_writer_rendering(header: list[str], rows) -> bytes:
    """The table as csv.writer writes its rows, each number as the string
    f"{v:.17g}"."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([[f"{v:.17g}" for v in row] for row in rows])
    return out.getvalue().encode()


def test_table_writer_is_the_csv_writer_rendering(tmp_path):
    columns = [SPECIAL, SPECIAL[::-1], np.arange(len(SPECIAL))]
    cli._write_table(tmp_path, "table.csv", ["a", "b", "n"], columns)
    assert (tmp_path / "table.csv").read_bytes() == \
        csv_writer_rendering(["a", "b", "n"], zip(*columns))


def test_table_writer_integer_column_is_the_float_rendering(tmp_path):
    # '%d' writes the digits '%.17g' writes for every |n| < 2^53
    n = np.array([0, -1, 7, 10 ** 15, 2 ** 53 - 1, -(2 ** 53 - 1)])
    cli._write_table(tmp_path, "n.csv", ["n"], [n])
    assert (tmp_path / "n.csv").read_bytes() == \
        csv_writer_rendering(["n"], zip(n.astype(float)))


def test_bicoherent_csv_is_the_csv_writer_rendering(tmp_path, monkeypatch):
    states = []
    real_state = bicoherent.bicoherent_state

    def recorded(family, z):
        states.append(real_state(family, z))
        return states[-1]

    unc = bicoherent.UncertaintyResult(product=_complex(SPECIAL[::-1], -SPECIAL),
                                       predicted=SPECIAL, dq_sq=SPECIAL, dp_sq=SPECIAL,
                                       residual=np.zeros(len(SPECIAL)))
    monkeypatch.setattr(bicoherent, "bicoherent_state", recorded)
    monkeypatch.setattr(bicoherent, "eigen_check", lambda state: (SPECIAL, -SPECIAL))
    monkeypatch.setattr(bicoherent, "pairing",
                        lambda state: _complex(np.roll(SPECIAL, 3), SPECIAL[::-1]))
    monkeypatch.setattr(bicoherent, "uncertainty_product", lambda state: unc)
    run_config(_identity_bicoherent(0.5, 64, 0.7, 1, len(SPECIAL)), tmp_path)
    [state] = states
    rows = np.column_stack([state.z.real, state.z.imag, state.norm_const, SPECIAL, -SPECIAL,
                            np.roll(SPECIAL, 3), SPECIAL[::-1], SPECIAL[::-1], -SPECIAL,
                            SPECIAL])
    header = ["re_z", "im_z", "norm_const", "eigen_phi", "eigen_psi", "pairing_re",
              "pairing_im", "uncertainty_re", "uncertainty_im", "uncertainty_predicted"]
    assert (tmp_path / "bicoherent.csv").read_bytes() == csv_writer_rendering(header, rows)


class TestColumnBatches:
    """A sweep or a set of pairs is one batch of columns: the operator
    products a task makes do not grow with its number of points or pairs."""

    @staticmethod
    def _matmuls(monkeypatch, cfg) -> int:
        calls = []
        real = FockOperator.__matmul__

        def counted(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(FockOperator, "__matmul__", counted)
        _, code = run_config(cfg)
        monkeypatch.undo()
        assert code == 0
        return len(calls)

    def test_bicoherent_products_independent_of_grid(self, monkeypatch):
        cfg = {**WORKED_CONFIG, "K": 256}
        counts = [self._matmuls(monkeypatch, {**cfg, "tasks": [
            {"task": "bicoherent", "n_r": n_r, "n_theta": n_theta, "r_frac": 0.9}]})
            for n_r, n_theta in ((1, 2), (5, 8))]
        assert counts[0] == counts[1]

    def test_bicoherent_task_makes_six_products(self, monkeypatch):
        # phi, psi, a phi and b^dag psi in the state, b phi and a^dag psi in
        # the moments; the parent formed a phi and b^dag psi twice (8)
        cfg = {"q": 0.5, "K": 256, "family": {"kind": "rank_one"},
               "tasks": [{"task": "bicoherent", "n_r": 4, "n_theta": 8}]}
        assert self._matmuls(monkeypatch, cfg) == 6

    def test_resolution_products_independent_of_pairs(self, monkeypatch):
        counts = [self._matmuls(monkeypatch, {**WORKED_CONFIG, "tasks": [
            {"task": "resolution", "n_pairs": n}]}) for n in (1, 20)]
        assert counts[0] == counts[1]

    def test_resolution_draws_pairs_in_per_pair_order(self, monkeypatch):
        seen = {}
        real = resolution.resolution_check

        def spy(family, quad, f, g):
            seen["f"], seen["g"] = f, g
            return real(family, quad, f, g)

        monkeypatch.setattr(resolution, "resolution_check", spy)
        K, support, n_pairs, seed = 32, 5, 7, 11
        _, code = run_config({"q": 0.5, "K": K, "family": {"kind": "identity"},
                              "tasks": [{"task": "resolution", "n_pairs": n_pairs,
                                         "support": support}], "seed": seed})
        assert code == 0
        # the seed's stream, rebuilt one number at a time: 53-bit uniforms
        # from eight bytes each of random.Random(seed).randbytes, and from
        # uniforms 2i, 2i + 1 the Box-Muller normals r cos t, r sin t
        raw = random.Random(seed).randbytes(8 * 4 * n_pairs * support)
        uniforms = [(int.from_bytes(raw[i:i + 8], "little") >> 11) * 2.0 ** -53
                    for i in range(0, len(raw), 8)]
        normals = []
        for u_r, u_t in zip(uniforms[::2], uniforms[1::2]):
            r, t = math.sqrt(-2.0 * math.log(1.0 - u_r)), 2.0 * math.pi * u_t
            normals += [r * math.cos(t), r * math.sin(t)]
        stream = iter(normals)
        for j in range(n_pairs):
            f, g = np.zeros((2, K), dtype=complex)
            for x in (f, g):
                re, im = ([next(stream) for _ in range(support)] for _ in range(2))
                x[:support] = np.array(re) + 1j * np.array(im)
            # libm's cos and sin and numpy's complex exp may differ in the last bits
            assert np.allclose(seen["f"][:, j], f, rtol=0, atol=1e-14)
            assert np.allclose(seen["g"][:, j], g, rtol=0, atol=1e-14)


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


@pytest.mark.parametrize("argv", [["family", "--q", "0.5"], ["beta", "--n-max", "3"]],
                         ids=["family", "beta"])
def test_closed_standard_output_exits_2(argv):
    # the summary raises at its write, the short beta table at the flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "biquon.cli", *argv],
                              env=_package_env(), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: standard output:")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,closed", [(["mutator", "--q", "nan"], ("stderr",)),
                                         (["family", "--q", "0.5"], ("stdout", "stderr"))],
                         ids=["config-error", "summary"])
def test_closed_standard_error_exits_2(argv, closed):
    # exit 1 at the parent: the handler's own line to standard error raised
    ends = {}
    for name in closed:
        read_end, ends[name] = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "biquon.cli", *argv],
                              env=_package_env(), stdout=ends.get("stdout", subprocess.PIPE),
                              stderr=ends["stderr"], timeout=60)
    finally:
        for end in ends.values():
            os.close(end)
    assert proc.returncode == 2
    assert proc.stdout in (None, b"")


def test_cli_import_does_not_load_scipy():
    subprocess.run([sys.executable, "-c",
                    "import sys, biquon.cli; assert 'scipy' not in sys.modules"],
                   env=_package_env(), check=True, timeout=60)


# every Fock task, and so every Fock code path a run takes
FOCK_RUN = {"q": 0.5, "K": 64, "family": {"kind": "rank_one"},
            "tasks": ["family", "mutator", "theta", "bicoherent", "resolution"]}


def test_runs_do_not_load_numpy_random(tmp_path):
    config = tmp_path / "fock.json"
    config.write_text(json.dumps(FOCK_RUN))
    for argv in (["run", "--config", str(config)], ["selftest"]):
        script = ("import contextlib, io, sys\n"
                  "from biquon.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    assert main({argv!r}) == 0\n"
                  "assert 'numpy.random' not in sys.modules")
        subprocess.run([sys.executable, "-c", script], env=_package_env(), check=True,
                       timeout=60)


def test_fock_run_calls_no_lapack_routine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock run called a LAPACK routine")

    for name in ("solve", "inv", "lstsq", "eig", "eigh", "eigvals", "eigvalsh", "svd",
                 "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run_config(FOCK_RUN)[1] == 0


class TestRunConfig:
    def test_minimal_run_passes(self):
        summary, code = run_config({"q": 0.5, "K": 64,
                                    "family": {"kind": "identity"},
                                    "tasks": ["mutator"]})
        assert code == 0
        assert summary["all_pass"]
        assert summary["tasks"]["mutator"]["max_residual"] < 1e-12

    def test_worked_reproduction(self):
        summary, code = run_config(WORKED_CONFIG)
        assert code == 0
        assert summary["all_pass"]
        for name in ("mutator", "family", "theta", "bicoherent", "resolution"):
            assert summary["tasks"][name]["passed"], name

    # per case: the task, its family kind, and the files it adds to the
    # summary.json of every run with --out
    ARTEFACTS = {
        "mutator": ({"task": "mutator"}, "rank_one", set()),
        "family": ({"task": "family"}, "rank_one", set()),
        "theta": ({"task": "theta"}, "rank_one", set()),
        "bicoherent": ({"task": "bicoherent"}, "rank_one", {"bicoherent.csv"}),
        "resolution": ({"task": "resolution"}, "rank_one", set()),
        "position-mutator": ({"task": "mutator"}, "position", set()),
        "position-family": ({"task": "family"}, "position", set()),
        "position-theta": ({"task": "theta"}, "position", set()),
        "position": ({"task": "position", "n_max": 2}, "position", set()),
    }

    @pytest.mark.parametrize("task,kind,files", ARTEFACTS.values(), ids=ARTEFACTS.keys())
    def test_artefact_set(self, task, kind, files, tmp_path):
        family = ({"kind": "position", "gamma": 0.5} if kind == "position"
                  else WORKED_CONFIG["family"])
        _, code = run_config({"q": 0.5, "family": family, "tasks": [task]}, tmp_path)
        assert code == 0
        assert {f.name for f in tmp_path.iterdir()} == {"summary.json", *files}

    def test_position_family_run(self, tmp_path, monkeypatch):
        tables = []
        real_lattice = positionrep.lattice

        def recorded(params, n_max):
            tables.append(real_lattice(params, n_max))
            return tables[-1]

        monkeypatch.setattr(positionrep, "lattice", recorded)
        cfg = {"q": 0.5, "K": 32,
               "family": {"kind": "position", "gamma": 0.6},
               "tasks": ["mutator", "family", "theta",
                         {"task": "position", "n_max": 4}]}
        summary, code = run_config(cfg, tmp_path)
        assert code == 0
        assert summary["tasks"]["position"]["L_bound_ok"]
        assert {f.name for f in tmp_path.iterdir()} == {"summary.json"}
        # summary.json fixes the run's lattice rows, bit for bit: its q, and
        # its largest n_max plus the row past it that the ladder check reads
        saved = json.loads((tmp_path / "summary.json").read_text())
        rows = 1 + max(cli.MUTATOR_N_MAX, *(report["n_max"] for report
                                            in saved["tasks"].values() if "n_max" in report))
        [table] = tables
        assert table.coeffs.tobytes() == positionrep.coefficient_recursion(
            positionrep.PositionParams(saved["q"]), rows).tobytes()

    def test_tolerance_scale_can_force_failure(self):
        _, code = run_config({"q": 0.5, "K": 64,
                              "family": {"kind": "identity"},
                              "tasks": ["mutator"], "tolerances": {"mutator": 1e-30}})
        assert code == 1

    @pytest.mark.parametrize("argv", [["family", "--family", "position"], ["position"]],
                             ids=["family", "position"])
    def test_position_gamma_has_one_default(self, argv, capsys):
        # the subcommands ran at gamma = 0.5 and a config without gamma at 0,
        # where the similarity e^{gamma x} is the identity and the family
        # task's similarity metrics read exactly 0.0
        texts = []
        cfg = {"q": 0.5, "family": {"kind": "position"}, "tasks": [argv[0]]}
        summary, code = run_config(cfg, echo=texts.append)
        assert code == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == texts[0] + "\n"
        if argv[0] == "family":
            report = summary["tasks"]["family"]
            assert report["similarity_phi"] != 0.0 and report["similarity_psi"] != 0.0

    def test_determinism_modulo_timings(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_config(WORKED_CONFIG, d1)
        run_config(WORKED_CONFIG, d2)
        s1 = json.loads((d1 / "summary.json").read_text())
        s2 = json.loads((d2 / "summary.json").read_text())
        s1.pop("timings")
        s2.pop("timings")
        assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)

    POSITION_CONFIG = {"q": 0.5, "K": 32, "family": {"kind": "position", "gamma": 0.6},
                       "tasks": ["mutator", "family", "theta", {"task": "position", "n_max": 4}]}

    @pytest.mark.parametrize("cfg", [WORKED_CONFIG, POSITION_CONFIG], ids=["fock", "position"])
    def test_summary_bytes(self, cfg, tmp_path, capsys, monkeypatch):
        """Standard output is the summary's sorted, indented encoding and
        summary.json the same with its timings, from one encoding of the
        summary."""
        summary, _ = run_config(cfg)
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(cfg))
        encoded = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda obj, **kw: encoded.append(obj) or real(obj, **kw))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert [obj for obj in encoded if "all_pass" in obj] == [summary]
        monkeypatch.undo()
        timings = json.loads((out / "summary.json").read_text())["timings"]
        assert set(timings) == set(summary["tasks"])
        assert (out / "summary.json").read_text() == \
            json.dumps({**summary, "timings": timings}, sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == json.dumps(summary, sort_keys=True, indent=2) + "\n"

    def test_run_without_out_encodes_nothing(self, monkeypatch):
        calls = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *args, **kw: calls.append(1) or real(*args, **kw))
        for cfg in (WORKED_CONFIG, self.POSITION_CONFIG):
            assert run_config(cfg)[1] == 0
        assert calls == []

    # the metrics each Fock task judges
    JUDGED = {
        "mutator": {"qmutator_residual"},
        "family": {"gram_deviation", "raise_phi", "lower_phi", "raise_psi", "lower_psi",
                   "number_residual_phi", "number_residual_psi"},
        "theta": {"series_vs_closed", "conjugation_residual", "mapping_residual",
                  "inverse_residual"},
        "bicoherent": {"eigen_residual", "pairing_residual", "uncertainty_residual"},
        "resolution": {"resolution_residual", "moment_residual"},
    }

    def test_summary_judges_every_metric_against_its_bound(self):
        reports = {}
        for scale in (1.0, 0.5):
            config = {**WORKED_CONFIG, "tolerances": {task: cli.TOLERANCES[task] * scale
                                                      for task in self.JUDGED}}
            summary, _ = run_config(config)
            cfg = validate_config(config)
            assert set(summary["tasks"]) == set(self.JUDGED)
            for task, report in summary["tasks"].items():
                assert report["bounds"] == {m: cli._bound(cfg, task, m)
                                            for m in self.JUDGED[task]}
                assert report["tolerance"] == cli._bound(cfg, task)
                assert all(report[m] <= bound for m, bound in report["bounds"].items()), task
                assert report["passed"] is True
            reports[scale] = summary["tasks"]
        # halving each task's bound halves its metric bounds bit for bit
        for task, report in reports[0.5].items():
            full = reports[1.0][task]
            assert report["tolerance"] == full["tolerance"] / 2, task
            assert report["bounds"] == {m: b / 2 for m, b in full["bounds"].items()}, task


# per task: its spec, a producer to edit, the edit, which pushes one metric to
# 1.0, far above any bound, and that metric; the other metrics keep their values
RAISED = {
    "mutator": ({"task": "mutator"}, cli, "qmutator_residual", lambda r: 1.0,
                "qmutator_residual"),
    "family": ({"task": "family"}, pseudoquon, "number_eigencheck",
               lambda r: {**r, "number_residual_psi": 1.0}, "number_residual_psi"),
    "theta": ({"task": "theta"}, pseudoquon, "check_theta_conjugate",
              lambda r: {**r, "mapping_residual": 1.0}, "mapping_residual"),
    "bicoherent": ({"task": "bicoherent"}, bicoherent, "uncertainty_product",
                   lambda r: dataclasses.replace(r, residual=np.ones_like(r.residual)),
                   "uncertainty_residual"),
    "resolution": ({"task": "resolution"}, resolution, "solve_moment_measure",
                   lambda r: dataclasses.replace(r, residuals=np.ones_like(r.residuals)),
                   "moment_residual"),
    "position": ({"task": "position"}, positionrep, "ladder_check",
                 lambda r: {**r, "max_residual": 1.0}, "ladder_residual"),
}


@pytest.mark.parametrize("task", sorted(RAISED))
def test_one_metric_above_its_bound_fails_the_run(task, monkeypatch):
    spec, owner, name, edit, metric = RAISED[task]
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: edit(real(*args)))
    family = ({"kind": "position", "gamma": 0.5} if task == "position"
              else WORKED_CONFIG["family"])
    summary, code = run_config({"q": 0.5, "family": family, "tasks": [spec]})
    assert code == 1
    report = summary["tasks"][task]
    assert report[metric] == 1.0 and not report["passed"]
    failed = [m for m, bound in report["bounds"].items() if not report[m] <= bound]
    assert failed == [metric]


# one admissible value of each task key other than its default
OTHER_VALUES = {
    ("family", "n_max"): 3,
    ("bicoherent", "n_r"): 2,
    ("bicoherent", "n_theta"): 3,
    ("bicoherent", "r_frac"): 0.5,
    ("resolution", "K_mom"): 4,
    ("resolution", "n_pairs"): 2,
    ("resolution", "support"): 3,
    ("position", "n_max"): 2,
}
TASK_KEYS = [(task, key) for task, params in cli.TASK_PARAMS.items() for key in params]


@pytest.mark.parametrize("task,key", TASK_KEYS, ids=[f"{t}-{k}" for t, k in TASK_KEYS])
def test_every_task_key_changes_the_summary(task, key):
    """Each task key, at its default and at one other admissible value,
    gives a different summary (summary.json without its timings): a key
    that changes no number would only decide which configs are refused."""
    assert (task, key) in OTHER_VALUES, "name an admissible value other than the default"
    kinds = cli.TASK_PARAMS[task][key][1]
    family = POSITION if "position" in kinds else WORKED
    texts = []
    for spec in ({"task": task}, {"task": task, key: OTHER_VALUES[task, key]}):
        _, code = run_config({"q": 0.5, "family": family, "tasks": [spec]},
                             echo=texts.append)
        assert code == 0
    assert texts[0] != texts[1]


def _task_flags(name: str) -> dict[str, argparse.Action]:
    """The flags of a task subcommand, -h excepted, by option string."""
    [subcommands] = [action.choices for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {action.option_strings[-1]: action for action in subcommands[name]._actions
            if action.option_strings and action.dest != "help"}


# the flags a task subcommand takes besides --q, --out and its task keys:
# --family where more than one family kind can run the task, --gamma where a
# position family can, --dim where a Fock family can, and --seed where the
# task draws from it
SHARED_FLAGS = {
    "family": {"--family", "--gamma", "--dim"},
    "mutator": {"--family", "--gamma", "--dim"},
    "theta": {"--family", "--gamma", "--dim"},
    "bicoherent": {"--family", "--dim"},
    "resolution": {"--family", "--dim", "--seed"},
    "position": {"--gamma"},
}
# one value of each shared flag other than the one a run without it takes;
# --family takes its last choice, which no subcommand defaults to.  The Fock
# theta checks read windows of min(K, support extent + HEAD + REACH) = min(K, 12)
# rows on the worked family, and --dim moves them only below 11; the default
# r_frac of bicoherent, 0.7, needs K >= 60.
SHARED_VALUES = {"--q": 0.3, "--gamma": 0.3, "--dim": 10, "--seed": 5,
                 ("bicoherent", "--dim"): 128}
# flags that a task reads and that still leave its report as it was, each
# with its reason
UNMOVED = {
    # the lattice shift shift_exponent(-2 gamma) cancels gamma exactly, so
    # the conjugacy residual is the same at every gamma (ROADMAP item 11)
    ("theta", "--gamma"),
}
SUBCOMMAND_FLAGS = [(name, flag) for name in cli.TASK_PARAMS for flag in _task_flags(name)
                    if flag != "--out"]


@pytest.mark.parametrize("name,flag", SUBCOMMAND_FLAGS,
                         ids=[f"{n}-{f[2:]}" for n, f in SUBCOMMAND_FLAGS])
def test_every_subcommand_flag_changes_a_task_report(name, flag, capsys):
    """Each flag of a task subcommand, on a family kind that reads it, given
    once and left out once, gives different task reports: a flag that only
    changes the echoed q, K or seed, or only exits 2, is no input."""
    action = _task_flags(name)[flag]
    # a Fock flag runs on the worked family, as OTHER_VALUES were chosen for
    # it: on the identity the resolution residual is a few rounding units
    # and may repeat at another support
    position_only = flag == "--gamma" or "position" in cli.TASK_PARAMS[name].get(
        action.dest, (None, ()))[1]
    argv = [name] + (["--family", "position" if position_only else "rank_one"]
                     if flag != "--family" and "--family" in _task_flags(name) else [])
    value = (action.choices[-1] if flag == "--family" else
             OTHER_VALUES.get((name, action.dest),
                              SHARED_VALUES.get((name, flag), SHARED_VALUES.get(flag))))
    reports = []
    for run in (argv, argv + [flag, str(value)]):
        assert main(run) == 0, run
        reports.append(json.loads(capsys.readouterr().out)["tasks"])
    assert (reports[0] == reports[1]) == ((name, flag) in UNMOVED)


class TestMainEntry:
    def test_beta_subcommand(self, capsys):
        assert main(["beta", "--q", "0.5", "--n-max", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,beta,beta_factorial")
        assert len(lines) == 5

    @pytest.mark.parametrize("q,n_max", [(0.5, 1100), (1e-300, 5), (0.999, 303)])
    def test_beta_table_is_finite(self, q, n_max, capsys):
        # q^n underflows at the first two; beta_303! is the last finite
        # factorial at q = 0.999
        assert main(["beta", "--q", str(q), "--n-max", str(n_max)]) == 0
        header, *rows = capsys.readouterr().out.strip().splitlines()
        assert header == "n,beta,beta_factorial"
        assert len(rows) == n_max + 1
        for n, row in enumerate(rows):
            fields = row.split(",")
            assert fields[0] == str(n)
            assert all(math.isfinite(float(x)) for x in fields[1:3])

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

    def test_selftest_table_reads_as_the_benchmark_parses_it(self, capsys):
        # bench/worker.py gates the selftest workload on these rows
        spec = importlib.util.spec_from_file_location(
            "bench_worker", Path(__file__).parents[1] / "bench" / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        assert main(["selftest"]) == 0
        rows = [m.groups() for m in map(worker._SELFTEST_LINE.match,
                                        capsys.readouterr().out.splitlines()) if m]
        status = {criterion: state for state, criterion, _, _ in rows}
        assert len(rows) == len(status) == 25
        assert {c for c, state in status.items() if state != "PASS"} == \
            {"07d-radius-position-empirical"}
        assert status["07d-radius-position-empirical"] == "FAIL(expected)"

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        # a size below MAX_ARRAY_ENTRIES may still not fit in memory
        def exhausted(*args):
            raise MemoryError("Unable to allocate 8.00 PiB")
        monkeypatch.setitem(cli.TASK_RUNNERS, "mutator", exhausted)
        assert main(["mutator"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory") and "Traceback" not in err

    def test_subcommand_flags_are_the_task_keys(self):
        """A task subcommand takes --q, --out, its task keys and the shared
        flags that a family kind running it reads, and sets no default that
        validate_config sets: a flag left out is not in the namespace."""
        for name, params in cli.TASK_PARAMS.items():
            keys = {"--" + key.lower().replace("_", "-") for key in params}
            assert set(_task_flags(name)) == {"--q", "--out"} | SHARED_FLAGS[name] | keys, name
            kinds = {"bicoherent": ["identity", "rank_one"],
                     "resolution": ["identity", "rank_one"]}.get(name, cli.FAMILY_KEYS)
            if "--family" in SHARED_FLAGS[name]:
                assert list(_task_flags(name)["--family"].choices) == list(kinds), name
            defaults = vars(cli.build_parser().parse_args([name]))
            kind = {"family": "rank_one", "theta": "rank_one", "position": "position"}
            assert defaults == {"command": name, "func": cli._cmd_task, "q": 0.5, "out": None,
                                **({"kind": kind[name]} if name in kind else {})}, name
        assert sum(len(_task_flags(name)) for name in cli.TASK_PARAMS) == 35

    def test_successive_calls_share_no_state(self, tmp_path, monkeypatch, capsys):
        from biquon import cli, selftest
        seeds, kinds = [], []
        monkeypatch.setattr(selftest, "run_all", lambda seed: seeds.append(seed) or [])
        monkeypatch.setattr(cli, "run_config",
                            lambda cfg, *args, **kw: kinds.append(cfg["family"]["kind"])
                            or ({}, 0))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"q": 0.5, "K": 32, "family": {"kind": "identity"}, "tasks": ["mutator"]}))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["selftest"]) == 0
        assert main(["mutator", "--family", "rank_one"]) == 0
        assert main(["position"]) == 0
        assert seeds == [cli.DEFAULT_SEED]
        assert kinds == ["identity", "rank_one", "position"]
        assert cli.build_parser() is cli.build_parser()



# a float of any kind: nan, +-inf, subnormal, below -1, above 1
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324, -1.5, -1.0, 0.0, 0.5, 0.999, 1.0, 1.5, 1e300])


@st.composite
def _fock_family(draw) -> dict:
    """A Fock family config.

    alpha_def is a unit phase, any pair of floats, or -1 +- 1e-9, where S
    is all but singular; the entries of u and v past e_0 are floats in
    [-1, 1] or of any kind, NaN and infinities included.
    """
    kind = draw(st.sampled_from(["identity", "worked", "compact"]))
    if kind == "identity":
        return {"kind": "identity"}
    theta = st.floats(-2.5, 2.5).map(lambda t: [math.cos(t), math.sin(t)])
    alpha = draw(theta | st.lists(ANY_FLOAT, min_size=2, max_size=2)
                 | st.sampled_from([[-1 + 1e-9, 0.0], [-1 - 1e-9, 0.0]]))
    family = {"kind": "rank_one", "alpha_def": alpha}
    if kind == "worked":
        return {**family, "preset": "worked"}
    # u = e_0 + (entries on some indices), v = e_0 + (entries on others), so
    # <u, v> = 1; the last index of the extent belongs to u or v
    extent = draw(st.integers(1, 14))
    owners = draw(st.lists(st.sampled_from(["u", "v", None]),
                           min_size=extent - 1, max_size=extent - 1))
    if extent > 1:
        owners[-1] = draw(st.sampled_from(["u", "v"]))
    part = st.floats(-1.0, 1.0) | ANY_FLOAT
    vectors = {"u": [[0, 1.0, 0.0]], "v": [[0, 1.0, 0.0]]}
    for index, owner in enumerate(owners, start=1):
        if owner:
            vectors[owner].append([index, draw(part), draw(part)])
    return {**family, **vectors}


def _task_params(K: int) -> dict:
    """(in range, out of range) strategies per task parameter."""
    return {
        "resolution": {
            "K_mom": (st.integers(2, K), st.integers(-1, 1) | st.integers(K + 1, K + 20)),
            "support": (st.integers(1, K), st.integers(-1, 0) | st.integers(K + 1, K + 20)),
            "n_pairs": (st.integers(1, 3), st.integers(-1, 0)),
        },
        "bicoherent": {
            "r_frac": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                       | st.sampled_from([0.7, 0.9, 0.99, 0.999]),
                       st.sampled_from([0.0, 1.0, 1.5, -0.1])),
            "n_r": (st.integers(1, 3), st.integers(-1, 0)),
            "n_theta": (st.integers(1, 4), st.integers(-1, 0)),
        },
        # a Fock family task reads no n_max
        "family": {"n_max": (st.nothing(), st.integers(-1, 5))},
        "mutator": {},
        "theta": {},
    }


@st.composite
def _fock_config(draw) -> dict:
    """A config of one to three Fock tasks; each task leaves its parameters
    out or sets them in range, except at most one set out of range."""
    K = draw(st.integers(2, 64))
    family = draw(_fock_family())
    params = _task_params(K)
    tasks = []
    for name in draw(st.lists(st.sampled_from(sorted(params)),
                              min_size=1, max_size=3, unique=True)):
        bad = draw(st.sampled_from([None, None, None, *params[name]]))
        task = {"task": name}
        for key, (valid, invalid) in params[name].items():
            value = draw(invalid if key == bad else st.none() | valid)
            if value is not None:
                task[key] = value
        tasks.append(task)
    # resolution and bicoherent need 0 < q < 1; the other tasks take q >= -1
    q = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
             | st.sampled_from([0.5, 0.9, 0.99, 0.999, 0.9999])
             | st.floats(-1.0, 3.0) | st.sampled_from([-1.0, 0.0, 1.0, 1.5, 2.0]))
    return {"q": q, "K": K, "family": family, "tasks": tasks, "seed": 5}


@st.composite
def _position_config(draw) -> dict:
    """A position-family config: q inside and outside (0, 1), gamma up to
    +-GAMMA_MAX and beyond, n_max up to 60, any nonempty subset of tasks."""
    q = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
             | st.sampled_from([1e-300, 1e-12, 0.5, 0.9, 0.99, 0.999, 0.9999])
             | st.floats(-1.0, 3.0) | st.sampled_from([-1.0, 0.0, 1.0, 1.5]))
    gamma = draw(st.floats(-GAMMA_MAX, GAMMA_MAX)
                 | st.sampled_from([GAMMA_MAX, -GAMMA_MAX, 26.0, -26.6, 26.64])
                 | st.floats(-40.0, 40.0))
    tasks = []
    for name in draw(st.lists(st.sampled_from(["mutator", "family", "theta", "position"]),
                              min_size=1, max_size=4, unique=True)):
        task = {"task": name}
        if name in ("family", "position"):
            n_max = draw(st.none() | st.integers(0, 60))
            if n_max is not None:
                task["n_max"] = n_max
        tasks.append(task)
    return {"q": q, "K": 16, "family": {"kind": "position", "gamma": gamma},
            "tasks": tasks, "seed": 5}


@st.composite
def _with_unknown_key(draw, configs) -> tuple[dict, str]:
    """A drawn config with one key that no table lists, added last at the
    top level, in the family or in the first task, and the path of the
    first unknown key there: a Fock family task may already hold the
    unknown key n_max, as its one out-of-range parameter."""
    cfg = draw(configs)
    key = draw(st.sampled_from(["Kk", "rfrac", "nmax", "n-max", "kmom", "dump_operator",
                                "seeds", "gama", "alpha"]))
    value = draw(st.integers(0, 3) | st.booleans())
    where = draw(st.sampled_from(["config", "family", "task"]))
    if where == "config":
        return {**cfg, key: value}, key
    if where == "family":
        return {**cfg, "family": {**cfg["family"], key: value}}, f"family.{key}"
    first, *rest = cfg["tasks"]
    first = {**first, key: value}
    reads = [name for name, (_, kinds, *_) in cli.TASK_PARAMS[first["task"]].items()
             if cfg["family"]["kind"] in kinds]
    named = next(name for name in first if name not in ["task", *reads])
    return {**cfg, "tasks": [first, *rest]}, f"tasks[0].{named}"


# report fields that describe a run rather than measure it, and the verdict
INFO = {"safe_dim", "n_points", "rho", "n_pairs", "n_max", "realization", "quadrature",
        "L_bound_ok", "max_residual", "tolerance"}


class TestConfigFuzz:
    """Every Fock or position config keeps the exit-code contract in process:
    a verdict of 0 or 1 with finite residuals, or a ConfigError (exit 2)."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=_fock_config())
    # the ladder iteration compounded over ~14 steps once read 1.9e-8 here,
    # against the family bound 1e-11, and passed unjudged
    @example(cfg={"q": 2.9, "K": 32, "tasks": ["family"],
                  "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [-3, 3]}})
    # NaN passed every tolerance test of the parent's deformation and
    # exited 1 on NaN residuals
    @example(cfg={"q": 0.5, "K": 16, "tasks": ["mutator"],
                  "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [math.nan, 0]}})
    def test_run_config_keeps_exit_code_contract(self, cfg):
        self._check(cfg)

    @settings(max_examples=80, deadline=None)
    @given(cfg=_position_config())
    def test_position_config_keeps_exit_code_contract(self, cfg):
        self._check(cfg)

    @settings(max_examples=80, deadline=None)
    @given(case=_with_unknown_key(_fock_config() | _position_config()))
    # the drawn key came after the Fock family task's n_max, which is named
    @example(case=({"q": 0.5, "K": 2, "family": {"kind": "identity"},
                    "tasks": [{"task": "family", "n_max": 0, "Kk": 0}, {"task": "mutator"}],
                    "seed": 5}, "tasks[0].n_max"))
    def test_unknown_key_exits_2_with_its_path(self, case):
        # every key is checked before any value, so no other error comes first
        cfg, path = case
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: "):
            run_config(cfg)

    @staticmethod
    def _check(cfg):
        try:
            summary, code = run_config(cfg)
        except ConfigError:
            return
        assert code in (0, 1)
        for report in summary["tasks"].values():
            # every number a task reports is judged, except its info fields
            metrics = {key: value for key, value in report.items()
                       if key not in INFO and isinstance(value, (int, float))
                       and not isinstance(value, bool)}
            bounds = report.get("bounds", {})
            assert set(metrics) == set(bounds)
            assert report["passed"] == all(v <= bounds[m] for m, v in metrics.items())
            # a NaN residual must not hide behind a verdict
            assert all(math.isfinite(v) for v in metrics.values())


def _main_exit(argv: list[str]) -> tuple[int, str]:
    """main's exit code and what it printed; argparse's own refusals exit
    through SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@st.composite
def _run_argv(draw) -> list[str]:
    """One run subcommand with any of its flags but --out, each drawn in and
    out of range, --dim <= 256 and n_max <= 40; no --out, so nothing is
    written."""
    name = draw(st.sampled_from(sorted(cli.TASK_PARAMS)))
    small = st.integers(-1, 4)
    values = {
        "--q": ANY_FLOAT | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.floats(-1.0, 3.0),
        "--dim": st.integers(-2, 256), "--seed": st.integers(-1, 9),
        "--gamma": ANY_FLOAT | st.floats(-30.0, 30.0), "--n-max": st.integers(-1, 40),
        "--n-r": small, "--n-theta": small, "--r-frac": ANY_FLOAT | st.floats(0.0, 0.9),
        "--k-mom": st.integers(-1, 40), "--n-pairs": small, "--support": small,
    }
    argv = [name]
    for flag, action in _task_flags(name).items():
        if flag == "--out" or not draw(st.booleans()):
            continue
        value = draw(st.sampled_from(action.choices) if action.choices else values[flag])
        argv.append(f"{flag}={value}" if flag == "--family" else f"{flag}={value!r}")
    return argv


class TestArgvFuzz:
    """Every argv keeps the exit-code contract through main: 0, 1 or 2, and
    no exception."""

    @settings(max_examples=200, deadline=None)
    @given(q=ANY_FLOAT, n_max=st.integers(-1, 3000))
    def test_beta(self, q, n_max):
        code, out = _main_exit(["beta", f"--q={q!r}", f"--n-max={n_max}"])
        assert code in (0, 1, 2)
        if code == 0:
            header, *rows = out.split()
            assert len(rows) == n_max + 1
            for row in rows:
                assert all(math.isfinite(float(x)) for x in row.split(","))

    @settings(max_examples=150, deadline=None)
    @given(argv=_run_argv())
    def test_run_subcommands(self, argv):
        assert _main_exit(argv)[0] in (0, 1, 2)
