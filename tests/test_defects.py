"""Seeded defects: each row breaks the program in one known way after the
config is validated, and names the metrics that must then fail.

A metric that no defect can move shows nothing.  Each row records the
outcome it expects, exit 1 with exactly its metrics failing; bounds and
tolerances are the run's own.
"""

import dataclasses

import numpy as np
import pytest

from biquon import pseudoquon
from biquon.cli import run_config

BICOHERENT = {"q": 0.5, "K": 256, "family": {"kind": "rank_one"},
              "tasks": [{"task": "bicoherent", "n_r": 4, "n_theta": 8}]}
FOCK = {"q": 0.5, "K": 128, "family": {"kind": "rank_one"},
        "tasks": ["family", "mutator", "theta"]}
# a pair similar to the family's by another S: the ladder, number and
# conjugation relations fail, while a and b still obey the q-mutator and
# gram_deviation and the other theta metrics do not read them
PAIR_METRICS = {"raise_phi", "lower_phi", "raise_psi", "lower_psi", "number_residual_phi",
                "number_residual_psi", "conjugation_residual"}


def _scaled_block_entry(name: str):
    """build_family whose operator ``name`` has the largest entry of its
    block scaled by 1 + 1e-6."""
    real = pseudoquon.build_family

    def build(source, q, dim):
        family = real(source, q, dim)
        op = getattr(family, name)
        block = op.block.copy()
        block[np.unravel_index(np.argmax(np.abs(block)), block.shape)] *= 1 + 1e-6
        return dataclasses.replace(family, **{name: dataclasses.replace(op, block=block)})
    return build


def _pair_from(perturb):
    """make_pair whose a and b come from the deformation ``perturb(source)``,
    while S, S^{-1} and c stay the source's."""
    real = pseudoquon.make_pair

    def make_pair(source, q, dim):
        return real(perturb(source), q, dim)[:2] + real(source, q, dim)[2:]
    return make_pair


def _alpha_scaled(source):
    return pseudoquon.Deformation(source.u, source.v, source.alpha_def * (1 + 1e-9))


def _u_entry_scaled(source):
    # u[2] = 0.4 of the worked family lies outside v's support, so <u, v>
    # stays 1 and the perturbed deformation is admissible
    u = source.u.copy()
    u[2] *= 1 + 1e-9
    return pseudoquon.Deformation(u, source.v, source.alpha_def)


# row: (the program function replaced, its replacement, the config and the
# metrics that must fail, over all its tasks).  The bicoherent state holds a phi and
# b^dag psi, formed from the family's pair; a perturbed pair must still
# move the eigen residual past its bound (it reads about 2e-7 and 4e-7,
# against 1e-9), so the stored images are no value compared with itself.
# The pair rows build a and b from the rank-one identity for a deformation
# 1e-9 away from the family's, so that identity cannot cancel by
# construction.
DEFECTS = {
    "a-block-entry": (pseudoquon, "build_family", _scaled_block_entry("a"), BICOHERENT,
                      {"eigen_residual"}),
    "b-block-entry": (pseudoquon, "build_family", _scaled_block_entry("b"), BICOHERENT,
                      {"eigen_residual"}),
    "pair-alpha": (pseudoquon, "make_pair", _pair_from(_alpha_scaled), FOCK, PAIR_METRICS),
    "pair-u-entry": (pseudoquon, "make_pair", _pair_from(_u_entry_scaled), FOCK,
                     PAIR_METRICS),
}


@pytest.mark.parametrize("row", DEFECTS.values(), ids=DEFECTS.keys())
def test_defect_fails_its_metrics(row, monkeypatch):
    owner, name, defect, cfg, metrics = row
    monkeypatch.setattr(owner, name, defect)
    summary, code = run_config(cfg)
    assert code == 1
    failed = {m for report in summary["tasks"].values()
              for m, bound in report["bounds"].items() if not report[m] <= bound}
    assert failed == metrics
