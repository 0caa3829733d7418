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


# row: (the program function replaced, its replacement, the config, the task
# and the metrics that must fail).  The bicoherent state holds a phi and
# b^dag psi, formed from the family's pair; a perturbed pair must still
# move the eigen residual past its bound (it reads about 2e-7 and 4e-7,
# against 1e-9), so the stored images are no value compared with itself.
DEFECTS = {
    "a-block-entry": (pseudoquon, "build_family", _scaled_block_entry("a"), BICOHERENT,
                      "bicoherent", {"eigen_residual"}),
    "b-block-entry": (pseudoquon, "build_family", _scaled_block_entry("b"), BICOHERENT,
                      "bicoherent", {"eigen_residual"}),
}


@pytest.mark.parametrize("row", DEFECTS.values(), ids=DEFECTS.keys())
def test_defect_fails_its_metrics(row, monkeypatch):
    owner, name, defect, cfg, task, metrics = row
    monkeypatch.setattr(owner, name, defect)
    summary, code = run_config(cfg)
    assert code == 1
    report = summary["tasks"][task]
    failed = {m for m, bound in report["bounds"].items() if not report[m] <= bound}
    assert failed == metrics
