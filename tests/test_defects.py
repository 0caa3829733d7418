"""Seeded defects: each row breaks the program in one known way after the
config is validated, and names the metrics that must then fail.

A metric that no defect can move shows nothing.  Each row records the
outcome it expects, exit 1 with exactly its metrics failing; bounds and
tolerances are the run's own.
"""

import dataclasses
import json

import numpy as np
import pytest

from biquon import positionrep, pseudoquon, resolution
from biquon.cli import main, run_config

BICOHERENT = {"q": 0.5, "K": 256, "family": {"kind": "rank_one"},
              "tasks": [{"task": "bicoherent", "n_r": 4, "n_theta": 8}]}
FOCK = {"q": 0.5, "K": 128, "family": {"kind": "rank_one"},
        "tasks": ["family", "mutator", "theta"]}
RESOLUTION = {"q": 0.5, "K": 64, "family": {"kind": "rank_one"},
              "tasks": [{"task": "resolution", "K_mom": 12}]}
POSITION = {"q": 0.5, "family": {"kind": "position", "gamma": 0.5},
            "tasks": ["mutator", "family", "theta", "position"]}
# a pair built at another q: it obeys that q's mutator, so the q-mutator,
# ladder and number relations fail, while Theta still conjugates it, as it
# does any pair S X S^{-1}, S X^dag S^{-1}
SHIFTED_Q_METRICS = {"qmutator_residual", "raise_phi", "lower_phi", "raise_psi", "lower_psi",
                     "number_residual_phi", "number_residual_psi"}
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


# the program functions the rows below wrap
_REAL_MAKE_PAIR = pseudoquon.make_pair
_REAL_MAKE_QUON_C = pseudoquon.make_quon_c
_REAL_SOLVE = resolution.solve_moment_measure
_REAL_RECURSION = positionrep.coefficient_recursion
_REAL_EXPONENT_FACTOR = positionrep._exponent_factor


def _s_inv_block_scaled(source, q, dim):
    """make_pair whose S^{-1} has its block scaled by 1 + 1e-9."""
    a, b, s, s_inv, c = _REAL_MAKE_PAIR(source, q, dim)
    return a, b, s, dataclasses.replace(s_inv, block=s_inv.block * (1 + 1e-9)), c


def _pair_at_shifted_q(source, q, dim):
    """make_pair whose a and b are built at q (1 + 1e-9), while S, S^{-1}
    and c stay at q."""
    return (_REAL_MAKE_PAIR(source, q * (1 + 1e-9), dim)[:2]
            + _REAL_MAKE_PAIR(source, q, dim)[2:])


def _beta_entry_scaled(q, dim):
    """make_quon_c, which make_pair binds at import, with beta_3 scaled by
    1 + 1e6 eps: c, a and b all carry it, so only the q-mutator sees it."""
    c = _REAL_MAKE_QUON_C(q, dim)
    diag = c.diag.copy()
    diag[4] *= 1 + 1e6 * np.finfo(float).eps        # diag[n + 1] is beta_n
    return dataclasses.replace(c, diag=diag)


def _gamma_scaled(params, f, half_sq, gamma_sign):
    """_exponent_factor with gamma scaled by 1 + 1e-9: the lowering maps
    leave their vacuum's lattice, so their images read NaN."""
    shifted = positionrep.PositionParams(params.q, params.gamma * (1 + 1e-9))
    return _REAL_EXPONENT_FACTOR(shifted, f, half_sq, gamma_sign)


def _largest_weight_scaled(q, k_mom):
    """solve_moment_measure as it comes out with its largest Jackson weight
    scaled by 1 + 1e-6: the moments and residuals are formed from it."""
    quad = _REAL_SOLVE(q, k_mom)
    weights = quad.weights.copy()
    weights[np.argmax(weights)] *= 1 + 1e-6
    moments = resolution._scaled_moments(q, weights, k_mom)
    return dataclasses.replace(quad, weights=weights, moments=moments,
                               residuals=np.abs(moments - 1.0))


def _lattice_entry_scaled(params, n_max):
    """coefficient_recursion with c_1^(2), which every position task reads,
    scaled by 1 + 1e-6."""
    rows = _REAL_RECURSION(params, n_max)
    assert rows[2, 1] != 0.0
    rows[2, 1] *= 1 + 1e-6
    return rows


# row: (the program function replaced, its replacement, the config and the
# metrics that must fail, over all its tasks).  The bicoherent state holds a phi and
# b^dag psi, formed from the family's pair; a perturbed pair must still
# move the eigen residual past its bound (it reads about 2e-7 and 4e-7,
# against 1e-9), so the stored images are no value compared with itself.
# The pair rows build a and b from the rank-one identity for a deformation
# 1e-9 away from the family's, so that identity cannot cancel by
# construction.  The lattice row leaves the q-mutator, which holds on every
# lattice state, and the similarity metrics, which read only the base
# Gaussians; it moves the norm formula's relative error from 3e-15 to 6e-7,
# still under that metric's 1e-6 bound.  The beta row moves the bicoherent
# eigen residual to about 1e-10, under its 1e-9 bound, so it runs on FOCK
# alone.  The gamma row fails the two metrics that apply a lowering map; the
# family and theta tasks pair states without one and still pass.
DEFECTS = {
    "a-block-entry": (pseudoquon, "build_family", _scaled_block_entry("a"), BICOHERENT,
                      {"eigen_residual"}),
    "b-block-entry": (pseudoquon, "build_family", _scaled_block_entry("b"), BICOHERENT,
                      {"eigen_residual"}),
    "pair-alpha": (pseudoquon, "make_pair", _pair_from(_alpha_scaled), FOCK, PAIR_METRICS),
    "pair-u-entry": (pseudoquon, "make_pair", _pair_from(_u_entry_scaled), FOCK,
                     PAIR_METRICS),
    "s-inv-block": (pseudoquon, "make_pair", _s_inv_block_scaled, FOCK,
                    {"gram_deviation", "raise_psi", "lower_psi", "number_residual_psi",
                     "series_vs_closed", "conjugation_residual", "mapping_residual",
                     "inverse_residual"}),
    "pair-q-0.5": (pseudoquon, "make_pair", _pair_at_shifted_q, FOCK, SHIFTED_Q_METRICS),
    "pair-q-1.5": (pseudoquon, "make_pair", _pair_at_shifted_q, {**FOCK, "q": 1.5},
                   SHIFTED_Q_METRICS),
    "jackson-weight": (resolution, "solve_moment_measure", _largest_weight_scaled,
                       RESOLUTION, {"moment_residual", "resolution_residual"}),
    "lattice-entry": (positionrep, "coefficient_recursion", _lattice_entry_scaled,
                      POSITION, {"biorthogonality", "conjugacy_residual", "ladder_residual"}),
    "beta-entry": (pseudoquon, "make_quon_c", _beta_entry_scaled, FOCK, {"qmutator_residual"}),
    "gamma-scale": (positionrep, "_exponent_factor", _gamma_scaled, POSITION,
                    {"qmutator_residual", "ladder_residual"}),
}


@pytest.mark.parametrize("row", DEFECTS.values(), ids=DEFECTS.keys())
def test_defect_fails_its_metrics(row, monkeypatch):
    owner, name, defect, cfg, metrics = row
    monkeypatch.setattr(owner, name, defect)
    summary, code = run_config(cfg)
    failed = {m for report in summary["tasks"].values()
              for m, bound in report["bounds"].items() if not report[m] <= bound}
    assert code == 1
    assert failed == metrics


@pytest.mark.parametrize("argv", [["position"], ["mutator", "--family", "position"]],
                         ids=["position", "mutator"])
def test_gamma_defect_exits_1_without_a_traceback(argv, monkeypatch, capsys):
    monkeypatch.setattr(positionrep, "_exponent_factor", _gamma_scaled)
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["all_pass"] is False


@pytest.mark.parametrize("cfg", [BICOHERENT, FOCK, {**FOCK, "q": 1.5}, RESOLUTION, POSITION],
                         ids=["bicoherent", "fock", "fock-q-1.5", "resolution", "position"])
def test_defect_configs_pass_on_correct_code(cfg):
    assert run_config(cfg)[1] == 0
