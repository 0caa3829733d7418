"""Acceptance gate: every numbered criterion at its stated tolerance.

Each check prints its own pass/fail line.  The one check marked as a known
discrepancy (the position-family empirical radius, see the selftest notes)
is reported as an expected failure rather than silently relaxed.
"""

from collections import Counter

import pytest

from biquon import pseudoquon, selftest
from biquon.cli import run_config

RESULTS = selftest.run_all(seed=selftest.DEFAULT_SEED)
BY_NAME = {r.criterion: r for r in RESULTS}


def test_every_criterion_present():
    prefixes = {r.criterion.split("-")[0].rstrip("abcdefgh") for r in RESULTS}
    assert prefixes == {f"{k:02d}" for k in range(1, 13)}


@pytest.mark.parametrize("criterion", sorted(BY_NAME))
def test_criterion(criterion):
    r = BY_NAME[criterion]
    status = "PASS" if r.passed else (
        "FAIL(expected)" if r.known_discrepancy else "FAIL")
    print(f"{status} {r.criterion}: value={r.value:.3e} tolerance={r.tolerance:.1e}")
    if not r.passed and r.known_discrepancy:
        pytest.xfail(reason=r.note)
    assert r.passed, (f"{r.criterion}: value {r.value:.3e} exceeds tolerance "
                      f"{r.tolerance:.1e}. {r.note}")


IDENTITY = {"kind": "identity"}
WORKED = {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]}


def _configs(task, families, qs, K=64, **cfg):
    return [{"q": q, "K": K, "family": fam, "tasks": [task], **cfg}
            for fam in families for q in qs]


# criterion -> (equivalent run configs, metrics read from the task report,
# bound when tighter than the task's own)
TASK_CRITERIA = {
    "01-qmutator-identity": (_configs("mutator", (IDENTITY, WORKED),
                                      (0.1, 0.3, 0.5, 0.7, 0.9)), ["max_residual"], None),
    "02-biorthogonality": (_configs("family", (WORKED,), (0.4,)),
                           ["gram_deviation"], None),
    "03a-ladder-fock": (_configs("family", (IDENTITY, WORKED), (0.3, 0.7)),
                        ["raise_phi", "lower_phi", "raise_psi", "lower_psi"], None),
    "03b-ladder-position": (_configs({"task": "position", "n_max": 6},
                                     ({"kind": "position", "gamma": 0.6},), (0.5,)),
                            ["ladder_residual"], None),
    "04a-number-eigenvalues": (_configs("family", (WORKED,), (0.3, 0.7)),
                               ["number_residual_phi", "number_residual_psi"], None),
    "05a-theta-series-vs-closed": (_configs("theta", (WORKED,), (0.4,)),
                                   ["series_vs_closed"], 1e-11),
    "05b-theta-conjugation": (_configs("theta", (WORKED,), (0.4,)),
                              ["conjugation_residual"], None),
    "05c-theta-inverse": (_configs("theta", (WORKED,), (0.4,)),
                          ["inverse_residual"], 1e-11),
    "06a-bicoherent-eigen": (_configs({"task": "bicoherent", "n_r": 5, "n_theta": 8,
                                       "r_frac": 0.9}, (WORKED,), (0.5,), K=256),
                             ["eigen_residual"], None),
    "06b-bicoherent-pairing": (_configs({"task": "bicoherent", "n_r": 5, "n_theta": 8,
                                         "r_frac": 0.9}, (WORKED,), (0.5,), K=256),
                               ["pairing_residual"], None),
    "08-resolution-identity": (_configs("resolution", (IDENTITY, WORKED), (0.5,),
                                        seed=selftest.DEFAULT_SEED),
                               ["max_residual"], None),
}


@pytest.mark.parametrize("criterion", sorted(TASK_CRITERIA))
def test_criterion_equals_run_report(criterion):
    """selftest and `biquon run` on the equivalent configs give the same number."""
    configs, metrics, tighter = TASK_CRITERIA[criterion]
    reports = []
    for cfg in configs:
        report, = run_config(cfg)[0]["tasks"].values()
        reports.append(report)
    assert BY_NAME[criterion].value == max(r[m] for r in reports for m in metrics)
    bound = reports[0].get("bounds", {}).get(metrics[0], reports[0]["tolerance"])
    assert BY_NAME[criterion].tolerance == (tighter or bound)


def test_each_family_builds_its_pair_once(monkeypatch):
    calls = Counter()
    for name in ("make_pair", "build_family"):
        def counted(*args, _fn=getattr(pseudoquon, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(pseudoquon, name, counted)
    run_config({"q": 0.5, "K": 32, "family": WORKED,
                "tasks": ["mutator", "family", "theta"]})
    assert calls == {"make_pair": 1, "build_family": 1}
    calls.clear()
    selftest.run_all()
    assert calls["make_pair"] == calls["build_family"]
