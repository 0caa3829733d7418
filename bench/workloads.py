"""Benchmark inputs: each workload's fixed batch of ops, made from a seed.

An op is one in-process call of ``biquon.cli.main``: either ``run`` on a
generated config, or ``selftest`` with a generated seed.  Generation uses
only the standard library, so the same seed gives byte-identical inputs on
every machine, and the digest of the batch shows that two runs being
compared ran the same inputs.  The program under test sees only the
generated configs and seeds, never the workload seed.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random

WORKLOADS = ("fock-scale", "disc-sweep", "position-family", "selftest")

# fock-scale: the dense build-and-check path at growing truncation.  One
# op at K = 1024 costs about 12 s, too long to repeat within a run.
FOCK_SIZES = (128, 256, 512)
# disc-sweep: the resolution solver takes its Gauss path up to K_mom = 14
# and its NNLS fallback from 16 upward, so the cycle covers both.
DISC_K = 256
DISC_KMOM = (12, 16, 20, 24)
DISC_BICOHERENT = {"task": "bicoherent", "n_r": 4, "n_theta": 8, "r_frac": 0.9}
POSITION_NMAX = (10, 20, 40)
SELFTEST_OPS = 2

# Set-up runs these once, outside timing, so that lazy imports and first
# allocations are not charged to the first measured op.
WARMUP_OPS = (
    {"id": "warmup/fock", "command": "run", "config": {
        "q": 0.5, "K": 32,
        "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0.0, 1.0]},
        "tasks": ["family", "mutator", "theta",
                  {"task": "bicoherent", "n_r": 1, "n_theta": 2, "r_frac": 0.3},
                  {"task": "resolution", "K_mom": 12, "n_pairs": 1}],
        "seed": 1}},
    {"id": "warmup/position", "command": "run", "config": {
        "q": 0.5, "K": 16, "family": {"kind": "position", "gamma": 0.5},
        "tasks": ["mutator", {"task": "family", "n_max": 2}, "theta",
                  {"task": "position", "n_max": 2}],
        "seed": 1}},
)


def _unit_phase(rng: random.Random) -> list[float]:
    """alpha_def = e^{i theta}, theta in [-2.5, 2.5]: |1 + alpha| >= 0.63."""
    z = cmath.exp(1j * rng.uniform(-2.5, 2.5))
    return [z.real, z.imag]


def _compact_pair(rng: random.Random) -> tuple[list, list]:
    """Sparse u, v with support extent 6-12 and <u, v> = 1.

    Built like the worked preset: u = c0 + c1, v = c0 + c2 with disjoint
    blocks and ||c0|| = 1, so the pairing is 1 up to rounding.
    """
    extent = rng.randint(6, 12)
    n0 = rng.randint(2, 3)
    c0 = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n0)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in c0))
    c0 = [z / norm for z in c0]
    rest = list(range(n0, extent))
    n1 = rng.randint(1, len(rest) - 1)
    u_idx, v_idx = rest[:n1], rest[n1:]

    def entry(k, z):
        return [k, z.real, z.imag]

    def small():
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    u = [entry(k, z) for k, z in enumerate(c0)] + [entry(k, small()) for k in u_idx]
    v = [entry(k, z) for k, z in enumerate(c0)] + [entry(k, small()) for k in v_idx]
    return u, v


def _fock_scale(rng: random.Random) -> list[dict]:
    ops = []
    for i, K in enumerate(FOCK_SIZES):
        # the two family shapes alternate, so every batch holds the same mix
        family = {"kind": "rank_one", "alpha_def": _unit_phase(rng)}
        if i % 2 == 0:
            family["preset"] = "worked"
        else:
            family["u"], family["v"] = _compact_pair(rng)
        ops.append({"id": f"fock-scale/{i}/K{K}", "command": "run", "config": {
            "q": rng.uniform(0.2, 0.8), "K": K, "family": family,
            "tasks": ["family", "mutator", "theta"],
            "seed": rng.randrange(2 ** 31)}})
    return ops


def _disc_sweep(rng: random.Random) -> list[dict]:
    ops = []
    for i, k_mom in enumerate(DISC_KMOM):
        ops.append({"id": f"disc-sweep/{i}/Kmom{k_mom}", "command": "run", "config": {
            "q": rng.uniform(0.3, 0.7), "K": DISC_K,
            "family": {"kind": "rank_one", "preset": "worked",
                       "alpha_def": _unit_phase(rng)},
            "tasks": [dict(DISC_BICOHERENT), {"task": "resolution", "K_mom": k_mom}],
            "seed": rng.randrange(2 ** 31)}})
    return ops


def _position_family(rng: random.Random) -> list[dict]:
    ops = []
    for i, n_max in enumerate(POSITION_NMAX):
        ops.append({"id": f"position-family/{i}/n{n_max}", "command": "run", "config": {
            "q": rng.uniform(0.3, 0.7), "K": 64,
            "family": {"kind": "position", "gamma": rng.uniform(-1.0, 1.0)},
            "tasks": ["mutator", {"task": "family", "n_max": min(n_max, 20)},
                      "theta", {"task": "position", "n_max": n_max}],
            "seed": rng.randrange(2 ** 31)}})
    return ops


def _selftest(rng: random.Random) -> list[dict]:
    return [{"id": f"selftest/{i}", "command": "selftest",
             "seed": rng.randrange(2 ** 31)} for i in range(SELFTEST_OPS)]


_MAKERS = {
    "fock-scale": _fock_scale,
    "disc-sweep": _disc_sweep,
    "position-family": _position_family,
    "selftest": _selftest,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The workload's batch for ``seed``; the same seed gives the same ops."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _MAKERS[workload](random.Random(f"{workload}:{int(seed)}"))


def digest(ops: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a batch."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
