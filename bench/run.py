"""biquon benchmark: run a workload and print its metrics.

    python3 bench/run.py --workload fock-scale --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.

Run from anywhere; the checkout is the parent of this directory and must
hold ``src/biquon``.  The load is a closed loop: one process, one op at a
time.  Set-up is measured in several fresh interpreters and reported as
their median; the measured run is one more fresh interpreter.  Every
child runs with BLAS and OpenMP pinned to one thread in its own
environment.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the per-layer metrics of ``BENCHMARK.json``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The full record, with the environment and the input digest, goes to
``.bench_out/results/``.  The exit code is 0 only if every op passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3          # set-up-only interpreters, besides the measured one
TIME_LIMIT_S = 170.0      # the whole run, children included


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Run one biquon benchmark workload.")
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measured part runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    return p.parse_args(argv)


def _child(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run one worker interpreter to completion; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the worker started")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources: identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "biquon").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def declared_metrics(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "biquon" / "__init__.py").is_file():
        print(f"error: no biquon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max([_run_workload(name, args) for name in names])


def _run_workload(workload: str, args) -> int:
    """Measure one workload, print its metrics and write its result file."""
    deadline = time.monotonic() + TIME_LIMIT_S
    run_name = f"{workload}-seed{args.seed}-trace{args.trace}"
    out = ROOT / ".bench_out" / run_name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    try:
        setups = [_child(cmd + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = _child(cmd, env, deadline)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    res["setup_s"] = statistics.median(setups)
    res["setup_s_samples"] = setups
    res["fail_frac"] = res["failed"] / res["attempted"]
    correct = (res["failed"] == 0
               and res.get("trace_status_matches", True))

    if args.trace:
        # a layer the workload never calls reads 0
        values = {**res["layer_metrics"], "accuracy.tol_ratio_max": res["tol_ratio_max"]}
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in declared_metrics("per_layer").items()}
    else:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in declared_metrics("end_to_end").items()}

    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "metrics": metrics,
        "environment": {**res.pop("environment"), "commit": _commit(),
                        "src_sha256": _source_digest(), "nproc": len(os.sched_getaffinity(0)),
                        "cpu_count": os.cpu_count(), "cpu_model": _cpu_model()},
        "raw": res,
    }
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_name}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256 {res['inputs_sha256'][:16]}  "
          f"passes {len(res['passes'])} x {res['ops_per_pass']} ops")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<40} {res['fail_frac']:>14.6g} fraction  "
          f"({res['failed']}/{res['attempted']} ops)")
    for failure in res["failures"]:
        print(f"  FAILED {failure['id']}: {failure['why']}")
    if args.trace and not res["trace_status_matches"]:
        print("  FAILED: tracing changed the pass/fail status of an op")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
