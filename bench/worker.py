"""One benchmark process: set up, run the batch for a fixed time, verify.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to
one thread.  Set-up is the cold import of ``biquon`` and ``biquon.cli``,
writing the generated inputs and the warm-up ops.  The measured part runs
the workload's batch pass after pass, one op at a time, until the time is
up.  Each op is an in-process call of ``biquon.cli.main``; its results are
checked and its output bytes counted outside the timed region.  With
``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in the same process.  The last line of standard
output is one JSON object with the raw results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

_SELFTEST_LINE = re.compile(
    r"^\s*(PASS|FAIL\(expected\)|FAIL)\s+(\S+)\s+value=(\S+)\s+tol=(\S+)")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="working directory for this run")
    p.add_argument("--setup-only", action="store_true",
                   help="measure set-up, then exit")
    return p.parse_args(argv)


def _argv(op: dict, inputs: Path, op_dir: Path) -> list[str]:
    if op["command"] == "selftest":
        return ["selftest", "--seed", str(op["seed"])]
    return ["run", "--config", str(inputs / f"{_slug(op)}.json"), "--out", str(op_dir)]


def _slug(op: dict) -> str:
    return op["id"].replace("/", "_")


def _run_op(cli, argv: list[str]) -> tuple[float, float, object, str, str]:
    """Time one call of the CLI entry point: (wall s, cpu s, code, stdout, error)."""
    buf = io.StringIO()
    error = ""
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        error = traceback.format_exc()
    return (time.perf_counter() - start, time.process_time() - cpu,
            code, buf.getvalue(), error)


def _verify(op: dict, code, stdout: str, op_dir: Path) -> tuple[bool, float, str]:
    """(passed, max residual / tolerance, reason) from the op's own reports."""
    if code != 0:
        return False, math.nan, f"exit code {code!r}"
    if op["command"] == "selftest":
        rows = [m.groups() for m in map(_SELFTEST_LINE.match, stdout.splitlines()) if m]
        if not any(status == "PASS" for status, *_ in rows):
            return False, math.nan, "no passing check in the selftest table"
        failed = [crit for status, crit, _, _ in rows if status == "FAIL"]
        if failed:
            return False, math.nan, f"unexpected failures {failed}"
        ratios = [float(v) / float(t) for status, _, v, t in rows
                  if status == "PASS" and float(t) > 0]
        return True, max(ratios, default=0.0), ""
    try:
        summary = json.loads((op_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return False, math.nan, f"summary.json unreadable: {exc}"
    ratio = 0.0
    for task in op["config"]["tasks"]:
        name = task if isinstance(task, str) else task["task"]
        report = summary.get("tasks", {}).get(name)
        if report is None:
            return False, math.nan, f"task {name} missing from summary.json"
        resid, tol = float(report["max_residual"]), float(report["tolerance"])
        if not (report["passed"] is True and math.isfinite(resid) and resid <= tol):
            return False, math.nan, f"task {name}: residual {resid:.3e} > tolerance {tol:.1e}"
        ratio = max(ratio, resid / tol)
    if summary.get("all_pass") is not True:
        return False, math.nan, "summary.json all_pass is not true"
    return True, ratio, ""


def _artifact_bytes(path: Path) -> int:
    """Bytes the op wrote to ``--out``, ``summary.json`` excepted.

    Its ``timings`` block makes that file's length vary by a few bytes
    from run to run; every other artifact is byte-stable.
    """
    return sum(f.stat().st_size for f in path.rglob("*")
               if f.is_file() and f.name != "summary.json")


def _run_pass(cli, ops, inputs: Path, work_dir: Path) -> dict:
    """One pass over the batch; only the CLI calls are timed."""
    records = []
    for op in ops:
        op_dir = work_dir / _slug(op)
        seconds, cpu_s, code, stdout, error = _run_op(cli, _argv(op, inputs, op_dir))
        passed, ratio, why = _verify(op, code, stdout, op_dir)
        written = _artifact_bytes(op_dir) if op_dir.exists() else 0
        shutil.rmtree(op_dir, ignore_errors=True)
        records.append({"id": op["id"], "seconds": seconds, "cpu_s": cpu_s,
                        "passed": passed,
                        "tol_ratio": ratio, "bytes_written": written,
                        "why": (why + "\n" + error).strip()})
    return {"batch_s": sum(r["seconds"] for r in records), "ops": records}


def _environment() -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS")}


def main(argv=None) -> int:
    args = _parse_args(argv)
    out = Path(args.out).resolve()
    start = time.perf_counter()
    import biquon
    import biquon.cli as cli
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(biquon.__file__).resolve().parents:
        print(f"biquon imported from {biquon.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.make_ops(args.workload, args.seed)
    inputs = out / "inputs"
    work_dir = out / f"ops-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    for op in (*workloads.WARMUP_OPS, *ops):
        if op["command"] == "run":
            (inputs / f"{_slug(op)}.json").write_text(json.dumps(op["config"]))
    warmup = _run_pass(cli, workloads.WARMUP_OPS, inputs, work_dir)
    setup_s = time.perf_counter() - start
    failed = [r for r in warmup["ops"] if not r["passed"]]
    if failed:
        print(f"warm-up op failed: {failed[0]['id']}: {failed[0]['why']}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    passes, walls = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            with tracer:
                record = _run_pass(cli, ops, inputs, work_dir)
            record["metrics"] = spans.span_metrics(tracer.spans, tracer.counts)
            record["metrics"]["io.bytes_written"] = \
                sum(r["bytes_written"] for r in record["ops"])
            last_spans = tracer.spans
        else:
            record = _run_pass(cli, ops, inputs, work_dir)
        record["traced"] = traced
        passes.append(record)
        walls.append(time.perf_counter() - began)
        # stop when the next pass would end past the deadline; a traced run
        # always pairs each untraced pass with a traced one
        owes_traced = tracer is not None and len(passes) % 2 == 1
        if not owes_traced and time.perf_counter() + statistics.median(walls) > deadline:
            break
    shutil.rmtree(work_dir, ignore_errors=True)

    all_ops = [r for p in passes for r in p["ops"]]
    plain = [p for p in passes if not p["traced"]]
    result = {
        "setup_s": setup_s,
        "batch_s": statistics.median(p["batch_s"] for p in plain),
        "op_p50_s": statistics.median(r["seconds"] for p in plain for r in p["ops"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(all_ops),
        "failed": sum(not r["passed"] for r in all_ops),
        "failures": [{"id": r["id"], "why": r["why"]} for r in all_ops
                     if not r["passed"]][:10],
        "tol_ratio_max": max((r["tol_ratio"] for r in all_ops if r["passed"]),
                             default=0.0),
        "inputs_sha256": workloads.digest(ops),
        "ops_per_pass": len(ops),
        "passes": [{"traced": p["traced"], "batch_s": p["batch_s"],
                    "op_s": [r["seconds"] for r in p["ops"]],
                    "op_cpu_s": [r["cpu_s"] for r in p["ops"]],
                    "bytes_written": [r["bytes_written"] for r in p["ops"]]}
                   for p in passes],
        "environment": _environment(),
    }
    if tracer is not None:
        result.update(_traced_summary(passes))
        (out / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": last_spans}))
    print(json.dumps(result))
    return 0


def _traced_summary(passes: list[dict]) -> dict:
    """Median per-layer metrics over the traced passes, and what tracing changed."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    names = sorted({k for p in traced for k in p["metrics"]})
    layer = {k: statistics.median_low(p["metrics"].get(k, 0) for p in traced)
             for k in names}
    layer["trace.overhead_frac"] = (
        statistics.median(p["batch_s"] for p in traced)
        / statistics.median(p["batch_s"] for p in plain) - 1.0)
    counts = [{k: v for k, v in p["metrics"].items()
               if not (k.endswith(".s") or k.endswith("self_s"))} for p in traced]
    status = {tuple(r["passed"] for r in p["ops"]) for p in passes}
    return {"layer_metrics": layer,
            "counts_repeat": all(c == counts[0] for c in counts),
            "trace_status_matches": len(status) == 1}


if __name__ == "__main__":
    sys.exit(main())
