"""Tests of the benchmark harness itself (inputs, tracing, metric names).

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import spans
import workloads
import worker
from biquon import cli, selftest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
HARNESS_METRICS = {"accuracy.tol_ratio_max", "trace.overhead_frac"}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.make_ops(workload, 7)
    assert workloads.make_ops(workload, 7) == first
    assert workloads.digest(workloads.make_ops(workload, 7)) == workloads.digest(first)
    assert workloads.digest(workloads.make_ops(workload, 8)) != workloads.digest(first)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        workloads.make_ops("nope", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_validate(workload):
    ops = list(workloads.WARMUP_OPS)
    for seed in range(5):
        ops += workloads.make_ops(workload, seed)
    for op in ops:
        if op["command"] == "run":
            cli.validate_config(json.loads(json.dumps(op["config"])))


def test_self_time_on_nested_tree():
    tree = [
        ["cli.run_config", 0.0, 10.0, -1],
        ["pseudoquon.build_family", 1.0, 4.0, 0],
        ["pseudoquon.make_pair", 1.5, 3.0, 1],
        ["fock.make_quon_c", 2.0, 2.5, 2],
        ["pseudoquon.make_pair", 5.0, 6.0, 0],
        ["pseudoquon.make_pair", 5.5, 7.0, 0],   # overlaps its sibling
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 1.0, 0.5, 1.0, 1.5])
    metrics = spans.span_metrics(tree, Counter({"qcore.BetaSequence.entries": 9}))
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["pseudoquon.self_s"] == pytest.approx(5.0)
    assert metrics["fock.self_s"] == pytest.approx(0.5)
    assert metrics["pseudoquon.make_pair.s"] == pytest.approx(4.0)
    assert metrics["pseudoquon.make_pair.calls"] == 3
    assert metrics["qcore.BetaSequence.entries"] == 9
    assert metrics["resolution.gauss_ratio"] == 0.0


def test_recursive_span_counted_once():
    tree = [["positionrep.inner", 0.0, 4.0, -1], ["positionrep.inner", 1.0, 2.0, 0]]
    metrics = spans.span_metrics(tree, Counter())
    assert metrics["positionrep.inner.s"] == pytest.approx(4.0)
    assert metrics["positionrep.inner.calls"] == 2


def _bindings():
    """Identity of every binding the tracer may replace."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name == "biquon" or name.startswith("biquon."):
            for key, value in vars(module).items():
                snap[(name, key)] = id(value)
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snap[(name, key, attr)] = id(member)
    snap["TASK_RUNNERS"] = [id(v) for v in cli.TASK_RUNNERS.values()]
    snap["ALL_CHECKS"] = [id(v) for v in selftest.ALL_CHECKS]
    return snap


def test_tracer_restores_every_binding():
    before = _bindings()
    original = cli.qmutator_residual
    tracer = spans.Tracer()
    with tracer:
        changed = {k for k, v in _bindings().items() if before.get(k) != v}
        assert cli.qmutator_residual is not original
        assert ("biquon.pseudoquon", "make_quon_c") in changed
        assert ("biquon.qcore", "BetaSequence", "__init__") in changed
        assert {"TASK_RUNNERS", "ALL_CHECKS"} <= changed
    assert _bindings() == before
    assert cli.qmutator_residual is original


def _traced_warmup(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir(exist_ok=True)
    for op in workloads.WARMUP_OPS:
        (inputs / f"{worker._slug(op)}.json").write_text(json.dumps(op["config"]))
    tracer = spans.Tracer()
    with tracer:
        record = worker._run_pass(cli, workloads.WARMUP_OPS, inputs, tmp_path / "ops")
    assert all(r["passed"] for r in record["ops"]), record
    metrics = spans.span_metrics(tracer.spans, tracer.counts)
    metrics["io.bytes_written"] = sum(r["bytes_written"] for r in record["ops"])
    return metrics


def test_counts_repeat_exactly(tmp_path):
    first, second = _traced_warmup(tmp_path), _traced_warmup(tmp_path)
    counts = {k for k in first if k.endswith(".calls") or k in (
        "qcore.BetaSequence.entries", "bicoherent.norm_series.terms",
        "resolution.atoms", "resolution.gauss_ratio", "pseudoquon.result_bytes",
        "io.bytes_written")}
    assert {"pseudoquon.make_pair.calls", "pseudoquon.result_bytes", "io.bytes_written",
            "bicoherent.norm_series.terms", "resolution.gauss_ratio"} <= counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_every_per_layer_metric_is_produced(tmp_path):
    produced = set(_traced_warmup(tmp_path)) | HARNESS_METRICS
    produced |= {f"cli.task.{t}.s" for t in cli.TASK_RUNNERS}
    produced |= {f"selftest.{fn.__name__}.s" for fn in selftest.ALL_CHECKS}
    produced |= {"selftest.run_all.s", "selftest.self_s"}
    missing = [m["name"] for m in _spec()["per_layer"] if m["name"] not in produced]
    assert missing == []


def test_metric_names_are_well_formed(tmp_path):
    spec = _spec()
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(declared)) == len(declared)
    produced = list(_traced_warmup(tmp_path))
    assert [n for n in declared + produced if not NAME.match(n)] == []


def test_run_refuses_checkout_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "selftest", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert not (tmp_path / ".bench_out").exists()


def test_verify_rejects_failed_task(tmp_path):
    op = {"id": "x", "command": "run", "config": {"tasks": ["mutator"]}}
    (tmp_path / "summary.json").write_text(json.dumps({
        "all_pass": False,
        "tasks": {"mutator": {"passed": False, "max_residual": 1e-3, "tolerance": 1e-12}}}))
    passed, _, why = worker._verify(op, 0, "", tmp_path)
    assert not passed and "mutator" in why
    assert not worker._verify(op, 1, "", tmp_path)[0]


def test_hook_failure_keeps_the_result():
    tracer = spans.Tracer()
    wrapped = tracer._wrap("bicoherent.norm_series", lambda: "no tuple")
    assert wrapped() == "no tuple"
    assert tracer.counts["trace.hook_errors"] == 1
    assert [s[0] for s in tracer.spans] == ["bicoherent.norm_series"]
