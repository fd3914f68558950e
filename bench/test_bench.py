"""Self-test of the benchmark code.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
The last test runs every workload once untraced and once traced with a
short budget, so the file takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Hooks, Recorder  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    a, b = workloads.Workload(name, 7), workloads.Workload(name, 7)
    assert a.first == b.first
    assert list(itertools.islice(a.more(), 50)) == list(itertools.islice(b.more(), 50))
    assert a.query_rng.random() == b.query_rng.random()


@pytest.mark.parametrize("name", ("sparse-lines", "store-20k"))
def test_other_seed_gives_other_inputs(name):
    assert workloads.Workload(name, 1).first != workloads.Workload(name, 2).first


def test_store_stream_is_separate_from_sparse_stream():
    sparse = workloads.Workload("sparse-lines", 3).first
    store = workloads.Workload("store-20k", 3).first
    assert len(store) == workloads.STORE_DOCS
    assert store[:10] != sparse[:10]


def test_dense_input_is_criterion_7_construction():
    text = workloads.dense_text()
    assert len(text.encode("utf-8")) >= workloads.DENSE_BYTES
    assert text.startswith(" ۔ ".join(workloads.gold_sentences()))


def test_hooks_restore_originals_and_report_missing_targets():
    import sindhi_ner.pipeline as pipeline

    original = pipeline.tag_text
    hooks = Hooks(Recorder())
    hooks.targets.append((pipeline, "no_such_function", "x", "plain"))
    hooks.install()
    try:
        assert pipeline.tag_text is not original
        assert hooks.missing == ["sindhi_ner.pipeline.no_such_function"]
    finally:
        hooks.remove()
    assert pipeline.tag_text is original


def test_self_time_subtracts_direct_children():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            with rec.span("leaf"):
                pass
    summary = rec.summary()
    outer_count, outer_total, outer_self = summary["outer"]
    _, inner_total, inner_self = summary["inner"]
    assert outer_count == 1
    assert outer_self == outer_total - inner_total
    assert inner_self == inner_total - summary["leaf"][1]


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_named_metric_is_reported(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run_bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
