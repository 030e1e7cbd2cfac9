"""Smoke test of the benchmark harness: every workload at its smallest size.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

from workloads import WORKLOADS  # noqa: E402


def run_bench(workload, trace=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(p):
    assert p.returncode == 0, p.stderr[-2000:]
    out = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, p.stdout[-3000:]
    assert out["failed"] == 0
    assert out["attempted"] >= 11
    return out


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smallest_size(workload):
    out = result_line(run_bench(workload))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = result_line(run_bench("membership-n3", trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["metrics"]["compcones.q_membership.calls"]["value"] == out["attempted"]
    assert out["metrics"]["tensor.apply_m1.calls"]["value"] > 0


def test_unwrapped_binding_fails_loudly():
    import tcpkit.tensor
    from tracing import Tracer

    leak = types.ModuleType("tcpkit._leak")

    class Holder:
        fn = tcpkit.tensor.apply_m1

    leak.Holder = Holder
    sys.modules[leak.__name__] = leak
    original = tcpkit.tensor.apply_m1
    try:
        with pytest.raises(RuntimeError, match="tcpkit._leak.Holder.fn"):
            Tracer(str(ROOT)).install()
        assert tcpkit.tensor.apply_m1 is original  # restored after the failure
    finally:
        del sys.modules[leak.__name__]


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "bench/run.py", "--workload",
                        SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
