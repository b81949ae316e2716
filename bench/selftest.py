"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the simulator's own test run.
"""

from __future__ import annotations

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "mc-e3m4-adc"  # the quickest to run; it traces set-up and programming too
DETERMINISTIC = ("readout_rel_err", "saturated_frac", "sqnr_db", "underflow_frac",
                 "sim_latency_us", "sim_energy_uj", "fail_frac")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(report, result) of a finished run; the result line's shape is checked."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)), name
    return report, result


@pytest.fixture(scope="module")
def untraced_runs():
    return [parse(bench("--workload", WORKLOAD, "--seed", "7", "--seconds", "1", "--trace", "0"))
            for _ in range(2)]


def test_same_seed_repeats_deterministic_metrics_and_hash(untraced_runs):
    (r1, res1), (r2, res2) = untraced_runs
    assert res1["correct"] and res2["correct"]
    assert r1["output_sha256"] == r2["output_sha256"]
    for name in DETERMINISTIC:
        assert r1["metrics"][name] == r2["metrics"][name], name
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(res1["metrics"]) == {m["name"] for m in declared}
    assert r1["batches"] >= harness.MIN_BATCHES and r1["batches_beyond_p90"] >= 10


def test_traced_run_matches_untraced_and_accounts_for_batch_time(untraced_runs):
    report, result = parse(bench("--workload", WORKLOAD, "--seed", "7", "--seconds", "1",
                                 "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert report["output_sha256"] == untraced_runs[0][0]["output_sha256"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-6)
    # One fc layer of two row tiles, 64 signed vectors per trial, read by the ADC.
    assert m["mapper.tiles"] == 2 and m["cimmacro.macro_mac.signed_calls"] == 2
    assert m["perfmodel.macro_cycles"] == 128
    assert m["adc.conversions"] == 2 * 2 * 64 * 256
    assert m["mapper.im2col.s"] == 0
    # One layer: the worst layer is layer 0, and no deeper layer is reported.
    assert m["layers.sqnr_db_min"] == m["layer0.sqnr_db"]
    assert m["layers.saturated_frac_max"] == m["layer0.saturated_frac"]
    assert "layer1.sqnr_db" not in report["metrics"]


def test_missing_wrap_target_is_reported_missing():
    targets = dict(spans.TARGETS, **{"fpcodec.decode_bits": ("fpcim.fpcodec", "no_such_function"),
                                     "mapper.im2col": ("fpcim.no_such_module", "im2col")})
    original = harness.mapper.macro_mac
    wl = workloads.generate(WORKLOAD, 3)
    with spans.Tracer(targets) as tracer:
        with tracer.root("setup"):
            m = harness.set_up(wl)
        with tracer.root("batch"):
            harness.run_batch(m, wl.items[0], wl.readout)
    assert harness.mapper.macro_mac is original
    assert tracer.missing == {"fpcodec.decode_bits", "mapper.im2col"}
    values = tracer.per_layer()
    assert values["fpcodec.decode_bits.s"] is None and values["mapper.im2col.s"] is None
    assert values["cimmacro.macro_mac.calls"] == 2
    declared = [{"name": "mapper.im2col.s", "unit": "s"}]
    line = json.loads(run.result_line({"mapper.im2col.s": (None, "s")}, declared, True, 1, 0))
    assert line["metrics"] == {"mapper.im2col.s": {"value": 0, "unit": "s"}}


def test_workload_generation_imports_no_fpcim_and_bench_uses_public_names_only():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = [n.module if isinstance(n, ast.ImportFrom) else a.name
                for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names]
    assert not [name for name in imported if name and name.startswith("fpcim")]

    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> fpcim module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("fpcim"):
                for a in node.names:
                    assert not a.name.startswith("_"), (path.name, a.name)
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = importlib.import_module(modules[node.value.id])
                assert not node.attr.startswith("_"), (path.name, node.attr)
                assert hasattr(module, node.attr), (path.name, node.attr)
    for module, attr in spans.TARGETS.values():
        assert not any(part.startswith("_") for part in attr.split("."))


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = bench("--workload", WORKLOAD, "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
