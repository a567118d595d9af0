"""Tiny runs of the benchmark: every workload prints every named metric and
passes its answer checks, and the answer checks do catch wrong answers.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import legcable  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run("--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", "0"))
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(run("--workload", "ranges", "--seed", "3", "--seconds", "1",
                           "--trace", "1"))
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    overheads = [v["value"] for k, v in result["metrics"].items() if k.endswith("overhead_pct")]
    assert len(overheads) == 3


def test_layer_table_is_the_benchmark_file():
    listed = [(layer.metric, layer.unit, layer.better) for layer in LAYERS]
    assert listed == [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_times_follow_the_host_speed():
    clock = calibrate.Clock()
    clock.samples = [calibrate.REFERENCE_S] * 3 + [2 * calibrate.REFERENCE_S] * 6
    assert clock.scale(0.010, 0) == pytest.approx(0.010)
    assert clock.scale(0.010, 6) == pytest.approx(0.005)
    assert clock.speed() == pytest.approx(2.0)


def test_checks_reject_wrong_answers():
    decide = workloads.Decide(legcable)
    decide.setup()
    for op in islice(decide.ops(6), 400):
        if op.kind == "componentwise":
            assert decide.check(op, not op.expect).wrong
        else:
            flipped = (workloads.NOT_ISOTOPIC if op.expect == workloads.ISOTOPIC
                       else workloads.ISOTOPIC)
            assert decide.check(op, flipped).wrong
            assert decide.check(op, workloads.UNKNOWN).wrong

    ranges = workloads.Ranges(legcable)
    ranges.setup()
    for kind in ("mountain", "greater", "lesser"):
        op = next(op for op in ranges.ops(5)
                  if op.args[-1] == "json" and op.expect[0] == kind)
        code, text = ranges.execute(op)
        assert not ranges.check(op, (code, text)).wrong
        doc = json.loads(text)
        doc["entries"][0]["multiplicity"] += 1
        assert ranges.check(op, (code, json.dumps(doc))).wrong

    oracle = workloads.Oracle(legcable)
    oracle.setup()
    pairs = [op for op in islice(oracle.ops(5), 400) if op.kind == "pair"]
    outcome = oracle.check(pairs[0], (workloads.ISOTOPIC, workloads.NOT_ISOTOPIC))
    assert outcome.wrong and outcome.disagreements == 1
    for op in pairs:
        open_pair = oracle.check(op, (workloads.UNKNOWN, workloads.UNKNOWN))
        assert bool(open_pair.wrong) == (not op.open_ok)
        assert op.open_ok == (op.expect is None and op.args[1]["regime"] != "greater")
    assert any(op.open_ok for op in pairs)


def test_closed_forms_match_the_engine_at_depth():
    for n in (2, 3, 16):
        atlas = legcable.builtin_atlas(f"twist-even-{n}")
        assert legcable.mountain_range(atlas, -30).entries == workloads.twist_range(n, -30)
    k5 = legcable.builtin_atlas("k-minus-5")
    assert legcable.mountain_range(k5, -30).entries == workloads.k5_range(-30)
    assert (legcable.cable_mountain_range(k5, 3, -7, -40).entries
            == workloads.greater_cable_range("k-minus-5", -3, 3, -7, -40))
    for n, p, q in ((2, 2, 3), (3, 2, 5), (4, 3, 4)):
        atlas = legcable.builtin_atlas(f"twist-even-{n}")
        row = legcable.lesser_mountain_range(atlas, p, -q, -p * q).row(-p * q)
        assert row == workloads.census_row(n, p, q)
