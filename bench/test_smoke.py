"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

It checks that each run emits exactly the metrics BENCHMARK.json names,
with their units, that the correctness gate counts a corrupted answer as
a failure, that the set-up reference import shares no module with wol's,
and that the runner refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import GeneratorType

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _answer(op):
    answer = op.call()
    if isinstance(answer, GeneratorType):  # a stepwise op: run it to its end
        try:
            while True:
                next(answer)
        except StopIteration as stop:
            answer = stop.value
    return answer


def _corrupt_class(answer):
    code, text = answer
    data = json.loads(text)
    data["members"].append(data["members"][0])
    return code, json.dumps(data)


CORRUPTIONS = {
    "cli-queries": ("class", _corrupt_class),
    "module-build": ("chain", lambda answer: (answer[0] + 1, *answer[1:])),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_counts_a_corrupted_answer_as_failed(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    kind, corrupt = CORRUPTIONS[workload]
    op = next(op for op in workloads.build(workload, 5, tiny=True).ops if op.kind == kind)
    answer = _answer(op)
    tally = run.Tally()
    tally.gate(op, answer)
    assert (tally.attempted, tally.failed) == (1, 0), tally.reasons
    tally.gate(op, corrupt(answer))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert len(tally.reasons) == 1


def _modules_loaded_after_numpy(statement: str) -> set[str]:
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import numpy; "
            f"before = set(sys.modules); {statement}; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout))


def test_import_reference_shares_no_module_with_wol(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import speed

    wol = _modules_loaded_after_numpy(
        "import workloads; " + "; ".join(f"workloads.warm_up({name!r})" for name in WORKLOADS))
    reference = _modules_loaded_after_numpy("import " + ", ".join(speed.IMPORT_MODULES))
    assert "wol" in wol and reference
    assert not wol & reference


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "cli-queries", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
