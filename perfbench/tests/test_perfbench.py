"""Self-test of the benchmark: python3 -m pytest perfbench/tests -q

Runs shortened passes (one round; one operation per round in
product_tables) so the whole file takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _one_traced_pass(name: str, seed: int) -> dict:
    workloads, wl, _, _ = run.setup(name, seed)
    wl.pass_rounds = 1
    if name == "product_tables":
        workloads.PRODUCTS = workloads.PRODUCTS[:1]  # a round of one Iwasawa^2 table
    stats, metrics, _ = run.layers(workloads, wl, name, seed)
    assert stats.failed == 0
    return metrics


def test_reported_metrics_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: run.layer_unit(k) for k in per_layer} == per_layer
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", ["product_tables", "fiber_sweep", "extension_batch"])
def test_traced_counts_repeat_exactly(name):
    first = _one_traced_pass(name, 5)
    second = _one_traced_pass(name, 5)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(first) == declared
    counts = {k: v for k, v in first.items() if not k.endswith("_s") and k != "trace.overhead_ratio"}
    assert counts == {k: second[k] for k in counts}
    assert counts["linalg.echelon_inserts"] > 0
    assert counts["scalars.max_num_bits"] > 0
    if name == "extension_batch":
        assert counts["cohomology.green_builds"] > 0
        assert counts["extension.plain"] + counts["extension.corrected"] + counts["extension.obstructed"] == 4
    else:
        assert counts["cohomology.matrix_nnz"] > 0
    if name == "product_tables":
        assert counts["linalg.dense_inverse_calls"] == 0
        assert counts["lemmata.witnesses"] > 0


def test_wrong_golden_counts_as_failed(tmp_path, monkeypatch):
    goldens = json.loads(run.GOLDENS.read_text())
    outcomes = goldens["extension_batch"]["outcomes"]
    outcomes["4,4"] = ["plain"] * len(outcomes["4,4"])  # every (4,4) solve is corrected
    wrong = tmp_path / "goldens.json"
    wrong.write_text(json.dumps(goldens))
    monkeypatch.setattr(run, "GOLDENS", wrong)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "extension_batch", "--seed", "3", "--seconds", "1",
                         "--trace", "0"])
    assert code == 0
    summary, result = out.getvalue().strip().splitlines()[-2:]
    result = json.loads(result)
    assert result["correct"] is False and result["failed"] > 0
    assert json.loads(summary.split(" ", 1)[1])["failed_ops_ratio"] > 0


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fiber_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
