"""Self-test of the benchmark on tiny inputs (small p, small sets).

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = "\n".join(lines[:-1])
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
        assert m["name"] in table
    assert "fail_ratio" in table
    if workload == "pointset_cert":  # the tiny criteria grid holds the known defect
        assert "KNOWN DEFECT criteria.main.12.10.9.10" in table
    assert result["correct"] and result["failed"] == 0, table


def test_wrong_expected_value_raises_fail_ratio(tmp_path, monkeypatch):
    wl = workloads.nodal_scan(3, "tiny", tmp_path)

    def fail_ratio():
        _, _, results = worker.run_pass(wl.jobs(0, 1))
        return sum(1 for _, _, why in results if why) / len(results)

    before = fail_ratio()
    monkeypatch.setattr(checks, "double_solid_nodes", lambda r: (2 * r - 1) * r + 1)
    assert fail_ratio() > before


def test_known_defect_is_checked_but_not_counted(tmp_path):
    wl = workloads.pointset_cert(3, "tiny", tmp_path)
    _, _, results = worker.run_pass(wl.jobs(0, 1))
    failures, known, fixed = worker.split_failures(results, wl.known_defects)
    assert failures == [] and fixed == []
    assert known == list(wl.known_defects.items())
    # any other failure of that job still counts
    label = next(iter(wl.known_defects))
    failures, known, fixed = worker.split_failures([(label, 0.0, "exit code 2")],
                                                   wl.known_defects)
    assert failures == [(label, "exit code 2")] and known == [] and fixed == [label]


def test_exact_criterion_answers():
    # mu = 10/11 satisfies bullet 3: floor(12 mu) = 10, 9 <= 10 mu, 11 mu >= 10
    assert checks.main_theorem_applies(12, 10, 9, 10)
    assert not checks.main_theorem_applies(3, 4, 36, 5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "nodal_scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
