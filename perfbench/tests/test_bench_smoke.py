"""Every workload runs at smoke size and prints every metric with its unit."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from layers import ABSENT, PER_LAYER

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_traced_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(ROOT, workload, trace, "--smoke")
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    report = json.loads(report_line)["report"]
    assert report["host"]["nproc"] >= 1
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        for name in report["absent"]:
            assert values[f"{name}.calls"] == ABSENT
        assert values["trace.traced_ops_per_s"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _session_members(sid: int) -> "list[int]":
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            session = stat.read_text().rsplit(")", 1)[1].split()[3]
        except (OSError, IndexError):
            continue
        if session == str(sid):
            members.append(int(stat.parent.name))
    return members


def _start_in_own_session(tmp_path: Path, trace: int, seconds: int):
    """service-cold starts pool workers and multiprocessing's resource
    tracker; in a session of its own, nothing of the run may outlive it."""
    with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
        return subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", "service-cold",
             "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
             "--smoke"],
            cwd=ROOT, stdout=out, stderr=err, start_new_session=True,
        )


needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


@needs_proc
@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_no_process_behind(tmp_path, trace):
    proc = _start_in_own_session(tmp_path, trace, seconds=1)
    assert proc.wait(timeout=170) == 0, (tmp_path / "err").read_text()
    assert _session_members(proc.pid) == []


@needs_proc
def test_terminated_run_leaves_no_process_behind(tmp_path):
    proc = _start_in_own_session(tmp_path, 0, seconds=60)
    time.sleep(4)  # past the pool's start
    proc.terminate()
    assert proc.wait(timeout=60) != 0
    assert _session_members(proc.pid) == []
    assert '"metrics"' not in (tmp_path / "out").read_text()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
