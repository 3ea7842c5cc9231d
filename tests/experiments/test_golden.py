"""Golden-file bit-identity suite for the experiment layer (ISSUE 9).

The fixtures under ``golden/`` were streamed by the pre-refactor fleets
(``tests/experiments/make_golden.py`` regenerates them — deliberately,
never casually: a diff is a compatibility break).  Every registered
experiment must reproduce its fixture **byte-for-byte** in three modes —
a fresh fleet, a mid-fleet resume from a truncated prefix, and a
``retry_failed`` resume over a quarantined slot — at workers=1 and
workers=2.  Lint rule R9 requires every ``register_experiment`` name to
be pinned here, so a new experiment cannot ship without its bytes.
"""

import json
from pathlib import Path

import pytest

from repro.core.census import census_experiment
from repro.core.trajcensus import trajectory_experiment
from repro.experiments import run_fleet
from repro.experiments.registry import experiment_names, get_experiment
from repro.io.jsonl_store import FleetFailure

GOLDEN = Path(__file__).parent / "golden"

#: name -> (fixture, builder of its pinned grid); make_golden.py
#: regenerates the fixtures from these builders.
CASES = {
    "census": ("census.jsonl", lambda: census_experiment(
        [8, 10], families=("tree", "sparse"), replicates=2, root_seed=3,
    )),
    "trajectory": ("trajectory.jsonl", lambda: trajectory_experiment(
        [10], families=("tree", "sparse"),
        objectives=("sum", "interest-sum:k=3,seed=0"),
        schedules=("round_robin",), responders=("best",),
        replicates=2, max_steps=2000, root_seed=5,
    )),
    "bench-census-scaling": ("bench_census.jsonl", lambda: get_experiment(
        "bench-census-scaling").build(n=[24])),
    "bench-trajectory-scaling": (
        "bench_trajectory.jsonl",
        lambda: get_experiment("bench-trajectory-scaling").build(n=[12]),
    ),
}

NAMES = sorted(CASES)
WORKERS = [1, 2]


def test_every_registered_experiment_is_pinned_here():
    # R9's runtime twin: registering an experiment without extending this
    # suite fails loudly in both lint and tests.
    assert sorted(experiment_names()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_builder_name_matches_registry(name):
    assert CASES[name][1]().name == name


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", NAMES)
def test_fresh_fleet_reproduces_golden_bytes(name, workers, tmp_path):
    fixture, build = CASES[name]
    out = tmp_path / fixture
    run_fleet(build(), workers=workers, jsonl_path=out)
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", NAMES)
def test_mid_fleet_resume_reproduces_golden_bytes(name, workers, tmp_path):
    fixture, build = CASES[name]
    golden = (GOLDEN / fixture).read_text()
    lines = golden.splitlines(keepends=True)
    # Header + half the records: a fleet killed mid-stream on a record
    # boundary (the torn-tail case is pinned in the store's own tests).
    cut = 1 + (len(lines) - 1) // 2
    out = tmp_path / fixture
    out.write_text("".join(lines[:cut]))
    run_fleet(build(), workers=workers, jsonl_path=out, resume=True)
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", NAMES)
def test_retry_failed_resume_reproduces_golden_bytes(
    name, workers, tmp_path
):
    fixture, build = CASES[name]
    experiment = build()
    golden = (GOLDEN / fixture).read_text()
    lines = golden.splitlines(keepends=True)
    # Quarantine the second slot: its record line becomes a fleet_failure
    # carrying the slot's grid coordinates, as a crashed fleet writes it.
    failure = FleetFailure(
        coords=experiment.task_coords(experiment.compile_tasks()[1]),
        error="InjectedFault('injected raise at task 1')",
        attempts=3,
    )
    lines[2] = json.dumps(failure.encode()) + "\n"
    out = tmp_path / fixture
    out.write_text("".join(lines))
    records = run_fleet(
        experiment, workers=workers, jsonl_path=out,
        resume=True, retry_failed=True,
    )
    assert not any(isinstance(r, FleetFailure) for r in records)
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()


def test_quarantined_slot_survives_resume_without_retry(tmp_path):
    # Without retry_failed the quarantine line must stay in place (and the
    # stream must still validate) rather than being silently re-run.
    fixture, build = CASES["census"]
    experiment = build()
    lines = (GOLDEN / fixture).read_text().splitlines(keepends=True)
    failure = FleetFailure(
        coords=experiment.task_coords(experiment.compile_tasks()[1]),
        error="InjectedFault('injected raise at task 1')",
        attempts=3,
    )
    lines[2] = json.dumps(failure.encode()) + "\n"
    out = tmp_path / fixture
    out.write_text("".join(lines))
    records = run_fleet(experiment, jsonl_path=out, resume=True)
    assert records[1] == failure
    assert out.read_text() == "".join(lines)


def test_fixtures_exist_and_are_committed():
    for fixture, _ in CASES.values():
        assert (GOLDEN / fixture).exists(), fixture


def test_golden_dir_holds_no_strays():
    # Every fixture is claimed by a case; a stray file means an experiment
    # was deleted without its fixture (or a tmp artifact leaked in).
    committed = {p.name for p in GOLDEN.glob("*.jsonl")}
    assert committed == {fixture for fixture, _ in CASES.values()}
