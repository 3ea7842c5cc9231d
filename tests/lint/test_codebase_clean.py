"""The repository's own tree passes its own contract checker.

This is the CI gate in test form: src/ and scripts/ must lint clean —
any new wall-clock call, untyped raise, dropped deadline, or stray RNG
shows up as a failing finding with its file:line in the assertion.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from repro.core import SwapDynamics, best_swap, is_equilibrium
from repro.errors import ConfigurationError
from repro.graphs import path_graph
from repro.lint import LintConfig, lint_paths
from repro.lint.engine import FileContext
from repro.lint.project import _mode_literals

REPO_ROOT = Path(__file__).resolve().parents[2]


def _src_trees():
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_src_and_scripts_are_violation_free():
    config = LintConfig(tests_dir=REPO_ROOT / "tests")
    findings, checked = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "scripts"], config
    )
    assert checked > 50  # the real tree, not an empty glob
    report = "\n".join(f.format() for f in findings)
    assert findings == [], f"repro lint found violations:\n{report}"


# Parallelism lives only at the fleet grain (DESIGN.md §5): one persistent
# pool ships plain task tuples, so the library has no shared-memory channel
# and none of the knobs that used to steer one.

def test_src_never_imports_shared_memory():
    offenders = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any("shared_memory" in name for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


@pytest.mark.parametrize("knob", ["shared", "backend", "verify_workers"])
def test_no_function_takes_removed_parallel_knob(knob):
    offenders = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                if any(a.arg == knob for a in params):
                    offenders.append(f"{path.name}:{node.name}")
    assert offenders == []


# One fast path and one oracle per operation (DESIGN.md §2): every mode
# declaration R5 tracks pairs at most two members, and the retired fast
# paths are refused like any unknown mode.

def test_every_mode_set_has_at_most_two_members():
    declared = {}
    for path, _ in _src_trees():
        ctx = FileContext(path, path.read_text())
        members = defaultdict(list)
        for literal, node in _mode_literals(ctx):
            members[f"{path.name}:{node.targets[0].id}"].append(literal)
        declared.update(members)
    # The collector must see the real declarations, or the bound is vacuous.
    assert {
        "distances.py:ApspMode",
        "equilibrium.py:AuditMode",
        "best_response.py:BestSwapMode",
        "dynamics.py:EngineMode",
        "swap_eval.py:EvalMode",
        "swap_eval.py:RemovalMode",
    } <= set(declared)
    wide = {name: values for name, values in declared.items() if len(values) > 2}
    assert wide == {}


@pytest.mark.parametrize("call", [
    lambda: is_equilibrium(path_graph(4), mode="repair"),
    lambda: best_swap(path_graph(4), 0, mode="repair"),
    lambda: SwapDynamics(engine_mode="incremental"),
], ids=["is_equilibrium-repair", "best_swap-repair", "SwapDynamics-incremental"])
def test_retired_modes_are_rejected(call):
    with pytest.raises(ConfigurationError):
        call()


# One way to declare and run a fleet (DESIGN.md §12): an `Experiment` run
# by `run_fleet`, streaming through the one store `make_store` builds.

_RETIRED_FLEET_NAMES = {
    "run_census", "run_trajectory_census", "census_to_rows",
    "trajectory_census_to_rows", "trajectory_sweep", "run_sweep", "Sweep",
    "SweepPoint", "write_jsonl_records", "store_factory",
}


def _definitions_of(retired: "set[str]") -> "list[str]":
    """``file:name`` for every def, class or assignment in src/ of a
    retired name."""
    defined = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [
                f"{path.name}:{name}" for name in names if name in retired
            ]
    return defined


def test_retired_fleet_entry_points_are_not_defined():
    assert _definitions_of(_RETIRED_FLEET_NAMES) == []


# One removal-row kernel (DESIGN.md §2): every repaired distance row comes
# from the union BFS, so the seeded per-row repair and the threshold that
# chose it stay gone.

_RETIRED_ROW_REPAIR_NAMES = {
    "repair_row_after_removal", "_invalid_set", "repair_removal_rows",
    "_batched_removal_rows", "_BATCH_THRESHOLD",
}


def test_retired_row_repair_names_are_not_defined():
    assert _definitions_of(_RETIRED_ROW_REPAIR_NAMES) == []


# One batched scan (DESIGN.md §2): audit plans take every endpoint row,
# bridges included, from the union BFS, and `removal_affected_sources` is
# the one affected-source rule, so the bridge probe, the many-edge affected
# matrix and the threaded predecessor-count table stay gone.

_RETIRED_PLAN_NAMES = {"removal_affected_matrix", "is_bridge", "pred_counts"}


def test_retired_plan_names_are_not_defined():
    assert _definitions_of(_RETIRED_PLAN_NAMES) == []


# One removal builder (DESIGN.md §2): an edge that changes every row is a
# bridge, and its far side is read off the base matrix, so the half-BFS
# bridge probe stays gone; `edge_removal` alone decides how `G − e` is
# built, and only it and the audit plans run the union BFS.

_RETIRED_REMOVAL_NAMES = {"bridge_side"}


def test_retired_removal_names_are_not_defined():
    assert _definitions_of(_RETIRED_REMOVAL_NAMES) == []


def _callers_of(name: str) -> "set[str]":
    """``file:Scope.function`` of every call in src/ to ``name``."""
    callers = set()

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + [child.name], path)
                continue
            if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None),
            ):
                callers.add(f"{path.name}:{'.'.join(scope)}")
            visit(child, scope, path)

    for path, tree in _src_trees():
        visit(tree, [], path)
    return callers


def test_only_the_builder_calls_the_affected_source_rule():
    assert _callers_of("removal_affected_sources") == {
        "repair.py:edge_removal"
    }


def test_only_the_builder_and_the_plans_run_the_union_bfs():
    assert _callers_of("batched_removal_rows_multi") == {
        "repair.py:edge_removal",
        "batched.py:BatchedRemovalPlan.__init__",
    }


# One audit walk (DESIGN.md §2): the paper's "try every possible edge swap
# and deletion" is one loop over the directed edges, fed by a batched and a
# rebuild engine.  The per-audit batched scans, the rebuild oracle's drop
# loop, the dynamics' own at-rest scan and the second flag for the max
# objective stay gone; the four audits read the walk, and the dynamics
# certify a graph at rest with the audit itself.

_RETIRED_AUDIT_NAMES = {
    "certify_at_rest", "scan_swap_violations", "scan_gap",
    "scan_deletion_violations", "_iter_drop_contexts",
    "requires_deletion_criticality",
}


def test_retired_audit_loops_are_not_defined():
    assert _definitions_of(_RETIRED_AUDIT_NAMES) == []


def test_the_four_audits_are_the_walks_only_callers():
    assert _callers_of("_audit_walk") == {
        "equilibrium.py:find_swap_violation",
        "equilibrium.py:sum_equilibrium_gap",
        "equilibrium.py:find_deletion_criticality_violation",
        "equilibrium.py:is_equilibrium",
    }
    assert "dynamics.py:_BatchedEngine.certify" in _callers_of(
        "is_equilibrium"
    )


# One graph type (DESIGN.md §1): a move derives the next immutable
# `CSRGraph`, so the mutable adjacency graph, its mutators and snapshots,
# and the dead deletion marker on `Swap` stay gone.  (`apply_swap` is still
# `DistanceEngine`'s method name; test_api_surface.py guards the retired
# function's export instead.)

_RETIRED_GRAPH_NAMES = {
    "AdjacencyGraph", "swap_edge", "to_csr", "neighbors_array",
    "is_deletion_when_add_exists",
}


def test_retired_graph_names_are_not_defined():
    assert _definitions_of(_RETIRED_GRAPH_NAMES) == []


def test_only_the_experiment_layer_builds_jsonl_stores():
    builders = set()
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "JsonlStore"
                or getattr(node.func, "attr", None) == "JsonlStore"
            ):
                builders.add(path.relative_to(REPO_ROOT).as_posix())
    assert builders == {"src/repro/experiments/experiment.py"}


# One checksummed entry (DESIGN.md §13): checkpoints and cache entries are
# written by `fsutil.write_entry` and verified by `fsutil.read_entry`, so
# the per-store checksum, sidecar namer, sweeper and reader stay gone, and
# the store-write fault sites live only in the two writers that tear bytes.

_RETIRED_ENTRY_NAMES = {
    "_payload_checksum", "_tmp_path", "_sweep_stale_tmp", "_read_entry",
}


def test_retired_entry_helpers_are_not_defined():
    assert _definitions_of(_RETIRED_ENTRY_NAMES) == []


def test_only_the_shared_writers_take_write_faults():
    sites = set()
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and "take" in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in ("torn-write", "enospc")
            ):
                sites.add(path.relative_to(REPO_ROOT).as_posix())
    assert sites == {"src/repro/io/fsutil.py", "src/repro/io/jsonl_store.py"}


# scipy loads on first use, never on import (DESIGN.md §2 item 2): the
# union BFS binds scipy's compiled CSR product inside the function, and
# nothing else reaches into scipy's private modules.  A module-level import
# of the product put scipy.sparse on every cold start (importing the six
# packages below took 0.232 instead of 0.143 s).

def test_importing_the_library_loads_no_scipy():
    code = (
        "import sys\n"
        "import repro, repro.core, repro.graphs, repro.experiments, "
        "repro.service, repro.io\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_one_module_binds_scipys_compiled_product():
    users = {
        path.relative_to(REPO_ROOT).as_posix()
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if "scipy.sparse._sparsetools" in path.read_text()
    }
    assert users == {"src/repro/graphs/repair.py"}
