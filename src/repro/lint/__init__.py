"""`repro lint` — AST contract checker for this repository's invariants.

The codebase rests on a stack of documented contracts — seed-derived RNG
discipline (:mod:`repro.rng`), ``deadline=`` propagation through every
audit loop (DESIGN.md §10), the :mod:`repro.errors` taxonomy, bit-exact
oracle parity for every kernel ``mode=``, and JSONL record/header
stability (DESIGN.md §7).
Each of these was violated at least once between PRs 4 and 7 and fixed by
hand; this package enforces them mechanically.

The engine is a small rule framework over :mod:`ast` (stdlib only):

* per-file **visitor rules** (R1, R2, R4, R7, R8, R10) walk one module's
  tree;
* **project rules** (R3, R5, R9) see every parsed file at once — R3
  first collects the set of ``deadline=``-accepting functions, R5
  cross-checks kernel mode literals against the test tree, R9
  cross-checks registered experiment names against the golden-file
  suite;
* findings are ``path:line:col: RULE message`` records, sortable and
  JSON-serializable;
* any finding can be suppressed in place with a justified comment::

      risky_call()  # repro-lint: disable=R4 -- task bodies raise anything

  A suppression without a ``-- reason`` is itself reported (rule R0).

Rule catalogue (DESIGN.md §11 has the contract → past-bug mapping):

======  ==============================================================
R1      determinism: no wall-clock (``time.time`` / ``datetime.now``),
        no stdlib ``random``, no iteration over set literals/calls
R2      RNG discipline: ``np.random.default_rng`` / ``RandomState`` /
        ``.seed()`` only inside :mod:`repro.rng`
R3      deadline propagation: ``deadline=``-accepting functions must use
        it and forward it to every deadline-capable callee
R4      error taxonomy: no ``raise ValueError``/``raise Exception`` in
        library code outside :mod:`repro.errors`; blanket ``except
        Exception`` needs a pragma or justified suppression
R5      oracle coverage: every kernel mode literal must appear in tests/
R6      retired (guarded the removed shared-memory worker views); the
        ID is not reused, so existing suppressions keep their meaning
R7      JSONL stability: record-defining modules never write files
        directly (serialization goes through ``jsonl_store`` or the
        ``repro.experiments`` layer that feeds it)
R8      no mutable default arguments
R9      golden pins: every ``register_experiment`` name must appear in
        a golden-file test, keeping its stream bytes pinned
R10     durable writes: raw ``os.replace`` / ``os.rename`` / ``os.fsync``
        only inside :mod:`repro.io`
======  ==============================================================

Entry points: :func:`lint_paths` (library), ``python -m repro.lint`` and
``repro-bench lint`` (CLI, text or JSON output, exit 1 on findings).
"""

from __future__ import annotations

from .engine import LintConfig, lint_paths, lint_source, rule_catalogue
from .findings import Finding, findings_to_json

__all__ = [
    "Finding",
    "LintConfig",
    "findings_to_json",
    "lint_paths",
    "lint_source",
    "rule_catalogue",
]
