"""The registered experiments: censuses and bench arms as declarative specs.

Each entry is an :class:`ExperimentDef` — the experiment's CLI surface
(flags mirroring the retired fleet scripts), its builder (keyword
arguments → a compiled :class:`~repro.experiments.experiment.Experiment`),
a post-run console summary, and the header-reading hooks ``repro
experiment status`` uses to report progress and reconstruct a
ready-to-paste resume command without recomputing anything.

Adding a scenario is adding one ``register_experiment`` call here (lint
rule R9 then requires the new name to appear in the golden-file suite,
``tests/experiments/``); the execution, persistence, and fault-tolerance
semantics all come from :func:`~repro.experiments.experiment.run_fleet`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Mapping

from ..core.census import census_experiment
from ..core.costmodel import cost_model_spec
from ..core.trajcensus import trajectory_experiment
from ..errors import ConfigurationError
from ..io.jsonl_store import FleetFailure
from .experiment import Experiment

__all__ = [
    "ExperimentDef",
    "experiment_defs",
    "experiment_names",
    "get_experiment",
    "register_experiment",
]

_FAMILIES = ["tree", "sparse", "dense"]
_SCHEDULES = ["round_robin", "random", "greedy"]
_RESPONDERS = ["best", "first"]
_AUDIT_MODES = ["batched", "rebuild"]
_ENGINE_MODES = ["batched", "oracle"]

_SPEC_HELP = (
    "cost-model spec: sum | max | interest-{sum,max}:k=K[,seed=S] | "
    "budget-{sum,max}:cap=C"
)


@dataclass
class ExperimentDef:
    """One registry entry: CLI surface + builder + status hooks.

    ``add_arguments`` attaches the experiment's grid flags to an argparse
    parser; ``from_args`` compiles the parsed namespace to an
    :class:`Experiment`; ``build`` is the keyword-argument equivalent for
    programmatic callers (the bench arms).  ``total_from_header`` and
    ``flags_from_header`` reconstruct the fleet size and the original
    command-line flags from a stream's run-config header — what
    ``status`` needs to report progress and print a paste-ready
    ``--retry-failed`` resume command.  ``report`` prints the post-run
    console summary the fleet scripts used to.
    """

    name: str
    summary: str
    config_key: str
    default_out: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    from_args: Callable[[argparse.Namespace], Experiment]
    build: Callable[..., Experiment]
    report: Callable[[list, float], None]
    total_from_header: Callable[[Mapping], int]
    flags_from_header: Callable[[Mapping], "list[str]"]


_REGISTRY: "dict[str, ExperimentDef]" = {}


def register_experiment(defn: ExperimentDef) -> ExperimentDef:
    if defn.name in _REGISTRY:
        raise ConfigurationError(
            f"experiment {defn.name!r} is already registered"
        )
    _REGISTRY[defn.name] = defn
    return defn


def experiment_names() -> "list[str]":
    return list(_REGISTRY)


def experiment_defs() -> "list[ExperimentDef]":
    return list(_REGISTRY.values())


def get_experiment(name: str) -> ExperimentDef:
    if name not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise ConfigurationError(
            f"unknown experiment {name!r} (registered: {known})"
        )
    return _REGISTRY[name]


def _quarantine_report(failures: "list[FleetFailure]") -> None:
    if failures:
        print(f"quarantine: {len(failures)} task(s) failed permanently "
              "(re-run with --resume --retry-failed to retry them)")
        for f in failures:
            print(f"  {f.coords} after {f.attempts} attempt(s): {f.error}")


# ----------------------------------------------------------------------
# census — the equilibrium census (Theorem 9 empirics)
# ----------------------------------------------------------------------
def _census_arguments(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--n", type=int, nargs="+", default=[512],
                    help="graph sizes (default: 512)")
    ap.add_argument("--families", nargs="+", default=_FAMILIES,
                    choices=_FAMILIES)
    ap.add_argument("--replicates", type=int, default=8)
    ap.add_argument("--objective", type=cost_model_spec, default="sum",
                    metavar="SPEC", help=f"{_SPEC_HELP} (default: sum)")
    ap.add_argument("--schedule", default="round_robin", choices=_SCHEDULES)
    ap.add_argument("--responder", default="best", choices=_RESPONDERS)
    ap.add_argument("--root-seed", type=int, default=0)
    ap.add_argument("--max-steps", type=int, default=200_000)
    ap.add_argument("--audit-mode", default="batched", choices=_AUDIT_MODES,
                    help="equilibrium-audit kernel for endpoint checks")
    ap.add_argument("--no-verify", action="store_true",
                    help="skip the exact equilibrium audit of endpoints")


def _census_from_args(args: argparse.Namespace) -> Experiment:
    return census_experiment(
        args.n,
        families=tuple(args.families),
        replicates=args.replicates,
        objective=args.objective,
        schedule=args.schedule,
        responder=args.responder,
        root_seed=args.root_seed,
        max_steps=args.max_steps,
        verify=not args.no_verify,
        audit_mode=args.audit_mode,
    )


def _census_report(records: list, elapsed: float) -> None:
    failures = [r for r in records if isinstance(r, FleetFailure)]
    results = [r for r in records if not isinstance(r, FleetFailure)]
    converged = [r for r in results if r.converged]
    verified = [r for r in converged if r.verified_equilibrium]
    diam = max((r.diameter_final for r in converged), default=float("nan"))
    print(
        f"done in {elapsed:.1f}s: {len(converged)}/{len(results)} converged, "
        f"{len(verified)} verified equilibria, max final diameter {diam}"
    )
    _quarantine_report(failures)


def _census_total(header: Mapping) -> int:
    return (
        len(header["n_values"]) * len(header["families"])
        * header["replicates"]
    )


def _census_flags(header: Mapping) -> "list[str]":
    flags = ["--n", *[str(n) for n in header["n_values"]],
             "--families", *header["families"],
             "--replicates", str(header["replicates"]),
             "--objective", header["objective"],
             "--schedule", header["schedule"],
             "--responder", header["responder"],
             "--root-seed", str(header["root_seed"]),
             "--max-steps", str(header["max_steps"]),
             "--audit-mode", header["audit_mode"]]
    if not header["verify"]:
        flags.append("--no-verify")
    return flags


register_experiment(ExperimentDef(
    name="census",
    summary="equilibrium census: dynamics endpoints over n × family",
    config_key="census_config",
    default_out="results/census_fleet.jsonl",
    add_arguments=_census_arguments,
    from_args=_census_from_args,
    build=census_experiment,
    report=_census_report,
    total_from_header=_census_total,
    flags_from_header=_census_flags,
))


# ----------------------------------------------------------------------
# trajectory — the trajectory census (Kawald–Lenzner dynamics questions)
# ----------------------------------------------------------------------
def _trajectory_arguments(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--n", type=int, nargs="+", default=[32, 64],
                    help="graph sizes (default: 32 64)")
    ap.add_argument("--families", nargs="+", default=_FAMILIES,
                    choices=_FAMILIES)
    ap.add_argument("--objectives", type=cost_model_spec, nargs="+",
                    default=["sum"], metavar="SPEC",
                    help=f"{_SPEC_HELP}s (default: sum)")
    ap.add_argument("--schedules", nargs="+", default=["round_robin"],
                    choices=_SCHEDULES)
    ap.add_argument("--responders", nargs="+", default=["best"],
                    choices=_RESPONDERS)
    ap.add_argument("--replicates", type=int, default=4)
    ap.add_argument("--root-seed", type=int, default=0)
    ap.add_argument("--max-steps", type=int, default=20_000)
    ap.add_argument("--audit-mode", default="batched", choices=_AUDIT_MODES,
                    help="equilibrium-audit kernel for endpoint checks")
    ap.add_argument("--engine-mode", default="batched", choices=_ENGINE_MODES,
                    help="dynamics engine (the oracle replays the same "
                         "trajectories but counts activations differently)")
    ap.add_argument("--no-verify", action="store_true",
                    help="skip the exact equilibrium audit of endpoints")


def _trajectory_from_args(args: argparse.Namespace) -> Experiment:
    return trajectory_experiment(
        args.n,
        families=tuple(args.families),
        objectives=tuple(args.objectives),
        schedules=tuple(args.schedules),
        responders=tuple(args.responders),
        replicates=args.replicates,
        root_seed=args.root_seed,
        max_steps=args.max_steps,
        verify=not args.no_verify,
        audit_mode=args.audit_mode,
        engine_mode=args.engine_mode,
    )


def _trajectory_report(records: list, elapsed: float) -> None:
    failures = [r for r in records if isinstance(r, FleetFailure)]
    results = [r for r in records if not isinstance(r, FleetFailure)]
    converged = [r for r in results if r.converged]
    cycles = [r for r in results if r.cycle_detected]
    exhausted = [r for r in results if r.exhausted]
    verified = sum(1 for r in converged if r.verified_equilibrium)
    distinct = len({r.final_fingerprint for r in converged})
    print(
        f"done in {elapsed:.1f}s: {len(converged)}/{len(results)} converged "
        f"({verified} verified equilibria, {distinct} distinct terminal "
        f"graphs), {len(cycles)} cycles, {len(exhausted)} exhausted"
    )
    _quarantine_report(failures)


def _trajectory_total(header: Mapping) -> int:
    return (
        len(header["n_values"]) * len(header["families"])
        * len(header["objectives"]) * len(header["schedules"])
        * len(header["responders"]) * header["replicates"]
    )


def _trajectory_flags(header: Mapping) -> "list[str]":
    flags = ["--n", *[str(n) for n in header["n_values"]],
             "--families", *header["families"],
             "--objectives", *header["objectives"],
             "--schedules", *header["schedules"],
             "--responders", *header["responders"],
             "--replicates", str(header["replicates"]),
             "--root-seed", str(header["root_seed"]),
             "--max-steps", str(header["max_steps"]),
             "--audit-mode", header["audit_mode"]]
    if header["activation_accounting"] == "oracle":
        flags += ["--engine-mode", "oracle"]
    if not header["verify"]:
        flags.append("--no-verify")
    return flags


register_experiment(ExperimentDef(
    name="trajectory",
    summary="trajectory census: dynamics over schedule × responder × "
            "model × family × n",
    config_key="trajectory_census_config",
    default_out="results/trajectory_fleet.jsonl",
    add_arguments=_trajectory_arguments,
    from_args=_trajectory_from_args,
    build=trajectory_experiment,
    report=_trajectory_report,
    total_from_header=_trajectory_total,
    flags_from_header=_trajectory_flags,
))


# ----------------------------------------------------------------------
# bench arms — the fleet workloads of benchmarks/bench_checker_scaling.py
# as pinned experiments (grids fixed up to size, builder defaults otherwise)
# ----------------------------------------------------------------------
def _bench_census_arguments(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--n", type=int, nargs="+", default=[48],
                    help="graph sizes (default: 48; smoke uses 24)")
    ap.add_argument("--replicates", type=int, default=2)


def _bench_census_build(n=(48,), replicates=2) -> Experiment:
    exp = census_experiment(
        list(n),
        families=("tree", "sparse", "dense"),
        replicates=replicates,
        root_seed=7,
    )
    exp.name = "bench-census-scaling"
    return exp


def _bench_census_from_args(args: argparse.Namespace) -> Experiment:
    return _bench_census_build(n=args.n, replicates=args.replicates)


def _bench_census_flags(header: Mapping) -> "list[str]":
    return ["--n", *[str(n) for n in header["n_values"]],
            "--replicates", str(header["replicates"])]


register_experiment(ExperimentDef(
    name="bench-census-scaling",
    summary="census fleet arm of the checker-scaling benchmark "
            "(3 families × 2 replicates, root seed 7)",
    config_key="census_config",
    default_out="results/bench_census_fleet.jsonl",
    add_arguments=_bench_census_arguments,
    from_args=_bench_census_from_args,
    build=_bench_census_build,
    report=_census_report,
    total_from_header=_census_total,
    flags_from_header=_bench_census_flags,
))


def _bench_trajectory_arguments(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--n", type=int, nargs="+", default=[24],
                    help="graph sizes (default: 24; smoke uses 12)")
    ap.add_argument("--replicates", type=int, default=2)


def _bench_trajectory_build(n=(24,), replicates=2) -> Experiment:
    exp = trajectory_experiment(
        list(n),
        families=("tree", "sparse"),
        objectives=("sum", "interest-sum:k=3,seed=0"),
        schedules=("round_robin", "random"),
        responders=("best",),
        replicates=replicates,
        root_seed=11,
        max_steps=4000,
    )
    exp.name = "bench-trajectory-scaling"
    return exp


def _bench_trajectory_from_args(args: argparse.Namespace) -> Experiment:
    return _bench_trajectory_build(n=args.n, replicates=args.replicates)


def _bench_trajectory_flags(header: Mapping) -> "list[str]":
    return ["--n", *[str(n) for n in header["n_values"]],
            "--replicates", str(header["replicates"])]


register_experiment(ExperimentDef(
    name="bench-trajectory-scaling",
    summary="trajectory fleet arm of the checker-scaling benchmark "
            "(2 objectives × 2 schedules, root seed 11)",
    config_key="trajectory_census_config",
    default_out="results/bench_trajectory_fleet.jsonl",
    add_arguments=_bench_trajectory_arguments,
    from_args=_bench_trajectory_from_args,
    build=_bench_trajectory_build,
    report=_trajectory_report,
    total_from_header=_trajectory_total,
    flags_from_header=_bench_trajectory_flags,
))
