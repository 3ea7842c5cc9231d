"""``repro experiment`` — the one CLI over every registered experiment.

Subcommands::

    repro experiment list                      # registered experiments
    repro experiment run census --n 64 ...     # fresh (or --resume) fleet
    repro experiment resume census ... --retry-failed
    repro experiment status census --out results/census_fleet.jsonl

``run``/``resume`` compile the named experiment and execute it through
:func:`~repro.experiments.experiment.run_fleet` with the full DESIGN.md
§9 fault-tolerance contract; their flags are each experiment's grid flags
(from the registry) plus the shared execution flags the fleet scripts
used to take.  ``status`` reads the stream's run-config header and
quarantine records via :func:`~repro.io.jsonl_store.summarize_stream` —
progress, quarantined grid coordinates, and a ready-to-paste
``--retry-failed`` resume command, with no recomputation; ``--json``
emits the same report machine-readably, including live per-slot
checkpoint progress (DESIGN.md §13).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from ..errors import DeadlineExceeded
from ..parallel import default_workers
from .experiment import run_fleet
from .registry import ExperimentDef, experiment_defs, get_experiment

__all__ = ["add_experiment_parser", "run_experiment_command"]


def _execution_arguments(
    ap: argparse.ArgumentParser, defn: ExperimentDef, *, with_resume: bool
) -> None:
    """The shared fleet-execution flags (mirroring the retired scripts)."""
    if with_resume:
        ap.add_argument("--resume", action="store_true",
                        help="continue an interrupted fleet from --out's "
                             "prefix (same arguments required; validated "
                             "against the file's config header)")
    ap.add_argument("--retry-failed", action="store_true",
                    help="when resuming: re-run the quarantined slots of "
                         "the streamed prefix before continuing")
    ap.add_argument("--workers", type=int, default=None,
                    help="task shards (default: cores - 1)")
    ap.add_argument("--task-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="per-chunk wall-clock budget; a chunk exceeding it "
                         "is presumed hung, its workers are killed, and it "
                         "is retried (default: no timeout)")
    ap.add_argument("--retries", type=int, default=2,
                    help="per-task failure budget beyond the first attempt "
                         "(default: 2)")
    ap.add_argument("--fail-fast", action="store_true",
                    help="abort the fleet on the first permanently failed "
                         "task instead of quarantining it in the stream")
    ap.add_argument("--checkpoint-dir", type=Path, default=None,
                    metavar="DIR",
                    help="give every slot a crash-safe in-task checkpoint "
                         "under DIR (DESIGN.md §13): killed or preempted "
                         "tasks resume mid-run on retry instead of "
                         "restarting")
    ap.add_argument("--checkpoint-every", type=int, default=None,
                    metavar="MOVES",
                    help="snapshot cadence in applied moves (requires "
                         "--checkpoint-dir; default: snapshot only on "
                         "deadline preemption)")
    ap.add_argument("--deadline", type=float, default=None,
                    metavar="SECONDS",
                    help="whole-fleet wall-clock budget: tasks running when "
                         "it is spent checkpoint-and-yield (with "
                         "--checkpoint-dir) and are quarantined for a later "
                         "resume --retry-failed, never retried past the "
                         "budget (default: no deadline)")
    ap.add_argument("--out", type=Path, default=Path(defn.default_out))


def add_experiment_parser(sub) -> None:
    """Attach the ``experiment`` subcommand tree to a subparsers object."""
    p = sub.add_parser(
        "experiment",
        help="declarative experiment fleets (DESIGN.md §12)",
    )
    esub = p.add_subparsers(dest="experiment_command", required=True)

    esub.add_parser("list", help="list registered experiments")

    run_p = esub.add_parser(
        "run", help="run an experiment as a sharded resumable fleet"
    )
    run_sub = run_p.add_subparsers(dest="experiment_name", required=True)
    for defn in experiment_defs():
        ep = run_sub.add_parser(defn.name, help=defn.summary)
        defn.add_arguments(ep)
        _execution_arguments(ep, defn, with_resume=True)

    res_p = esub.add_parser(
        "resume", help="resume an interrupted fleet (same flags required)"
    )
    res_sub = res_p.add_subparsers(dest="experiment_name", required=True)
    for defn in experiment_defs():
        ep = res_sub.add_parser(defn.name, help=defn.summary)
        defn.add_arguments(ep)
        _execution_arguments(ep, defn, with_resume=False)

    st_p = esub.add_parser(
        "status",
        help="report a stream's progress + quarantine without recomputing",
    )
    st_sub = st_p.add_subparsers(dest="experiment_name", required=True)
    for defn in experiment_defs():
        ep = st_sub.add_parser(defn.name, help=defn.summary)
        ep.add_argument("--out", type=Path, default=Path(defn.default_out))
        ep.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable status on stdout: progress, "
                             "quarantined slots with coordinates, and live "
                             "per-slot checkpoint progress")


def _slot_checkpoint(failure) -> "dict | None":
    """A quarantined slot's checkpoint progress, freshest view available.

    The quarantine record carries the progress block peeked when the slot
    failed; if the checkpoint file still exists (no healing retry yet),
    re-peek it so status reports *live* progress — a crashed-and-retried
    slot may have advanced past what the stream recorded.
    """
    # Deferred: keep the status path free of any fleet machinery import.
    from ..io.checkpoint import peek_checkpoint

    recorded = getattr(failure, "checkpoint", None)
    if not recorded or not recorded.get("path"):
        return None
    live = peek_checkpoint(recorded["path"])
    if live is not None:
        return {"path": recorded["path"], **live}
    return dict(recorded)


def _status(defn: ExperimentDef, out: Path, as_json: bool = False) -> int:
    # Deferred: keep the status path free of any fleet machinery import.
    from ..io.jsonl_store import summarize_stream

    def fail(error: str) -> int:
        if as_json:
            print(json.dumps(
                {"experiment": defn.name, "stream": str(out), "error": error}
            ))
        else:
            print(f"{defn.name}: {error}")
        return 1

    if not out.exists():
        return fail(f"no stream at {out} (not started)")
    summary = summarize_stream(out, record_name=f"{defn.name} record")
    header = summary.header
    if header is None:
        return fail(f"{out} has no run-config header "
                    "(pre-header legacy file; resume would refuse it)")
    if defn.config_key not in header:
        return fail(f"{out} is not a {defn.name} stream "
                    f"(header lacks {defn.config_key!r})")
    total = defn.total_from_header(header)
    complete = (
        not summary.failures
        and summary.completed >= total
        and not summary.torn_tail
    )
    slots = [
        {
            "coords": dict(failure.coords),
            "attempts": failure.attempts,
            "error": failure.error,
            "checkpoint": _slot_checkpoint(failure),
        }
        for failure in summary.failures
    ]
    if as_json:
        print(json.dumps({
            "experiment": defn.name,
            "stream": str(out),
            "total": total,
            "completed": summary.completed,
            "results": summary.results,
            "quarantined": len(slots),
            "torn_tail": summary.torn_tail,
            "complete": complete,
            "failures": slots,
        }, sort_keys=True))
        return 0
    tail = " + torn tail (dropped on resume)" if summary.torn_tail else ""
    print(f"{defn.name}: {out}")
    print(f"  progress: {summary.completed}/{total} slots "
          f"({summary.results} results, "
          f"{len(summary.failures)} quarantined){tail}")
    if summary.failures:
        print("  quarantined slots:")
        for failure, slot in zip(summary.failures, slots):
            coords = ", ".join(
                f"{k}={v!r}" for k, v in failure.coords.items()
            )
            print(f"    {coords} — {failure.attempts} attempt(s): "
                  f"{failure.error}")
            ckpt = slot["checkpoint"]
            if ckpt:
                progress = ", ".join(
                    f"{k}={v}" for k, v in sorted(ckpt.items())
                    if k != "path"
                )
                print(f"      checkpointed: {progress or 'yes'} "
                      f"({ckpt['path']})")
    if not complete:
        flags = " ".join(defn.flags_from_header(header))
        retry = " --retry-failed" if summary.failures else ""
        print("  resume with:")
        print(f"    PYTHONPATH=src python -m repro.cli experiment resume "
              f"{defn.name} {flags}{retry} --out {out}")
    else:
        print("  complete")
    return 0


def run_experiment_command(args: argparse.Namespace) -> int:
    command = args.experiment_command
    if command == "list":
        for defn in experiment_defs():
            print(f"{defn.name:26s} {defn.summary}")
        return 0
    defn = get_experiment(args.experiment_name)
    if command == "status":
        return _status(defn, args.out, getattr(args, "as_json", False))

    experiment = defn.from_args(args)
    workers = default_workers() if args.workers is None else args.workers
    resume = command == "resume" or getattr(args, "resume", False)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    verb = "resuming" if resume else "running"
    print(f"{defn.name}: {verb} {experiment.total_tasks()} task(s) "
          f"on {workers} workers -> {args.out}", flush=True)
    start = time.perf_counter()
    deadline = (
        None if args.deadline is None
        else time.monotonic() + args.deadline
    )
    try:
        records = run_fleet(
            experiment,
            workers=workers,
            jsonl_path=args.out,
            resume=resume,
            timeout=args.task_timeout,
            retries=args.retries,
            on_error="raise" if args.fail_fast else "record",
            retry_failed=args.retry_failed,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            deadline=deadline,
        )
    except DeadlineExceeded as exc:
        # The streamed prefix (checkpointed yields included) is already
        # durable; the run simply stops here instead of dying mid-write.
        print(f"{defn.name}: deadline spent — {exc}", flush=True)
        print("  continue with:")
        print(f"    PYTHONPATH=src python -m repro.cli experiment resume "
              f"{defn.name} ... --retry-failed --out {args.out}")
        return 3
    defn.report(records, time.perf_counter() - start)
    return 0
