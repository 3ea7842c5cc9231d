"""Command-line entry point: regenerate any experiment table.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig4-torus
    python -m repro.cli run thm9-diameter-census --scale full --csv results/
    python -m repro.cli run dynamics-census            # trajectory census
    python -m repro.cli all --scale quick --csv results/
    python -m repro.cli experiment list                # registered fleets
    python -m repro.cli experiment run census --n 64   # resumable fleet
    python -m repro.cli serve --port 8642              # audit service
    python -m repro.cli lint src scripts               # contract checker

``run`` prints the tables as ASCII; ``--csv DIR`` additionally writes one
CSV per table under DIR.  ``all`` runs every experiment in DESIGN.md order.
``serve`` starts the crash-safe equilibrium-audit service (DESIGN.md §10).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .bench import experiment_ids, run_experiment

__all__ = ["main"]


def _slug(title: str) -> str:
    out = []
    for ch in title.lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-")[:80]


def _run_one(exp_id: str, scale: str, csv_dir: "Path | None") -> None:
    start = time.perf_counter()
    tables = run_experiment(exp_id, scale)  # type: ignore[arg-type]
    elapsed = time.perf_counter() - start
    for table in tables:
        print(table.to_ascii())
        print()
        if csv_dir is not None:
            path = csv_dir / f"{exp_id}--{_slug(table.title)}.csv"
            table.write_csv(path)
            print(f"  [csv written: {path}]")
            print()
    print(f"[{exp_id} completed in {elapsed:.2f}s at scale={scale}]")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the experiments of 'Basic Network Creation Games' "
            "(SPAA 2010)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=experiment_ids())
    run_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    run_p.add_argument("--csv", type=Path, default=None, metavar="DIR")

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    all_p.add_argument("--csv", type=Path, default=None, metavar="DIR")

    serve_p = sub.add_parser("serve", help="run the audit service")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642)
    serve_p.add_argument(
        "--cache-dir", default="results/audit_cache",
        help="result-cache root (content-addressed, crash-safe)",
    )
    serve_p.add_argument(
        "--default-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request deadline when the request sets no timeout_s",
    )
    serve_p.add_argument(
        "--capacity", type=int, default=1,
        help="concurrent compute slots (cache hits bypass admission)",
    )
    serve_p.add_argument(
        "--queue-limit", type=int, default=8,
        help="requests allowed to wait for a slot before shedding",
    )
    serve_p.add_argument("--verbose", action="store_true")

    lint_p = sub.add_parser(
        "lint", help="run the AST contract checker (repro.lint)"
    )
    from .lint.cli import add_lint_arguments, run_lint

    add_lint_arguments(lint_p)

    from .experiments.cli import add_experiment_parser, run_experiment_command

    add_experiment_parser(sub)

    args = parser.parse_args(argv)

    if args.command == "lint":
        return run_lint(args)

    if args.command == "experiment":
        return run_experiment_command(args)

    if args.command == "list":
        for exp_id in experiment_ids():
            print(exp_id)
        return 0
    if args.command == "run":
        _run_one(args.experiment, args.scale, args.csv)
        return 0
    if args.command == "all":
        for exp_id in experiment_ids():
            _run_one(exp_id, args.scale, args.csv)
            print()
        return 0
    if args.command == "serve":
        from .service import serve

        serve(
            args.host,
            args.port,
            cache_dir=args.cache_dir,
            default_timeout=args.default_timeout,
            capacity=args.capacity,
            queue_limit=args.queue_limit,
            quiet=not args.verbose,
        )
        return 0
    return 2  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
