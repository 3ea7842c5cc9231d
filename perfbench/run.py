"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload audit --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics (setup time, throughput,
median and tail op latency, peak memory).  ``--trace 1`` runs the same
seed's ops twice — untraced, then traced from this benchmark's own
wrappers around the library's public functions — and reports per-layer
self time and counts plus the tracing overhead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a report with sample counts, percentiles, request counts and
the host fingerprint.  Spans of a traced run are written to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Set-ups per untraced run.  ``setup_s`` is the median wall time of as
#: many fresh interpreters importing the benchmark and library, plus the
#: median in-process set-up (inputs, server start, warm-up, cache fill).
SETUPS = 5

#: Seconds a child process gets to end on its own at exit before SIGKILL.
CHILD_GRACE_S = 10.0


def _args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def _prepare_imports(workdir: Path) -> None:
    """Import the library from this checkout's sources, nowhere else."""
    src = ROOT / "src"
    # Temporary files (the shared-memory pool's liveness registry) stay
    # inside the checkout.
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def percentile(values: "list[float]", pct: int) -> float:
    """Linearly interpolated ``pct``-th percentile, ``pct`` in 1..99."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_phase(workload, budget_s: float, units: "int | None" = None):
    """Run units until ``budget_s`` of op time (or exactly ``units``).

    A unit that raises counts as one failed op; the run goes on.
    """
    ops, timed, i = [], 0.0, 0
    while (units is None and timed < budget_s) or (
        units is not None and i < units
    ):
        start = time.perf_counter()
        try:
            batch = workload.unit(i)
        except Exception:  # noqa: BLE001 - a failed op must not end the run
            from workloads import Op

            batch = [Op(time.perf_counter() - start, False,
                        traceback.format_exc(limit=3))]
        ops += batch
        timed += sum(op.latency_s for op in batch)
        i += 1
    return ops, i


def summarize(ops) -> dict:
    good = [op.latency_s for op in ops if op.ok]
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "timed_s": sum(op.latency_s for op in ops),
        "latencies": good,
        "problems": sorted({op.detail for op in ops if not op.ok}),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def cold_imports() -> float:
    """Wall time of a fresh interpreter that imports the benchmark's modules
    (and through them the library, numpy, scipy) and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import workloads"], check=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])},
    )
    return time.perf_counter() - start


def end_to_end(workload, args, t_imports: float) -> "tuple[dict, dict]":
    imports = [cold_imports() for _ in range(SETUPS)]
    setups = []
    for k in range(SETUPS):
        start = time.perf_counter()
        workload.setup(k)
        setups.append(time.perf_counter() - start)
        if k < SETUPS - 1:
            workload.teardown()
    ops, units = run_phase(workload, args.seconds)
    stats = summarize(ops)
    problems = stats["problems"] + workload.finish()
    workload.teardown()
    lat = stats["latencies"] or [0.0]  # every op failed: correct is false
    tail = percentile(lat, workload.tail_pct)
    beyond = sum(1 for x in lat if x > tail)
    metrics = {
        "setup_s": _metric(
            statistics.median(imports) + statistics.median(setups), "s"
        ),
        "ops_per_s": _metric(stats["attempted"] / stats["timed_s"], "1/s"),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": _metric(tail * 1e3, "ms"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    report = {
        "units": units,
        "imports_s": t_imports,
        "cold_imports_s": imports,
        "setups_s": setups,
        "op_tail_pct": workload.tail_pct,
        "op_tail_samples": len(stats["latencies"]),
        "op_tail_beyond": beyond,
        "problems": problems,
    }
    return metrics, {**stats, "problems": problems, "report": report}


def traced(workload, args) -> "tuple[dict, dict]":
    from layers import PER_LAYER, TARGETS, span_metrics
    from tracer import Tracer

    workload.setup(0)
    plain, units = run_phase(workload, args.seconds / 2)
    plain_stats = summarize(plain)
    service = {
        name: statistics.median(values) if values else 0.0
        for name, values in (
            ("service.handler_ms", getattr(workload, "handler_ms", [])),
            ("service.transport_ms", getattr(workload, "transport_ms", [])),
        )
    }
    workload.before_replay()
    workload.layer = {name: 0.0 for name in workload.layer}
    stats_before = _service_stats(workload)
    tracer = Tracer(TARGETS)
    with tracer:
        ops, _ = run_phase(workload, 0.0, units=units)
    stats_after = _service_stats(workload)
    stats = summarize(ops)
    problems = plain_stats["problems"] + stats["problems"] + workload.finish()
    workload.teardown()
    values = {name: 0.0 for name in PER_LAYER}
    values.update(span_metrics(tracer.spans, tracer.absent, tracer.broken))
    values.update(workload.layer)
    values.update(service)
    values.update({k: stats_after[k] - stats_before[k] for k in stats_after})
    plain_rate = plain_stats["attempted"] / plain_stats["timed_s"]
    traced_rate = stats["attempted"] / stats["timed_s"]
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.overhead"] = plain_rate / traced_rate - 1.0
    metrics = {name: _metric(values[name], unit)
               for name, unit in PER_LAYER.items()}
    path = _write_spans(tracer, args)
    report = {
        "units": units,
        "absent": tracer.absent,
        "probe_failures": sorted(tracer.broken),
        "spans": len(tracer.spans),
        "spans_file": str(path.relative_to(ROOT)),
        "problems": problems,
    }
    total = {
        "attempted": plain_stats["attempted"] + stats["attempted"],
        "failed": plain_stats["failed"] + stats["failed"],
    }
    return metrics, {**total, "problems": problems, "report": report}


def _service_stats(workload) -> dict:
    service = getattr(workload, "service", None)
    return service.stats() if service is not None else {}


def _write_spans(tracer, args) -> Path:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as sink:
        for span in tracer.spans:
            sink.write(json.dumps([span.name, span.start, span.end,
                                   span.parent, span.thread, span.extra]))
            sink.write("\n")
    return path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _exit_on_sigterm(signum, frame) -> None:
    """SIGTERM ends the run through its ``finally`` clauses, not around them."""
    raise SystemExit(128 + signum)


def _adopt_orphans() -> None:
    """Make this process the subreaper of its descendants (Linux only).

    A process that a child starts and leaves behind is then re-parented
    here instead of to init, so :func:`stop_processes` waits for it too.
    """
    try:
        import ctypes

        pr_set_child_subreaper = 36
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> "list[int]":
    """Pids whose parent is this process (none where there is no /proc)."""
    me = str(os.getpid())
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = stat.read_text().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            kids.append(int(stat.parent.name))
    return kids


def _reap(keep: "set | frozenset" = frozenset()) -> None:
    """Wait for every child not in ``keep`` to end; SIGKILL the late ones."""
    kill_at = time.monotonic() + CHILD_GRACE_S
    give_up = kill_at + 5.0
    while time.monotonic() < give_up:
        kids = [pid for pid in _children() if pid not in keep]
        if not kids:
            return
        late = time.monotonic() > kill_at
        for pid in kids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.02)


def stop_processes() -> None:
    """Stop every process this run started and wait until each has ended.

    First the library's worker pools (the service's pool rung), then any
    other child, then multiprocessing's resource tracker — which ends only
    once every holder of its pipe, this process and the forked workers, has
    let go — and last whatever was re-parented here meanwhile.
    """
    parallel = sys.modules.get("repro.parallel")
    if parallel is not None:
        parallel.shutdown_shared_pools()
    tracker = getattr(
        sys.modules.get("multiprocessing.resource_tracker"),
        "_resource_tracker", None,
    )
    _reap(keep={getattr(tracker, "_pid", None)})
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    _reap()


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {ROOT / 'src'}")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    _adopt_orphans()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _prepare_imports(workdir)
        from hostinfo import host_fingerprint
        from workloads import WORKLOADS

        t_imports = time.perf_counter() - _T0
        if args.workload not in WORKLOADS:
            raise SystemExit(
                f"perfbench: unknown workload {args.workload!r}; "
                f"known: {', '.join(WORKLOADS)}"
            )
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        try:
            if args.trace:
                metrics, outcome = traced(workload, args)
            else:
                metrics, outcome = end_to_end(workload, args, t_imports)
        finally:
            workload.teardown()
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "phase_requests": getattr(workload, "phase_counts", None),
            "notes": workload.notes,
            **outcome["report"],
            "host": host_fingerprint(ROOT, workdir),
        }
    finally:
        try:
            stop_processes()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcome["failed"] == 0 and not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
