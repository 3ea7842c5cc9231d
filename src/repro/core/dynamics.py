"""Asynchronous swap dynamics — how equilibria are *reached*.

The paper defines equilibria statically; to populate an empirical census
(Theorem 9's experiment) we need a process that finds them.  This engine
runs better/best-response dynamics: repeatedly activate a vertex, let it
perform its chosen improving swap, until no vertex can improve.

Design notes
------------
* **One loop, two engines** — :meth:`SwapDynamics.run` drives one loop
  that owns the schedules, the dirty set, the cycle detector, the traces,
  the checkpoints and the deadline guard.  ``engine_mode`` only picks the
  engine the loop asks for a vertex's move (``respond``), applies moves
  through (``apply``), certifies a graph at rest with (``certify``) and
  reads the ``graph`` / ``dm`` views of.  Both engines hold an immutable
  :class:`~repro.graphs.CSRGraph` and replace it per applied move with
  :func:`~repro.core.moves.swapped_graph`:

  - ``"batched"`` (default) — a :class:`~repro.core.engine.DistanceEngine`
    maintains the distance matrix across applied swaps by BFS row repair
    plus the insertion closure (never recomputed from scratch); best
    responses run the bound-then-verify per-vertex kernel on it (DESIGN.md
    §8), so most activations are certified move-free with zero BFS work;
    ``apply`` reports the rows a move changed; ``certify`` is one
    equilibrium audit on the maintained matrix
    (:func:`~repro.core.equilibrium.is_equilibrium` — at rest exactly when
    no vertex has a best-response move) for best responders;
  - ``"oracle"`` — the seed path, kept for cross-validation: fresh
    ``best_swap(mode="oracle")`` responses on the current graph, a fresh
    APSP per trace point, no changed rows and no certificate.
* **Schedules** — ``round_robin`` (deterministic sweeps), ``random``
  (uniform activations), and ``greedy`` (activate the vertex with the
  globally best improvement — expensive but canonical; every step scans
  every vertex, and the full scan doubles as the convergence certificate).
* **Dirty set** — when the engine reports changed rows, ``round_robin``
  and ``random`` skip vertices that were observed move-free and whose row
  has not changed since (a move re-dirties its endpoints and every changed
  row).  The rule is a heuristic, so convergence is *never* declared from
  it alone: once the set drains, or after a quiet streak of 2n random
  visits, a verification sweep runs ``certify`` and, when that cannot
  certify, activates every vertex in order — a stale certificate can delay
  a move's discovery but never suppress it.  The oracle caches no "no
  move" certificates, so it activates every vertex it visits: on
  ``round_robin`` n quiet activations in a row are themselves a clean
  ordered sweep, and on ``random`` a 2n quiet streak triggers one.  On
  ``greedy`` the two engines agree move for move and activation for
  activation; on the other schedules a skipped vertex can make their
  trajectories part, though each move the batched engine applies is still
  the oracle's best response.
* **Termination** — sum dynamics have no known potential (a swap lowers the
  mover's cost but can raise others'), so cycles are possible in principle;
  the loop keys every visited state by the bytes of its canonical edge
  array — exact, since two canonical arrays are equal exactly when the
  edge sets are — and reports ``cycle_detected`` instead of looping.
  Deletions strictly reduce the edge count, so only pure-swap cycles can
  occur.
* **Instrumentation** — optional trajectory recording (applied swaps,
  per-step diameter and social cost) feeds the convergence examples and the
  census diagnostics.
* **Preemptibility** — ``run(checkpoint=, checkpoint_every=)`` keeps a
  crash-safe :class:`~repro.io.checkpoint.CheckpointStore` current with the
  run's *full* resumable state — edge set, the cycle detector's ``seen``
  states, the serialized RNG stream, the dirty set (batched engine only),
  counters, traces, and the schedule's loop position — snapshotted only at
  applied-move boundaries (the states a resumed loop can actually
  re-enter).  A run killed at any instant and re-``run`` with the same
  configuration resumes from its last snapshot and produces a
  :class:`DynamicsResult` bit-identical to the uninterrupted run, for both
  ``engine_mode`` values and every cost model; a ``deadline=`` expiry
  checkpoints-and-yields (typed :class:`~repro.errors.DeadlineExceeded`) so
  fleet/service budgets convert to persisted progress instead of lost
  work.  DESIGN.md §13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from ..errors import (
    ConfigurationError,
    DeadlineExceeded,
    DisconnectedGraphError,
)
from ..graphs import CSRGraph, distance_matrix, is_connected
from ..io.checkpoint import CheckpointStore
from ..io.hashing import graph_fingerprint
from ..parallel import check_deadline, current_task_deadline
from ..rng import make_rng
from .best_response import BestResponse, best_swap, first_improving_swap
from .costmodel import CostModel, parse_cost_spec, resolve_cost_model
from .costs import INT_INF, lift_distances
from .engine import DistanceEngine
from .equilibrium import is_equilibrium
from .moves import Swap, swapped_graph

__all__ = ["DynamicsResult", "SwapDynamics"]

Objective = Literal["sum", "max"]
Schedule = Literal["round_robin", "random", "greedy"]
Responder = Literal["best", "first"]
EngineMode = Literal["batched", "oracle"]


# ----------------------------------------------------------------------
# Checkpoint payload codecs.  The checkpoint contract (DESIGN.md §13) is
# canonical JSON — strict, no NaN/Infinity literals — so non-finite trace
# floats round-trip as strings and every edge/move coordinate is coerced
# to a plain int (numpy scalars are not JSON).  Edge sets travel as sorted
# ``[u, v]`` lists, the canonical edge array's own order.
# ----------------------------------------------------------------------
def _encode_trace(values: "list[float]") -> list:
    out: list = []
    for x in values:
        if x == math.inf:
            out.append("inf")
        elif x == -math.inf:
            out.append("-inf")
        elif x != x:
            out.append("nan")
        else:
            out.append(float(x))
    return out


def _decode_trace(values: list) -> "list[float]":
    # float("inf") / float("-inf") / float("nan") parse the string forms.
    return [float(x) for x in values]


def _state_key(edges) -> bytes:
    """The cycle detector's key: the canonical ``(m, 2)`` edge array's bytes
    (``graph.edges()`` of a live state, a snapshot's list of a resumed one).
    """
    return np.asarray(edges, dtype=np.int32).reshape(-1, 2).tobytes()


def _key_edges(key: bytes) -> list:
    """A :func:`_state_key` back as its sorted ``[u, v]`` list."""
    return np.frombuffer(key, dtype=np.int32).reshape(-1, 2).tolist()


@dataclass
class DynamicsResult:
    """Outcome of a dynamics run.

    Attributes
    ----------
    graph:
        Final graph (an equilibrium iff ``converged``).
    converged:
        No vertex had an improving move at the end (for the batched engine
        this is certified by a full verification sweep, independent of the
        dirty-set bookkeeping).
    cycle_detected:
        The run revisited a previously seen graph (terminated to avoid
        looping); ``converged`` is ``False`` in that case.
    steps:
        Number of improving moves applied.
    activations:
        Number of best-response computations performed (dirty-set skips are
        not activations).
    moves:
        The applied swaps, in order (empty unless recording was enabled).
    diameter_trace / social_cost_trace:
        Per-applied-move snapshots (recording only).  The social cost is
        the resolved cost model's own Σ-of-agent-costs — for the paper's
        sum game that is the total pairwise distance, for ``max`` the sum
        of eccentricities, for interest/budget variants the variant's
        social cost.
    final_dm:
        The engine's lifted distance matrix of :attr:`graph` (batched
        engine only; ``None`` for the oracle path).  Endpoint audits pass it
        as ``base_dm`` so verifying a converged trajectory never recomputes
        the APSP the dynamics already hold; excluded from equality.
    certified:
        The batched engine's certificate (its ``is_equilibrium`` audit on
        :attr:`final_dm`) ended the run; never for the oracle engine,
        greedy or the ``"first"`` responder.  Excluded from equality.
    """

    graph: CSRGraph
    converged: bool
    cycle_detected: bool
    steps: int
    activations: int
    moves: list[Swap] = field(default_factory=list)
    diameter_trace: list[float] = field(default_factory=list)
    social_cost_trace: list[float] = field(default_factory=list)
    final_dm: "np.ndarray | None" = field(
        default=None, compare=False, repr=False
    )
    certified: bool = field(default=False, compare=False)

    @property
    def exhausted(self) -> bool:
        """The ``max_steps`` budget ran out mid-flight.

        Distinct from :attr:`cycle_detected`: an exhausted run saw no
        repeated state — it simply was not given enough moves.  Exactly one
        of ``converged`` / ``cycle_detected`` / ``exhausted`` is true for
        every finished run.
        """
        return not self.converged and not self.cycle_detected


# ----------------------------------------------------------------------
# Engines: what the loop asks of the current graph state
# ----------------------------------------------------------------------
class _Engine:
    """The state one dynamics run moves, as the loop sees it.

    ``respond(v)`` is ``v``'s chosen move, ``apply(swap)`` makes a move and
    returns the mask of rows it may have changed (``None`` when the engine
    does not track them), ``certify()`` proves that no vertex can move
    (``False`` when it cannot tell), and ``graph`` / ``dm`` view the current
    state.
    """

    #: ``dm`` is maintained across moves and ``apply`` reports changed rows.
    maintains_dm = False

    def __init__(self, model: CostModel, responder: Responder, rng):
        self.model = model
        self.responder = responder
        self.rng = rng

    def respond(self, v: int) -> BestResponse:
        if self.responder == "first":
            return first_improving_swap(self.graph, v, self.model, self.rng)
        return self.best_response(v)

    def certify(self) -> bool:
        return False


class _BatchedEngine(_Engine):
    """A :class:`DistanceEngine` and the bound-then-verify kernels."""

    maintains_dm = True

    def __init__(self, graph: CSRGraph, model, responder, rng):
        super().__init__(model, responder, rng)
        self._engine = DistanceEngine(graph)

    @property
    def graph(self) -> CSRGraph:
        return self._engine.graph

    @property
    def dm(self) -> np.ndarray:
        return self._engine.dm

    def best_response(self, v: int) -> BestResponse:
        return self._engine.best_swap(v, self.model)

    def apply(self, swap: Swap) -> np.ndarray:
        return self._engine.apply_swap(swap)

    def certify(self) -> bool:
        return self.responder == "best" and is_equilibrium(
            self.graph, self.model, base_dm=self.dm
        )


class _OracleEngine(_Engine):
    """The seed path: the current graph, fresh best responses and APSPs."""

    def __init__(self, graph: CSRGraph, model, responder, rng):
        super().__init__(model, responder, rng)
        self.graph = graph

    @property
    def dm(self) -> np.ndarray:
        return lift_distances(distance_matrix(self.graph))

    def best_response(self, v: int) -> BestResponse:
        return best_swap(self.graph, v, self.model, mode="oracle")

    def apply(self, swap: Swap) -> None:
        self.graph = swapped_graph(self.graph, swap)


def _check_settings(schedule, responder, max_steps, engine_mode) -> None:
    if schedule not in get_args(Schedule):
        raise ConfigurationError(f"unknown schedule {schedule!r}")
    if responder not in get_args(Responder):
        raise ConfigurationError(f"unknown responder {responder!r}")
    if max_steps < 1:
        raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
    if engine_mode not in get_args(EngineMode):
        raise ConfigurationError(f"unknown engine_mode {engine_mode!r}")


class SwapDynamics:
    """Configurable asynchronous swap dynamics.

    Parameters
    ----------
    objective:
        ``"sum"`` or ``"max"`` (the paper's two versions), any variant spec
        string (``"interest-sum:k=4,seed=9"``, ``"budget-max:cap=3"``), or a
        :class:`~repro.core.costmodel.CostModel` instance.
    schedule:
        Activation order (see module docstring).
    responder:
        ``"best"`` — exact best swap per activation; ``"first"`` — first
        improving swap in random order (better-response).
    max_steps:
        Budget of applied moves before giving up (the result then has
        ``converged=False``).
    record:
        Record moves and per-move diameter / social-cost traces.
    seed:
        Seeds activation order and the better-response candidate order.
        Every :meth:`run` derives a **fresh** generator from this seed, so
        repeated runs on one instance are identical (pass an existing
        ``numpy.random.Generator`` to opt back into a shared advancing
        stream across runs).
    engine_mode:
        ``"batched"`` (default) — cached-APSP engine with dirty-set
        skipping, bound-then-verify best responses and scan-based
        verification sweeps; ``"oracle"`` — the seed path, kept for
        cross-validation.
    """

    def __init__(
        self,
        objective: "Objective | str | CostModel" = "sum",
        schedule: Schedule = "round_robin",
        responder: Responder = "best",
        max_steps: int = 10_000,
        record: bool = False,
        seed=None,
        engine_mode: EngineMode = "batched",
    ):
        if not isinstance(objective, CostModel):
            # Validate the spec eagerly; n-dependent models (interest sets)
            # materialize lazily in run() where the graph size is known.
            parse_cost_spec(objective)
        _check_settings(schedule, responder, max_steps, engine_mode)
        self.objective: "Objective | str | CostModel" = objective
        self.schedule: Schedule = schedule
        self.responder: Responder = responder
        self.max_steps = max_steps
        self.record = record
        self.engine_mode: EngineMode = engine_mode
        self.seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        initial: CSRGraph,
        *,
        checkpoint: "CheckpointStore | str | None" = None,
        checkpoint_every: "int | None" = None,
        deadline: "float | None" = None,
    ) -> DynamicsResult:
        """Run the dynamics from ``initial`` (must be connected).

        Preemption contract (DESIGN.md §13): ``checkpoint`` names a
        :class:`~repro.io.checkpoint.CheckpointStore` (or a path for one)
        that the run keeps current — a full resumable snapshot every
        ``checkpoint_every`` applied moves.  A later ``run`` with the same
        configuration (objective spec, schedule, responder, ``max_steps``,
        ``record``, activation accounting, initial graph) finds the
        snapshot and continues it, producing a :class:`DynamicsResult`
        bit-identical to the uninterrupted run — same moves, traces,
        counters and terminal graph — for both ``engine_mode`` values and
        every cost model; the RNG stream is serialized with the state, so the
        configured ``seed`` only matters for fresh starts.  A corrupt
        checkpoint is quarantined and the run restarts; a checkpoint from
        a *different* configuration raises
        :class:`~repro.errors.StoreIntegrityError`.  A finished run clears
        the slot.

        ``deadline`` (a ``time.monotonic()`` instant, as everywhere in the
        runtime) is checked at applied-move boundaries — the only states a
        resumed loop can re-enter — and on expiry the run snapshots its
        state (when a checkpoint store is armed) and raises
        :class:`~repro.errors.DeadlineExceeded`: the budget converts to
        persisted progress, not lost work.  When no explicit deadline is
        given, the run adopts the surrounding mapped task's
        (:func:`~repro.parallel.current_task_deadline`), which is how a
        fleet-level deadline preempts its in-flight trajectories.
        """
        if not is_connected(initial):
            raise DisconnectedGraphError("dynamics require a connected start")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint is None:
            raise ConfigurationError(
                "checkpoint_every needs a checkpoint store/path to write to"
            )
        if checkpoint is not None and not isinstance(
            checkpoint, CheckpointStore
        ):
            checkpoint = CheckpointStore(checkpoint)
        # A fresh per-run generator: a second run() on this instance replays
        # the same schedule / candidate order instead of continuing the
        # first run's stream (re-running from `seed` must be reproducible).
        # A Generator passed as the seed is the documented opt-out: the
        # caller owns the stream, and it keeps advancing across runs.
        # (A resumed checkpoint then *overwrites* the generator's state —
        # the serialized stream is part of the bit-identity guarantee.)
        result = self._run(
            initial,
            make_rng(self.seed),
            resolve_cost_model(self.objective, initial.n),
            checkpoint,
            checkpoint_every,
            current_task_deadline() if deadline is None else deadline,
        )
        if checkpoint is not None:
            # A finished run leaves no checkpoint behind (a deadline expiry
            # raises above, so its freshly saved snapshot survives).
            checkpoint.clear()
        return result

    def _checkpoint_config(self, initial: CSRGraph, model: CostModel) -> dict:
        """What a snapshot must agree on before it may be resumed.

        ``engine_mode`` is recorded as its activation *accounting*
        ("engine" vs "oracle"), matching the trajectory census header: the
        oracle path counts activations differently and must not splice.
        """
        return {
            "v": 1,
            "objective": model.spec,
            "schedule": self.schedule,
            "responder": self.responder,
            "max_steps": int(self.max_steps),
            "record": bool(self.record),
            "accounting": (
                "oracle" if self.engine_mode == "oracle" else "engine"
            ),
            "n": int(initial.n),
            "initial": graph_fingerprint(initial),
        }

    # ------------------------------------------------------------------
    def _run(
        self,
        initial: CSRGraph,
        rng,
        model: CostModel,
        store: "CheckpointStore | None",
        every: "int | None",
        deadline: "float | None",
    ) -> DynamicsResult:
        n = initial.n
        config = self._checkpoint_config(initial, model)
        loaded = None if store is None else store.load(config)
        start = initial
        if loaded is not None:
            # Resume: rebuild the engine from the snapshotted edge set (a
            # recomputed distance matrix is exact, like a maintained one)
            # and restore every piece of loop state — including the RNG
            # stream — so the continuation is bit-identical to the run the
            # snapshot interrupted.
            start = CSRGraph(n, loaded["edges"])
            rng.bit_generator.state = loaded["rng"]
        make = _OracleEngine if self.engine_mode == "oracle" else _BatchedEngine
        engine = make(start, model, self.responder, rng)
        # Only an engine that reports changed rows gets a dirty set; the
        # oracle caches no "no move" certificates, so its snapshots carry
        # no dirty key.
        dirty = np.ones(n, dtype=bool) if engine.maintains_dm else None
        if loaded is None:
            seen: set[bytes] = {_state_key(engine.graph.edges())}
            steps = activations = idx = quiet = 0
            moves: list[Swap] = []
            diam_trace: list[float] = []
            cost_trace: list[float] = []
        else:
            seen = {_state_key(edges) for edges in loaded["seen"]}
            steps = int(loaded["steps"])
            activations = int(loaded["activations"])
            idx = int(loaded["idx"])
            quiet = int(loaded["quiet"])
            moves = [
                Swap(int(a), int(b), int(c)) for a, b, c in loaded["moves"]
            ]
            diam_trace = _decode_trace(loaded["diam"])
            cost_trace = _decode_trace(loaded["cost"])
            if dirty is not None:
                dirty[:] = loaded["dirty"]

        def save_checkpoint() -> None:
            payload = {
                "edges": engine.graph.edges().tolist(),
                "seen": sorted(_key_edges(key) for key in seen),
                "rng": rng.bit_generator.state,
                "steps": steps,
                "activations": activations,
                "moves": [
                    [int(s.vertex), int(s.drop), int(s.add)] for s in moves
                ],
                "diam": _encode_trace(diam_trace),
                "cost": _encode_trace(cost_trace),
                "idx": idx,
                "quiet": quiet,
            }
            if dirty is not None:
                payload["dirty"] = [int(b) for b in dirty]
            store.save(
                payload, config,
                meta={"steps": steps, "activations": activations},
            )

        def guard_deadline() -> None:
            """Checkpoint-and-yield when the caller's budget has expired.

            Checked only at applied-move boundaries (loop tops): those are
            exactly the states a resumed loop re-enters, so the snapshot
            taken here loses nothing and splices nothing.
            """
            if deadline is None:
                return
            try:
                check_deadline(deadline)
            except DeadlineExceeded:
                if store is not None:
                    save_checkpoint()
                raise

        def record_state() -> None:
            dm = engine.dm
            if dm.size == 0:
                diam_trace.append(0.0)
                cost_trace.append(0.0)
                return
            diam = int(dm.max())
            diam_trace.append(math.inf if diam >= INT_INF else float(diam))
            # The model's social cost, not a hardcoded dm.sum: under
            # max/interest/budget games the trace must report the game
            # actually being played.
            cost_trace.append(model.social_cost(dm))

        def respond(v: int) -> BestResponse:
            nonlocal activations
            activations += 1
            return engine.respond(v)

        def apply(swap: Swap) -> bool:
            """Apply a move; returns False when it closes a cycle."""
            nonlocal steps
            changed = engine.apply(swap)
            steps += 1
            if dirty is not None:
                dirty[changed] = True
                dirty[[swap.vertex, swap.drop, swap.add]] = True
            if self.record:
                moves.append(swap)
                record_state()
            key = _state_key(engine.graph.edges())
            if key in seen:
                return False
            seen.add(key)
            if every is not None and steps % every == 0:
                save_checkpoint()
            return True

        def verification_sweep() -> "BestResponse | None":
            """The first vertex in order that can move, or None at rest.

            ``certify`` settles the common convergent case in one scan;
            otherwise every vertex is activated in order until one moves.
            """
            nonlocal activations, certified
            if engine.certify():
                activations += n
                dirty[:] = False
                certified = True
                return None
            for v in range(n):
                br = respond(v)
                if br.swap is not None:
                    return br
                if dirty is not None:
                    dirty[v] = False
            return None

        if loaded is None and self.record:
            record_state()  # a resumed trace already holds this snapshot
        # Quiet visits in a row after which the schedule looks for rest.
        patience = n if self.schedule == "round_robin" else 2 * n
        cycle = converged = certified = False
        while steps < self.max_steps:
            guard_deadline()
            if self.schedule == "greedy":
                # Every step compares ALL vertices: a clean vertex may
                # still hold the globally best improvement, so no dirty set
                # narrows the argmax, and a scan with no mover certifies.
                br = None
                for v in range(n):
                    cand = respond(v)
                    if cand.swap is not None and (
                        br is None or cand.improvement > br.improvement
                    ):
                        br = cand
            elif (dirty is not None and not dirty.any()) or quiet >= patience:
                # The oracle's n quiet round-robin activations already are
                # a clean ordered sweep; everything else verifies.
                swept = dirty is None and self.schedule == "round_robin"
                br = None if swept else verification_sweep()
                quiet = 0
            else:
                if self.schedule == "round_robin":
                    v = idx % n
                    idx += 1
                else:
                    v = int(rng.integers(0, n))
                if dirty is not None and not dirty[v]:
                    quiet += 1  # quiet since its last no-op
                    continue
                br = respond(v)
                if br.swap is None:
                    if dirty is not None:
                        dirty[v] = False
                    quiet += 1
                    continue
                quiet = 0
            if br is None:
                converged = True
                break
            if not apply(br.swap):
                cycle = True
                break

        return DynamicsResult(
            engine.graph, converged, cycle, steps, activations,
            moves, diam_trace, cost_trace,
            final_dm=engine.dm if engine.maintains_dm else None,
            certified=certified,
        )
