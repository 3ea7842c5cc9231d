"""Asynchronous swap dynamics — how equilibria are *reached*.

The paper defines equilibria statically; to populate an empirical census
(Theorem 9's experiment) we need a process that finds them.  This engine
runs better/best-response dynamics: repeatedly activate a vertex, let it
perform its chosen improving swap, until no vertex can improve.

Design notes
------------
* **Schedules** — ``round_robin`` (deterministic sweeps), ``random``
  (uniform activations), and ``greedy`` (activate the vertex with the
  globally best improvement — expensive but canonical).
* **Batched engine** — the default ``engine_mode="batched"`` routes every
  activation through a :class:`~repro.core.engine.DistanceEngine`: the
  distance matrix is maintained across applied swaps by BFS row repair
  plus the insertion closure (never recomputed from scratch), and every
  best response runs the bound-then-verify per-vertex kernel (DESIGN.md
  §8), so a freshly activated vertex is usually re-certified move-free
  from one aggregation pass over the cached base matrix, with zero BFS
  work.  A **dirty-vertex set** lets the ``round_robin`` and ``random``
  schedules skip vertices that were observed move-free and whose distance
  row has not been touched since (``greedy`` always scans every vertex —
  its argmax is global by definition, and the full scan doubles as the
  convergence certificate).  The dirty rule (re-dirty the move's endpoints
  and every vertex whose distance row changed) is a heuristic, so
  convergence is *never* declared from it alone: once the dirty set
  drains, a verification sweep certifies the equilibrium — one cross-edge
  batched audit scan (:func:`~repro.core.batched.certify_at_rest`) for
  best responders; when the scan does find a mover, the sweep falls back
  to the ordered per-vertex kernel, so a stale certificate can delay a
  move's discovery but can never suppress it.  ``engine_mode="oracle"``
  keeps the seed implementation (fresh best responses against copied
  graphs, no dirty set) for cross-validation: for best responders it
  applies the same moves, trace for trace; only its ``activations`` count
  differs, because it activates every vertex instead of skipping clean
  ones.
* **Termination** — sum dynamics have no known potential (a swap lowers the
  mover's cost but can raise others'), so cycles are possible in principle;
  the engine hashes every visited edge set and reports ``cycle_detected``
  instead of looping.  Deletions strictly reduce the edge count, so only
  pure-swap cycles can occur.
* **Instrumentation** — optional trajectory recording (applied swaps,
  per-step diameter and social cost) feeds the convergence examples and the
  census diagnostics.
* **Preemptibility** — ``run(checkpoint=, checkpoint_every=)`` keeps a
  crash-safe :class:`~repro.io.checkpoint.CheckpointStore` current with the
  run's *full* resumable state — edge set, the cycle detector's ``seen``
  hashes, the serialized RNG stream, dirty set, counters, traces, and the
  schedule's loop position — snapshotted only at applied-move boundaries
  (the states a resumed loop can actually re-enter).  A run killed at any
  instant and re-``run`` with the same configuration resumes from its last
  snapshot and produces a :class:`DynamicsResult` bit-identical to the
  uninterrupted run, for both ``engine_mode`` values and every cost model; a
  ``deadline=`` expiry checkpoints-and-yields (typed
  :class:`~repro.errors.DeadlineExceeded`) so fleet/service budgets convert
  to persisted progress instead of lost work.  DESIGN.md §13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..errors import (
    ConfigurationError,
    DeadlineExceeded,
    DisconnectedGraphError,
)
from ..graphs import (
    AdjacencyGraph,
    CSRGraph,
    diameter_or_inf,
    distance_matrix,
    is_connected,
)
from ..io.checkpoint import CheckpointStore
from ..io.hashing import graph_fingerprint
from ..parallel import check_deadline, current_task_deadline
from ..rng import make_rng
from .best_response import BestResponse, best_swap, first_improving_swap
from .costmodel import CostModel, parse_cost_spec, resolve_cost_model
from .costs import INT_INF, lift_distances
from .engine import DistanceEngine
from .moves import Swap

__all__ = ["DynamicsResult", "SwapDynamics"]

Objective = Literal["sum", "max"]
Schedule = Literal["round_robin", "random", "greedy"]
Responder = Literal["best", "first"]
EngineMode = Literal["batched", "oracle"]


# ----------------------------------------------------------------------
# Checkpoint payload codecs.  The checkpoint contract (DESIGN.md §13) is
# canonical JSON — strict, no NaN/Infinity literals — so non-finite trace
# floats round-trip as strings and every edge/move coordinate is coerced
# to a plain int (numpy scalars are not JSON).
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


def _encode_edges(edge_set) -> list:
    return [[int(a), int(b)] for a, b in sorted(edge_set)]


def _decode_edges(edges: list) -> "list[tuple[int, int]]":
    return [(int(a), int(b)) for a, b in edges]


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

    @property
    def exhausted(self) -> bool:
        """The ``max_steps`` budget ran out mid-flight.

        Distinct from :attr:`cycle_detected`: an exhausted run saw no
        repeated state — it simply was not given enough moves.  Exactly one
        of ``converged`` / ``cycle_detected`` / ``exhausted`` is true for
        every finished run.
        """
        return not self.converged and not self.cycle_detected


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
        if schedule not in ("round_robin", "random", "greedy"):
            raise ConfigurationError(f"unknown schedule {schedule!r}")
        if responder not in ("best", "first"):
            raise ConfigurationError(f"unknown responder {responder!r}")
        if max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
        if engine_mode not in ("batched", "oracle"):
            raise ConfigurationError(f"unknown engine_mode {engine_mode!r}")
        self.objective: "Objective | str | CostModel" = objective
        self.schedule: Schedule = schedule
        self.responder: Responder = responder
        self.max_steps = max_steps
        self.record = record
        self.engine_mode: EngineMode = engine_mode
        self.seed = seed
        self._rng = None  # derived per run()
        self._model: CostModel | None = None  # resolved per run()
        self._ckpt: "CheckpointStore | None" = None  # armed per run()
        self._ckpt_every: "int | None" = None
        self._deadline: "float | None" = None

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
        # A fresh per-run generator: a second run() on this instance replays
        # the same schedule / candidate order instead of continuing the
        # first run's stream (re-running from `seed` must be reproducible).
        # A Generator passed as the seed is the documented opt-out: the
        # caller owns the stream, and it keeps advancing across runs.
        # (A resumed checkpoint then *overwrites* the generator's state —
        # the serialized stream is part of the bit-identity guarantee.)
        self._rng = make_rng(self.seed)
        self._model = resolve_cost_model(self.objective, initial.n)
        self._ckpt = self._checkpoint_store(checkpoint)
        self._ckpt_every = checkpoint_every
        self._deadline = (
            current_task_deadline() if deadline is None else deadline
        )
        if self.engine_mode == "oracle":
            result = self._run_oracle(initial)
        else:
            result = self._run_batched(initial)
        if self._ckpt is not None:
            # A finished run leaves no checkpoint behind (a deadline expiry
            # raises above, so its freshly saved snapshot survives).
            self._ckpt.clear()
        return result

    @staticmethod
    def _checkpoint_store(
        checkpoint: "CheckpointStore | str | None",
    ) -> "CheckpointStore | None":
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            return checkpoint
        return CheckpointStore(checkpoint)

    def _checkpoint_config(self, initial: CSRGraph) -> dict:
        """What a snapshot must agree on before it may be resumed.

        ``engine_mode`` is recorded as its activation *accounting*
        ("engine" vs "oracle"), matching the trajectory census header: the
        oracle path counts activations differently and must not splice.
        """
        return {
            "v": 1,
            "objective": self._model.spec,
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
    # Batched engine + dirty-set path (the default)
    # ------------------------------------------------------------------
    def _run_batched(self, initial: CSRGraph) -> DynamicsResult:
        config = self._checkpoint_config(initial)
        loaded = None if self._ckpt is None else self._ckpt.load(config)
        if loaded is None:
            engine = DistanceEngine(initial)
            n = engine.n
            seen: set[frozenset[tuple[int, int]]] = {
                engine.adjacency.edge_set()
            }
            steps = 0
            activations = 0
            moves: list[Swap] = []
            diam_trace: list[float] = []
            cost_trace: list[float] = []
            dirty = np.ones(n, dtype=bool)
            pos = {"idx": 0, "quiet": 0}
        else:
            # Resume: rebuild the engine from the snapshotted edge set (the
            # recomputed distance matrix is exact, like the maintained one)
            # and restore every piece of loop state — including the RNG
            # stream — so the continuation is bit-identical to the run the
            # snapshot interrupted.
            n = initial.n
            engine = DistanceEngine(
                CSRGraph(n, _decode_edges(loaded["edges"]))
            )
            seen = {
                frozenset(_decode_edges(key)) for key in loaded["seen"]
            }
            steps = int(loaded["steps"])
            activations = int(loaded["activations"])
            moves = [
                Swap(int(a), int(b), int(c)) for a, b, c in loaded["moves"]
            ]
            diam_trace = _decode_trace(loaded["diam"])
            cost_trace = _decode_trace(loaded["cost"])
            dirty = np.array(loaded["dirty"], dtype=bool)
            pos = {"idx": int(loaded["idx"]), "quiet": int(loaded["quiet"])}
            self._rng.bit_generator.state = loaded["rng"]

        def save_checkpoint() -> None:
            payload = {
                "edges": _encode_edges(engine.adjacency.edge_set()),
                "seen": sorted(_encode_edges(key) for key in seen),
                "rng": self._rng.bit_generator.state,
                "dirty": [int(b) for b in dirty],
                "steps": steps,
                "activations": activations,
                "moves": [
                    [int(s.vertex), int(s.drop), int(s.add)] for s in moves
                ],
                "diam": _encode_trace(diam_trace),
                "cost": _encode_trace(cost_trace),
                "idx": pos["idx"],
                "quiet": pos["quiet"],
            }
            self._ckpt.save(
                payload, config,
                meta={"steps": steps, "activations": activations},
            )

        def guard_deadline() -> None:
            """Checkpoint-and-yield when the caller's budget has expired.

            Checked only at applied-move boundaries (loop tops): those are
            exactly the states a resumed loop re-enters, so the snapshot
            taken here loses nothing and splices nothing.
            """
            if self._deadline is None:
                return
            try:
                check_deadline(self._deadline)
            except DeadlineExceeded:
                if self._ckpt is not None:
                    save_checkpoint()
                raise

        def record_state() -> None:
            if self.record:
                dm = engine.dm
                if dm.size == 0:
                    diam_trace.append(0.0)
                    cost_trace.append(0.0)
                    return
                diam = int(dm.max())
                diam_trace.append(
                    math.inf if diam >= INT_INF else float(diam)
                )
                # The model's social cost, not a hardcoded dm.sum: under
                # max/interest/budget games the trace must report the game
                # actually being played (for SumCost this is bit-identical
                # to the historical total-pairwise-distance recording).
                cost_trace.append(self._model.social_cost(dm))

        def respond(v: int) -> BestResponse:
            nonlocal activations
            activations += 1
            if self.responder == "best":
                return engine.best_swap(v, self._model)
            return first_improving_swap(
                engine.graph, v, self._model, self._rng
            )

        def apply(br: BestResponse) -> bool:
            """Apply a move; returns False when it closes a cycle."""
            nonlocal steps
            assert br.swap is not None
            changed = engine.apply_swap(br.swap)
            steps += 1
            dirty[changed] = True
            dirty[[br.swap.vertex, br.swap.drop, br.swap.add]] = True
            if self.record:
                moves.append(br.swap)
                record_state()
            key = engine.adjacency.edge_set()
            if key in seen:
                return False
            seen.add(key)
            if (
                self._ckpt is not None
                and self._ckpt_every is not None
                and steps % self._ckpt_every == 0
            ):
                save_checkpoint()
            return True

        def verification_sweep() -> BestResponse | None:
            """Activate every vertex; the exactness guard over the dirty rule.

            Best responders first run one cross-edge audit scan
            (:func:`~repro.core.batched.certify_at_rest`): in the common
            convergent case it certifies every vertex at once.  A positive
            scan falls back to the ordered per-vertex kernel, which finds
            the move to apply.
            """
            nonlocal activations
            if self.responder == "best":
                from .batched import certify_at_rest

                if certify_at_rest(
                    engine.graph,
                    engine.dm,
                    self._model,
                    pred_counts=engine.pred_counts(),
                ):
                    activations += n
                    dirty[:] = False
                    return None
            for v in range(n):
                br = respond(v)
                if br.swap is not None:
                    return br
                dirty[v] = False
            if self.responder == "best":  # pragma: no cover
                raise AssertionError(
                    "certify_at_rest reported a move no vertex produced"
                )
            return None

        cycle = False
        converged = False
        if loaded is None:
            record_state()  # a resumed trace already holds this snapshot

        if self.schedule == "greedy":
            # Greedy is canonical: every step compares ALL vertices, so the
            # dirty heuristic must not narrow the argmax — a clean vertex may
            # still hold the globally best improvement.  The engine makes each
            # activation cheap; the full scan doubling as the convergence
            # certificate means no separate verification sweep is needed.
            while steps < self.max_steps:
                guard_deadline()
                best: BestResponse | None = None
                for v in range(n):
                    br = respond(v)
                    if br.swap is not None and (
                        best is None or br.improvement > best.improvement
                    ):
                        best = br
                if best is None:
                    converged = True
                    break
                if not apply(best):
                    cycle = True
                    break

        elif self.schedule == "round_robin":
            while steps < self.max_steps:
                guard_deadline()
                if not dirty.any():
                    pending = verification_sweep()
                    if pending is None:
                        converged = True
                        break
                    if not apply(pending):
                        cycle = True
                        break
                    continue
                v = pos["idx"] % n
                pos["idx"] += 1
                if not dirty[v]:
                    continue  # provably quiet since its last no-op
                br = respond(v)
                if br.swap is None:
                    dirty[v] = False
                    continue
                if not apply(br):
                    cycle = True
                    break

        else:  # random schedule
            while steps < self.max_steps:
                guard_deadline()
                if not dirty.any() or pos["quiet"] >= 2 * n:
                    pending = verification_sweep()
                    if pending is None:
                        converged = True
                        break
                    pos["quiet"] = 0
                    if not apply(pending):
                        cycle = True
                        break
                    continue
                v = int(self._rng.integers(0, n))
                if not dirty[v]:
                    pos["quiet"] += 1
                    continue
                br = respond(v)
                if br.swap is None:
                    dirty[v] = False
                    pos["quiet"] += 1
                    continue
                pos["quiet"] = 0
                if not apply(br):
                    cycle = True
                    break

        return DynamicsResult(
            engine.graph, converged, cycle, steps, activations,
            moves, diam_trace, cost_trace, final_dm=engine.dm,
        )

    # ------------------------------------------------------------------
    # Seed path: copied graphs, fresh best responses (cross-validation oracle)
    # ------------------------------------------------------------------
    def _respond_oracle(self, graph: CSRGraph, v: int) -> BestResponse:
        if self.responder == "best":
            return best_swap(graph, v, self._model, mode="oracle")
        return first_improving_swap(graph, v, self._model, self._rng)

    def _run_oracle(self, initial: CSRGraph) -> DynamicsResult:
        config = self._checkpoint_config(initial)
        loaded = None if self._ckpt is None else self._ckpt.load(config)
        n = initial.n
        if loaded is None:
            state = AdjacencyGraph.from_csr(initial)
            seen: set[frozenset[tuple[int, int]]] = {state.edge_set()}
            steps = 0
            activations = 0
            moves: list[Swap] = []
            diam_trace: list[float] = []
            cost_trace: list[float] = []
            pos = {"idx": 0, "quiet": 0}
        else:
            # Same restore discipline as the batched path (the oracle's
            # checkpoints carry no dirty set — it has none).
            state = AdjacencyGraph.from_csr(
                CSRGraph(n, _decode_edges(loaded["edges"]))
            )
            seen = {
                frozenset(_decode_edges(key)) for key in loaded["seen"]
            }
            steps = int(loaded["steps"])
            activations = int(loaded["activations"])
            moves = [
                Swap(int(a), int(b), int(c)) for a, b, c in loaded["moves"]
            ]
            diam_trace = _decode_trace(loaded["diam"])
            cost_trace = _decode_trace(loaded["cost"])
            pos = {"idx": int(loaded["idx"]), "quiet": int(loaded["quiet"])}
            self._rng.bit_generator.state = loaded["rng"]

        def snapshot() -> CSRGraph:
            return state.to_csr()

        def save_checkpoint() -> None:
            payload = {
                "edges": _encode_edges(state.edge_set()),
                "seen": sorted(_encode_edges(key) for key in seen),
                "rng": self._rng.bit_generator.state,
                "steps": steps,
                "activations": activations,
                "moves": [
                    [int(s.vertex), int(s.drop), int(s.add)] for s in moves
                ],
                "diam": _encode_trace(diam_trace),
                "cost": _encode_trace(cost_trace),
                "idx": pos["idx"],
                "quiet": pos["quiet"],
            }
            self._ckpt.save(
                payload, config,
                meta={"steps": steps, "activations": activations},
            )

        def guard_deadline() -> None:
            if self._deadline is None:
                return
            try:
                check_deadline(self._deadline)
            except DeadlineExceeded:
                if self._ckpt is not None:
                    save_checkpoint()
                raise

        def record_state() -> None:
            if self.record:
                g = snapshot()
                diam_trace.append(diameter_or_inf(g))
                if g.n == 0:
                    cost_trace.append(0.0)
                else:
                    # Same model-resolved social cost as the batched path
                    # (asserted trace-equal in the oracle harness).
                    cost_trace.append(
                        self._model.social_cost(
                            lift_distances(distance_matrix(g))
                        )
                    )

        def apply(br: BestResponse) -> bool:
            """Apply a move; returns False when it closes a cycle."""
            nonlocal steps
            assert br.swap is not None
            state.swap_edge(br.swap.vertex, br.swap.drop, br.swap.add)
            steps += 1
            if self.record:
                moves.append(br.swap)
                record_state()
            key = state.edge_set()
            if key in seen:
                return False
            seen.add(key)
            if (
                self._ckpt is not None
                and self._ckpt_every is not None
                and steps % self._ckpt_every == 0
            ):
                save_checkpoint()
            return True

        cycle = False
        converged = False
        if loaded is None:
            record_state()  # a resumed trace already holds this snapshot

        if self.schedule == "greedy":
            while steps < self.max_steps:
                guard_deadline()
                best: BestResponse | None = None
                g = snapshot()
                for v in range(n):
                    activations += 1
                    br = self._respond_oracle(g, v)
                    if br.swap is not None and (
                        best is None or br.improvement > best.improvement
                    ):
                        best = br
                if best is None:
                    converged = True
                    break
                if not apply(best):
                    cycle = True
                    break
            return DynamicsResult(
                snapshot(), converged, cycle, steps, activations,
                moves, diam_trace, cost_trace,
            )

        if self.schedule == "round_robin":
            # pos["quiet"]: consecutive activations without a move
            order = list(range(n))
            while steps < self.max_steps and pos["quiet"] < n:
                guard_deadline()
                v = order[pos["idx"] % n]
                pos["idx"] += 1
                activations += 1
                br = self._respond_oracle(snapshot(), v)
                if br.swap is None:
                    pos["quiet"] += 1
                    continue
                pos["quiet"] = 0
                if not apply(br):
                    cycle = True
                    break
            converged = (not cycle) and pos["quiet"] >= n
            return DynamicsResult(
                snapshot(), converged, cycle, steps, activations,
                moves, diam_trace, cost_trace,
            )

        # random schedule: quiet streak of 2n activations triggers a full
        # deterministic verification sweep before declaring convergence.
        while steps < self.max_steps:
            guard_deadline()
            if pos["quiet"] >= 2 * n:
                g = snapshot()
                verified = True
                pending: BestResponse | None = None
                for v in range(n):
                    activations += 1
                    br = self._respond_oracle(g, v)
                    if br.swap is not None:
                        verified = False
                        pending = br
                        break
                if verified:
                    converged = True
                    break
                pos["quiet"] = 0
                assert pending is not None
                if not apply(pending):
                    cycle = True
                    break
                continue
            v = int(self._rng.integers(0, n))
            activations += 1
            br = self._respond_oracle(snapshot(), v)
            if br.swap is None:
                pos["quiet"] += 1
                continue
            pos["quiet"] = 0
            if not apply(br):
                cycle = True
                break
        return DynamicsResult(
            snapshot(), converged, cycle, steps, activations,
            moves, diam_trace, cost_trace,
        )
