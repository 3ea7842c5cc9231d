"""The experiment registry: one entry per figure / theorem-level claim.

Every experiment id from DESIGN.md §3 maps to a function here returning one
or more :class:`~repro.bench.reporting.Table` objects.  The pytest-benchmark
targets in ``benchmarks/`` time the underlying computations and print these
tables; the CLI (``python -m repro.cli run <id>``) regenerates any of them
standalone; EXPERIMENTS.md quotes their output.

Each experiment takes a ``scale`` argument:

* ``"quick"`` — seconds-scale, used by the benchmark suite and CI;
* ``"full"`` — minutes-scale, the sizes quoted in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import Callable, Literal

import numpy as np

from ..analysis import (
    distance_almost_uniformity,
    distance_uniformity,
    pairwise_concentration,
    plunnecke_violations,
    skew_triple_fraction,
    theorem12_lower_bound,
    theorem12_tradeoff_bound,
    theorem13_transform,
    theorem15_diameter_bound,
    theorem9_diameter_bound,
    conjectured_polylog_bound,
    iterated_sumset_sizes,
)
from ..constructions import (
    AbelianGroup,
    diagonal_torus,
    double_star,
    figure2_insertion_effects,
    figure2_tree,
    figure3_all_straight_variant,
    figure3_graph,
    figure3_improving_swap,
    polarity_graph,
    random_connection_set,
    repaired_diameter3_witness,
    rotated_torus,
    spider_for_epsilon,
    spider_graph,
    standard_torus,
)
from ..core import (
    Swap,
    census_experiment,
    find_deletion_criticality_violation,
    find_insertion_violation,
    find_max_swap_violation,
    find_sum_violation,
    is_deletion_critical,
    is_insertion_stable,
    is_k_insertion_stable,
    is_max_equilibrium,
    is_sum_equilibrium,
    swap_cost_after,
    sum_cost,
    trajectory_experiment,
)
from ..experiments import run_fleet
from ..games import transfer_sweep
from ..games.social import poa_diameter_ratio
from ..graphs import (
    all_trees,
    cycle_graph,
    diameter,
    girth,
    eccentricities,
    random_connected_gnm,
    random_tree,
)
from ..theory import (
    corollary11_holds,
    lemma10_holds,
    lemma2_holds,
    lemma3_holds,
    lemma6_holds,
    lemma8_holds,
    theorem1_check,
    theorem4_check,
    is_star,
)
from .reporting import Table

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

Scale = Literal["quick", "full"]


# ---------------------------------------------------------------------------
# fig2-double-star
# ---------------------------------------------------------------------------

def exp_fig2_double_star(scale: Scale = "quick") -> list[Table]:
    """Figure 2 / Theorem 4: max-equilibrium trees."""
    t1 = Table(
        "Figure 2: double stars are diameter-3 max equilibria",
        ["p", "q", "n", "diameter", "max equilibrium"],
    )
    sizes = [(2, 2), (2, 3), (3, 3), (2, 5)] if scale == "quick" else [
        (2, 2), (2, 3), (3, 3), (2, 5), (4, 4), (2, 10), (6, 6), (3, 12)
    ]
    for p, q in sizes:
        g = double_star(p, q)
        t1.add_row(p, q, g.n, diameter(g), is_max_equilibrium(g))
    bad = double_star(1, 2)
    t1.add_note(
        "single-leaf double star (p=1,q=2) is NOT a max equilibrium: "
        f"max-eq={is_max_equilibrium(bad)} — the >=2-leaves condition is sharp"
    )

    t2 = Table(
        "Figure 2 caption: the three dashed insertions",
        ["insertion", "ecc before (u,v)", "ecc after (u,v)", "helps an endpoint"],
    )
    for eff in figure2_insertion_effects():
        t2.add_row(
            eff.label,
            str(eff.ecc_before),
            str(eff.ecc_after),
            eff.helps_someone,
        )

    nmax = 6 if scale == "quick" else 7
    t3 = Table(
        "Theorem 4 exhaustively: trees in max equilibrium have diameter <= 3",
        ["n", "#labelled trees", "#max equilibria", "max eq diameter", "all consistent"],
    )
    for n in range(4, nmax + 1):
        count = 0
        eq = 0
        worst = 0
        consistent = True
        for tree in all_trees(n):
            count += 1
            if is_max_equilibrium(tree):
                eq += 1
                worst = max(worst, diameter(tree))
            if not theorem4_check(tree):
                consistent = False
        t3.add_row(n, count, eq, worst, consistent)
    return [t1, t2, t3]


# ---------------------------------------------------------------------------
# fig3-diameter3
# ---------------------------------------------------------------------------

def exp_fig3_diameter3(scale: Scale = "quick") -> list[Table]:
    """Theorem 5: the diameter-3 sum-equilibrium lower bound."""
    t = Table(
        "Theorem 5: diameter-3 sum equilibrium (paper witness vs repair)",
        ["graph", "n", "m", "diameter", "girth", "sum equilibrium", "violation"],
    )
    from ..constructions import minimal_diameter3_witness

    rows = [
        ("Figure 3 (paper, literal)", figure3_graph()),
        ("Figure 3 (all-straight variant)", figure3_all_straight_variant()),
        ("repaired witness (this repo)", repaired_diameter3_witness()),
        ("minimal witness n=8 (this repo)", minimal_diameter3_witness()),
    ]
    for label, g in rows:
        v = find_sum_violation(g)
        t.add_row(
            label,
            g.n,
            g.m,
            diameter(g),
            girth(g),
            v is None,
            "none" if v is None else
            f"v={v.vertex} drop {v.drop} add {v.add} ({v.before:.0f}->{v.after:.0f})",
        )
    mover, drop, add = figure3_improving_swap()
    g3 = figure3_graph()
    before = sum_cost(g3, mover)
    after = swap_cost_after(g3, Swap(mover, drop, add), "sum", "copy")
    t.add_note(
        "REPRODUCTION FINDING: the paper's Figure 3 admits the improving swap "
        f"d1: c1,1 -> c2,1 ({before:.0f} -> {after:.0f}); Lemma 8's 'unless w' "
        "is a neighbor of w' carve-out defeats the omitted case analysis."
    )
    t.add_note(
        "Theorem 5's STATEMENT survives: the repaired 10-vertex witness is a "
        "machine-verified diameter-3 sum equilibrium (all 320 swaps audited)."
    )
    t.add_note(
        "the minimal witness has n=8, m=12 (144 swaps audited) and is "
        "provably minimal: the exhaustive census over all 1.89M connected "
        "graphs with n <= 7 found zero diameter->=3 sum equilibria."
    )

    qs = [2, 3] if scale == "quick" else [2, 3, 5, 7]
    t2 = Table(
        "Diameter-2 context: polarity graphs ER_q are sum equilibria",
        ["q", "n", "m", "diameter", "sum equilibrium"],
    )
    for q in qs:
        g = polarity_graph(q)
        t2.add_row(q, g.n, g.m, diameter(g), is_sum_equilibrium(g))
    t2.add_note(
        "every diameter-2 graph is a sum swap equilibrium (Lemma 6); the "
        "interest of Theorem 5 is strictly in diameter 3"
    )
    return [t, t2]


# ---------------------------------------------------------------------------
# fig4-torus
# ---------------------------------------------------------------------------

def exp_fig4_torus(scale: Scale = "quick") -> list[Table]:
    """Figure 4 / Theorem 12 (2D): the Θ(√n) max equilibrium."""
    ks = [2, 3, 4, 5] if scale == "quick" else [2, 3, 4, 5, 6, 8, 10, 12, 16]
    t = Table(
        "Figure 4: rotated torus on n = 2k^2 vertices",
        [
            "k", "n", "m", "local diam (all vertices)", "sqrt(n/2)",
            "deletion-critical", "insertion-stable", "max equilibrium",
        ],
    )
    for k in ks:
        g = rotated_torus(k)
        ecc = eccentricities(g)
        uniform = int(ecc.min()) if int(ecc.min()) == int(ecc.max()) else -1
        t.add_row(
            k, g.n, g.m, uniform, f"{theorem12_lower_bound(g.n):.2f}",
            is_deletion_critical(g),
            is_insertion_stable(g),
            is_max_equilibrium(g),
        )
    t.add_note("local diameter equals k = sqrt(n/2) exactly, at every vertex")

    st = standard_torus(6, 6)
    viol = find_deletion_criticality_violation(st)
    ins = find_insertion_violation(st)
    t2 = Table(
        "Contrast: the axis-aligned torus is NOT a max equilibrium",
        ["graph", "n", "deletion-critical", "insertion-stable", "first violation"],
    )
    t2.add_row(
        "standard 6x6 torus",
        st.n,
        viol is None,
        ins is None,
        "none"
        if viol is None and ins is None
        else (
            f"deleting ({viol.vertex},{viol.drop}) leaves ecc at {viol.after:.0f}"
            if viol is not None
            else f"inserting ({ins.vertex},{ins.add}) drops ecc {ins.before:.0f}->{ins.after:.0f}"
        ),
    )
    return [t, t2]


# ---------------------------------------------------------------------------
# thm1-sum-trees
# ---------------------------------------------------------------------------

def exp_thm1_sum_trees(scale: Scale = "quick") -> list[Table]:
    """Theorem 1: sum-equilibrium trees are exactly stars."""
    nmax = 6 if scale == "quick" else 7
    t = Table(
        "Theorem 1 exhaustively: sum equilibrium <=> star (all labelled trees)",
        ["n", "#trees", "#sum equilibria", "#stars", "all consistent"],
    )
    for n in range(3, nmax + 1):
        trees = eqs = stars = 0
        consistent = True
        for tree in all_trees(n):
            trees += 1
            e = is_sum_equilibrium(tree)
            s = is_star(tree)
            eqs += e
            stars += s
            if e != s or not theorem1_check(tree):
                consistent = False
        t.add_row(n, trees, eqs, stars, consistent)
    t.add_note("#sum equilibria == #stars == n (one per choice of center)")

    sizes = [12, 24] if scale == "quick" else [12, 24, 48, 96]
    reps = 2 if scale == "quick" else 4
    t2 = Table(
        "Dynamics: random trees collapse to stars under sum swaps",
        ["n", "replicates", "#converged", "#ended as star", "mean steps", "mean final diameter"],
    )
    from ..core import SwapDynamics
    from ..rng import derive_seed

    for n in sizes:
        conv = star_count = 0
        steps = []
        diams = []
        for rep in range(reps):
            seed = derive_seed(2024, n, rep)
            res = SwapDynamics(objective="sum", seed=seed).run(
                random_tree(n, seed)
            )
            conv += res.converged
            star_count += is_star(res.graph)
            steps.append(res.steps)
            diams.append(diameter(res.graph))
        t2.add_row(
            n, reps, conv, star_count,
            f"{np.mean(steps):.1f}", f"{np.mean(diams):.2f}",
        )
    t2.add_note(
        "swaps cannot disconnect (disconnection costs inf), so trees stay "
        "trees and Theorem 1 forces the star as the only resting point"
    )
    return [t, t2]


# ---------------------------------------------------------------------------
# thm9-diameter-census (+ lem10/cor11 audit)
# ---------------------------------------------------------------------------

def exp_thm9_census(scale: Scale = "quick") -> list[Table]:
    """Theorem 9: the empirical diameter census of reachable sum equilibria."""
    if scale == "quick":
        n_values, reps = [8, 16, 32], 2
    else:
        n_values, reps = [8, 16, 32, 64, 96, 128], 3
    records = run_fleet(census_experiment(
        n_values,
        families=("tree", "sparse", "dense"),
        replicates=reps,
        objective="sum",
        root_seed=7,
    ))
    t = Table(
        "Theorem 9 census: diameters of sum equilibria reached by dynamics",
        [
            "n", "max eq diameter", "mean eq diameter", "#runs", "#converged",
            "#verified eq", "2^(2*sqrt(lg n))", "lg^2 n (conjecture)",
        ],
    )
    for n in n_values:
        rs = [r for r in records if r.n == n]
        conv = [r for r in rs if r.converged]
        t.add_row(
            n,
            max((r.diameter_final for r in conv), default=float("nan")),
            f"{np.mean([r.diameter_final for r in conv]):.2f}" if conv else "nan",
            len(rs),
            len(conv),
            sum(1 for r in conv if r.verified_equilibrium),
            f"{theorem9_diameter_bound(n):.1f}",
            f"{conjectured_polylog_bound(n):.1f}",
        )
    t.add_note(
        "every reachable equilibrium sits far below the Theorem 9 curve — "
        "consistent with the paper's polylog conjecture (and with the "
        "stronger possibility that constants suffice)"
    )

    # Lemma 10 / Corollary 11 audit on a sample of the equilibria found.
    t2 = Table(
        "Lemma 10 / Corollary 11 audited on census equilibria",
        ["graph", "n", "lemma10 anchor-0", "corollary11 (<= 5 n lg n)"],
    )
    audited = 0
    from ..core.census import seed_graph
    from ..core import SwapDynamics
    from ..rng import derive_seed

    for n in n_values[: 2 if scale == "quick" else 4]:
        seed = derive_seed(99, n)
        res = SwapDynamics(objective="sum", seed=seed).run(
            seed_graph("sparse", n, seed)
        )
        if not res.converged:
            continue
        g = res.graph
        out = lemma10_holds(g, 0)
        t2.add_row(
            f"census n={n}", n,
            "small-diam branch" if out and out.small_diameter
            else ("removable-edge branch" if out else "FAIL"),
            corollary11_holds(g),
        )
        audited += 1
    g3 = repaired_diameter3_witness()
    out = lemma10_holds(g3, 0)
    t2.add_row(
        "repaired Thm-5 witness", g3.n,
        "small-diam branch" if out and out.small_diameter
        else ("removable-edge branch" if out else "FAIL"),
        corollary11_holds(g3),
    )
    return [t, t2]


# ---------------------------------------------------------------------------
# thm12-tradeoff
# ---------------------------------------------------------------------------

def exp_thm12_tradeoff(scale: Scale = "quick") -> list[Table]:
    """Theorem 12 (d-dim): diameter Θ(n^{1/d}) and (d−1)-insertion stability."""
    if scale == "quick":
        cases = [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]
    else:
        cases = [(2, 3), (2, 4), (2, 6), (2, 8), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]
    t = Table(
        "Theorem 12 trade-off: d-dimensional torus, k-insertion stability",
        [
            "d", "k(side)", "n", "diameter", "(n/2)^(1/d)",
            "deletion-critical", "stable k=d-1 insertions", "unstable at k=d",
        ],
    )
    for d, k in cases:
        g = diagonal_torus(k, d)
        diam = diameter(g)
        stable = is_k_insertion_stable(g, d - 1, vertices=[0]) if d > 1 else True
        unstable = not is_k_insertion_stable(g, d, vertices=[0])
        t.add_row(
            d, k, g.n, diam, f"{(g.n / 2) ** (1 / d):.2f}",
            is_deletion_critical(g), stable, unstable,
        )
    t.add_note(
        "vertex transitivity lets the k-insertion audit use one "
        "representative vertex; d insertions (one per coordinate) collapse "
        "the local diameter, matching the Ω(n^(1/(k+1))) trade-off exactly"
    )
    t2 = Table(
        "Trade-off curve: diameter bound vs computational power k",
        ["k (edges weighed)", "bound n=1024", "bound n=4096", "construction d=k+1"],
    )
    for kk in (1, 2, 3, 4):
        t2.add_row(
            kk,
            f"{theorem12_tradeoff_bound(1024, kk):.1f}",
            f"{theorem12_tradeoff_bound(4096, kk):.1f}",
            f"diag torus d={kk + 1}",
        )
    return [t, t2]


# ---------------------------------------------------------------------------
# thm13-uniformity (+ conj14 counterexample)
# ---------------------------------------------------------------------------

def exp_thm13_uniformity(scale: Scale = "quick") -> list[Table]:
    """Theorem 13 pipeline + the Conjecture 14 spider separation."""
    t = Table(
        "Theorem 13 pipeline on high-diameter stand-ins (p=0.5, beta=1/8)",
        [
            "input", "n", "diam d", "premise d>2lg n", "x(almost)",
            "power diam", "eps(almost)", "x(uniform)", "x<=4lg^2 n",
            "power diam", "eps(uniform)",
        ],
    )
    inputs = [
        ("cycle C256", cycle_graph(256)),
        ("torus k=16", rotated_torus(16)),
    ]
    if scale == "full":
        inputs += [
            ("cycle C1024", cycle_graph(1024)),
            ("torus k=24", rotated_torus(24)),
        ]
    for label, g in inputs:
        res = theorem13_transform(g, beta=0.125, p=0.5)
        t.add_row(
            label, res.n, res.input_diameter, res.meets_diameter_premise,
            res.almost_power, res.almost_diameter,
            f"{res.almost_report.epsilon:.3f}",
            res.uniform_power, res.uniform_power_within_bound,
            res.uniform_diameter, f"{res.uniform_report.epsilon:.3f}",
        )
    t.add_note(
        "no sum equilibrium of diameter > 2 lg n is known (the paper "
        "conjectures none exists); the pipeline is exercised on max-"
        "equilibrium and synthetic high-diameter graphs per DESIGN.md"
    )
    t.add_note(
        "the proof's constant is p >= 8/beta; the pipeline exposes p so "
        "laptop-scale inputs produce non-degenerate powers (p=0.5 here)"
    )

    t2 = Table(
        "Skew-triple fractions (Theorem 13 first claim's quantity)",
        ["graph", "n", "p", "skew fraction", "4/p bound"],
    )
    for label, g, p in [
        ("torus k=8", rotated_torus(8), 1.0),
        ("repaired witness", repaired_diameter3_witness(), 1.0),
        ("cycle C64", cycle_graph(64), 1.0),
    ]:
        frac = skew_triple_fraction(g, p)
        t2.add_row(label, g.n, p, f"{frac:.4f}", f"{4 / p:.2f}")

    t3 = Table(
        "Conjecture 14's per-vertex quantifier: the spider separation",
        [
            "epsilon", "target diam", "n", "diameter",
            "pairwise modal fraction", "per-vertex eps (uniform)",
            "per-vertex eps (almost)",
        ],
    )
    eps_list = [0.25, 0.125] if scale == "quick" else [0.25, 0.125, 0.0625]
    for eps in eps_list:
        shape = spider_for_epsilon(eps, 8)
        g = spider_graph(shape)
        r, frac = pairwise_concentration(g)
        u = distance_uniformity(g)
        au = distance_almost_uniformity(g)
        t3.add_row(
            eps, shape.diameter, g.n, diameter(g),
            f"{frac:.3f} @ r={r}", f"{u.epsilon:.3f}", f"{au.epsilon:.3f}",
        )
    t3.add_note(
        "pairwise mass concentrates (-> 1 - eps) while per-vertex "
        "uniformity stays near 1: the weaker pairwise notion admits "
        "arbitrarily large diameter, so Conjecture 14 must be per-vertex"
    )
    return [t, t2, t3]


# ---------------------------------------------------------------------------
# thm15-cayley
# ---------------------------------------------------------------------------

def exp_thm15_cayley(scale: Scale = "quick") -> list[Table]:
    """Theorem 15: ε-distance-uniform Abelian Cayley graphs."""
    from ..constructions import cayley_graph
    from ..rng import derive_seed

    # Sparse connection sets give eps >= 1/4 (the theorem is vacuous there);
    # the dense cases push eps below 1/4 so the bound actually binds.
    if scale == "quick":
        cases = [((64,), 3), ((64,), 8), ((16, 16), 4), ((16, 16), 10)]
        reps = 2
    else:
        cases = [
            ((64,), 3), ((64,), 8), ((256,), 4), ((256,), 16),
            ((16, 16), 4), ((16, 16), 10), ((32, 32), 5), ((32, 32), 24),
            ((2,) * 10, 12),
        ]
        reps = 3
    t = Table(
        "Theorem 15: uniformity vs diameter for random Abelian Cayley graphs",
        [
            "group", "gens", "n", "diameter", "eps (uniform)",
            "thm bound (if eps<1/4)", "within bound", "plunnecke ok",
        ],
    )
    for moduli, gens in cases:
        for rep in range(reps):
            seed = derive_seed(5, hash(moduli) & 0x7FFFFFFF, gens, rep)
            conn = random_connection_set(moduli, gens, seed)
            g = cayley_graph(moduli, conn)
            from ..graphs import is_connected

            if not is_connected(g):
                t.add_row(
                    "Z" + "x".join(map(str, moduli)), gens, g.n,
                    "disconnected", "-", "-", "-", "-",
                )
                continue
            d = diameter(g)
            rep_u = distance_uniformity(g)
            group = AbelianGroup(moduli)
            sizes = iterated_sumset_sizes(group, conn, min(2 * d + 2, 40))
            viols = plunnecke_violations(sizes)
            if rep_u.epsilon < 0.25 and rep_u.epsilon > 0:
                bound = theorem15_diameter_bound(g.n, rep_u.epsilon)
                within = d <= bound
                bound_str = f"{bound:.1f}"
            else:
                bound_str, within = "n/a (eps>=1/4)", True
            t.add_row(
                "Z" + "x".join(map(str, moduli)), gens, g.n, d,
                f"{rep_u.epsilon:.3f}", bound_str, within, len(viols) == 0,
            )
    t.add_note(
        "|qS| <= |pS|^(q/p) (the Plünnecke consequence) verified on every "
        "instance's iterated sumsets — the proof's engine, checked live"
    )
    return [t]


# ---------------------------------------------------------------------------
# alpha-transfer
# ---------------------------------------------------------------------------

def exp_alpha_transfer(scale: Scale = "quick") -> list[Table]:
    """The §1 transfer: swap bounds cover α-equilibria for every α."""
    if scale == "quick":
        n, alphas, reps = 8, [0.5, 1.0, 2.0, 4.0, 16.0], 2
    else:
        n, alphas, reps = 12, [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 144.0], 3
    records = transfer_sweep(n, alphas, replicates=reps, root_seed=3)
    t = Table(
        f"alpha-game greedy equilibria (n={n}) vs the alpha-free swap bound",
        [
            "alpha", "#runs", "#converged", "#owner-swap stable",
            "max diameter", "thm9 bound", "all within bound",
        ],
    )
    for alpha in alphas:
        rs = [r for r in records if r.alpha == alpha]
        conv = [r for r in rs if r.converged]
        t.add_row(
            alpha, len(rs), len(conv),
            sum(1 for r in conv if r.owner_swap_stable),
            max((r.diameter for r in conv), default=float("nan")),
            f"{theorem9_diameter_bound(n):.1f}",
            all(r.within_bound for r in conv),
        )
    t.add_note(
        "one bound, all alphas: the swap-equilibrium diameter bound needs "
        "no knowledge of alpha, unlike every prior per-range analysis"
    )
    t.add_note(
        "equilibrium checking here is poly-time (owner-swap audit); exact "
        "Nash verification is exponential (NP-complete), see games.nash"
    )
    return [t]


# ---------------------------------------------------------------------------
# poa-diameter
# ---------------------------------------------------------------------------

def exp_poa_diameter(scale: Scale = "quick") -> list[Table]:
    """Price of anarchy tracks equilibrium diameter (constant factor)."""
    graphs = [
        ("star n=32", __import__("repro.graphs", fromlist=["star_graph"]).star_graph(32)),
        ("repaired Thm-5 witness", repaired_diameter3_witness()),
        ("polarity ER_3", polarity_graph(3)),
        ("torus k=4", rotated_torus(4)),
        ("torus k=6", rotated_torus(6)),
    ]
    if scale == "full":
        graphs += [
            ("torus k=8", rotated_torus(8)),
            ("torus k=12", rotated_torus(12)),
            ("polarity ER_5", polarity_graph(5)),
        ]
    t = Table(
        "PoA vs diameter across equilibrium families (usage cost, fixed m)",
        ["equilibrium", "n", "m", "diameter", "PoA (usage)", "PoA / diameter"],
    )
    for label, g in graphs:
        poa, d, ratio = poa_diameter_ratio(g)
        t.add_row(label, g.n, g.m, d, f"{poa:.3f}", f"{ratio:.3f}")
    t.add_note(
        "PoA/diameter stays within a narrow constant band while diameter "
        "varies 2 -> Θ(sqrt n), the [7] relation the paper builds on"
    )
    return [t]


# ---------------------------------------------------------------------------
# equilibrium-cost (checker scaling + ablations)
# ---------------------------------------------------------------------------

def exp_equilibrium_cost(scale: Scale = "quick") -> list[Table]:
    """'Equilibrium can be checked in polynomial time': measured scaling."""
    import time

    sizes = [16, 32, 64] if scale == "quick" else [16, 32, 64, 128, 256]
    t = Table(
        "Equilibrium audit cost (sum version, full audit of an equilibrium)",
        [
            "n", "m", "rebuild seconds", "batched seconds",
            "batched speedup", "sec / (n*m) * 1e6",
        ],
    )
    from ..core import SwapDynamics
    from ..rng import derive_seed

    warm = random_connected_gnm(16, 32, seed=derive_seed(11, 0))
    is_sum_equilibrium(warm)  # warm the scipy/csgraph import path
    is_sum_equilibrium(warm, mode="rebuild")
    for n in sizes:
        # Audit an actual equilibrium so the checker scans every edge
        # instead of short-circuiting at the first violation.
        res = SwapDynamics(objective="sum", seed=derive_seed(11, n)).run(
            random_connected_gnm(n, 2 * n, seed=derive_seed(11, n))
        )
        assert res.converged, f"census dynamics failed to converge at n={n}"
        g = res.graph
        start = time.perf_counter()
        is_sum_equilibrium(g, mode="rebuild")
        rebuild = time.perf_counter() - start
        start = time.perf_counter()
        is_sum_equilibrium(g, mode="batched")
        batched = time.perf_counter() - start
        t.add_row(
            n, g.m, f"{rebuild:.4f}", f"{batched:.4f}",
            f"{rebuild / batched:.2f}x" if batched > 0 else "inf",
            f"{batched / (n * g.m) * 1e6:.3f}",
        )
    t.add_note(
        "normalized cost is flat-ish: the audit is O(m) APSP calls, i.e. "
        "polynomial, vs NP-complete Nash verification in the alpha-game"
    )
    t.add_note(
        "the batched kernel plans lazily in edge blocks and bounds before "
        "it repairs (DESIGN.md §2.6); the rebuild oracle runs a fresh APSP "
        "per edge; both arms are bit-identical auditors"
    )

    t2 = Table(
        "Ablation: patched-BFS vs copy-BFS swap evaluation",
        ["n", "m", "candidates", "patched sec", "copy sec", "speedup"],
    )
    for n in sizes[:2] if scale == "quick" else sizes[:3]:
        g = random_connected_gnm(n, 2 * n, seed=derive_seed(12, n))
        swaps = []
        for v in range(g.n):
            for w in map(int, g.neighbors(v)):
                swaps.append(Swap(v, w, (v + n // 2) % n))
        swaps = [
            s for s in swaps
            if s.add not in (s.vertex, s.drop)
        ][: 200]
        start = time.perf_counter()
        for s in swaps:
            swap_cost_after(g, s, "sum", "patched")
        patched = time.perf_counter() - start
        start = time.perf_counter()
        for s in swaps:
            swap_cost_after(g, s, "sum", "copy")
        copy = time.perf_counter() - start
        t2.add_row(
            n, g.m, len(swaps), f"{patched:.4f}", f"{copy:.4f}",
            f"{copy / patched:.2f}x" if patched > 0 else "inf",
        )
    return [t, t2]


# ---------------------------------------------------------------------------
# small-census (exhaustive equilibrium counts over all connected graphs)
# ---------------------------------------------------------------------------

def exp_small_census(scale: Scale = "quick") -> list[Table]:
    """Exhaustive census: every connected graph at small n, classified.

    Sharpens the Theorem 5 landscape: the paper's witness (n=13) fails, the
    repo's repaired witness has n=10, and this census determines exactly
    where diameter-3 sum equilibria start existing (no n ≤ 6; see
    ``scripts/census_n7.py`` for the sharded n=7 run).
    """
    from ..core.exhaustive import exhaustive_equilibrium_census

    n_max = 5 if scale == "quick" else 6
    t = Table(
        "Exhaustive sum-equilibrium census (all connected labelled graphs)",
        ["n", "connected graphs", "diameter", "graphs", "sum equilibria"],
    )
    for n in range(4, n_max + 1):
        census = exhaustive_equilibrium_census(n, "sum")
        for d, cell in sorted(census.by_diameter.items()):
            t.add_row(n, census.connected_graphs, d, cell.graphs, cell.equilibria)
    t.add_note(
        "every diameter-<=2 connected graph is a sum equilibrium (Lemma 6); "
        "NO diameter->=3 sum equilibrium exists at these n — the smallest "
        "possible Theorem-5 witness therefore has n >= 7"
    )

    t2 = Table(
        "Exhaustive max-equilibrium census",
        ["n", "connected graphs", "diameter", "graphs", "max equilibria"],
    )
    for n in range(4, (5 if scale == "quick" else 5) + 1):
        census = exhaustive_equilibrium_census(n, "max")
        for d, cell in sorted(census.by_diameter.items()):
            t2.add_row(n, census.connected_graphs, d, cell.graphs, cell.equilibria)
    t2.add_note(
        "max equilibria are much rarer: deletion-criticality prunes any "
        "graph with an extraneous edge"
    )
    return [t, t2]


# ---------------------------------------------------------------------------
# variant-census (cost-model layer: interest / budget game variants)
# ---------------------------------------------------------------------------

def exp_variant_census(scale: Scale = "quick") -> list[Table]:
    """Game variants through the cost-model layer: interests and budgets.

    The closest follow-up models to the paper — swap games with
    communication interests (Cord-Landwehr et al.) and under bounded
    budgets (Ehsani et al.) — run through the same dynamics + audit
    machinery as the base game via :mod:`repro.core.costmodel` specs.
    """
    if scale == "quick":
        n_values, reps = [8, 12], 2
    else:
        n_values, reps = [8, 16, 32, 64], 3
    specs = [
        "sum",
        "max",
        "interest-sum:k=4,seed=9",
        "interest-max:k=4,seed=9",
        "budget-sum:cap=3",
        "budget-max:cap=3",
    ]
    t = Table(
        "Variant census: reachable equilibria per cost model",
        [
            "objective", "n", "#runs", "#converged", "#verified eq",
            "mean steps", "max final diameter",
        ],
    )
    for spec in specs:
        records = run_fleet(census_experiment(
            n_values,
            families=("tree", "sparse"),
            replicates=reps,
            objective=spec,
            root_seed=17,
        ))
        for n in n_values:
            rs = [r for r in records if r.n == n]
            conv = [r for r in rs if r.converged]
            t.add_row(
                spec,
                n,
                len(rs),
                len(conv),
                sum(1 for r in conv if r.verified_equilibrium),
                f"{np.mean([r.steps for r in rs]):.1f}",
                max((r.diameter_final for r in conv), default=float("nan")),
            )
    t.add_note(
        "sum/max rows go through SumCost/MaxCost and are bit-identical to "
        "the historical objective strings; interest rows restrict each "
        "agent's cost to a random k-subset of targets (connectivity-"
        "preserving), budget rows cap incident edges per agent"
    )
    t.add_note(
        "every converged endpoint is re-audited with the exact "
        "model-aware equilibrium checker (batched kernel)"
    )
    return [t]


# ---------------------------------------------------------------------------
# dynamics-census (trajectory census: schedules, responders, cycling)
# ---------------------------------------------------------------------------

def exp_dynamics_census(scale: Scale = "quick") -> list[Table]:
    """Trajectory census: convergence behaviour across schedules and models.

    The Kawald–Lenzner question — how schedule/responder choices shape
    convergence speed and cycling — asked of the paper's games and the
    interest variant, via :func:`repro.core.trajcensus.trajectory_experiment`.
    """
    if scale == "quick":
        n_values, reps, max_steps = [8, 12], 2, 2_000
    else:
        n_values, reps, max_steps = [8, 16, 32], 3, 20_000
    records = run_fleet(trajectory_experiment(
        n_values,
        families=("tree", "sparse"),
        objectives=("sum", "interest-sum:k=3,seed=0"),
        schedules=("round_robin", "random", "greedy"),
        responders=("best", "first"),
        replicates=reps,
        root_seed=23,
        max_steps=max_steps,
    ))
    t = Table(
        "Trajectory census: outcomes per (objective, schedule, responder)",
        [
            "objective", "schedule", "responder", "#runs", "#converged",
            "#cycles", "#exhausted", "mean steps", "mean activations",
            "#distinct endpoints",
        ],
    )
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.objective, r.schedule, r.responder), []).append(r)
    for (obj, sched, resp), rs in sorted(groups.items()):
        conv = [r for r in rs if r.converged]
        t.add_row(
            obj, sched, resp, len(rs), len(conv),
            sum(1 for r in rs if r.cycle_detected),
            sum(1 for r in rs if r.exhausted),
            f"{np.mean([r.steps for r in rs]):.1f}",
            f"{np.mean([r.activations for r in rs]):.1f}",
            len({r.final_fingerprint for r in conv}),
        )
    t.add_note(
        "the sum game converges under every schedule here; the interest "
        "variant cycles from non-tree starts — convergence is a property "
        "of the game, not of the activation order (cf. Kawald–Lenzner)"
    )
    t.add_note(
        "cycles are detected exactly (revisited edge set), so #cycles and "
        "#exhausted are disjoint: an exhausted run saw no repeated state"
    )

    t2 = Table(
        "Non-potential signature along sum trajectories",
        [
            "objective", "n", "#runs", "#socially monotone",
            "total selfish regressions", "max single-step increase",
        ],
    )
    for obj in ("sum", "interest-sum:k=3,seed=0"):
        for n in n_values:
            rs = [r for r in records if r.objective == obj and r.n == n]
            if not rs:
                continue
            t2.add_row(
                obj, n, len(rs),
                sum(1 for r in rs if r.socially_monotone),
                sum(r.selfish_regressions for r in rs),
                f"{max(r.max_social_cost_increase for r in rs):.0f}",
            )
    t2.add_note(
        "selfish regressions (mover wins, society loses) are why the sum "
        "game has no potential function — counted per applied move from "
        "the recorded model-correct social-cost traces"
    )
    return [t, t2]


# ---------------------------------------------------------------------------
# paper-claims (the claim-by-claim registry of repro.paper)
# ---------------------------------------------------------------------------

def exp_paper_claims(scale: Scale = "quick") -> list[Table]:
    """Run every registered claim check of :mod:`repro.paper`."""
    from ..paper import verify_all

    t = Table(
        "The paper, claim by claim (repro.paper registry)",
        ["claim", "status", "check passed", "statement"],
    )
    for r in verify_all():
        t.add_row(r.claim_id, r.expected_status, r.passed, r.statement)
    t.add_note(
        "'refuted-witness' marks the Figure 3 finding: the check passes "
        "because it verifies the refutation (the printed witness admits an "
        "improving swap); the statement itself is re-established by the "
        "repaired witness in the following row"
    )
    return [t]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[[Scale], list[Table]]] = {
    "fig2-double-star": exp_fig2_double_star,
    "fig3-diameter3": exp_fig3_diameter3,
    "fig4-torus": exp_fig4_torus,
    "thm1-sum-trees": exp_thm1_sum_trees,
    "thm9-diameter-census": exp_thm9_census,
    "thm12-tradeoff": exp_thm12_tradeoff,
    "thm13-uniformity": exp_thm13_uniformity,
    "thm15-cayley": exp_thm15_cayley,
    "alpha-transfer": exp_alpha_transfer,
    "poa-diameter": exp_poa_diameter,
    "equilibrium-cost": exp_equilibrium_cost,
    "small-census": exp_small_census,
    "variant-census": exp_variant_census,
    "dynamics-census": exp_dynamics_census,
    "paper-claims": exp_paper_claims,
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in DESIGN.md order."""
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, scale: Scale = "quick") -> list[Table]:
    """Run one experiment by id, returning its tables."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id](scale)
