"""Experiment registry tests: structure and headline claims of each table."""

import pytest

from repro.bench import EXPERIMENTS, experiment_ids, run_experiment


class TestRegistry:
    def test_ids_match_design_doc(self):
        assert experiment_ids() == [
            "fig2-double-star",
            "fig3-diameter3",
            "fig4-torus",
            "thm1-sum-trees",
            "thm9-diameter-census",
            "thm12-tradeoff",
            "thm13-uniformity",
            "thm15-cayley",
            "alpha-transfer",
            "poa-diameter",
            "equilibrium-cost",
            "small-census",
            "variant-census",
            "dynamics-census",
            "paper-claims",
        ]

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("nonexistent")


class TestHeadlineClaims:
    """Cheap experiments run at quick scale; key cells asserted."""

    def test_fig3_tables(self):
        tables = run_experiment("fig3-diameter3", "quick")
        main = tables[0]
        rows = {row[0]: row for row in main.rows}
        # The literal Figure 3 fails; the repaired witness passes.
        assert rows["Figure 3 (paper, literal)"][5] is False
        assert rows["repaired witness (this repo)"][5] is True
        assert rows["repaired witness (this repo)"][3] == 3  # diameter
        # Polarity context table: all equilibria.
        assert all(tables[1].column("sum equilibrium"))

    def test_fig4_tables(self):
        tables = run_experiment("fig4-torus", "quick")
        main = tables[0]
        assert all(main.column("max equilibrium"))
        assert all(main.column("deletion-critical"))
        assert all(main.column("insertion-stable"))
        ks = main.column("k")
        diams = main.column("local diam (all vertices)")
        assert diams == ks  # diameter == k == sqrt(n/2) exactly
        contrast = tables[1]
        assert contrast.rows[0][2] is False  # standard torus not critical

    def test_thm12_tables(self):
        tables = run_experiment("thm12-tradeoff", "quick")
        main = tables[0]
        assert all(main.column("deletion-critical"))
        assert all(main.column("stable k=d-1 insertions"))
        # diameter == k(side) for every instance.
        assert main.column("diameter") == main.column("k(side)")

    def test_thm13_tables(self):
        tables = run_experiment("thm13-uniformity", "quick")
        skew = tables[1]
        # Every measured skew fraction is far below the 4/p bound.
        for frac, bound in zip(skew.column("skew fraction"), skew.column("4/p bound")):
            assert float(frac) < float(bound)
        spider = tables[2]
        for row in spider.rows:
            pairwise = float(row[4].split()[0])
            per_vertex = float(row[5])
            assert per_vertex > pairwise  # the separation

    def test_thm15_tables(self):
        (table,) = run_experiment("thm15-cayley", "quick")
        assert all(
            x in (True, "-") for x in table.column("within bound")
        )
        assert all(x in (True, "-") for x in table.column("plunnecke ok"))

    def test_poa_table(self):
        (table,) = run_experiment("poa-diameter", "quick")
        ratios = [float(x) for x in table.column("PoA / diameter")]
        # The constant-factor band: all ratios within a decade.
        assert max(ratios) / min(ratios) < 10

    def test_alpha_transfer_table(self):
        (table,) = run_experiment("alpha-transfer", "quick")
        assert all(table.column("all within bound"))

    def test_equilibrium_cost_tables(self):
        tables = run_experiment("equilibrium-cost", "quick")
        assert len(tables) == 2
        for col in ("rebuild seconds", "batched seconds"):
            secs = [float(x) for x in tables[0].column(col)]
            assert all(s > 0 for s in secs)

    def test_variant_census_table(self):
        (table,) = run_experiment("variant-census", "quick")
        objectives = set(table.column("objective"))
        # Base objectives plus both variant families reach the census.
        assert {"sum", "max"} <= objectives
        assert any(o.startswith("interest-") for o in objectives)
        assert any(o.startswith("budget-") for o in objectives)
        # Converged endpoints pass the model-aware audit: wherever runs
        # converged, the verified count matches.
        for row in table.rows:
            assert row[4] == row[3]  # "#verified eq" == "#converged"
