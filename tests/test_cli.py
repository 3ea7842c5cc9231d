"""CLI tests."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4-torus" in out
        assert "thm15-cayley" in out

    def test_run_prints_tables(self, capsys):
        assert main(["run", "fig3-diameter3"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 5" in out
        assert "repaired witness" in out
        assert "completed in" in out

    def test_run_writes_csv(self, tmp_path, capsys):
        assert main(
            ["run", "poa-diameter", "--csv", str(tmp_path)]
        ) == 0
        files = list(tmp_path.glob("poa-diameter--*.csv"))
        assert files
        header = files[0].read_text().splitlines()[0]
        assert "PoA" in header

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_has_no_workers_option(self, capsys):
        # The service audits serially; a pool-size flag is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
