"""End-to-end tests for ``repro experiment list/run/resume/status``."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.io.jsonl_store import FleetFailure, summarize_stream

TINY = ["--n", "8", "--families", "tree", "--replicates", "2",
        "--max-steps", "2000", "--root-seed", "3"]


def run_tiny(out, *extra):
    return main(["experiment", "run", "census", *TINY,
                 "--workers", "1", *extra, "--out", str(out)])


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("census", "trajectory", "bench-census-scaling",
                     "bench-trajectory-scaling"):
            assert name in out


class TestRun:
    def test_run_streams_and_reports(self, tmp_path, capsys):
        out = tmp_path / "census.jsonl"
        assert run_tiny(out) == 0
        text = capsys.readouterr().out
        assert "running 2 task(s)" in text
        assert "done in" in text
        summary = summarize_stream(out)
        assert summary.results == 2
        assert summary.header["census_config"] is not None

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "run", "nope"])

    def test_run_resume_flag_continues(self, tmp_path, capsys):
        out = tmp_path / "census.jsonl"
        assert run_tiny(out) == 0
        full = out.read_bytes()
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:2]))
        capsys.readouterr()
        assert run_tiny(out, "--resume") == 0
        assert "resuming" in capsys.readouterr().out
        assert out.read_bytes() == full

    def test_census_slots_checkpoint(self, tmp_path):
        out, ckpt = tmp_path / "census.jsonl", tmp_path / "ckpt"
        assert run_tiny(out) == 0
        clean = out.read_bytes()
        assert run_tiny(out, "--checkpoint-dir", str(ckpt),
                        "--checkpoint-every", "1") == 0
        assert out.read_bytes() == clean
        assert list(ckpt.iterdir()) == []

    def test_retry_failed_without_resume_rejected(self, tmp_path):
        # --retry-failed heals a streamed prefix; without --resume there is
        # none, and the stream must not be rewritten from scratch.
        out = tmp_path / "census.jsonl"
        assert run_tiny(out) == 0
        full = out.read_bytes()
        with pytest.raises(ConfigurationError, match="needs resume=True"):
            run_tiny(out, "--retry-failed")
        assert out.read_bytes() == full


class TestStatus:
    def test_missing_stream_reports_not_started(self, tmp_path, capsys):
        code = main(["experiment", "status", "census",
                     "--out", str(tmp_path / "none.jsonl")])
        assert code == 1
        assert "not started" in capsys.readouterr().out

    def test_complete_stream_reports_complete(self, tmp_path, capsys):
        out = tmp_path / "census.jsonl"
        run_tiny(out)
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "progress: 2/2 slots (2 results, 0 quarantined)" in text
        assert "complete" in text

    def test_partial_stream_prints_resume_command(self, tmp_path, capsys):
        out = tmp_path / "census.jsonl"
        run_tiny(out)
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[:2]))
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "progress: 1/2 slots" in text
        assert (f"python -m repro.cli experiment resume census "
                f"--n 8 --families tree --replicates 2") in text
        assert "--retry-failed" not in text

    def test_quarantined_slot_surfaced_with_retry_command(
        self, tmp_path, capsys
    ):
        out = tmp_path / "census.jsonl"
        run_tiny(out)
        lines = out.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        failure = FleetFailure(
            coords={"n": record["n"], "family": record["family"],
                    "seed": record["seed"], "objective": "sum"},
            error="InjectedFault('boom')",
            attempts=3,
        )
        lines[1] = json.dumps(failure.encode()) + "\n"
        out.write_text("".join(lines))
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "1 quarantined" in text
        assert "quarantined slots:" in text
        assert "InjectedFault('boom')" in text
        assert "--retry-failed" in text
        assert "experiment resume census" in text

    def test_foreign_stream_rejected(self, tmp_path, capsys):
        out = tmp_path / "other.jsonl"
        out.write_text(json.dumps({"other_config": 1}) + "\n")
        assert main(["experiment", "status", "census",
                     "--out", str(out)]) == 1
        assert "not a census stream" in capsys.readouterr().out


class TestResumeVerb:
    def test_resume_retry_failed_clears_quarantine(self, tmp_path, capsys):
        from repro.core.census import census_experiment

        out = tmp_path / "census.jsonl"
        run_tiny(out)
        full = out.read_bytes()
        lines = out.read_text().splitlines(keepends=True)
        exp = census_experiment(
            [8], families=("tree",), replicates=2,
            root_seed=3, max_steps=2000,
        )
        failure = FleetFailure(
            coords=exp.task_coords(exp.compile_tasks()[0]),
            error="InjectedFault('boom')",
            attempts=3,
        )
        lines[1] = json.dumps(failure.encode()) + "\n"
        out.write_text("".join(lines))
        capsys.readouterr()
        assert main(["experiment", "resume", "census", *TINY,
                     "--workers", "1", "--retry-failed",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == full
        assert summarize_stream(out).failures == []


class TestStatusJson:
    def _quarantine_slot_1(self, out, checkpoint=None):
        lines = out.read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        failure = FleetFailure(
            coords={"n": record["n"], "family": record["family"],
                    "seed": record["seed"], "objective": "sum"},
            error="DeadlineExceeded('budget spent')",
            attempts=1,
            checkpoint=checkpoint,
        )
        lines[1] = json.dumps(failure.encode()) + "\n"
        out.write_text("".join(lines))
        return failure

    def test_complete_stream_emits_machine_readable_report(
        self, tmp_path, capsys
    ):
        out = tmp_path / "census.jsonl"
        run_tiny(out)
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "experiment": "census",
            "stream": str(out),
            "total": 2,
            "completed": 2,
            "results": 2,
            "quarantined": 0,
            "torn_tail": False,
            "complete": True,
            "failures": [],
        }

    def test_quarantined_slot_reports_live_checkpoint_progress(
        self, tmp_path, capsys
    ):
        from repro.io.checkpoint import CheckpointStore

        out = tmp_path / "census.jsonl"
        run_tiny(out)
        ckpt_path = tmp_path / "slot-00001.ckpt"
        CheckpointStore(ckpt_path).save(
            {"state": "opaque"}, {"v": 1},
            meta={"steps": 9, "activations": 4},
        )
        # The recorded block is stale (steps=2); status must re-peek the
        # live file and report steps=9.
        self._quarantine_slot_1(
            out, checkpoint={"path": str(ckpt_path), "steps": 2}
        )
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["quarantined"] == 1
        assert report["complete"] is False
        (slot,) = report["failures"]
        assert slot["attempts"] == 1
        assert "DeadlineExceeded" in slot["error"]
        assert slot["checkpoint"] == {
            "path": str(ckpt_path), "steps": 9, "activations": 4,
        }

    def test_vanished_checkpoint_falls_back_to_recorded_block(
        self, tmp_path, capsys
    ):
        out = tmp_path / "census.jsonl"
        run_tiny(out)
        gone = tmp_path / "gone.ckpt"
        self._quarantine_slot_1(
            out, checkpoint={"path": str(gone), "steps": 2}
        )
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out), "--json"]) == 0
        (slot,) = json.loads(capsys.readouterr().out)["failures"]
        assert slot["checkpoint"] == {"path": str(gone), "steps": 2}

    def test_human_status_prints_checkpoint_line(self, tmp_path, capsys):
        from repro.io.checkpoint import CheckpointStore

        out = tmp_path / "census.jsonl"
        run_tiny(out)
        ckpt_path = tmp_path / "slot-00001.ckpt"
        CheckpointStore(ckpt_path).save(
            {"state": "opaque"}, {"v": 1}, meta={"steps": 9},
        )
        self._quarantine_slot_1(out, checkpoint={"path": str(ckpt_path)})
        capsys.readouterr()
        assert main(["experiment", "status", "census",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "checkpointed: steps=9" in text
        assert str(ckpt_path) in text

    def test_missing_stream_error_is_json_too(self, tmp_path, capsys):
        assert main(["experiment", "status", "census",
                     "--out", str(tmp_path / "none.jsonl"),
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["experiment"] == "census"
        assert "not started" in report["error"]
