"""Census resume hardening: config headers, atomic rewrites, torn streams.

The three failure modes fixed in ISSUE 3, each pinned by a regression test:

1. resuming with a *different configuration* used to pass validation
   (seeds derive from grid position, so ``(n, family, seed)`` matched) and
   silently mixed records from different games — now the JSONL embeds a
   run-config header and both the header and every resumed record are
   validated, raising on any mismatch;
2. the prefix rewrite used to ``open("w")`` the live file before writing —
   a crash in the window between truncate and rewrite lost the entire
   streamed fleet; the rewrite now goes through a ``.tmp`` sidecar and
   ``os.replace``, so a crash at any instant leaves either the old file or
   the complete new prefix;
3. an undecodable line *mid-file* used to be treated like a torn tail —
   every record after it was silently discarded and recomputed; it now
   fails loudly (only a torn *final* line is dropped).
"""

import json
from dataclasses import replace

import pytest

import repro.io.jsonl_store as store_mod
from repro.core.census import CENSUS_CONFIG_KEY, CensusRecord, census_experiment
from repro.experiments import run_fleet

KWARGS = dict(
    n_values=[8], families=("tree", "sparse"), replicates=2, root_seed=3,
)


def experiment(**overrides):
    return census_experiment(**{**KWARGS, **overrides})


def read_prefix(path):
    return experiment().make_store(path).read_prefix()


@pytest.fixture()
def full_run(tmp_path):
    """An uninterrupted streamed census run -> (records, path, text)."""
    path = tmp_path / "census.jsonl"
    records = run_fleet(experiment(), jsonl_path=path)
    return records, path, path.read_text()


class TestHeader:
    def test_first_line_is_config_header(self, full_run):
        _, path, text = full_run
        header = json.loads(text.splitlines()[0])
        assert header[CENSUS_CONFIG_KEY] == 1
        assert header["objective"] == "sum"
        assert header["schedule"] == "round_robin"
        assert header["responder"] == "best"
        assert header["n_values"] == [8]
        assert header["families"] == ["tree", "sparse"]
        assert header["replicates"] == 2
        assert header["root_seed"] == 3

    def test_read_prefix_roundtrips_header_and_records(self, full_run):
        records, path, _ = full_run
        header, parsed = read_prefix(path)
        assert header is not None and header["objective"] == "sum"
        assert parsed == records

    def test_resume_of_complete_run_recomputes_nothing(self, full_run):
        records, path, text = full_run

        def boom(task):  # any recompute would crash the resume
            raise AssertionError("resume recomputed a finished trajectory")

        resumed = run_fleet(
            replace(experiment(), point_fn=boom), jsonl_path=path, resume=True
        )
        assert resumed == records
        assert path.read_text() == text


class TestConfigMismatch:
    @pytest.mark.parametrize(
        "override",
        [
            {"objective": "max"},
            {"objective": "budget-sum:cap=3"},
            {"schedule": "random"},
            {"responder": "first"},
            {"max_steps": 777},
            {"audit_mode": "rebuild"},
            {"verify": False},
            {"replicates": 3},
            {"root_seed": 4},
        ],
    )
    def test_resume_with_changed_config_raises(self, full_run, override):
        _, path, text = full_run
        with pytest.raises(ValueError, match="resume mismatch"):
            run_fleet(experiment(**override), jsonl_path=path, resume=True)
        # The refused resume must not have touched the stream.
        assert path.read_text() == text

    def test_legacy_headerless_file_is_refused(self, full_run, tmp_path):
        # A pre-header file cannot prove its max_steps/verify/audit_mode —
        # the exact silent-mixing bug the header closes — so resume refuses
        # it outright rather than validating the fields it can see.
        records, path, text = full_run
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("\n".join(text.splitlines()[1:]) + "\n")
        with pytest.raises(ValueError, match="no run-config header"):
            run_fleet(experiment(), jsonl_path=legacy, resume=True)
        # Adopting the file by prepending the matching header works.
        legacy.write_text(text.splitlines()[0] + "\n" + legacy.read_text())
        assert run_fleet(experiment(), jsonl_path=legacy, resume=True) == records

    def test_header_pasted_onto_foreign_records_is_caught(
        self, full_run, tmp_path
    ):
        # The per-record check backs the header up: a matching header glued
        # onto records from a different game still raises.
        _, path, text = full_run
        lines = text.splitlines()
        foreign = json.loads(lines[1])
        foreign["objective"] = "max"
        lines[1] = json.dumps(foreign)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="resume mismatch"):
            run_fleet(experiment(), jsonl_path=path, resume=True)


class TestAtomicRewrite:
    def test_crash_mid_rewrite_loses_no_records(self, full_run, monkeypatch):
        """Die while rewriting the prefix: the original stream survives."""
        records, path, text = full_run
        # Interrupt the original run: keep the header and half the records.
        lines = text.splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        interrupted = path.read_text()

        real_write = store_mod.write_records
        calls = {"n": 0}

        def dying_write(sink, recs):
            recs = list(recs)
            if calls["n"] == 0 and recs:
                calls["n"] += 1
                real_write(sink, recs[:1])
                raise RuntimeError("simulated crash mid-rewrite")
            real_write(sink, recs)

        monkeypatch.setattr(store_mod, "write_records", dying_write)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_fleet(experiment(), jsonl_path=path, resume=True)
        # The live file is byte-identical to the pre-crash state; the torn
        # half-written prefix only ever existed in the .tmp sidecar.
        assert path.read_text() == interrupted
        monkeypatch.undo()

        resumed = run_fleet(experiment(), jsonl_path=path, resume=True)
        assert resumed == records
        assert path.read_text() == text

    def test_crash_between_truncate_and_rewrite_window_is_gone(
        self, full_run, monkeypatch
    ):
        """Die exactly at the swap: either old bytes or the full new prefix."""
        records, path, text = full_run

        def no_replace(src, dst):
            raise RuntimeError("simulated crash before os.replace")

        # The atomic swap lives in the shared store since ISSUE 4.
        monkeypatch.setattr(store_mod.os, "replace", no_replace)
        with pytest.raises(RuntimeError, match="before os.replace"):
            run_fleet(experiment(), jsonl_path=path, resume=True)
        assert path.read_text() == text  # untouched
        monkeypatch.undo()
        assert run_fleet(experiment(), jsonl_path=path, resume=True) == records

    def test_torn_tail_resume_is_lossless(self, full_run):
        records, path, text = full_run
        # Tear the final line mid-byte, as a crash mid-append would.
        path.write_text(text[: len(text) - 40])
        resumed = run_fleet(experiment(), jsonl_path=path, resume=True)
        assert resumed == records
        assert path.read_text() == text


class TestMidFileTear:
    def test_mid_file_garbage_raises_instead_of_discarding(self, full_run):
        _, path, text = full_run
        lines = text.splitlines()
        lines[2] = lines[2][:11]  # tear a line that is NOT the last
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt mid-file"):
            run_fleet(experiment(), jsonl_path=path, resume=True)

    def test_mid_file_wrong_shape_json_raises(self, full_run):
        _, path, text = full_run
        lines = text.splitlines()
        lines[2] = json.dumps({"not": "a record"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not a census record"):
            run_fleet(experiment(), jsonl_path=path, resume=True)

    def test_read_prefix_drops_only_final_torn_line(self, full_run):
        records, path, text = full_run
        lines = text.splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:17])
        header, parsed = read_prefix(path)
        assert header is not None
        assert parsed == records[:-1]

    def test_read_prefix_drops_complete_json_with_torn_fields_at_eof(
        self, full_run
    ):
        records, path, text = full_run
        lines = text.splitlines()
        lines[-1] = json.dumps({"n": 8})  # valid JSON, not a full record
        path.write_text("\n".join(lines) + "\n")
        header, parsed = read_prefix(path)
        assert parsed == records[:-1]


class TestRecordCompat:
    def test_records_roundtrip_through_jsonl(self, full_run):
        records, path, _ = full_run
        _, parsed = read_prefix(path)
        assert all(isinstance(r, CensusRecord) for r in parsed)
        assert parsed == records
