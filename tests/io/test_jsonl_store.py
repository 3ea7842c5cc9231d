"""JsonlStore contract tests: headers, torn lines, atomic rewrites.

The census-specific behaviours (grid validation, crash windows under
``run_fleet``) stay pinned in ``tests/core/test_census_resume.py`` /
``test_trajcensus.py``; these tests pin the factored-out store itself on a
minimal record type, so a future stream (a third census) can rely on the
contract without re-reading the census code.
"""

import io
import json
from dataclasses import dataclass

import pytest

from repro.io import JsonlStore
from repro.io.jsonl_store import (
    FleetFailure,
    StreamSummary,
    maybe_decode_failure,
    summarize_stream,
    write_records,
)


@dataclass
class Item:
    a: int
    b: str


def make_store(path, config=None):
    return JsonlStore(
        path,
        config_key="item_config",
        config_version=1,
        config=config or {"mode": "x", "count": 3},
        decode=lambda obj: Item(**obj),
        record_name="item record",
    )


RECORDS = [Item(1, "one"), Item(2, "two"), Item(3, "three")]


@pytest.fixture()
def stream(tmp_path):
    path = tmp_path / "items.jsonl"
    store = make_store(path)
    store.rewrite_prefix(RECORDS)
    return store, path


class TestWriteRecords:
    def test_one_json_object_per_record_of_every_kind(self):
        failure = FleetFailure(coords={"a": 4}, error="x", attempts=2)
        sink = io.StringIO()
        write_records(sink, [Item(1, "one"), {"a": 2}, failure])
        lines = sink.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"a": 1, "b": "one"}, {"a": 2}, failure.encode(),
        ]

    def test_flushes_the_sink_once_per_batch(self):
        class Sink(io.StringIO):
            flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        sink = Sink()
        write_records(sink, [Item(1, "one"), Item(2, "two")])
        assert sink.flushes == 1
        write_records(sink, [])
        assert sink.flushes == 2
        assert len(sink.getvalue().splitlines()) == 2

    def test_store_looks_the_serializer_up_at_call_time(
        self, stream, monkeypatch
    ):
        # Crash-window tests patch the module attribute; both write paths
        # of an already-built store must see the patch.
        import repro.io.jsonl_store as store_mod

        store, _ = stream
        seen = []

        def spy(sink, records):
            records = list(records)
            seen.append(records)
            write_records(sink, records)

        monkeypatch.setattr(store_mod, "write_records", spy)
        with store.open_append() as sink:
            store.append(sink, [Item(4, "four")])
        store.rewrite_prefix(RECORDS)
        assert seen == [[Item(4, "four")], RECORDS]
        assert store.read_prefix()[1] == RECORDS


class TestRoundTrip:
    def test_header_then_records(self, stream):
        store, path = stream
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {
            "item_config": 1, "mode": "x", "count": 3,
        }
        header, records = store.read_prefix()
        assert header["item_config"] == 1
        assert records == RECORDS

    def test_header_bytes_are_config_key_then_config(self, stream):
        # The marker key leads and nothing else joins the header, so the
        # census streams keep their exact bytes.
        _, path = stream
        first = path.read_text().splitlines()[0]
        assert first == json.dumps({"item_config": 1, "mode": "x", "count": 3})

    def test_append_streams_in_order(self, stream):
        store, path = stream
        with store.open_append() as sink:
            store.append(sink, [Item(4, "four")])
        _, records = store.read_prefix()
        assert records == RECORDS + [Item(4, "four")]

    def test_resume_records_validates_and_returns(self, stream):
        store, _ = stream
        assert store.resume_records() == RECORDS

    def test_resume_records_empty_when_no_file(self, tmp_path):
        store = make_store(tmp_path / "absent.jsonl")
        assert store.resume_records() == []


class TestTornLines:
    def test_torn_final_line_dropped(self, stream):
        store, path = stream
        path.write_text(path.read_text()[:-15])
        _, records = store.read_prefix()
        assert records == RECORDS[:-1]

    def test_wrong_shape_final_line_dropped(self, stream):
        store, path = stream
        lines = path.read_text().splitlines()
        lines[-1] = json.dumps({"a": 9})  # valid JSON, torn fields
        path.write_text("\n".join(lines) + "\n")
        _, records = store.read_prefix()
        assert records == RECORDS[:-1]

    def test_mid_file_garbage_raises(self, stream):
        store, path = stream
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:7]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt mid-file"):
            store.read_prefix()

    def test_mid_file_wrong_shape_raises_with_record_name(self, stream):
        store, path = stream
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({"not": "an item"})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not a item record"):
            store.read_prefix()


class TestHeaderValidation:
    def test_config_change_raises(self, stream):
        _, path = stream
        changed = make_store(path, {"mode": "y", "count": 3})
        with pytest.raises(ValueError, match="resume mismatch"):
            changed.resume_records()

    def test_version_change_raises(self, stream):
        _, path = stream
        store = make_store(path)
        store.config_version = 2
        store.header["item_config"] = 2
        with pytest.raises(ValueError, match="header version"):
            store.resume_records()

    def test_headerless_file_refused(self, stream):
        store, path = stream
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(ValueError, match="no run-config header"):
            store.resume_records()


class TestStaleTmpSidecar:
    def test_start_stream_removes_stale_tmp(self, stream):
        store, path = stream
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("half-written garbage from a crashed rewrite")
        done = store.start_stream(resume=True, count=len(RECORDS))
        assert done == RECORDS
        assert not tmp.exists()

    def test_stale_tmp_never_shadows_main_file(self, stream):
        # The main file is authoritative: a stale sidecar from a crash
        # mid-rewrite must not affect what resume reads.
        store, path = stream
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps({"a": 99, "b": "bogus"}) + "\n")
        assert store.start_stream(resume=True, count=99) == RECORDS


class TestDurability:
    # Every batch is flushed, so there is no "none" cadence to select.
    @pytest.mark.parametrize("durability", ["eventually", "none"])
    def test_invalid_durability_rejected(self, tmp_path, durability):
        with pytest.raises(ValueError, match="durability"):
            JsonlStore(
                tmp_path / "x.jsonl",
                config_key="k",
                config_version=1,
                config={},
                decode=lambda obj: Item(**obj),
                durability=durability,
            )

    @pytest.mark.parametrize("durability", ["flush", "fsync"])
    def test_append_round_trips_under_every_cadence(
        self, tmp_path, durability
    ):
        path = tmp_path / "items.jsonl"
        store = JsonlStore(
            path,
            config_key="item_config",
            config_version=1,
            config={"mode": "x", "count": 3},
            decode=lambda obj: Item(**obj),
            durability=durability,
        )
        store.rewrite_prefix([])
        with store.open_append() as sink:
            store.append(sink, RECORDS[:2])
            store.append(sink, RECORDS[2:])
        _, records = store.read_prefix()
        assert records == RECORDS

    def test_fsync_cadence_syncs_per_batch(self, stream, monkeypatch):
        store, _ = stream
        store.durability = "fsync"
        synced = []
        import repro.io.jsonl_store as store_mod

        monkeypatch.setattr(
            store_mod.os, "fsync", lambda fd: synced.append(fd)
        )
        with store.open_append() as sink:
            store.append(sink, [Item(4, "four")])
            store.append(sink, [Item(5, "five")])
        # Two syncs per batch under the fsync cadence: the stream file and
        # its parent directory (a fresh file's directory entry is not
        # crash-durable until the directory itself is synced).
        assert len(synced) == 4


class TestAtomicRewrite:
    def test_crash_at_replace_leaves_old_file(self, stream, monkeypatch):
        store, path = stream
        before = path.read_text()

        import repro.io.jsonl_store as store_mod

        def no_replace(src, dst):
            raise RuntimeError("simulated crash before os.replace")

        monkeypatch.setattr(store_mod.os, "replace", no_replace)
        with pytest.raises(RuntimeError, match="before os.replace"):
            store.rewrite_prefix(RECORDS[:1])
        assert path.read_text() == before

    def test_rewrite_replaces_content_completely(self, stream):
        store, path = stream
        store.rewrite_prefix(RECORDS[:1])
        _, records = store.read_prefix()
        assert records == RECORDS[:1]


class TestFleetFailure:
    def test_encode_decode_round_trip(self):
        f = FleetFailure(
            coords={"n": 8, "family": "tree", "seed": 3},
            error="ValueError('boom')",
            attempts=3,
        )
        assert maybe_decode_failure(f.encode()) == f

    def test_result_record_decodes_to_none(self):
        assert maybe_decode_failure({"a": 1, "b": "one"}) is None

    def test_torn_marked_line_raises_typeerror(self):
        # The decode contract read_prefix relies on: marked but torn lines
        # must raise TypeError (-> torn-tail policy applies).
        with pytest.raises(TypeError):
            maybe_decode_failure({"fleet_failure": 1, "coords": {}})

    def test_quarantine_line_streams_and_resumes(self, stream):
        store, _ = stream
        failure = FleetFailure(
            coords={"a": 4}, error="InjectedFault('x')", attempts=2
        )
        wrapped_decode = store._decode
        store._decode = (
            lambda obj: maybe_decode_failure(obj) or wrapped_decode(obj)
        )
        with store.open_append() as sink:
            store.append(sink, [failure])
        _, records = store.read_prefix()
        assert records == RECORDS + [failure]


class TestStreamSummary:
    def test_summary_counts_results(self, stream):
        _, path = stream
        summary = summarize_stream(path)
        assert isinstance(summary, StreamSummary)
        assert summary.path == path
        assert summary.header == {"item_config": 1, "mode": "x", "count": 3}
        assert summary.results == 3
        assert summary.failures == []
        assert not summary.torn_tail
        assert summary.completed == 3

    def test_summary_classifies_quarantine_lines(self, stream):
        _, path = stream
        failure = FleetFailure(
            coords={"a": 4}, error="InjectedFault('x')", attempts=2
        )
        with path.open("a") as sink:
            sink.write(json.dumps(failure.encode()) + "\n")
        summary = summarize_stream(path)
        assert summary.results == 3
        assert summary.failures == [failure]
        assert summary.completed == 4

    def test_summary_reports_torn_tail(self, stream):
        _, path = stream
        path.write_text(path.read_text()[:-15])
        summary = summarize_stream(path)
        assert summary.torn_tail
        assert summary.results == 2

    def test_summary_raises_on_mid_file_tear(self, stream):
        _, path = stream
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:7]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt mid-file"):
            summarize_stream(path)

    def test_headerless_stream_summarizes_with_none_header(self, stream):
        _, path = stream
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        summary = summarize_stream(path)
        assert summary.header is None
        assert summary.results == 3

    def test_summarize_needs_no_record_schema(self, stream):
        # status must work on any stream without importing its decoder.
        _, path = stream
        summary = summarize_stream(path)
        assert summary.results == 3
