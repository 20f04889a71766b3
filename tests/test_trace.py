import contextlib
import gc
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditmix.cli import main
from banditmix.config import ExperimentConfig, load_config
from banditmix.registry import ArmRegistry
from banditmix.runner import TRACE_FILENAME, run_experiment
from banditmix.simworld import WorldParams, build_world
from banditmix.trace import (
    EXPORT_KINDS,
    TraceRecord,
    TraceWriter,
    Window,
    export_plot_data,
    iter_trace,
    save_world_checkpoint,
    summarize,
)

from test_golden import CONFIGS, cases, golden_config
from trace_oracles import export_records, json_reader, read_trace, run_records, summarize_records, v2_lines

NAMES = ("a", "b", "c")


def make_record(step, p=(0.2, 0.3, 0.5), q=(0.0, 0.0, 0.0), counts=(1, 2, 3), rewards=None):
    return TraceRecord(
        step=step,
        probabilities=tuple(p),
        q=tuple(q),
        learning_rate=0.01,
        cumulative_counts=tuple(counts),
        rewards=rewards,
    )


class TestRecordSerialization:
    def test_round_trip_identity(self, tmp_path):
        first = make_record(1, counts=(1, 1, 1))
        rec = make_record(2, q=(0.5, 0.0, 0.0), counts=(1, 2, 3), rewards=(0.1, 0.2, 0.3))
        path = write_lines(tmp_path / "t.jsonl", v2_lines([first, rec]), {**HEADER, "total_steps": 2})
        assert read_trace(path)[1] == [first, rec]

    def test_rewards_key_omitted_when_absent(self):
        obj = json.loads(v2_lines([make_record(1)])[0])
        assert "rewards" not in obj

    def test_floats_survive_json_exactly(self, tmp_path):
        # json uses repr for floats, which round-trips doubles losslessly
        ugly = (0.1 + 0.2, 1.0 / 3.0, 2.0**-40)
        rec = make_record(1, p=(ugly[0] / sum(ugly), ugly[1] / sum(ugly), ugly[2] / sum(ugly)))
        path = write_lines(tmp_path / "t.jsonl", v2_lines([rec]), {**HEADER, "total_steps": 1})
        assert read_trace(path)[1][0].probabilities == rec.probabilities

    def test_many_records_round_trip(self, rng, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = []
        counts = np.zeros(3, dtype=int)
        with TraceWriter(path, NAMES, seed=9, config_hash="deadbeefcafe", total_steps=10_000) as writer:
            for step in range(1, 10_001):
                raw = rng.dirichlet(np.ones(3))
                draws = rng.integers(1, 10, size=3)
                counts += draws
                rec = make_record(
                    step,
                    p=tuple(raw.tolist()),
                    q=tuple(rng.normal(size=3).tolist()),
                    counts=tuple(int(c) for c in counts),
                )
                writer.write(*one_step(rec, draws))
                records.append(rec)
        header, back = read_trace(path)
        assert header["seed"] == 9
        assert header["config_hash"] == "deadbeefcafe"
        assert header["arm_names"] == list(NAMES)
        assert back == records


class TestRecordType:
    def test_fields_and_defaults(self):
        assert TraceRecord._fields == ("step", "probabilities", "q", "learning_rate", "cumulative_counts", "rewards")
        record = TraceRecord(1, (0.5, 0.5), (0.0, 0.0), 0.1, (4, 4))
        assert record.rewards is None
        # A record is a plain tuple of its fields, and equals one.
        assert record == (1, (0.5, 0.5), (0.0, 0.0), 0.1, (4, 4), None)

    @pytest.mark.parametrize("case", cases())
    def test_read_records_equal_the_run_records(self, case, tmp_path):
        world, policy, seed = case.split("/")
        result = run_experiment(golden_config(world, policy), seed=int(seed), out_dir=tmp_path)
        _, records = read_trace(tmp_path / TRACE_FILENAME)
        assert records == run_records(result)
        assert {type(r) for r in records} == {TraceRecord}


def one_step(record, draws):
    """``TraceWriter.write``'s arguments for a window of the one record."""
    window = Window(record.step, record.step, record.probabilities, record.q, record.q, record.rewards)
    return window, np.array([draws]), [record.learning_rate]


def window_of(first, last, rewards=None):
    """A window of steps ``first`` to ``last`` with its draws and rates."""
    window = Window(first, last, (0.2, 0.3, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), rewards)
    draws = np.arange(first, last + 1)[:, None] * np.ones(3, dtype=np.int64)
    return window, draws, [0.01] * (last - first + 1)


class TestTraceWriter:
    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=2) as writer:
            writer.write(*window_of(1, 2))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "banditmix-trace"
        assert first["schema_version"] == 2
        assert first["total_steps"] == 2

    def test_steps_must_strictly_increase(self, tmp_path):
        # One step at a time from 1 to total_steps: a line's draws add to the
        # line before's, so the reader rejects a gap, and so does the writer.
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=5) as writer:
            for first, last in ((2, 4), (0, 4)):
                with pytest.raises(ValueError, match=rf"strictly increasing, one at a time, to 5; got {first} to 4 after 0$"):
                    writer.write(*window_of(first, last))
            writer.write(*window_of(1, 3))
            for first, last in ((2, 5), (3, 5), (5, 5), (4, 6)):
                with pytest.raises(ValueError, match=rf"strictly increasing, one at a time, to 5; got {first} to {last} after 3$"):
                    writer.write(*window_of(first, last))
            writer.write(*window_of(4, 5))
        assert [r.step for r in read_trace(path)[1]] == [1, 2, 3, 4, 5]

    def test_window_must_not_end_before_it_starts(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc", total_steps=3) as writer:
            window, _, _ = window_of(3, 3)
            with pytest.raises(ValueError, match="ends at step 2, before its first step 3"):
                writer.write(window._replace(last=2), np.empty((0, 3), dtype=np.int64), [])

    def test_arm_arity_checked(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc", total_steps=2) as writer:
            window, counts, rates = window_of(1, 2)
            for field in ("probabilities", "q", "q_after"):
                with pytest.raises(ValueError, match=f"window {field} must have 3 entries"):
                    writer.write(window._replace(**{field: (0.5, 0.5)}), counts, rates)

    def test_rewards_arity_checked(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, ("a", "b"), seed=1, config_hash="abc", total_steps=1) as writer:
            window = Window(1, 1, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0), (0.1, 0.2, 0.3))
            with pytest.raises(ValueError, match="rewards must have 2 entries"):
                writer.write(window, np.array([[1, 1]]), [0.1])
            writer.write(window._replace(rewards=(0.1, 0.2)), np.array([[1, 1]]), [0.1])
        _, records = read_trace(path)
        assert [r.rewards for r in records] == [(0.1, 0.2)]

    @pytest.mark.parametrize(
        "counts, rates, message",
        [
            (np.ones((3, 3), dtype=np.int64), [0.01] * 2, r"counts must be \(2, 3\) integers"),
            (np.ones((2, 2), dtype=np.int64), [0.01] * 2, r"counts must be \(2, 3\) integers"),
            (np.ones(6, dtype=np.int64), [0.01] * 2, r"counts must be \(2, 3\) integers"),
            (np.ones((2, 3)), [0.01] * 2, r"counts must be \(2, 3\) integers, got float64"),
            (np.ones((2, 3), dtype=bool), [0.01] * 2, r"counts must be \(2, 3\) integers, got bool"),
            (np.ones((2, 3), dtype=np.int64), [0.01], "rates must be 2 floats"),
            (np.ones((2, 3), dtype=np.int64), [0.01] * 3, "rates must be 2 floats"),
            (np.ones((2, 3), dtype=np.int64), ["0.1", "0.1"], "rates must be 2 floats"),
            (np.ones((2, 3), dtype=np.int64), [1, 2], "rates must be 2 floats"),
        ],
    )
    def test_columns_checked(self, tmp_path, counts, rates, message):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=2) as writer:
            window, _, _ = window_of(1, 2)
            with pytest.raises(ValueError, match=message):
                writer.write(window, counts, rates)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_write_requires_open(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc", total_steps=1)
        with pytest.raises(ValueError, match="not open"):
            writer.write(*window_of(1, 1))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=1) as writer:
            writer.write(*window_of(1, 1))
        assert path.exists()

    def test_lines_equal_json_dumps_of_each_record(self, tmp_path):
        # Windows of one and several steps, rows shared between windows and
        # fresh but equal ones, a row that changes and changes back, rewards
        # set and unset, non-finite floats in rows, rewards and rates.  A line
        # holds each row that is not the same object as the line before's.
        p1, p2 = (0.2, 0.3, 0.5), (0.1, float("nan"), 0.9)
        q1, q2 = (0.0, float("inf"), -0.25), (1e-300, 2.5e17, -0.0)
        nan_rewards = (0.5, float("nan"), -1.0)
        windows = [
            (Window(1, 2, p1, q1, q1, None), [[1, 2, 3], [2, 3, 4]], [0.01, 0.01]),
            (Window(3, 3, tuple(list(p1)), tuple(list(q1)), q1, nan_rewards), [[3, 4, 5]], [float("-inf")]),
            (Window(4, 5, p2, q1, q2, (1.0, 2.0, 3.0)), [[4, 5, 6], [5, 6, 7]], [0.02, float("nan")]),
            (Window(6, 8, p1, q2, q1, None), [[6, 7, 8], [7, 8, 9], [8, 9, 10]], [0.04, 0.05, float("inf")]),
        ]
        lines = [
            # The first line holds every row.
            {"step": 1, "probabilities": p1, "q": q1, "learning_rate": 0.01, "draws": [1, 2, 3]},
            # A plain line.
            {"step": 2, "learning_rate": 0.01, "draws": [2, 3, 4]},
            # An equal row that is a new object is written again; the q of a
            # one-step window is its q_after, here the row before.
            {"step": 3, "probabilities": p1, "learning_rate": float("-inf"), "draws": [3, 4, 5], "rewards": nan_rewards},
            {"step": 4, "probabilities": p2, "learning_rate": 0.02, "draws": [4, 5, 6]},
            # An update line.
            {"step": 5, "q": q2, "learning_rate": float("nan"), "draws": [5, 6, 7], "rewards": (1.0, 2.0, 3.0)},
            {"step": 6, "probabilities": p1, "learning_rate": 0.04, "draws": [6, 7, 8]},
            {"step": 7, "learning_rate": 0.05, "draws": [7, 8, 9]},
            {"step": 8, "q": q1, "learning_rate": float("inf"), "draws": [8, 9, 10]},
        ]
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=8) as writer:
            for window, draws, rates in windows:
                writer.write(window, np.array(draws), rates)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [json.dumps(obj) for obj in lines]

    def test_lines_reach_the_file_on_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=3) as writer:
            writer.write(*window_of(1, 2))
            assert len(path.read_text(encoding="utf-8").splitlines()) == 1
            writer.flush()
            assert len(path.read_text(encoding="utf-8").splitlines()) == 3
            writer.write(*window_of(3, 3))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4

    def test_rejected_record_leaves_no_line(self, tmp_path):
        # A row json cannot encode fails the whole window, whichever of its
        # lines the row belongs to; none of them reaches the file.
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=4) as writer:
            writer.write(*window_of(1, 1))
            window, counts, rates = window_of(2, 4, rewards=(0.1, 0.2, 0.3))
            for field in ("probabilities", "q", "q_after", "rewards"):
                with pytest.raises(TypeError):
                    writer.write(window._replace(**{field: (0.0, np.float32(1.0), 0.0)}), counts, rates)
                writer.flush()
            writer.write(window, counts, rates)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["step"] for line in lines] == [1, 2, 3, 4]


HEADER = {"kind": "banditmix-trace", "schema_version": 2, "arm_names": list(NAMES), "seed": 0, "config_hash": "x", "total_steps": 3}


def write_lines(path, lines, header=HEADER, end="\n"):
    path.write_text("\n".join([json.dumps(header), *lines]) + end, encoding="utf-8")
    return path


def record_lines(n):
    return v2_lines([make_record(step) for step in range(1, n + 1)])


class TestReadTrace:
    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other", "schema_version": 1}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_wrong_schema_version(self, tmp_path):
        # A schema v1 trace is refused like one of any other version.
        for version in (99, 1):
            path = write_lines(tmp_path / f"v{version}.jsonl", record_lines(3), {**HEADER, "schema_version": version})
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported schema version {version}$"):
                read_trace(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_out_of_order_records(self, tmp_path):
        lines = record_lines(2)
        path = write_lines(tmp_path / "bad.jsonl", [*lines, lines[0]])
        with pytest.raises(ValueError, match=r":4: record steps must be strictly increasing$"):
            read_trace(path)


def assert_no_unclosed_file(action):
    """Run ``action``, collect garbage, and fail on any ResourceWarning.

    An error ``action`` raises is re-raised after the check as a fresh
    error of the same type and message: the original's tracebacks, its own
    and its context's, would keep their frames, and their files, alive.
    """
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            action()
        except Exception as e:
            error = type(e)(str(e))
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == [], [str(w.message) for w in leaks]
    if error is not None:
        raise error


class TestIterTrace:
    def test_yields_what_read_trace_returns(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", record_lines(3))
        header, records = iter_trace(path)
        assert header == HEADER
        assert list(records) == read_trace(path)[1] == [make_record(step) for step in range(1, 4)]

    def test_header_is_checked_before_returning(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other", "schema_version": 1}) + "\n")
        with pytest.raises(ValueError, match="not a trace file"):
            assert_no_unclosed_file(lambda: iter_trace(path))

    def test_records_are_parsed_one_line_at_a_time(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [*record_lines(2), "not json"])
        _, records = iter_trace(path)
        assert [r.step for r in (next(records), next(records))] == [1, 2]
        with pytest.raises(ValueError, match=r":4: bad record"):
            next(records)

    @pytest.mark.parametrize("consumed", [0, 1, 3])
    def test_dropping_the_iterator_closes_the_file(self, tmp_path, consumed):
        path = write_lines(tmp_path / "t.jsonl", record_lines(3))

        def partly_read():
            _, records = iter_trace(path)
            for _ in range(consumed):
                next(records)

        assert_no_unclosed_file(partly_read)

    def test_a_bad_record_closes_the_file(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [*record_lines(2), "{}"])
        with pytest.raises(ValueError):
            assert_no_unclosed_file(lambda: read_trace(path))

    def test_a_consumer_raising_closes_the_file(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", record_lines(3))

        def export_too_few_arms():
            header, records = iter_trace(path)
            export_records(records, "q_over_time", tuple(header["arm_names"][:2]))

        with pytest.raises(ValueError, match="expected 2"):
            assert_no_unclosed_file(export_too_few_arms)

    def test_leak_check_sees_an_unclosed_file(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [])
        with pytest.raises(AssertionError, match="unclosed file"):
            assert_no_unclosed_file(lambda: path.open(encoding="utf-8"))


RECORD_3 = {**json.loads(record_lines(1)[0]), "step": 3}

# A line that is not a record -> what the reader says after "bad record: ".
BAD_LINES = {
    "not json": ('{"step": 3,', "not JSON (Expecting property name enclosed in double quotes at char 12)"),
    "not an object": ("[1, 2, 3]", "'list' object has no attribute 'get'"),
    "missing key": (
        json.dumps({k: v for k, v in RECORD_3.items() if k != "learning_rate"}),
        "missing key 'learning_rate'",
    ),
    "null value": (json.dumps({**RECORD_3, "learning_rate": None}), "learning_rate must be a number, got None"),
    "string rate": (json.dumps({**RECORD_3, "learning_rate": "0.1"}), "learning_rate must be a number, got '0.1'"),
    "boolean rate": (json.dumps({**RECORD_3, "learning_rate": True}), "learning_rate must be a number, got True"),
    "string in row": (json.dumps({**RECORD_3, "q": ["z", None, 0.0]}), "q must hold only numbers, got ['z', None, 0.0]"),
    "null in row": (json.dumps({**RECORD_3, "probabilities": [0.5, None, 0.5]}), "probabilities must hold only numbers, got [0.5, None, 0.5]"),
    "boolean in row": (json.dumps({**RECORD_3, "q": [0.0, True, 0.0]}), "q must hold only numbers, got [0.0, True, 0.0]"),
    "string count": (json.dumps({**RECORD_3, "draws": ["7", 1, 2]}), "draws must hold only integers, got ['7', 1, 2]"),
    "null count": (json.dumps({**RECORD_3, "draws": [None, 1, 2]}), "draws must hold only integers, got [None, 1, 2]"),
    "null draws": (json.dumps({**RECORD_3, "draws": None}), "draws must be a list, got None"),
    "string reward": (json.dumps({**RECORD_3, "rewards": [0.1, "0.2", 0.3]}), "rewards must hold only numbers, got [0.1, '0.2', 0.3]"),
    "bad integer": (json.dumps({**RECORD_3, "step": "three"}), "step must be an integer, got 'three'"),
    "float step": (json.dumps({**RECORD_3, "step": 3.5}), "step must be an integer, got 3.5"),
    "boolean step": (json.dumps({**RECORD_3, "step": True}), "step must be an integer, got True"),
    "string row": (json.dumps({**RECORD_3, "q": "zz"}), "q must be a list, got 'zz'"),
    "object row": (json.dumps({**RECORD_3, "probabilities": {"a": 1.0}}), "probabilities must be a list, got {'a': 1.0}"),
    "string rewards": (json.dumps({**RECORD_3, "rewards": "zz"}), "rewards must be a list or null, got 'zz'"),
}


class TestReaderErrors:
    @pytest.mark.parametrize("line, detail", list(BAD_LINES.values()), ids=list(BAD_LINES))
    def test_bad_line_names_file_and_line(self, tmp_path, line, detail):
        path = write_lines(tmp_path / "t.jsonl", [*record_lines(2), line])
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:4: bad record: {detail}')}"):
            read_trace(path)

    @pytest.mark.parametrize("cut", [1, 20, None])
    def test_last_line_without_newline_is_truncated(self, tmp_path, cut):
        # A killed writer leaves a last line without its newline, whether it
        # is cut mid-record or only the newline is missing; both are
        # reported rather than parsed.
        lines = record_lines(3)
        path = write_lines(tmp_path / "t.jsonl", [*lines[:2], lines[2][:cut]], end="")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: truncated record$"):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(HEADER)[:30], encoding="utf-8")
        with pytest.raises(ValueError, match=r":1: truncated header$"):
            read_trace(path)

    @pytest.mark.parametrize("names", ["missing", "abc", [1, 2]])
    def test_header_arm_names_must_be_strings(self, tmp_path, names):
        header = {**HEADER, "arm_names": names}
        if names == "missing":
            del header["arm_names"]
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":1: bad header: arm_names must be a list of strings$"):
            read_trace(path)

    def test_header_number_past_int_digit_limit(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(HEADER).replace('"total_steps": 3', '"total_steps": ' + "1" * 5000) + "\n")
        with pytest.raises(ValueError, match=r"^" + re.escape(f"{path}:1: bad header: Exceeds the limit")):
            read_trace(path)

    def test_bad_header_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":1: bad header: not JSON \(Expecting property name enclosed in double quotes at char 1\)$"):
            read_trace(path)


V2_FIRST = {"step": 1, "probabilities": [0.2, 0.3, 0.5], "q": [0.0, 0.0, 0.0], "learning_rate": 0.01, "draws": [1, 2, 3]}


def v2_line(step, **fields):
    return json.dumps({"step": step, "learning_rate": 0.01, "draws": [1, 1, 1], **fields})


# A second v2 line that is not a record -> what the reader says after "bad record: ".
BAD_V2_LINES = {
    "float draw": (v2_line(2, draws=[4.7, 1, 2]), "draws must hold only integers, got [4.7, 1, 2]"),
    "boolean draw": (v2_line(2, draws=[1, True, 2]), "draws must hold only integers, got [1, True, 2]"),
    "short draws": (v2_line(2, draws=[1, 2]), "draws must have 3 entries, got [1, 2]"),
    "draws not a list": (v2_line(2, draws=7), "draws must be a list, got 7"),
    "counts for draws": (
        json.dumps({"step": 2, "learning_rate": 0.01, "cumulative_counts": [2, 3, 4]}),
        "missing key 'draws'",
    ),
    "string in a new row": (v2_line(2, q=["z", 0.0, 0.0]), "q must hold only numbers, got ['z', 0.0, 0.0]"),
}


class TestV2Reader:
    def test_rows_carry_over_as_the_same_tuple(self, tmp_path):
        lines = [json.dumps(V2_FIRST), v2_line(2, q=[0.5, 0.0, 0.0], rewards=[1.0, 2.0, 3.0]), v2_line(3, draws=[0, 2, 6])]
        path = write_lines(tmp_path / "t.jsonl", lines)
        _, records = read_trace(path)
        assert [r.cumulative_counts for r in records] == [(1, 2, 3), (2, 3, 4), (2, 5, 10)]
        assert records[2].probabilities is records[1].probabilities is records[0].probabilities
        assert records[2].q is records[1].q == (0.5, 0.0, 0.0)
        assert [r.rewards for r in records] == [None, (1.0, 2.0, 3.0), None]

    @pytest.mark.parametrize("line, detail", list(BAD_V2_LINES.values()), ids=list(BAD_V2_LINES))
    def test_bad_line_names_file_and_line(self, tmp_path, line, detail):
        path = write_lines(tmp_path / "t.jsonl", [json.dumps(V2_FIRST), line, v2_line(3)])
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:3: bad record: {detail}')}$"):
            read_trace(path)

    @pytest.mark.parametrize("key", ["probabilities", "q"])
    def test_first_line_must_hold_every_row(self, tmp_path, key):
        first = {k: v for k, v in V2_FIRST.items() if k != key}
        path = write_lines(tmp_path / "t.jsonl", [json.dumps(first), v2_line(2), v2_line(3)])
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:2: bad record: missing key {key!r}')}$"):
            read_trace(path)

    @pytest.mark.parametrize(
        "steps, lineno, message",
        [
            ([1, 3], 3, "step 3 after step 1 of a 3-step trace"),
            ([2], 2, "step 2 after step 0 of a 3-step trace"),
            ([1, 2, 3, 4], 5, "step 4 after step 3 of a 3-step trace"),
            ([1, 1], 3, "record steps must be strictly increasing"),
        ],
    )
    def test_steps_run_one_to_total_without_a_gap(self, tmp_path, steps, lineno, message):
        lines = [json.dumps({**V2_FIRST, "step": steps[0]}), *(v2_line(s) for s in steps[1:])]
        path = write_lines(tmp_path / "t.jsonl", lines)
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{lineno}: {message}')}$"):
            read_trace(path)

    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_short_trace_raises_after_its_last_record(self, tmp_path, kept):
        lines = [json.dumps(V2_FIRST), v2_line(2), v2_line(3)][:kept]
        path = write_lines(tmp_path / "t.jsonl", lines)
        _, records = iter_trace(path)
        read = []
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: truncated trace: {kept} of 3 steps')}$"):
            read.extend(records)
        assert [r.step for r in read] == list(range(1, kept + 1))

    @pytest.mark.parametrize("total", ["missing", None, -1, 2.0, True, "3"])
    def test_header_total_steps_must_be_a_nonnegative_integer(self, tmp_path, total):
        header = {**HEADER, "total_steps": total}
        if total == "missing":
            del header["total_steps"]
            total = None
        path = write_lines(tmp_path / "t.jsonl", [], header)
        message = f":1: bad header: total_steps must be a nonnegative integer, got {total!r}"
        with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
            read_trace(path)

    def test_zero_step_trace_reads_empty(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [], {**HEADER, "total_steps": 0})
        assert read_trace(path) == ({**HEADER, "total_steps": 0}, [])

    @pytest.mark.parametrize("key", ["probabilities", "q", "draws", "rewards"])
    def test_first_line_rows_must_have_an_entry_per_arm(self, tmp_path, key):
        # With no line before it, only the header's arm_names can tell that
        # the first line's rows are short; the line after matches them.
        first = {**V2_FIRST, "rewards": [0.1, 0.2, 0.3], key: [1, 2]}
        lines = [json.dumps(first), v2_line(2, draws=[1, 2]), v2_line(3, draws=[1, 2])]
        path = write_lines(tmp_path / "t.jsonl", lines)
        message = f"{path}:2: bad record: {key} must have 3 entries, got [1, 2]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace(path)


# A line that ``json.loads`` reads otherwise than as one object ending at the
# newline -> what the reader gives for a trace with it as line 3: records
# (None), or the end of its error.
EDGE_LINES = {
    "leading spaces": ("   " + v2_line(2), None),
    "trailing spaces": (v2_line(2) + " \t ", None),
    "whitespace only": ("  \t ", ":4: step 3 after step 1 of a 3-step trace"),
    "extra object": (v2_line(2) + v2_line(2), f":3: bad record: not JSON (Extra data at char {len(v2_line(2))})"),
    "extra text": (v2_line(2) + " x", f":3: bad record: not JSON (Extra data at char {len(v2_line(2)) + 1})"),
    "byte-order mark": (
        "\ufeff" + v2_line(2), ":3: bad record: not JSON (Unexpected UTF-8 BOM (decode using utf-8-sig) at char 0)"
    ),
    "bare number": ("3", ":3: bad record: 'int' object has no attribute 'get'"),
    "NaN in q": (v2_line(2, q=[float("nan"), 0.0, 0.0]), None),
}


def read_outcome(path, json_only=False):
    """The records of a trace, as text so that NaNs compare, or its error;
    with ``json_only``, every line is read by ``json``."""
    with json_reader() if json_only else contextlib.nullcontext():
        try:
            return repr(read_trace(path)[1])
        except Exception as e:
            return str(e)


@pytest.mark.parametrize("line, ending", list(EDGE_LINES.values()), ids=list(EDGE_LINES))
def test_decoder_fast_path_reads_like_json_loads(tmp_path, monkeypatch, line, ending):
    """The reader decodes a line with the scanner alone only when one object
    ends at its newline, so every line reads as ``json.loads`` reads it."""
    path = write_lines(tmp_path / "t.jsonl", [json.dumps(V2_FIRST), line, v2_line(3)])
    outcome = read_outcome(path)

    class LoadsOnly(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            raise json.JSONDecodeError("no fast path", s, idx)

    # ``json.loads`` keeps its own decoder; only the reader's scanner goes.
    monkeypatch.setattr(json, "JSONDecoder", LoadsOnly)
    assert outcome == read_outcome(path)
    if ending is None:
        assert outcome.startswith("[TraceRecord(step=1,") and outcome.count("TraceRecord(") == 3
    else:
        assert outcome == f"{path}{ending}"


@pytest.fixture(scope="module")
def tulu_trace(tmp_path_factory):
    """The trace of the default tulu run (bandit, 5,143 steps)."""
    out = tmp_path_factory.mktemp("tulu")
    run_experiment(load_config(CONFIGS / "tulu_default.json"), out_dir=out)
    return out / TRACE_FILENAME


def test_default_tulu_trace_is_under_1_mb(tulu_trace):
    # 4.82 MB in schema v1, which wrote every row on every line.
    assert tulu_trace.stat().st_size < 1_000_000


def test_trace_cut_at_a_line_boundary(tulu_trace, tmp_path):
    # Every line of the cut trace is whole, so only the header's total_steps
    # can tell it from a shorter run.
    _, records = read_trace(tulu_trace)
    lines = tulu_trace.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:-1000]), encoding="utf-8")
    _, cut_records = iter_trace(cut)
    read = []
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cut))}: truncated trace: 4143 of 5143 steps$"):
        read.extend(cut_records)
    assert read == records[:4143]


# Each export kind and the record field it prints.
EXPORT_FIELDS = [("proportions_over_time", "probabilities"), ("instance_coverage", "cumulative_counts"), ("q_over_time", "q")]


@pytest.mark.parametrize("case", cases())
def test_v2_trace_reads_and_exports_like_the_v1_trace(case, tmp_path, capsys):
    """A run's v2 trace reads to its records, and every export prints those
    records' rows one at a time, as a schema v1 trace, which held every row
    on every line, once printed them."""
    world, policy, seed = case.split("/")
    result = run_experiment(golden_config(world, policy), seed=int(seed), out_dir=tmp_path)
    v2 = tmp_path / TRACE_FILENAME
    header, records = read_trace(v2)
    assert records == run_records(result)
    assert header["total_steps"] == len(records)
    for kind, field in EXPORT_FIELDS:
        assert main(["export", "--trace", str(v2), "--kind", kind]) == 0
        rows = "".join(f"{r.step}," + ",".join(map(str, getattr(r, field))) + "\n" for r in records)
        assert capsys.readouterr().out == "step," + ",".join(header["arm_names"]) + "\n" + rows


class TestSummarize:
    def registry(self):
        return ArmRegistry.from_counts({"a": 100, "b": 200, "c": 400})

    def test_coverage_from_final_counts(self):
        records = [make_record(1, counts=(10, 20, 40)), make_record(2, counts=(50, 50, 100))]
        summary = summarize_records(records, self.registry(), seed=0, config_hash="x")
        assert summary.coverage_ratio == (0.5, 0.25, 0.25)
        assert summary.steps == 2

    def test_mean_step_tv(self):
        records = [
            make_record(1, p=(0.2, 0.3, 0.5)),
            make_record(2, p=(0.3, 0.3, 0.4)),
            make_record(3, p=(0.3, 0.3, 0.4)),
        ]
        summary = summarize_records(records, self.registry(), seed=0, config_hash="x")
        # one move of 0.1 then no move, averaged
        assert summary.mean_step_tv == pytest.approx(0.05, abs=1e-15)

    def test_single_record_has_zero_tv(self):
        summary = summarize_records([make_record(1)], self.registry(), seed=0, config_hash="x")
        assert summary.mean_step_tv == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize_records([], self.registry(), seed=0, config_hash="x")


def dense_mean_tv(rows):
    """The step-to-step TV over every consecutive pair of rows."""
    if len(rows) < 2:
        return 0.0
    probs = np.asarray(rows, dtype=np.float64)
    return float(np.mean(0.5 * np.sum(np.abs(np.diff(probs, axis=0)), axis=1)))


@settings(deadline=None, max_examples=300)
@given(
    k=st.integers(1, 16),
    steps=st.integers(1, 300),
    change_odds=st.sampled_from([0.0, 0.02, 0.2, 1.0]),
    copy_odds=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=16, steps=5143, change_odds=0.02, copy_odds=0.0, seed=0)
def test_sparse_mean_tv_equals_dense(k, steps, change_odds, copy_odds, seed):
    """The TV taken at change points equals the TV over every step pair, bit
    for bit, for runs of shared rows, rows equal in value but not the same
    object, and change points that change nothing."""
    rng = np.random.default_rng(seed)
    registry = ArmRegistry.from_counts({f"a{i}": 100 + i for i in range(k)})
    rows, changes = [], []
    for i in range(steps):
        if not rows or rng.random() < change_odds:
            row = tuple(rng.dirichlet(np.ones(k)).tolist())
            changes.append((i, row))
        elif rng.random() < copy_odds:
            # Equal in value, a new object: a trace read back from disk.
            row = tuple(list(rows[-1]))
            if rng.random() < 0.5:
                changes.append((i, row))
        else:
            row = rows[-1]
        rows.append(row)
    records = [
        make_record(i + 1, p=row, q=(0.0,) * k, counts=(i,) * k) for i, row in enumerate(rows)
    ]
    expected = dense_mean_tv(rows)
    by_records = summarize_records(records, registry, seed=0, config_hash="x")
    by_columns = summarize(
        (steps - 1,) * k, changes, steps, registry, seed=0, config_hash="x"
    )
    assert by_records.mean_step_tv.hex() == expected.hex()
    assert by_columns == by_records


class TestExport:
    def make_records(self):
        return [
            make_record(1, p=(0.2, 0.3, 0.5), q=(0.0, 0.1, 0.2), counts=(2, 3, 5)),
            make_record(2, p=(0.25, 0.25, 0.5), q=(0.1, 0.1, 0.2), counts=(4, 6, 10)),
        ]

    def export(self, tmp_path, kind, records=None, names=NAMES):
        """``export_plot_data`` of a trace of ``records``, by default ``make_records``."""
        records = self.make_records() if records is None else records
        header = {**HEADER, "arm_names": list(names), "total_steps": len(records)}
        return export_plot_data(write_lines(tmp_path / "t.jsonl", v2_lines(records), header), kind)

    def test_kinds_table(self):
        assert EXPORT_KINDS == ("proportions_over_time", "instance_coverage", "q_over_time")

    def test_proportions_rows_sum_to_one(self, tmp_path):
        text = self.export(tmp_path, "proportions_over_time")
        lines = text.strip().splitlines()
        assert lines[0] == "step,a,b,c"
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(sum(float(c) for c in cells[1:]) - 1.0) <= 1e-9

    def test_float_cells_reparse_exactly(self, tmp_path):
        records = [make_record(1, p=(1.0 / 3, 1.0 / 3, 1.0 - 2.0 / 3))]
        text = self.export(tmp_path, "proportions_over_time", records)
        cells = text.strip().splitlines()[1].split(",")
        assert float(cells[1]) == 1.0 / 3

    def test_coverage_kind_uses_counts(self, tmp_path):
        text = self.export(tmp_path, "instance_coverage")
        assert text.strip().splitlines()[1] == "1,2,3,5"

    def test_q_kind(self, tmp_path):
        text = self.export(tmp_path, "q_over_time")
        assert text.startswith("step,a,b,c\n")
        assert ",0.1," in text.splitlines()[2]

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown export kind 'heatmap'"):
            self.export(tmp_path, "heatmap")

    def test_arity_mismatch_rejected(self, tmp_path):
        # The header names the columns, and a row of another length is a bad line.
        with pytest.raises(ValueError, match=r":2: bad record: probabilities must have 2 entries"):
            self.export(tmp_path, "q_over_time", names=("a", "b"))

    def test_cells_equal_repr_of_floats_and_str_of_ints(self, tmp_path):
        # The cells once came from ``repr`` for floats and ``str`` for the
        # rest; ``str`` alone must print the same text for what a trace holds.
        nan, inf = float("nan"), float("inf")
        windows = [
            (Window(1, 2, (-0.0, nan, inf), (1e-300, 2.5e17, 3), (-inf, -7, 0.1), (nan, 0, -2.5e-17)),
             [[0, 2**40, 7], [1, 2**62, 9]]),
            (Window(3, 3, (0.5, 0, 1e22), (-0.0, 1e16, 5e-324), (-0.0, 1e16, 5e-324), None), [[2, 2**62, 10]]),
        ]
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=3) as writer:
            for window, counts in windows:
                writer.write(window, np.array(counts), [0.01] * len(counts))
        _, records = read_trace(path)
        for kind, field in EXPORT_FIELDS:
            old = "".join(
                f"{r.step}," + ",".join(repr(v) if isinstance(v, float) else str(v) for v in getattr(r, field)) + "\n"
                for r in records
            )
            assert export_plot_data(path, kind) == "step,a,b,c\n" + old
        assert {type(v) for r in records for v in r.q} == {int, float}

    @pytest.mark.parametrize("tuples", [1, 2])
    def test_equal_rows_print_their_own_text(self, tmp_path, tuples):
        # Consecutive rows equal in value but not in text: export reuses a
        # row's cells only for the same tuple, never for an equal one.  The
        # equal rows of steps 3 and 4 are one tuple, which the line of step 4
        # carries over, or two, which it writes again.
        rows = [(1, 0.0, 0.5), (1.0, -0.0, 0.5), (1, 0.0, 0.5)]
        records = [make_record(i, p=row, q=row[::-1], counts=(i, i, i)) for i, row in enumerate(rows, 1)]
        p, q = records[-1].probabilities, records[-1].q
        if tuples == 2:
            p, q = tuple(list(p)), tuple(list(q))
        records.append(make_record(4, p=p, q=q, counts=(4, 4, 4)))
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=0, config_hash="x", total_steps=4) as writer:
            for r in records:
                writer.write(*one_step(r, [1, 1, 1]))
        _, back = read_trace(path)
        assert (back[3].probabilities is back[2].probabilities) == (back[3].q is back[2].q) == (tuples == 1)
        expected = {
            "proportions_over_time": ["1,1,0.0,0.5", "2,1.0,-0.0,0.5", "3,1,0.0,0.5", "4,1,0.0,0.5"],
            "q_over_time": ["1,0.5,0.0,1", "2,0.5,-0.0,1.0", "3,0.5,0.0,1", "4,0.5,0.0,1"],
        }
        for kind, lines in expected.items():
            assert export_plot_data(path, kind).splitlines()[1:] == lines


class TestWorldCheckpoint:
    def test_round_trip(self, tmp_path):
        world = build_world(
            WorldParams(noise_scale=0.3),
            3,
            np.random.default_rng(1),
            np.random.default_rng(2),
        )
        path = tmp_path / "world.json"
        save_world_checkpoint(path, world.state_dict())
        assert json.loads(path.read_text(encoding="utf-8")) == world.state_dict()

    @pytest.mark.parametrize("existing", [None, "old\n"])
    def test_write_raising_midway_leaves_no_partial_file(self, tmp_path, existing):
        path = tmp_path / "world.json"
        if existing is not None:
            path.write_text(existing, encoding="utf-8")
        # json streams the list into the temp file, past its buffer, before
        # it reaches the value it cannot encode.
        state = {"values": list(range(20_000)), "bad": object()}
        with pytest.raises(TypeError):
            save_world_checkpoint(path, state)
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if existing is None else ["world.json"])
        if existing is not None:
            assert path.read_text(encoding="utf-8") == existing

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "world.json"
        path.write_text("old\n", encoding="utf-8")
        save_world_checkpoint(path, {"a": [1.5, 2]})
        assert path.read_text(encoding="utf-8") == json.dumps({"a": [1.5, 2]}, indent=2) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["world.json"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_trace_schema():
    """The header keys and record fields the README's trace section names."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Trace format") :]
    section = section[: section.index("\n## ", 1)]
    header = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    fields = re.findall(r"^- `(\w+)`:", section, re.M)
    return set(header), fields


def test_readme_trace_schema_matches_a_real_trace(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "bandit": {"total_steps": 6, "update_interval": 3, "batch_size": 4},
            "registry": {"arms": [["a", 10], ["b", 20]]},
        }
    )
    run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / TRACE_FILENAME).read_text(encoding="utf-8").splitlines()
    header_keys, fields = readme_trace_schema()
    assert header_keys == set(json.loads(lines[0]))
    keys = [list(json.loads(line)) for line in lines[1:]]

    def shape(*left_out):
        return [f for f in fields if f not in left_out]

    # The first line, a plain line, an update line, and the first line of
    # the window after it, which holds the new distribution.
    assert keys[:4] == [
        shape("rewards"),
        shape("probabilities", "q", "rewards"),
        shape("probabilities"),
        shape("q", "rewards"),
    ]
    assert fields == ["step", "probabilities", "q", "learning_rate", "draws", "rewards"]
