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
    TraceWriter,
    Window,
    export_plot_data,
    iter_trace,
    save_world_checkpoint,
    summarize,
)

from test_golden import CONFIGS, cases, golden_config
from trace_oracles import TraceRecord, export_outcome, export_records, read_trace, recorded_run, run_records, summarize_records, window_records

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


def one_step(record, draws):
    """``TraceWriter.write``'s arguments for a window of the one record."""
    window = Window(record.step, record.step, record.probabilities, record.q, record.q, record.rewards)
    return window, np.array([draws]), [record.learning_rate]


def window_of(first, last, rewards=None):
    """A window of steps ``first`` to ``last`` with its draws and rates."""
    window = Window(first, last, (0.2, 0.3, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), rewards)
    draws = np.arange(first, last + 1)[:, None] * np.ones(3, dtype=np.int64)
    return window, draws, [0.01] * (last - first + 1)


def write_windows(path, windows, names=NAMES):
    """A trace of ``(window, draws, rates)`` triples, written by ``TraceWriter``."""
    total = windows[-1][0].last if windows else 0
    with TraceWriter(path, names, seed=0, config_hash="x", total_steps=total) as writer:
        for window, draws, rates in windows:
            writer.write(window, np.array(draws), rates)
    return path


def write_records(path, records, names=NAMES):
    """A trace of ``records``, each as a one-step window whose draws are its
    counts less the record before's."""
    windows, before = [], (0,) * len(names)
    for r in records:
        windows.append(one_step(r, [c - b for c, b in zip(r.cumulative_counts, before)]))
        before = r.cumulative_counts
    return write_windows(path, windows, names)


class TestRoundTrip:
    def test_windows_read_back_as_written(self, tmp_path):
        p1, p2 = (0.2, 0.3, 0.5), (0.1, 0.6, 0.3)
        q1, q2 = (0.0, 0.0, 0.0), (0.5, -0.25, 1e-300)
        windows = [
            (Window(1, 2, p1, q1, q1, None), [[1, 2, 3], [2, 3, 4]], [0.01, 0.02]),
            (Window(3, 3, p1, q1, q2, (0.1, 0.2, 0.3)), [[3, 4, 5]], [0.03]),
            (Window(4, 6, p2, q2, q2, None), [[0, 0, 0], [1, 0, 2], [7, 8, 9]], [0.04, 0.05, 0.06]),
        ]
        header, back = iter_trace(write_windows(tmp_path / "t.jsonl", windows))
        back = list(back)
        assert header["total_steps"] == 6
        assert back == windows
        assert {type(w) for w, _, _ in back} == {Window}
        # A row the line leaves out is the window before's tuple.
        (w1, _, _), (w2, _, _), (w3, _, _) = back
        assert w2.probabilities is w1.probabilities and w2.q is w1.q_after is w1.q
        assert w3.q is w2.q_after and w3.q_after is w3.q

    def test_rewards_key_omitted_when_absent(self, tmp_path):
        path = write_windows(tmp_path / "t.jsonl", [window_of(1, 2)])
        assert "rewards" not in json.loads(path.read_text(encoding="utf-8").splitlines()[1])

    def test_floats_survive_json_exactly(self, tmp_path):
        # json uses repr for floats, which round-trips doubles losslessly
        ugly = (0.1 + 0.2, 1.0 / 3.0, 2.0**-40)
        p = tuple(u / sum(ugly) for u in ugly)
        window = Window(1, 2, p, ugly, ugly, None)
        path = write_windows(tmp_path / "t.jsonl", [(window, [[1, 1, 1], [2, 2, 2]], [ugly[0], ugly[2]])])
        assert list(iter_trace(path)[1]) == [(window, [[1, 1, 1], [2, 2, 2]], [ugly[0], ugly[2]])]

    def test_many_windows_round_trip(self, rng, tmp_path):
        # Windows of 1 to 60 steps over 10,000 steps, a fresh distribution on
        # some, a round with rewards on others.
        windows, first = [], 1
        p = q = (1 / 3, 1 / 3, 1 / 3)
        while first <= 10_000:
            last = min(first + int(rng.integers(0, 60)), 10_000)
            m = last - first + 1
            if rng.random() < 0.3:
                p = tuple(rng.dirichlet(np.ones(3)).tolist())
            q_after, rewards = q, None
            if rng.random() < 0.5:
                q_after, rewards = tuple(rng.normal(size=3).tolist()), tuple(rng.normal(size=3).tolist())
            draws = rng.integers(0, 10, size=(m, 3)).tolist()
            windows.append((Window(first, last, p, q, q_after, rewards), draws, rng.random(m).tolist()))
            q, first = q_after, last + 1
        header, back = iter_trace(write_windows(tmp_path / "trace.jsonl", windows))
        assert header["arm_names"] == list(NAMES)
        assert list(back) == windows

    @pytest.mark.parametrize("case", cases())
    def test_run_reads_back_as_its_windows_and_columns(self, case, tmp_path, capsys):
        """A run's trace reads back to the run's own windows, its draws sum to
        the counts its loop trained on, its rates are those the loop handed
        the world bit for bit, and every export prints the run's records one
        at a time."""
        world, policy, seed = case.split("/")
        run = recorded_run(golden_config(world, policy), seed=int(seed), out_dir=tmp_path)
        result = run.result
        path = tmp_path / TRACE_FILENAME
        header, windows = iter_trace(path)
        windows = list(windows)
        assert tuple(w for w, _, _ in windows) == result.windows
        draws = np.concatenate([d for _, d, _ in windows])
        assert np.array_equal(np.cumsum(draws, axis=0), run.counts)
        rates = np.array([r for _, _, block in windows for r in block])
        assert rates.tobytes() == run.learning_rates.tobytes()
        records = run_records(run)
        assert header["total_steps"] == len(records)
        assert read_trace(path)[1] == records
        for kind, field in EXPORT_FIELDS:
            assert main(["export", "--trace", str(path), "--kind", kind]) == 0
            rows = "".join(f"{r.step}," + ",".join(map(str, getattr(r, field))) + "\n" for r in records)
            assert capsys.readouterr().out == "step," + ",".join(header["arm_names"]) + "\n" + rows


class TestTraceWriter:
    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=2) as writer:
            writer.write(*window_of(1, 2))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "banditmix-trace"
        assert first["schema_version"] == 3
        assert first["total_steps"] == 2

    def test_steps_must_strictly_increase(self, tmp_path):
        # The windows tile steps 1 to total_steps, one after another, and the
        # reader rejects a gap; so does the writer, with the reader's message.
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=5) as writer:
            for first, last in ((2, 4), (0, 4)):
                with pytest.raises(ValueError, match=rf"^steps {first} to 4 after step 0 of a 5-step trace$"):
                    writer.write(*window_of(first, last))
            writer.write(*window_of(1, 3))
            for first, last in ((2, 5), (3, 5), (5, 5), (4, 6)):
                with pytest.raises(ValueError, match=rf"^steps {first} to {last} after step 3 of a 5-step trace$"):
                    writer.write(*window_of(first, last))
            writer.write(*window_of(4, 5))
        assert [(w.first, w.last) for w, _, _ in iter_trace(path)[1]] == [(1, 3), (4, 5)]

    def test_window_must_not_end_before_it_starts(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc", total_steps=3) as writer:
            window, _, _ = window_of(3, 3)
            with pytest.raises(ValueError, match="ends at step 2, before its first step 3"):
                writer.write(window._replace(last=2), np.empty((0, 3), dtype=np.int64), [])

    def test_arm_arity_checked(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc", total_steps=2) as writer:
            window, counts, rates = window_of(1, 2)
            for field in ("probabilities", "q", "q_after"):
                for row, message in (((0.5, 0.5), "must have 3 entries, got (0.5, 0.5)"), (None, "must be a list, got None")):
                    with pytest.raises(ValueError, match=re.escape(f"{field} {message}")):
                        writer.write(window._replace(**{field: row}), counts, rates)

    def test_rewards_arity_checked(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, ("a", "b"), seed=1, config_hash="abc", total_steps=1) as writer:
            window = Window(1, 1, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0), (0.1, 0.2, 0.3))
            with pytest.raises(ValueError, match="rewards must have 2 entries"):
                writer.write(window, np.array([[1, 1]]), [0.1])
            writer.write(window._replace(rewards=(0.1, 0.2)), np.array([[1, 1]]), [0.1])
        assert [w.rewards for w, _, _ in iter_trace(path)[1]] == [(0.1, 0.2)]

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
            (np.array([[3, -1, 0], [-5, 7, 0]]), [0.01] * 2, r"^draws must be counts >= 0, got -5$"),
        ],
    )
    def test_columns_checked(self, tmp_path, counts, rates, message):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=2) as writer:
            window, _, _ = window_of(1, 2)
            with pytest.raises(ValueError, match=message):
                writer.write(window, counts, rates)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    # What the writer once wrote and the reader refused.
    HEADER_DRIFT = {
        "arm_names": {"arm_names": (1, 2, 3)},
        "total_steps": {"total_steps": -1},
        "total_steps float": {"total_steps": 1.9},
        "seed": {"seed": 0.7},
    }
    WINDOW_DRIFT = {
        "float first": {"first": 1.0},
        "boolean first": {"first": True},
        "strings": {"q": ("a", "b", "c")},
        "nested": {"q": ((0.0,), 0.0, 0.0)},
    }

    @pytest.mark.parametrize("case", sorted(HEADER_DRIFT))
    def test_header_the_reader_refuses_is_refused(self, tmp_path, case):
        args = {"arm_names": NAMES, "seed": 1, "config_hash": "abc", "total_steps": 2, **self.HEADER_DRIFT[case]}
        with pytest.raises(ValueError, match=f"^{case.split()[0]} must be"):
            TraceWriter(tmp_path / "t.jsonl", **args)
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("case", sorted(WINDOW_DRIFT))
    def test_window_the_reader_refuses_is_refused(self, tmp_path, case):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=1) as writer:
            window, counts, rates = window_of(1, 1)
            with pytest.raises(ValueError, match="^first must be an integer|^q must hold only numbers"):
                writer.write(window._replace(**self.WINDOW_DRIFT[case]), counts, rates)
        assert path.read_text(encoding="utf-8").count("\n") == 1

    def test_write_requires_open(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc", total_steps=1)
        with pytest.raises(ValueError, match="not open"):
            writer.write(*window_of(1, 1))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=1) as writer:
            writer.write(*window_of(1, 1))
        assert path.exists()

    def test_lines_equal_json_dumps_of_each_window(self, tmp_path):
        # Windows of one and several steps, rows shared between windows and
        # fresh but equal ones, a row that changes and changes back, rewards
        # set and unset, non-finite floats in rows, rewards and rates.  A line
        # holds each row that is not the same object as the window before's.
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
            # The first line holds every row a window needs.
            {"first": 1, "last": 2, "probabilities": p1, "q": q1, "learning_rate": [0.01, 0.01], "draws": [[1, 2, 3], [2, 3, 4]]},
            # An equal row that is a new object is written again, and so is
            # q_after when it is not that window's q.
            {"first": 3, "last": 3, "probabilities": p1, "q": q1, "q_after": q1, "rewards": nan_rewards,
             "learning_rate": [float("-inf")], "draws": [[3, 4, 5]]},
            # q is the window before's q_after; a round changed it.
            {"first": 4, "last": 5, "probabilities": p2, "q_after": q2, "rewards": (1.0, 2.0, 3.0),
             "learning_rate": [0.02, float("nan")], "draws": [[4, 5, 6], [5, 6, 7]]},
            {"first": 6, "last": 8, "probabilities": p1, "q_after": q1,
             "learning_rate": [0.04, 0.05, float("inf")], "draws": [[6, 7, 8], [7, 8, 9], [8, 9, 10]]},
        ]
        path = write_windows(tmp_path / "t.jsonl", windows)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [json.dumps(obj) for obj in lines]

    def test_each_line_reaches_the_file_when_written(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=3) as writer:
            assert len(path.read_text(encoding="utf-8").splitlines()) == 1
            writer.write(*window_of(1, 2))
            assert len(path.read_text(encoding="utf-8").splitlines()) == 2
            writer.write(*window_of(3, 3))
            assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3

    def test_rejected_window_leaves_no_line(self, tmp_path):
        # A row of an entry the reader refuses fails the whole window,
        # whichever of its fields the row belongs to; no part of its line
        # reaches the file.
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc", total_steps=4) as writer:
            writer.write(*window_of(1, 1))
            window, counts, rates = window_of(2, 4, rewards=(0.1, 0.2, 0.3))
            window = window._replace(q_after=(0.5, 0.5, 0.5))
            for field in ("probabilities", "q", "q_after", "rewards"):
                with pytest.raises(ValueError, match=f"^{field} must hold only numbers"):
                    writer.write(window._replace(**{field: (0.0, np.float32(1.0), 0.0)}), counts, rates)
            writer.write(window, counts, rates)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [(json.loads(line)["first"], json.loads(line)["last"]) for line in lines] == [(1, 1), (2, 4)]


# Values a caller may hand the writer in place of a step or header number,
# and entries it may put in a row: what the reader takes and what it refuses.
ODD_NUMBERS = st.sampled_from([-1, 0, 2, 0.7, 1.0, 1.9, True, False])
NUMBERS = st.one_of(st.floats(), st.integers(-2, 2), st.sampled_from([2**64, -(10**400)]))
ODD_ENTRIES = st.one_of(NUMBERS, st.sampled_from([True, "z", None, [0.5], (0.5,), np.float64(0.5), np.float32(0.5)]))


def odd_or(draw, value, odd=ODD_NUMBERS):
    """``value``, or one time in six a draw of ``odd`` in its place."""
    return draw(odd) if draw(st.integers(0, 5)) == 5 else value


def writer_row(draw, k):
    """A list or tuple of ``k`` numbers, or a row that is short, long, odd or no row."""
    row = draw(st.lists(NUMBERS, min_size=k, max_size=k))
    odd = st.one_of(st.lists(ODD_ENTRIES, min_size=k - 1, max_size=k + 1).map(tuple), st.sampled_from(["ab", None]))
    return odd_or(draw, tuple(row) if draw(st.booleans()) else row, odd)


@st.composite
def writer_calls(draw):
    """``TraceWriter``'s header arguments and a run of its ``write`` arguments."""
    k = draw(st.integers(1, 3))
    names = odd_or(draw, NAMES[:k], st.lists(st.sampled_from(["a", "", "\u00e9", 1, None]), min_size=k, max_size=k))
    seed = odd_or(draw, draw(st.sampled_from([0, 7, 2**64])))
    windows, after, previous = [], 0, None
    for _ in range(draw(st.integers(0, 4))):
        first = odd_or(draw, after + 1)
        last = odd_or(draw, first + draw(st.integers(0, 1)))
        # The rows of the window before, shared as the writer shares them.
        probabilities = previous.probabilities if previous and draw(st.booleans()) else writer_row(draw, k)
        q = previous.q_after if previous and draw(st.booleans()) else writer_row(draw, k)
        q_after = q if draw(st.booleans()) else writer_row(draw, k)
        rewards = None if draw(st.booleans()) else writer_row(draw, k)
        previous = Window(first, last, probabilities, q, q_after, rewards)
        m = last - first + 1 if type(first) is type(last) is int and last >= first else 1
        windows.append((previous, np.arange(m * k).reshape(m, k), [0.01] * m))
        after = last if type(last) is int else after
    # The steps the windows tile, or one more: a trace cut short.
    total = odd_or(draw, after + draw(st.integers(0, 1)))
    return (names, seed, total), windows


@settings(max_examples=150, deadline=None)
@given(calls=writer_calls())
# A float step, which the writer once wrote and the reader refused.
@example(calls=((NAMES, 0, 1), [(window_of(1, 1)[0]._replace(first=1.0, last=1.0), np.ones((1, 3), dtype=np.int64), [0.01])]))
def test_every_trace_the_writer_writes_the_reader_reads(tmp_path_factory, calls):
    """The writer refuses a header or window and writes nothing of it, or
    ``iter_trace`` gives back the header values and windows it took."""
    (names, seed, total), windows = calls
    path = tmp_path_factory.getbasetemp() / "written.jsonl"
    path.unlink(missing_ok=True)
    try:
        writer = TraceWriter(path, names, seed=seed, config_hash="x", total_steps=total)
    except ValueError:
        assert not path.exists()
        return
    written, steps = [], 0
    with writer:
        for window, draws, rates in windows:
            lines = path.read_text(encoding="utf-8").count("\n")
            try:
                writer.write(window, draws, rates)
            except ValueError:
                assert path.read_text(encoding="utf-8").count("\n") == lines
            else:
                rows = [None if row is None else tuple(row) for row in window[2:]]
                written.append((repr(Window(window.first, window.last, *rows)), draws.tolist(), rates))
                steps = window.last
    header, read = iter_trace(path)
    want = {**HEADER, "arm_names": list(names), "seed": seed, "total_steps": total}
    # json tells 1 from 1.0 and from true.
    assert json.dumps(header, sort_keys=True) == json.dumps(want, sort_keys=True)
    got = []
    try:
        got.extend((repr(window), draws, rates) for window, draws, rates in read)
    except ValueError as e:
        assert str(e) == f"{path}: truncated trace: {steps} of {total} steps"
    assert got == written


HEADER = {"kind": "banditmix-trace", "schema_version": 3, "arm_names": list(NAMES), "seed": 0, "config_hash": "x", "total_steps": 3}
FIRST = {"first": 1, "last": 1, "probabilities": [0.2, 0.3, 0.5], "q": [0.0, 0.0, 0.0], "learning_rate": [0.01], "draws": [[1, 2, 3]]}


def write_lines(path, lines, header=HEADER, end="\n"):
    path.write_text("\n".join([json.dumps(header), *lines]) + end, encoding="utf-8")
    return path


def window_line(first, last=None, **fields):
    """The line of a window of steps ``first`` to ``last`` (``first`` alone by
    default), each with rate 0.01 and draws [1, 1, 1], then ``fields``."""
    last = first if last is None else last
    m = last - first + 1
    return json.dumps({"first": first, "last": last, "learning_rate": [0.01] * m, "draws": [[1, 1, 1]] * m, **fields})


def trace_lines(n):
    """The lines of an ``n``-step trace of one-step windows, the first holding every row."""
    return [json.dumps(FIRST), *(window_line(step) for step in range(2, n + 1))]


class TestReadTrace:
    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other", "schema_version": 3}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_wrong_schema_version(self, tmp_path):
        # A schema v1 or v2 trace is refused like one of any other version.
        for version in (99, 1, 2):
            path = write_lines(tmp_path / f"v{version}.jsonl", trace_lines(3), {**HEADER, "schema_version": version})
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported schema version {version}$"):
                read_trace(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_a_repeated_window(self, tmp_path):
        lines = trace_lines(2)
        path = write_lines(tmp_path / "bad.jsonl", [*lines, lines[0]])
        with pytest.raises(ValueError, match=r":4: steps 1 to 1 after step 2 of a 3-step trace$"):
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
    def test_yields_what_the_writer_took(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", trace_lines(3))
        header, windows = iter_trace(path)
        assert header == HEADER
        p, q = (0.2, 0.3, 0.5), (0.0, 0.0, 0.0)
        assert list(windows) == [
            (Window(1, 1, p, q, q, None), [[1, 2, 3]], [0.01]),
            (Window(2, 2, p, q, q, None), [[1, 1, 1]], [0.01]),
            (Window(3, 3, p, q, q, None), [[1, 1, 1]], [0.01]),
        ]
        assert read_trace(path)[1] == [make_record(step, counts=(step, step + 1, step + 2)) for step in range(1, 4)]

    def test_header_is_checked_before_returning(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other", "schema_version": 3}) + "\n")
        with pytest.raises(ValueError, match="not a trace file"):
            assert_no_unclosed_file(lambda: iter_trace(path))

    def test_lines_are_parsed_one_at_a_time(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [*trace_lines(2), "not json"])
        _, windows = iter_trace(path)
        assert [w.first for w, _, _ in (next(windows), next(windows))] == [1, 2]
        with pytest.raises(ValueError, match=r":4: bad record"):
            next(windows)

    @pytest.mark.parametrize("consumed", [0, 1, 3])
    def test_dropping_the_iterator_closes_the_file(self, tmp_path, consumed):
        path = write_lines(tmp_path / "t.jsonl", trace_lines(3))

        def partly_read():
            _, windows = iter_trace(path)
            for _ in range(consumed):
                next(windows)

        assert_no_unclosed_file(partly_read)

    def test_a_bad_record_closes_the_file(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [*trace_lines(2), "{}"])
        with pytest.raises(ValueError):
            assert_no_unclosed_file(lambda: read_trace(path))

    def test_a_consumer_raising_closes_the_file(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", trace_lines(3))

        def export_too_few_arms():
            header, windows = iter_trace(path)
            export_records(window_records(windows), "q_over_time", tuple(header["arm_names"][:2]))

        with pytest.raises(ValueError, match="expected 2"):
            assert_no_unclosed_file(export_too_few_arms)

    def test_leak_check_sees_an_unclosed_file(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [])
        with pytest.raises(AssertionError, match="unclosed file"):
            assert_no_unclosed_file(lambda: path.open(encoding="utf-8"))


def error_of(convert, value):
    """What ``convert(value)`` raises, as text."""
    try:
        convert(value)
    except (OverflowError, ValueError, RecursionError) as e:
        return str(e)
    pytest.skip(f"{convert.__name__} reads a {len(str(value))}-character value here")


WINDOW_3 = json.loads(window_line(3))
LONG_NUMBER = "1" * 5000
NESTED = "[" * 100_000 + "]" * 100_000


def replaced(line, key, text):
    """``line`` with the JSON value of ``key`` replaced by ``text``."""
    obj = json.loads(line)
    return json.dumps({**obj, key: "@"}).replace('"@"', text)


# A third line that is not a window -> what the reader says after "bad record: ".
BAD_LINES = {
    "not json": ('{"first": 3,', "not JSON (Expecting property name enclosed in double quotes at char 13)"),
    "whitespace only": ("  \t ", "not JSON (Expecting value at char 5)"),
    "extra object": (window_line(3) + window_line(3), f"not JSON (Extra data at char {len(window_line(3))})"),
    "extra text": (window_line(3) + " x", f"not JSON (Extra data at char {len(window_line(3)) + 1})"),
    "byte-order mark": ("\ufeff" + window_line(3), "not JSON (Unexpected UTF-8 BOM (decode using utf-8-sig) at char 0)"),
    "not an object": ("[1, 2, 3]", "list indices must be integers or slices, not str"),
    "bare number": ("3", "'int' object is not subscriptable"),
    "missing key": (
        json.dumps({k: v for k, v in WINDOW_3.items() if k != "learning_rate"}),
        "missing key 'learning_rate'",
    ),
    "counts for draws": (
        json.dumps({"first": 3, "last": 3, "learning_rate": [0.01], "cumulative_counts": [[2, 3, 4]]}),
        "missing key 'draws'",
    ),
    "bad integer": (json.dumps({**WINDOW_3, "first": "three"}), "first must be an integer, got 'three'"),
    "float step": (json.dumps({**WINDOW_3, "first": 3.5}), "first must be an integer, got 3.5"),
    "boolean step": (json.dumps({**WINDOW_3, "first": True}), "first must be an integer, got True"),
    "float last": (json.dumps({**WINDOW_3, "last": 3.0}), "last must be an integer, got 3.0"),
    "last before first": (json.dumps({**WINDOW_3, "last": 2}), "window ends at step 2, before its first step 3"),
    "null rates": (json.dumps({**WINDOW_3, "learning_rate": None}), "learning_rate must be a list, got None"),
    "a rate for a list": (json.dumps({**WINDOW_3, "learning_rate": 0.01}), "learning_rate must be a list, got 0.01"),
    "string rate": (json.dumps({**WINDOW_3, "learning_rate": ["0.1"]}), "learning_rate must hold only numbers, got ['0.1']"),
    "boolean rate": (json.dumps({**WINDOW_3, "learning_rate": [True]}), "learning_rate must hold only numbers, got [True]"),
    "rate over": (
        json.dumps({**WINDOW_3, "learning_rate": [0.01, 0.01]}), "learning_rate must have 1 entries, got [0.01, 0.01]"
    ),
    "rate short": (window_line(3, 4, learning_rate=[0.01]), "learning_rate must have 2 entries, got [0.01]"),
    "string in row": (json.dumps({**WINDOW_3, "q": ["z", None, 0.0]}), "q must hold only numbers, got ['z', None, 0.0]"),
    "null in row": (json.dumps({**WINDOW_3, "probabilities": [0.5, None, 0.5]}), "probabilities must hold only numbers, got [0.5, None, 0.5]"),
    "boolean in row": (json.dumps({**WINDOW_3, "q": [0.0, True, 0.0]}), "q must hold only numbers, got [0.0, True, 0.0]"),
    "string in q_after": (json.dumps({**WINDOW_3, "q_after": [0.0, "z", 0.0]}), "q_after must hold only numbers, got [0.0, 'z', 0.0]"),
    "null q_after": (json.dumps({**WINDOW_3, "q_after": None}), "q_after must be a list, got None"),
    "short q_after": (json.dumps({**WINDOW_3, "q_after": [0.0, 0.0]}), "q_after must have 3 entries, got [0.0, 0.0]"),
    "long row": (json.dumps({**WINDOW_3, "probabilities": [0.25] * 4}), "probabilities must have 3 entries, got [0.25, 0.25, 0.25, 0.25]"),
    "string row": (json.dumps({**WINDOW_3, "q": "zz"}), "q must be a list, got 'zz'"),
    "object row": (json.dumps({**WINDOW_3, "probabilities": {"a": 1.0}}), "probabilities must be a list, got {'a': 1.0}"),
    "string reward": (json.dumps({**WINDOW_3, "rewards": [0.1, "0.2", 0.3]}), "rewards must hold only numbers, got [0.1, '0.2', 0.3]"),
    "string rewards": (json.dumps({**WINDOW_3, "rewards": "zz"}), "rewards must be a list or null, got 'zz'"),
    "string count": (json.dumps({**WINDOW_3, "draws": [["7", 1, 2]]}), "draws must hold only integers, got ['7', 1, 2]"),
    "null count": (json.dumps({**WINDOW_3, "draws": [[None, 1, 2]]}), "draws must hold only integers, got [None, 1, 2]"),
    "float count": (json.dumps({**WINDOW_3, "draws": [[4.7, 1, 2]]}), "draws must hold only integers, got [4.7, 1, 2]"),
    "boolean count": (json.dumps({**WINDOW_3, "draws": [[1, True, 2]]}), "draws must hold only integers, got [1, True, 2]"),
    "NaN count": (json.dumps({**WINDOW_3, "draws": [[float("nan"), 1, 2]]}), "draws must hold only integers, got [nan, 1, 2]"),
    "negative count": (json.dumps({**WINDOW_3, "draws": [[3, -1, 0]]}), "draws must hold only counts >= 0, got [3, -1, 0]"),
    "negative count past int64": (
        json.dumps({**WINDOW_3, "draws": [[2**64, -(2**70), 1]]}), f"draws must hold only counts >= 0, got [{2**64}, {-(2**70)}, 1]"
    ),
    "short draws": (json.dumps({**WINDOW_3, "draws": [[1, 2]]}), "draws must have 3 entries, got [1, 2]"),
    "long draws": (json.dumps({**WINDOW_3, "draws": [[1, 2, 3, 4]]}), "draws must have 3 entries, got [1, 2, 3, 4]"),
    "null draws": (json.dumps({**WINDOW_3, "draws": None}), "draws must be a list, got None"),
    "draws not a list": (json.dumps({**WINDOW_3, "draws": 7}), "draws must be a list, got 7"),
    "draws row not a list": (json.dumps({**WINDOW_3, "draws": [7]}), "draws must be a list, got 7"),
    "a row for a block": (json.dumps({**WINDOW_3, "draws": [1, 1, 1]}), "draws must have 1 rows, got 3"),
    "no draws rows": (json.dumps({**WINDOW_3, "draws": []}), "draws must have 1 rows, got 0"),
    "draws row over": (json.dumps({**WINDOW_3, "draws": [[1, 1, 1]] * 2}), "draws must have 1 rows, got 2"),
}

# A number past what its type takes, or nesting past what the parser takes,
# in the third line -> a function giving what the reader says after "bad
# record: ".  Each once escaped the reader as a bare error naming neither
# the file nor the line.
UNREADABLE_LINES = {
    "integer rate past a float": (replaced(window_line(3), "learning_rate", f"[{10**400}]"), lambda: error_of(float, 10**400)),
    "first past int's digit limit": (replaced(window_line(3), "first", LONG_NUMBER), lambda: error_of(int, LONG_NUMBER)),
    "draw past int's digit limit": (
        replaced(window_line(3), "draws", f"[[1, {LONG_NUMBER}, 1]]"), lambda: error_of(int, LONG_NUMBER)
    ),
    "row nested 100,000 deep": (replaced(window_line(3), "q", NESTED), lambda: error_of(json.loads, NESTED)),
}


class TestReaderErrors:
    @pytest.mark.parametrize("line, detail", list(BAD_LINES.values()), ids=list(BAD_LINES))
    def test_bad_line_names_file_and_line(self, tmp_path, line, detail):
        path = write_lines(tmp_path / "t.jsonl", [*trace_lines(2), line])
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:4: bad record: {detail}')}$"):
            read_trace(path)

    @pytest.mark.parametrize("line, detail", list(UNREADABLE_LINES.values()), ids=list(UNREADABLE_LINES))
    def test_unreadable_number_or_nesting_names_file_and_line(self, tmp_path, line, detail):
        path = write_lines(tmp_path / "t.jsonl", [*trace_lines(2), line])
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:4: bad record: {detail()}')}$"):
            read_trace(path)

    @pytest.mark.parametrize("cut", [1, 20, None])
    def test_last_line_without_newline_is_truncated(self, tmp_path, cut):
        # A killed writer leaves a last line without its newline, whether it
        # is cut mid-window or only the newline is missing; both are
        # reported rather than parsed.
        lines = trace_lines(3)
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
        path.write_text(json.dumps(HEADER).replace('"total_steps": 3', '"total_steps": ' + LONG_NUMBER) + "\n")
        with pytest.raises(ValueError, match=r"^" + re.escape(f"{path}:1: bad header: Exceeds the limit")):
            read_trace(path)

    def test_header_nested_past_the_parser(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(HEADER).replace('"seed": 0', '"seed": ' + NESTED) + "\n")
        with pytest.raises(ValueError, match=r"^" + re.escape(f"{path}:1: bad header: {error_of(json.loads, NESTED)}") + "$"):
            read_trace(path)

    def test_bad_header_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":1: bad header: not JSON \(Expecting property name enclosed in double quotes at char 1\)$"):
            read_trace(path)


class TestWindowReader:
    def test_rows_carry_over_as_the_same_tuple(self, tmp_path):
        lines = [
            json.dumps(FIRST),
            window_line(2, q_after=[0.5, 0.0, 0.0], rewards=[1.0, 2.0, 3.0]),
            window_line(3, draws=[[0, 2, 6]]),
        ]
        path = write_lines(tmp_path / "t.jsonl", lines)
        (w1, _, _), (w2, _, _), (w3, _, _) = iter_trace(path)[1]
        assert w3.probabilities is w2.probabilities is w1.probabilities
        # q is the window before's q_after, and q_after is q where no round ran.
        assert w1.q_after is w1.q is w2.q
        assert w3.q is w3.q_after is w2.q_after == (0.5, 0.0, 0.0)
        assert [w.rewards for w in (w1, w2, w3)] == [None, (1.0, 2.0, 3.0), None]
        assert [r.cumulative_counts for r in read_trace(path)[1]] == [(1, 2, 3), (2, 3, 4), (2, 5, 10)]

    @pytest.mark.parametrize("key", ["probabilities", "q"])
    def test_first_line_must_hold_every_row(self, tmp_path, key):
        first = {k: v for k, v in FIRST.items() if k != key}
        path = write_lines(tmp_path / "t.jsonl", [json.dumps(first), window_line(2), window_line(3)])
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:2: bad record: missing key {key!r}')}$"):
            read_trace(path)

    @pytest.mark.parametrize(
        "windows, lineno, message",
        [
            ([(1, 1), (3, 3)], 3, "steps 3 to 3 after step 1 of a 3-step trace"),
            ([(2, 2)], 2, "steps 2 to 2 after step 0 of a 3-step trace"),
            ([(1, 2), (3, 4)], 3, "steps 3 to 4 after step 2 of a 3-step trace"),
            ([(1, 4)], 2, "steps 1 to 4 after step 0 of a 3-step trace"),
            ([(1, 1), (1, 1)], 3, "steps 1 to 1 after step 1 of a 3-step trace"),
            ([(1, 2), (2, 3)], 3, "steps 2 to 3 after step 2 of a 3-step trace"),
        ],
    )
    def test_windows_tile_one_to_total(self, tmp_path, windows, lineno, message):
        (first, last), rest = windows[0], windows[1:]
        m = last - first + 1
        lines = [json.dumps({**FIRST, "first": first, "last": last, "learning_rate": [0.01] * m, "draws": [[1, 2, 3]] * m})]
        lines += [window_line(*w) for w in rest]
        path = write_lines(tmp_path / "t.jsonl", lines)
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}:{lineno}: {message}')}$"):
            read_trace(path)

    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_short_trace_raises_after_its_last_window(self, tmp_path, kept):
        path = write_lines(tmp_path / "t.jsonl", trace_lines(3)[:kept])
        _, windows = iter_trace(path)
        read = []
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: truncated trace: {kept} of 3 steps')}$"):
            read.extend(windows)
        assert [w.first for w, _, _ in read] == list(range(1, kept + 1))

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

    @pytest.mark.parametrize("key", ["probabilities", "q", "q_after", "rewards", "draws"])
    def test_first_line_rows_must_have_an_entry_per_arm(self, tmp_path, key):
        # With no line before it, only the header's arm_names can tell that
        # the first line's rows are short; the line after matches them.
        first = {**FIRST, "q_after": [0.0, 0.0, 0.0], "rewards": [0.1, 0.2, 0.3], key: [1, 2]}
        if key == "draws":
            first[key] = [[1, 2]]
        lines = [json.dumps(first), window_line(2, draws=[[1, 2]]), window_line(3, draws=[[1, 2]])]
        path = write_lines(tmp_path / "t.jsonl", lines)
        message = f"{path}:2: bad record: {key} must have 3 entries, got [1, 2]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trace(path)

    @pytest.mark.parametrize(
        "line",
        [
            "   " + window_line(2),
            window_line(2) + " \t ",
            window_line(2).replace(", ", ",").replace(": ", ":"),
            json.dumps(dict(reversed(json.loads(window_line(2)).items()))),
        ],
        ids=["leading spaces", "trailing spaces", "no spaces", "keys in another order"],
    )
    def test_a_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        lines = trace_lines(3)
        canonical = write_lines(tmp_path / "canonical.jsonl", lines)
        other = write_lines(tmp_path / "other.jsonl", [lines[0], line, lines[2]])
        assert read_trace(other) == read_trace(canonical)
        for kind in EXPORT_KINDS:
            assert export_plot_data(other, kind) == export_plot_data(canonical, kind)

    def test_nan_in_a_row_reads_as_nan(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [json.dumps(FIRST), window_line(2, q=[float("nan"), 0.0, 0.0]), window_line(3)])
        assert export_plot_data(path, "q_over_time").splitlines()[1:] == ["1,0.0,0.0,0.0", "2,nan,0.0,0.0", "3,nan,0.0,0.0"]


@pytest.fixture(scope="module")
def tulu_trace(tmp_path_factory):
    """The trace of the default tulu run (bandit, 5,143 steps)."""
    out = tmp_path_factory.mktemp("tulu")
    run_experiment(load_config(CONFIGS / "tulu_default.json"), out_dir=out)
    return out / TRACE_FILENAME


def test_default_tulu_trace_is_under_600_kb(tulu_trace):
    # 0.72 MB in schema v2, a line per step, and 4.82 MB in schema v1, which
    # wrote every row on every line.
    assert tulu_trace.stat().st_size < 600_000


def test_trace_cut_at_a_line_boundary(tulu_trace, tmp_path):
    # Every line of the cut trace is whole, so only the header's total_steps
    # can tell it from a shorter run.
    _, windows = iter_trace(tulu_trace)
    windows = list(windows)
    lines = tulu_trace.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:-20]), encoding="utf-8")
    _, cut_windows = iter_trace(cut)
    read = []
    with pytest.raises(ValueError, match=rf"^{re.escape(str(cut))}: truncated trace: 4150 of 5143 steps$"):
        read.extend(cut_windows)
    assert read == windows[:83]


# Each export kind and the record field it prints.
EXPORT_FIELDS = [("proportions_over_time", "probabilities"), ("instance_coverage", "cumulative_counts"), ("q_over_time", "q")]


class TestSummarize:
    def summary(self, records):
        registry = ArmRegistry.from_counts({"a": 100, "b": 200, "c": 400})
        return summarize_records(records, registry, seed=0, config_hash="x", final_losses=(0.5,) * 3)

    def test_coverage_from_final_counts(self):
        records = [make_record(1, counts=(10, 20, 40)), make_record(2, counts=(50, 50, 100))]
        summary = self.summary(records)
        assert summary.coverage_ratio == (0.5, 0.25, 0.25)
        assert summary.steps == 2

    def test_mean_step_tv(self):
        records = [
            make_record(1, p=(0.2, 0.3, 0.5)),
            make_record(2, p=(0.3, 0.3, 0.4)),
            make_record(3, p=(0.3, 0.3, 0.4)),
        ]
        summary = self.summary(records)
        # one move of 0.1 then no move, averaged
        assert summary.mean_step_tv == pytest.approx(0.05, abs=1e-15)

    def test_single_record_has_zero_tv(self):
        summary = self.summary([make_record(1)])
        assert summary.mean_step_tv == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            self.summary([])


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
    """The TV taken at window starts equals the TV over every step pair, bit
    for bit, for runs of shared rows, rows equal in value but not the same
    object, and windows that change nothing."""
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
    losses = (0.5,) * k
    by_records = summarize_records(records, registry, seed=0, config_hash="x", final_losses=losses)
    ends = [i for i, _ in changes[1:]] + [steps]
    windows = [Window(i + 1, end, row, (0.0,) * k, (0.0,) * k, None) for (i, row), end in zip(changes, ends)]
    by_windows = summarize((steps - 1,) * k, windows, steps, registry, seed=0, config_hash="x", final_losses=losses)
    assert by_records.mean_step_tv.hex() == expected.hex()
    assert by_windows == by_records


class TestExport:
    def make_records(self):
        return [
            make_record(1, p=(0.2, 0.3, 0.5), q=(0.0, 0.1, 0.2), counts=(2, 3, 5)),
            make_record(2, p=(0.25, 0.25, 0.5), q=(0.1, 0.1, 0.2), counts=(4, 6, 10)),
        ]

    def export(self, tmp_path, kind, records=None):
        """``export_plot_data`` of a trace of ``records``, by default ``make_records``."""
        records = self.make_records() if records is None else records
        return export_plot_data(write_records(tmp_path / "t.jsonl", records), kind)

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
        assert text.strip().splitlines()[1:] == ["1,2,3,5", "2,4,6,10"]

    def test_q_kind(self, tmp_path):
        text = self.export(tmp_path, "q_over_time")
        assert text.startswith("step,a,b,c\n")
        assert ",0.1," in text.splitlines()[2]

    def test_q_kind_prints_q_after_at_the_last_step_only(self, tmp_path):
        q1, q2 = (0.0, 0.0, 0.0), (0.5, 0.25, 0.125)
        windows = [(Window(1, 3, (0.2, 0.3, 0.5), q1, q2, (1.0, 2.0, 3.0)), [[1, 1, 1]] * 3, [0.01] * 3)]
        windows.append((Window(4, 4, (0.2, 0.3, 0.5), q2, q1, None), [[1, 1, 1]], [0.01]))
        path = write_windows(tmp_path / "t.jsonl", windows)
        rows = ["1,0.0,0.0,0.0", "2,0.0,0.0,0.0", "3,0.5,0.25,0.125", "4,0.0,0.0,0.0"]
        assert export_plot_data(path, "q_over_time").splitlines()[1:] == rows

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown export kind 'heatmap'"):
            self.export(tmp_path, "heatmap")

    def test_arity_mismatch_rejected(self, tmp_path):
        # The header names the columns, and a row of another length is a bad line.
        path = write_records(tmp_path / "t.jsonl", self.make_records())
        header, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(json.dumps({**json.loads(header), "arm_names": ["a", "b"]}) + "\n" + rest, encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: bad record: probabilities must have 2 entries"):
            export_plot_data(path, "q_over_time")

    def test_cells_equal_repr_of_floats_and_str_of_ints(self, tmp_path):
        # The cells once came from ``repr`` for floats and ``str`` for the
        # rest; ``str`` alone must print the same text for what a trace holds.
        nan, inf = float("nan"), float("inf")
        windows = [
            (Window(1, 2, (-0.0, nan, inf), (1e-300, 2.5e17, 3), (-inf, -7, 0.1), (nan, 0, -2.5e-17)),
             [[0, 2**40, 7], [1, 2**62, 9]], [0.01] * 2),
            (Window(3, 3, (0.5, 0, 1e22), (-0.0, 1e16, 5e-324), (-0.0, 1e16, 5e-324), None), [[2, 2**62, 10]], [0.01]),
        ]
        _, records = read_trace(write_windows(tmp_path / "t.jsonl", windows))
        for kind, field in EXPORT_FIELDS:
            old = "".join(
                f"{r.step}," + ",".join(repr(v) if isinstance(v, float) else str(v) for v in getattr(r, field)) + "\n"
                for r in records
            )
            assert export_plot_data(tmp_path / "t.jsonl", kind) == "step,a,b,c\n" + old
        assert {type(v) for r in records for v in r.q} == {int, float}

    @pytest.mark.parametrize("tuples", [1, 2])
    def test_equal_rows_print_their_own_text(self, tmp_path, tuples):
        # Consecutive rows equal in value but not in text: export reuses a
        # row's cells only for the same tuple, never for an equal one.  The
        # equal rows of steps 3 and 4 are one tuple, which the line of step 4
        # leaves out, or two, which it writes again.
        rows = [(1, 0.0, 0.5), (1.0, -0.0, 0.5), (1, 0.0, 0.5)]
        records = [make_record(i, p=row, q=row[::-1], counts=(i, i, i)) for i, row in enumerate(rows, 1)]
        p, q = records[-1].probabilities, records[-1].q
        if tuples == 2:
            p, q = tuple(list(p)), tuple(list(q))
        records.append(make_record(4, p=p, q=q, counts=(4, 4, 4)))
        path = write_records(tmp_path / "t.jsonl", records)
        _, back = read_trace(path)
        assert (back[3].probabilities is back[2].probabilities) == (back[3].q is back[2].q) == (tuples == 1)
        expected = {
            "proportions_over_time": ["1,1,0.0,0.5", "2,1.0,-0.0,0.5", "3,1,0.0,0.5", "4,1,0.0,0.5"],
            "q_over_time": ["1,0.5,0.0,1", "2,0.5,-0.0,1.0", "3,0.5,0.0,1", "4,0.5,0.0,1"],
        }
        for kind, lines in expected.items():
            assert export_plot_data(path, kind).splitlines()[1:] == lines

    def test_running_totals_past_int64_stay_exact(self, tmp_path):
        # The first window's counts sit just below 2**62, past 2**64 and at
        # 2**63, a later window draws 2**31, and the windows between are
        # summed in int64 until the totals pass 2**62.
        blocks = [
            [[2**62 - 700, 2**64, 2**63]],
            [[1, 2, 3]] * 300,
            [[2**31, 0, 1], [5, 5, 5]],
            [[7, 0, 2]] * 400,
        ]
        lines, first = [], 1
        for block in blocks:
            last = first + len(block) - 1
            lines.append(window_line(first, last, draws=block))
            first = last + 1
        lines[0] = json.dumps({**json.loads(lines[0]), **{k: FIRST[k] for k in ("probabilities", "q")}})
        path = write_lines(tmp_path / "t.jsonl", lines, {**HEADER, "total_steps": first - 1})
        text = export_plot_data(path, "instance_coverage")
        assert (0, text, "") == export_outcome(path, "instance_coverage")
        totals = [sum(column) for column in zip(*(row for block in blocks for row in block))]
        assert text.splitlines()[-1] == f"{first - 1}," + ",".join(map(str, totals))


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
    """The header keys and line fields the README's trace section names."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Trace format") :]
    section = section[: section.index("\n## ", 1)]
    header = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    fields = re.findall(r"^- `(\w+)`:", section, re.M)
    return set(header), fields


@pytest.mark.parametrize("variant", ["bandit", "uniform"])
def test_readme_trace_schema_matches_a_real_trace(tmp_path, variant):
    cfg = ExperimentConfig.from_dict(
        {
            "bandit": {"total_steps": 8, "update_interval": 3, "batch_size": 4},
            "registry": {"arms": [["a", 10], ["b", 20]]},
            "policy": {"variant": variant},
        }
    )
    run_experiment(cfg, out_dir=tmp_path)
    lines = (tmp_path / TRACE_FILENAME).read_text(encoding="utf-8").splitlines()
    header_keys, fields = readme_trace_schema()
    assert header_keys == set(json.loads(lines[0]))
    assert fields == ["first", "last", "probabilities", "q", "q_after", "rewards", "learning_rate", "draws"]
    keys = [list(json.loads(line)) for line in lines[1:]]

    def shape(*left_out):
        return [f for f in fields if f not in left_out]

    if variant == "bandit":
        # The first window, which holds every row; the next, whose q is the
        # first's q_after and whose distribution a round changed; and the
        # last, of two steps, with no round after it.
        assert keys == [shape(), shape("q"), shape("q", "q_after", "rewards")]
    else:
        # One distribution and no rounds: only the first line holds rows.
        assert keys == [shape("q_after", "rewards"), *[shape("probabilities", "q", "q_after", "rewards")] * 2]
