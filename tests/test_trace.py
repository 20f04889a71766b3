import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditmix.config import ExperimentConfig
from banditmix.registry import ArmRegistry
from banditmix.runner import TRACE_FILENAME, run_experiment
from banditmix.simworld import WorldParams, build_world
from banditmix.trace import (
    EXPORT_KINDS,
    RunSummary,
    TraceRecord,
    TraceWriter,
    export_plot_data,
    read_trace,
    save_world_checkpoint,
    summarize,
    summarize_columns,
)

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
    def test_round_trip_identity(self):
        rec = make_record(3, rewards=(0.1, 0.2, 0.3))
        assert TraceRecord.from_json_obj(rec.to_json_obj()) == rec

    def test_rewards_key_omitted_when_absent(self):
        obj = make_record(1).to_json_obj()
        assert "rewards" not in obj

    def test_floats_survive_json_exactly(self):
        # json uses repr for floats, which round-trips doubles losslessly
        ugly = (0.1 + 0.2, 1.0 / 3.0, 2.0**-40)
        rec = make_record(1, p=(ugly[0] / sum(ugly), ugly[1] / sum(ugly), ugly[2] / sum(ugly)))
        back = TraceRecord.from_json_obj(json.loads(json.dumps(rec.to_json_obj())))
        assert back.probabilities == rec.probabilities

    def test_many_records_round_trip(self, rng, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = []
        counts = np.zeros(3, dtype=int)
        with TraceWriter(path, NAMES, seed=9, config_hash="deadbeefcafe") as writer:
            for step in range(1, 10_001):
                raw = rng.dirichlet(np.ones(3))
                counts += rng.integers(1, 10, size=3)
                rec = make_record(
                    step,
                    p=tuple(raw.tolist()),
                    q=tuple(rng.normal(size=3).tolist()),
                    counts=tuple(int(c) for c in counts),
                )
                writer.write(rec)
                records.append(rec)
        header, back = read_trace(path)
        assert header["seed"] == 9
        assert header["config_hash"] == "deadbeefcafe"
        assert header["arm_names"] == list(NAMES)
        assert back == records


class TestTraceWriter:
    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc") as writer:
            writer.write(make_record(1))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "banditmix-trace"
        assert first["schema_version"] == 1

    def test_steps_must_strictly_increase(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc") as writer:
            writer.write(make_record(2))
            with pytest.raises(ValueError):
                writer.write(make_record(2))

    def test_arm_arity_checked(self, tmp_path):
        with TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc") as writer:
            with pytest.raises(ValueError):
                writer.write(make_record(1, p=(0.5, 0.5)))

    def test_write_requires_open(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", NAMES, seed=1, config_hash="abc")
        with pytest.raises(ValueError):
            writer.write(make_record(1))

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc") as writer:
            writer.write(make_record(1))
        assert path.exists()

    def test_lines_equal_json_dumps_of_each_record(self, tmp_path):
        # Shared row tuples, fresh but equal ones, a row that changes between
        # writes and changes back, rewards set and unset, non-finite floats.
        p1, p2 = (0.2, 0.3, 0.5), (0.1, float("nan"), 0.9)
        q1 = (0.0, float("inf"), -0.25)
        records = [
            make_record(1, p=p1, q=q1),
            TraceRecord(2, p1, q1, 0.01, (2, 3, 4)),
            TraceRecord(3, tuple(list(p1)), tuple(list(q1)), float("-inf"), (3, 4, 5), rewards=(0.5, float("nan"), -1.0)),
            TraceRecord(4, p2, q1, 0.02, (4, 5, 6)),
            TraceRecord(5, p2, (1e-300, 2.5e17, -0.0), 0.03, (5, 6, 7), rewards=(1.0, 2.0, 3.0)),
            TraceRecord(6, p1, q1, 0.04, (6, 7, 8)),
            TraceRecord(7, p1, q1, 0.05, (7, 8, 9), wall_time_ms=5),
        ]
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc") as writer:
            for record in records:
                writer.write(record)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [json.dumps(r.to_json_obj()) for r in records]

    def test_lines_reach_the_file_on_flush(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc") as writer:
            writer.write(make_record(1))
            writer.write(make_record(2))
            assert len(path.read_text(encoding="utf-8").splitlines()) == 1
            writer.flush()
            assert len(path.read_text(encoding="utf-8").splitlines()) == 3
            writer.write(make_record(3))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 4

    def test_rejected_record_leaves_no_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, NAMES, seed=1, config_hash="abc") as writer:
            shared = (0.2, 0.3, 0.5)
            writer.write(make_record(1, p=shared))
            with pytest.raises(TypeError):
                writer.write(make_record(2, q=(0.0, np.float32(1.0), 0.0)))
            writer.write(make_record(2, p=shared))
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert [json.loads(line)["step"] for line in lines] == [1, 2]


class TestReadTrace:
    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "other", "schema_version": 1}) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "banditmix-trace", "schema_version": 99}) + "\n"
        )
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace(path)

    def test_rejects_out_of_order_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            json.dumps({"kind": "banditmix-trace", "schema_version": 1, "arm_names": list(NAMES), "seed": 0, "config_hash": "x"}),
            json.dumps(make_record(2).to_json_obj()),
            json.dumps(make_record(1).to_json_obj()),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestSummarize:
    def registry(self):
        return ArmRegistry.from_counts({"a": 100, "b": 200, "c": 400})

    def test_coverage_from_final_counts(self):
        records = [make_record(1, counts=(10, 20, 40)), make_record(2, counts=(50, 50, 100))]
        summary = summarize(records, self.registry(), seed=0, config_hash="x")
        assert summary.coverage_ratio == (0.5, 0.25, 0.25)
        assert summary.steps == 2

    def test_mean_step_tv(self):
        records = [
            make_record(1, p=(0.2, 0.3, 0.5)),
            make_record(2, p=(0.3, 0.3, 0.4)),
            make_record(3, p=(0.3, 0.3, 0.4)),
        ]
        summary = summarize(records, self.registry(), seed=0, config_hash="x")
        # one move of 0.1 then no move, averaged
        assert summary.mean_step_tv == pytest.approx(0.05, abs=1e-15)

    def test_single_record_has_zero_tv(self):
        summary = summarize([make_record(1)], self.registry(), seed=0, config_hash="x")
        assert summary.mean_step_tv == 0.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            summarize([], self.registry(), seed=0, config_hash="x")

    def test_dict_round_trip(self):
        summary = summarize(
            [make_record(1)], self.registry(), seed=3, config_hash="y", final_losses=(1.0, 2.0, 3.0)
        )
        assert RunSummary.from_dict(summary.to_dict()) == summary


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
    by_records = summarize(records, registry, seed=0, config_hash="x")
    by_columns = summarize_columns(
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

    def test_kinds_table(self):
        assert EXPORT_KINDS == ("proportions_over_time", "instance_coverage", "q_over_time")

    def test_proportions_rows_sum_to_one(self):
        text = export_plot_data(self.make_records(), "proportions_over_time", NAMES)
        lines = text.strip().splitlines()
        assert lines[0] == "step,a,b,c"
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(sum(float(c) for c in cells[1:]) - 1.0) <= 1e-9

    def test_float_cells_reparse_exactly(self):
        records = [make_record(1, p=(1.0 / 3, 1.0 / 3, 1.0 - 2.0 / 3))]
        text = export_plot_data(records, "proportions_over_time", NAMES)
        cells = text.strip().splitlines()[1].split(",")
        assert float(cells[1]) == 1.0 / 3

    def test_coverage_kind_uses_counts(self):
        text = export_plot_data(self.make_records(), "instance_coverage", NAMES)
        assert text.strip().splitlines()[1] == "1,2,3,5"

    def test_q_kind(self):
        text = export_plot_data(self.make_records(), "q_over_time", NAMES)
        assert text.startswith("step,a,b,c\n")
        assert ",0.1," in text.splitlines()[2]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            export_plot_data(self.make_records(), "heatmap", NAMES)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            export_plot_data(self.make_records(), "q_over_time", ("a", "b"))


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
    records = [json.loads(line) for line in lines[1:]]
    # Update steps carry every field; other steps all but rewards.
    assert fields == list(records[2])
    assert [list(r) for r in records[:2]] == [fields[:-1]] * 2
