import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banditmix
from banditmix.cli import main
from banditmix.config import ExperimentConfig
from banditmix.runner import TRACE_FILENAME, run_experiment
from banditmix.trace import EXPORT_KINDS, TraceWriter, Window

from test_trace import BAD_LINES, FIRST, HEADER, NESTED, UNREADABLE_LINES, error_of, trace_lines, write_lines
from trace_oracles import export_outcome, export_records, read_trace

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("tulu_default", "deep_gap_world", "volatile_world")

SMALL_CONFIG = {
    "bandit": {"total_steps": 30, "update_interval": 10, "batch_size": 8},
    "registry": {"arms": {"a": 500, "b": 1500, "c": 3000}},
    "world": {"noise_scale": 0.1},
    "schedule": {"base_rate": 0.1},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def write_config(tmp_path, name, **overrides):
    obj = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in obj:
            obj[key].update(value)
        else:
            obj[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestValidate:
    def test_ok_line(self, config_path, capsys):
        assert main(["validate", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok: 3 arms, 30 steps, policy bandit (delta_loss), config ")

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", bandit={"gamma": 5.0})
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2

    # Each once printed json's or the codec's error and exited 3.
    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{}", b'{"seed": ' + b"7" * 5001 + b"}", b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf-8", "integer-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_unparsable_config_exits_2_naming_the_file(self, tmp_path, capsys, data):
        config = tmp_path / "unparsable.json"
        config.write_bytes(data)
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {config} is not valid JSON: ")

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"seed": None}, "config.seed"),
            ({"bandit": {"update_interval": None}}, "bandit.update_interval"),
            ({"bandit": {"batch_size": None}}, "bandit.batch_size"),
            ({"bandit": {"epsilon": float("nan")}}, "bandit: epsilon"),
            ({"world": {"noise_scale": float("inf")}}, "world: noise_scale"),
            # Numbers no float or int64 holds; each once exited 3.
            ({"bandit": {"beta": 10**400}}, "bandit.beta: expected a number in the float range"),
            ({"world": {"base_loss": [10**400, 3.0, 3.0]}}, "world.base_loss: expected a number in the float range"),
            ({"registry": {"arms": {"a": 10**22}}}, "registry: arm 'a': count must be >= 1 and below 2**63"),
        ],
    )
    def test_null_or_non_finite_value_exits_2(self, tmp_path, capsys, overrides, path):
        config = write_config(tmp_path, "bad.json", **overrides)
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}")

    def test_counts_past_int64_sum_exactly(self, tmp_path, capsys):
        # The int64 total of these counts wraps to -2**63.
        registry = {"arms": {"a": 2**62, "b": 2**62}}
        config = write_config(tmp_path, "big.json", registry=registry, bandit={"total_steps": None})
        assert main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith(f"ok: 2 arms, {2 * 2**63 // 8} steps")


    @pytest.mark.parametrize(
        "text, key",
        [
            # Without the check this validates as two arms, "a" at 2000.
            (
                '{"registry": {"arms": {"a": 1000, "a": 2000, "b": 500}},'
                ' "bandit": {"total_steps": 30}, "bandit": {"total_steps": 40}}',
                "'a'",
            ),
            ('{"registry": {"arms": {"a": 1000, "b": 500}}, "seed": 1, "seed": 2}', "'seed'"),
        ],
    )
    def test_duplicate_key_exits_2(self, tmp_path, capsys, text, key):
        config = tmp_path / "twice.json"
        config.write_text(text)
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {config}: duplicate key {key}\n"

    # World values that need the arm count: validate must reject what run
    # rejects, with the same key.
    WORLD_VALUES = [
        ({"base_loss": [float("nan"), 3.0, 3.0]}, "world: base_loss entries must be finite"),
        ({"floor": [0.5, float("inf"), 0.5]}, "world: floor entries must be finite"),
        ({"learnability": [1.0, float("nan"), 1.0]}, "world: learnability entries must be finite"),
        ({"base_loss": 0.1, "floor": 0.5}, "world: base_loss must be at or above floor"),
        ({"floor": [0.5, -0.1, 0.5]}, "world: floor entries must be >= 0"),
        ({"learnability": [1.0, 1.5, 1.0]}, "world: learnability entries must lie in [0, 1]"),
        ({"learnability": -0.5}, "world: learnability entries must lie in [0, 1]"),
        ({"learnability": [1.0, 0.2, 1.0], "transfer": 0.5}, "world: constant transfer 0.5 exceeds"),
        ({"base_loss": [3.0, 3.0]}, "world: base_loss has 2 entries but the registry has 3 arms"),
        ({"floor": [0.5, 0.5, 0.5, 0.5]}, "world: floor has 4 entries but the registry has 3 arms"),
        ({"learnability": [1.0]}, "world: learnability has 1 entries but the registry has 3 arms"),
    ]

    @pytest.mark.parametrize("world, message", WORLD_VALUES)
    def test_per_arm_world_value_exits_2_in_validate_and_run(self, tmp_path, capsys, world, message):
        config = write_config(tmp_path, "bad.json", world=world)
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    # A static distribution the run would refuse: validate must refuse it
    # too, naming the key.
    @pytest.mark.parametrize(
        "probs, message",
        [
            ([0.5, 0.6], "policy.static_probs: p must sum to 1, got 1.1"),
            ([1.5, -0.5], "policy.static_probs: p entries must be nonnegative"),
        ],
        ids=["sum", "negative"],
    )
    def test_bad_static_probs_exit_2_in_validate_and_run(self, tmp_path, capsys, probs, message):
        registry = {"arms": {"a": 500, "b": 1500}}
        config = write_config(tmp_path, "bad.json", registry=registry, policy={"variant": "static", "static_probs": probs})
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_negative_seed_flag_exits_2(self, config_path, tmp_path, capsys):
        code = main(["run", "--config", str(config_path), "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config.seed: expected an integer >= 0")
        assert not (tmp_path / "out").exists()

    def test_writes_artifacts_and_reports(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete: 30 steps, seed 0," in out
        assert "final mean loss:" in out
        assert (out_dir / "trace.jsonl").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "world.json").exists()

    def test_seed_flag_overrides(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config_path), "--seed", "42", "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert "seed 42" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 42

    def test_identical_invocations_byte_identical_traces(self, config_path, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--seed", "7", "--out", str(dir_a)])
        main(["run", "--config", str(config_path), "--seed", "7", "--out", str(dir_b)])
        assert (dir_a / "trace.jsonl").read_bytes() == (dir_b / "trace.jsonl").read_bytes()

    def test_env_var_output_dir(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BANDITMIX_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "envout" / "trace.jsonl").exists()


class TestCompare:
    def test_table_lists_each_policy(self, tmp_path, capsys):
        paths = [
            write_config(tmp_path, "bandit.json"),
            write_config(tmp_path, "uniform.json", policy={"variant": "uniform"}),
        ]
        code = main(["compare", "--configs", *map(str, paths), "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].split() == [
            "config", "policy", "final_mean_loss", "coverage_variance", "mean_step_tv"
        ]
        assert lines[2].split()[:2] == ["#1", "bandit"]
        assert lines[3].split()[:2] == ["#2", "uniform"]

    def test_negative_seed_exits_2(self, config_path, capsys):
        assert main(["compare", "--configs", str(config_path), "--seed", "-3"]) == 2
        assert capsys.readouterr().err.startswith("config error: config.seed: expected an integer >= 0")

    def test_mismatched_worlds_exit_2(self, tmp_path, capsys):
        paths = [
            write_config(tmp_path, "one.json"),
            write_config(tmp_path, "two.json", world={"noise_scale": 0.9}),
        ]
        assert main(["compare", "--configs", *map(str, paths), "--seed", "0"]) == 2


class TestSweep:
    def test_tables_and_skips(self, tmp_path, capsys):
        config = write_config(tmp_path, "base.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"beta": [1.0, 4.0], "gamma": [0.3, 7.0]}))
        code = main(
            ["sweep", "--config", str(config), "--grid", str(grid), "--seeds", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        # two valid grid points, two seeds each
        assert captured.out.count("beta=1.0 gamma=0.3") == 3  # 2 rows + 1 aggregate
        assert "skipped_point" in captured.out
        assert "warning: skipped grid point" in captured.err

    def test_unsweepable_key_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "base.json")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"batch_size": [8, 16]}))
        assert (
            main(["sweep", "--config", str(config), "--grid", str(grid), "--seeds", "1"]) == 2
        )

    def test_malformed_grid_exits_2(self, tmp_path):
        config = write_config(tmp_path, "base.json")
        grid = tmp_path / "grid.json"
        grid.write_text("[1, 2, 3]")
        assert (
            main(["sweep", "--config", str(config), "--grid", str(grid), "--seeds", "1"]) == 2
        )

    def test_duplicate_grid_key_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "base.json")
        grid = tmp_path / "grid.json"
        grid.write_text('{"beta": [1.0], "gamma": [0.3], "beta": [2.0]}')
        assert main(["sweep", "--config", str(config), "--grid", str(grid), "--seeds", "1"]) == 2
        assert capsys.readouterr().err == f"config error: {grid}: duplicate key 'beta'\n"


class TestExport:
    def run_and_export(self, tmp_path, capsys, kind):
        config = write_config(tmp_path, "exp.json")
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out_dir)])
        capsys.readouterr()
        code = main(["export", "--trace", str(out_dir / "trace.jsonl"), "--kind", kind])
        assert code == 0
        return capsys.readouterr().out

    def test_proportions_csv(self, tmp_path, capsys):
        out = self.run_and_export(tmp_path, capsys, "proportions_over_time")
        lines = out.strip().splitlines()
        assert lines[0] == "step,a,b,c"
        assert len(lines) == 31
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(sum(float(c) for c in cells[1:]) - 1.0) < 1e-9

    def test_coverage_csv_counts_are_integers(self, tmp_path, capsys):
        out = self.run_and_export(tmp_path, capsys, "instance_coverage")
        last = out.strip().splitlines()[-1].split(",")
        assert sum(int(c) for c in last[1:]) == 30 * 8

    def test_unknown_kind_rejected_by_parser(self, tmp_path, capsys):
        config = write_config(tmp_path, "exp.json")
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out_dir)])
        with pytest.raises(SystemExit):
            main(["export", "--trace", str(out_dir / "trace.jsonl"), "--kind", "pie"])

    def test_missing_trace_exits_3(self, tmp_path, capsys):
        assert main(["export", "--trace", str(tmp_path / "no.jsonl"), "--kind", "q_over_time"]) == 3

    def test_broken_pipe_exits_quietly(self, tmp_path, capsys, monkeypatch):
        # export | head must not report an error when head closes the pipe.
        config = write_config(tmp_path, "exp.json")
        out_dir = tmp_path / "out"
        main(["run", "--config", str(config), "--out", str(out_dir)])
        capsys.readouterr()
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        sink = os.fdopen(write_fd, "w", buffering=1)
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["export", "--trace", str(out_dir / "trace.jsonl"), "--kind", "q_over_time"])
        monkeypatch.undo()
        sink.close()
        assert code == 0
        assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def shipped_traces(tmp_path_factory):
    """The trace of each shipped config run with the bandit and uniform policies."""
    root = tmp_path_factory.mktemp("shipped")
    traces = {}
    for world in SHIPPED:
        obj = json.loads((CONFIGS / f"{world}.json").read_text(encoding="utf-8"))
        for variant in ("bandit", "uniform"):
            obj["policy"]["variant"] = variant
            out = root / f"{world}-{variant}"
            run_experiment(ExperimentConfig.from_dict(obj), out_dir=out)
            traces[world, variant] = out / TRACE_FILENAME
    return traces


class TestStreamingExport:
    @pytest.mark.parametrize("kind", EXPORT_KINDS)
    @pytest.mark.parametrize("variant", ["bandit", "uniform"])
    @pytest.mark.parametrize("world", SHIPPED)
    def test_equals_export_of_the_whole_trace(self, shipped_traces, capsys, world, variant, kind):
        trace = shipped_traces[world, variant]
        header, records = read_trace(trace)
        expected = export_records(records, kind, tuple(header["arm_names"]))
        assert main(["export", "--trace", str(trace), "--kind", kind]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("kind", EXPORT_KINDS)
    def test_peak_memory_stays_small(self, shipped_traces, tmp_path, monkeypatch, kind):
        # Reading the default tulu trace into a list of its 5,143 records
        # peaks at 11-15 MB; a streamed export holds one window of at most
        # 50 steps at a time, plus the CSV text it prints.
        trace = shipped_traces["tulu_default", "bandit"]
        with (tmp_path / "out.csv").open("w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["export", "--trace", str(trace), "--kind", kind])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            monkeypatch.undo()
        assert code == 0
        assert (tmp_path / "out.csv").read_text(encoding="utf-8").count("\n") == 5143 + 1
        assert peak < 5e6, f"export peak {peak / 1e6:.2f} MB"


def corrupt_third_window(trace, line):
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = line
    trace.write_text("".join(lines), encoding="utf-8")


def small_trace(tmp_path):
    """The trace of ``SMALL_CONFIG``: 30 steps in three windows of 10."""
    main(["run", "--config", str(write_config(tmp_path, "exp.json")), "--out", str(tmp_path / "out")])
    return tmp_path / "out" / "trace.jsonl"


def one_step_trace(trace, change):
    """Write a two-arm trace of one step, its line's keys then set from ``change``.

    The line holds the fields of a trace's first line: every row but
    ``q_after`` and ``rewards``.  A change of None leaves the key out.
    """
    window = Window(1, 1, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0), None)
    with TraceWriter(trace, arm_names=("a", "b"), seed=0, config_hash="0", total_steps=1) as writer:
        writer.write(window, np.array([[4, 4]]), [0.1])
    header, line = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = {key: value for key, value in {**json.loads(line), **change}.items() if value is not None}
    trace.write_text(header + json.dumps(obj) + "\n", encoding="utf-8")


def cli_export(path, kind):
    """The exit code, stdout and stderr of ``banditmix export``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["export", "--trace", str(path), "--kind", kind])
    return code, out.getvalue(), err.getvalue()


class TestExportOfABadTrace:
    def test_bad_record_prints_nothing_and_closes_the_file(self, tmp_path):
        # In a process of its own, so that an unclosed file would show on
        # stderr as an error under -W error::ResourceWarning.
        trace = small_trace(tmp_path)
        window = json.loads(trace.read_text(encoding="utf-8").splitlines()[3])
        del window["learning_rate"]
        corrupt_third_window(trace, json.dumps(window) + "\n")
        src = str(Path(banditmix.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m", "banditmix",
             "export", "--trace", str(trace), "--kind", "q_over_time"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {trace}:4: bad record: missing key 'learning_rate'\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json\n", ":4: bad record: not JSON"),
            # Rows carry over from the window before; the blocks do not.
            ('{"first": 21, "last": 30}\n', ":4: bad record: missing key 'learning_rate'"),
        ],
    )
    def test_bad_record_exits_3_with_nothing_on_stdout(self, tmp_path, capsys, line, message):
        trace = small_trace(tmp_path)
        corrupt_third_window(trace, line)
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "proportions_over_time"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {trace}{message}")

    def test_ill_typed_record_exits_3(self, tmp_path, capsys):
        # Both values parse as JSON; the reader once took the string as one
        # q entry per character and 1.7 as step 1, and export printed 1,z,z.
        trace = tmp_path / TRACE_FILENAME
        one_step_trace(trace, {"q": "zz", "first": 1.7})
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "q_over_time"]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}:2: bad record: first must be an integer, got 1.7\n")

    @pytest.mark.parametrize(
        "change, kind, detail",
        [
            # The q row once exported with exit 0, as 1,z,None.
            ({"q": ["z", None]}, "q_over_time", "q must hold only numbers, got ['z', None]"),
            ({"draws": [[4, True]]}, "instance_coverage", "draws must hold only integers, got [4, True]"),
            ({"learning_rate": ["0.1"]}, "proportions_over_time", "learning_rate must hold only numbers, got ['0.1']"),
            # Draws are checked whatever the kind prints.
            ({"draws": [["7", 4]]}, "q_over_time", "draws must hold only integers, got ['7', 4]"),
            ({"draws": [[4, None]]}, "q_over_time", "draws must hold only integers, got [4, None]"),
            ({"draws": "44"}, "q_over_time", "draws must be a list, got '44'"),
            ({"draws": [[4.7, True]]}, "instance_coverage", "draws must hold only integers, got [4.7, True]"),
            # The first line carries no row over, so it must hold both, and
            # only the header gives its arm count.
            ({"draws": None}, "proportions_over_time", "missing key 'draws'"),
            ({"probabilities": None}, "q_over_time", "missing key 'probabilities'"),
            ({"q": None}, "proportions_over_time", "missing key 'q'"),
            # One draw on a two-arm trace: q_over_time once printed both columns.
            ({"draws": [[4]]}, "q_over_time", "draws must have 2 entries, got [4]"),
            ({"q": [0.0, 0.0, 0.0]}, "proportions_over_time", "q must have 2 entries, got [0.0, 0.0, 0.0]"),
            ({"q_after": [0.0]}, "q_over_time", "q_after must have 2 entries, got [0.0]"),
        ],
    )
    def test_ill_typed_element_exits_3(self, tmp_path, capsys, change, kind, detail):
        trace = tmp_path / TRACE_FILENAME
        one_step_trace(trace, change)
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", kind]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}:2: bad record: {detail}\n")

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_schema_trace_exits_3_with_nothing_on_stdout(self, tmp_path, capsys, version):
        # The reader reads only the schema the writer writes.
        trace = small_trace(tmp_path)
        header, rest = trace.read_text(encoding="utf-8").split("\n", 1)
        trace.write_text(json.dumps({**json.loads(header), "schema_version": version}) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "proportions_over_time"]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}: unsupported schema version {version}\n")

    def test_trace_cut_at_a_line_boundary_exits_3(self, shipped_traces, tmp_path, capsys):
        # The default tulu trace less its last 20 windows: every line whole,
        # so only the header's total_steps shows the run is not all there.
        lines = shipped_traces["tulu_default", "bandit"].read_text(encoding="utf-8").splitlines(keepends=True)
        cut = tmp_path / TRACE_FILENAME
        cut.write_text("".join(lines[:-20]), encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--trace", str(cut), "--kind", "instance_coverage"]) == 3
        assert capsys.readouterr() == ("", f"error: {cut}: truncated trace: 4150 of 5143 steps\n")

    def test_truncated_trace_exits_3_with_nothing_on_stdout(self, tmp_path, capsys):
        # What a killed writer leaves: the last window lacks its newline.
        trace = small_trace(tmp_path)
        trace.write_text(trace.read_text(encoding="utf-8")[:-2], encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "instance_coverage"]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}:4: truncated record\n")

    def test_row_nested_100000_deep_exits_3_naming_its_line(self, tmp_path):
        # A nesting past json's recursion limit once escaped the reader as a
        # bare RecursionError message naming neither the file nor the line.
        trace = tmp_path / TRACE_FILENAME
        one_step_trace(trace, {"q": "@"})
        trace.write_text(trace.read_text(encoding="utf-8").replace('"@"', NESTED), encoding="utf-8")
        message = f"{trace}:2: bad record: {error_of(json.loads, NESTED)}"
        for kind in EXPORT_KINDS:
            assert cli_export(trace, kind) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", EXPORT_KINDS)
@pytest.mark.parametrize(
    "line, detail",
    [*BAD_LINES.values(), *UNREADABLE_LINES.values()],
    ids=[*BAD_LINES, *UNREADABLE_LINES],
)
def test_bad_line_exits_3_like_iter_trace(tmp_path, line, detail, kind):
    detail = detail() if callable(detail) else detail
    path = write_lines(tmp_path / "t.jsonl", [*trace_lines(2), line])
    with pytest.raises(ValueError) as raised:
        read_trace(path)
    message = str(raised.value)
    assert message == f"{path}:4: bad record: {detail}"
    assert cli_export(path, kind) == (3, "", f"error: {message}\n")


# The base of the mutations: a three-arm trace of 12 steps in five windows,
# with one-step and longer windows, a round with and without a change of
# distribution, and a window with no round.
BASE_WINDOWS = [
    {**FIRST, "last": 3, "q_after": [0.5, 0.0, -0.25], "rewards": [1.0, 0.0, -1.0],
     "learning_rate": [0.1, 0.1, 0.05], "draws": [[1, 2, 3], [0, 6, 0], [2, 2, 2]]},
    {"first": 4, "last": 4, "probabilities": [0.5, 0.25, 0.25], "learning_rate": [0.05], "draws": [[3, 2, 1]]},
    {"first": 5, "last": 8, "q_after": [0.25, 0.25, 0.0], "rewards": [0.5, 0.5, 0.0],
     "learning_rate": [0.05, 0.04, 0.03, 0.02], "draws": [[1, 1, 4], [6, 0, 0], [0, 0, 6], [2, 3, 1]]},
    {"first": 9, "last": 9, "learning_rate": [0.01], "draws": [[0, 0, 6]]},
    {"first": 10, "last": 12, "probabilities": [1.0, 0.0, 0.0], "learning_rate": [0.01, 0.01, 0.01],
     "draws": [[6, 0, 0], [6, 0, 0], [6, 0, 0]]},
]
BASE_TOTAL = 12

# Values put in place of one entry of a row or a block.  Only a number past
# int's digit limit, true, false, null, a string, a list, an object or a
# nesting past json's recursion limit is a bad entry anywhere; a float reads
# in a row or a rate, and an integer too large for a float in a row or a draw.
FLOATS = ("NaN", "-Infinity", "1e400", "1.5", "-0.0")
BIG_INT = "1" + "0" * 400
ODD_VALUES = ["true", "false", "null", '"0.5"', '""', "[]", "{}", *FLOATS, BIG_INT, "1" * 5000, "[" * 5000 + "]" * 5000, NESTED]


@st.composite
def mutated_trace(draw):
    """The lines of ``BASE_WINDOWS`` with one mutation, and whether the
    mutation must make the trace unreadable."""
    windows = json.loads(json.dumps(BASE_WINDOWS))
    i = draw(st.integers(0, len(windows) - 1))
    op = draw(st.sampled_from(["delete", "duplicate", "swap", "cut", "steps", "arms", "value"]))
    fails = True
    texts = None
    if op == "delete":
        del windows[i]
    elif op == "duplicate":
        windows.insert(i, windows[i])
    elif op == "swap":
        j = draw(st.integers(0, len(windows) - 1).filter(lambda j: j != i))
        windows[i], windows[j] = windows[j], windows[i]
    elif op in ("steps", "arms"):
        w = windows[i]
        keys = ["learning_rate", "draws"] if op == "steps" else [k for k in w if type(w[k]) is list and k != "learning_rate"]
        key = draw(st.sampled_from(keys))
        grow = draw(st.booleans())
        if op == "steps":
            block = w[key]
            w[key] = block + block[-1:] if grow else block[:-1]
        elif key == "draws":
            row = draw(st.integers(0, len(w["draws"]) - 1))
            w["draws"][row] = w["draws"][row] + [1] if grow else w["draws"][row][:-1]
        else:
            w[key] = w[key] + [0.0] if grow else w[key][:-1]
    if op == "value":
        w = windows[i]
        key = draw(st.sampled_from([k for k in w if type(w[k]) is list]))
        row = w[key][draw(st.integers(0, len(w[key]) - 1))] if key == "draws" else w[key]
        value = draw(st.sampled_from(ODD_VALUES))
        row[draw(st.integers(0, len(row) - 1))] = "@"
        fails = not (value in FLOATS and key != "draws" or value == BIG_INT and key != "learning_rate")
        texts = [json.dumps(w).replace('"@"', value) if n == i else json.dumps(w) for n, w in enumerate(windows)]
    if texts is None:
        texts = [json.dumps(w) for w in windows]
    text = json.dumps({**HEADER, "total_steps": BASE_TOTAL}) + "\n" + "".join(t + "\n" for t in texts)
    if op == "cut":
        # Inside a window line: after its first character, before its newline.
        start = text.index("\n") + 1 + sum(len(t) + 1 for t in texts[:i])
        text = text[: start + draw(st.integers(1, len(texts[i])))]
    return text, fails


@settings(max_examples=300, deadline=None)
@given(case=mutated_trace(), kind=st.sampled_from(EXPORT_KINDS))
def test_mutated_trace_exports_or_fails_naming_its_line(tmp_path_factory, case, kind):
    """One mutation of one line of a good trace: ``export`` prints what the
    per-record oracle prints of ``iter_trace``, or exits 3 with nothing on
    stdout and an error naming the file and line, or the file and the
    steps it holds."""
    text, fails = case
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_text(text, encoding="utf-8")
    outcome = cli_export(path, kind)
    assert outcome == export_outcome(path, kind)
    code, out, err = outcome
    assert code == (3 if fails else 0)
    if code == 0:
        assert out.count("\n") == BASE_TOTAL + 1
    else:
        assert out == ""
        assert re.fullmatch(rf"error: {re.escape(str(path))}(:\d+: .+|: truncated trace: \d+ of {BASE_TOTAL} steps)\n", err, re.S)
