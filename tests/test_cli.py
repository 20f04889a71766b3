import contextlib
import io
import json
import os
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

from test_trace import BAD_LINES, BAD_V2_LINES, HEADER, V2_FIRST, read_outcome, v2_line, write_lines
from trace_oracles import export_outcome, export_records, json_reader, read_trace

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

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"seed": None}, "config.seed"),
            ({"bandit": {"update_interval": None}}, "bandit.update_interval"),
            ({"bandit": {"batch_size": None}}, "bandit.batch_size"),
            ({"bandit": {"epsilon": float("nan")}}, "bandit: epsilon"),
            ({"world": {"noise_scale": float("inf")}}, "world: noise_scale"),
        ],
    )
    def test_null_or_non_finite_value_exits_2(self, tmp_path, capsys, overrides, path):
        config = write_config(tmp_path, "bad.json", **overrides)
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}")


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
        with json_reader():
            header, records = read_trace(trace)
        expected = export_records(records, kind, tuple(header["arm_names"]))
        assert main(["export", "--trace", str(trace), "--kind", kind]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("kind", EXPORT_KINDS)
    def test_peak_memory_stays_small(self, shipped_traces, tmp_path, monkeypatch, kind):
        # Reading the default tulu trace into a list of its 5,143 records
        # peaks at 11-15 MB; a streamed export holds one block of at most
        # 512 lines at a time, plus the CSV text it prints.
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


def corrupt_third_record(trace, line):
    lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = line
    trace.write_text("".join(lines), encoding="utf-8")


def small_trace(tmp_path):
    main(["run", "--config", str(write_config(tmp_path, "exp.json")), "--out", str(tmp_path / "out")])
    return tmp_path / "out" / "trace.jsonl"


def one_step_trace(trace, change):
    """Write a two-arm trace of one step, its line's keys then set from ``change``.

    The line holds the fields of a trace's first line: every row but
    ``rewards``.  A change of None leaves the key out.
    """
    window = Window(1, 1, (0.5, 0.5), (0.0, 0.0), (0.0, 0.0), None)
    with TraceWriter(trace, arm_names=("a", "b"), seed=0, config_hash="0", total_steps=1) as writer:
        writer.write(window, np.array([[4, 4]]), [0.1])
    header, line = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = {key: value for key, value in {**json.loads(line), **change}.items() if value is not None}
    trace.write_text(header + json.dumps(obj) + "\n", encoding="utf-8")


class TestExportOfABadTrace:
    def test_bad_record_prints_nothing_and_closes_the_file(self, tmp_path):
        # In a process of its own, so that an unclosed file would show on
        # stderr as an error under -W error::ResourceWarning.
        trace = small_trace(tmp_path)
        record = json.loads(trace.read_text(encoding="utf-8").splitlines()[3])
        del record["learning_rate"]
        corrupt_third_record(trace, json.dumps(record) + "\n")
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
            # Rows carry over from the line before; the draws do not.
            ('{"step": 3}\n', ":4: bad record: missing key 'draws'"),
        ],
    )
    def test_bad_record_exits_3_with_nothing_on_stdout(self, tmp_path, capsys, line, message):
        trace = small_trace(tmp_path)
        corrupt_third_record(trace, line)
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "proportions_over_time"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {trace}{message}")

    def test_ill_typed_record_exits_3(self, tmp_path, capsys):
        # Both values parse as JSON; the reader once took the string as one
        # q entry per character and 1.7 as step 1, and export printed 1,z,z.
        trace = tmp_path / TRACE_FILENAME
        one_step_trace(trace, {"q": "zz", "step": 1.7})
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "q_over_time"]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}:2: bad record: step must be an integer, got 1.7\n")

    @pytest.mark.parametrize(
        "change, kind, detail",
        [
            # The q row once exported with exit 0, as 1,z,None.
            ({"q": ["z", None]}, "q_over_time", "q must hold only numbers, got ['z', None]"),
            ({"draws": [4, True]}, "instance_coverage", "draws must hold only integers, got [4, True]"),
            ({"learning_rate": "0.1"}, "proportions_over_time", "learning_rate must be a number, got '0.1'"),
            # Draws are checked whatever the kind prints.
            ({"draws": ["7", 4]}, "q_over_time", "draws must hold only integers, got ['7', 4]"),
            ({"draws": [4, None]}, "q_over_time", "draws must hold only integers, got [4, None]"),
            ({"draws": "44"}, "q_over_time", "draws must be a list, got '44'"),
            ({"draws": [4.7, True]}, "instance_coverage", "draws must hold only integers, got [4.7, True]"),
            # The first line carries no row over, so it must hold both, and
            # only the header gives its arm count.
            ({"draws": None}, "proportions_over_time", "missing key 'draws'"),
            ({"probabilities": None}, "q_over_time", "missing key 'probabilities'"),
            ({"q": None}, "proportions_over_time", "missing key 'q'"),
            # One draw on a two-arm trace: q_over_time once printed both columns.
            ({"draws": [4]}, "q_over_time", "draws must have 2 entries, got [4]"),
            ({"q": [0.0, 0.0, 0.0]}, "proportions_over_time", "q must have 2 entries, got [0.0, 0.0, 0.0]"),
        ],
    )
    def test_ill_typed_element_exits_3(self, tmp_path, capsys, change, kind, detail):
        trace = tmp_path / TRACE_FILENAME
        one_step_trace(trace, change)
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", kind]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}:2: bad record: {detail}\n")

    def test_schema_v1_trace_exits_3_with_nothing_on_stdout(self, tmp_path, capsys):
        # The reader reads only the schema the writer writes.
        trace = small_trace(tmp_path)
        header, rest = trace.read_text(encoding="utf-8").split("\n", 1)
        trace.write_text(json.dumps({**json.loads(header), "schema_version": 1}) + "\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "proportions_over_time"]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}: unsupported schema version 1\n")

    def test_trace_cut_at_a_line_boundary_exits_3(self, shipped_traces, tmp_path, capsys):
        # The default tulu trace less its last 1,000 lines: every line whole,
        # so only the header's total_steps shows the run is not all there.
        lines = shipped_traces["tulu_default", "bandit"].read_text(encoding="utf-8").splitlines(keepends=True)
        cut = tmp_path / TRACE_FILENAME
        cut.write_text("".join(lines[:-1000]), encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--trace", str(cut), "--kind", "instance_coverage"]) == 3
        assert capsys.readouterr() == ("", f"error: {cut}: truncated trace: 4143 of 5143 steps\n")

    def test_truncated_trace_exits_3_with_nothing_on_stdout(self, tmp_path, capsys):
        # What a killed writer leaves: the last record lacks its newline.
        trace = small_trace(tmp_path)
        trace.write_text(trace.read_text(encoding="utf-8")[:-2], encoding="utf-8")
        capsys.readouterr()
        assert main(["export", "--trace", str(trace), "--kind", "instance_coverage"]) == 3
        assert capsys.readouterr() == ("", f"error: {trace}:31: truncated record\n")


def cli_export(path, kind):
    """The exit code, stdout and stderr of ``banditmix export``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["export", "--trace", str(path), "--kind", kind])
    return code, out.getvalue(), err.getvalue()


def plain_line(step, rate="0.01", draws=None, step_text=None, end=""):
    """A line without a row, as the writer writes it for a 3-arm trace unless changed."""
    draws = f"{step % 7}, {step % 5}, {2 * step}" if draws is None else draws
    return f'{{"step": {step if step_text is None else step_text}, "learning_rate": {rate}, "draws": [{draws}]}}{end}'


PLAIN_STEPS = 600  # two blocks of the export


def plain_trace(path, changes):
    """A 3-arm trace of a first line and plain lines, with ``changes`` (step -> line) made."""
    lines = [json.dumps(V2_FIRST), *map(plain_line, range(2, PLAIN_STEPS + 1))]
    for step, line in changes.items():
        lines[step - 1] = line
    return write_lines(path, lines, {**HEADER, "total_steps": PLAIN_STEPS})


def test_plain_line_is_what_the_writer_writes(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, ("a", "b", "c"), seed=0, config_hash="x", total_steps=3) as writer:
        window = Window(1, 3, (0.2, 0.3, 0.5), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), None)
        writer.write(window, np.array([[1, 1, 2], [2, 2, 4], [3, 3, 6]]), [0.5, 1e-05, 0.01])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2:] == [plain_line(2, rate="1e-05"), plain_line(3)]


# A line that is one near miss of a plain line -> its changes to ``plain_line``.
NEAR_MISSES = {
    "rate -0": {"rate": "-0"},
    "rate -0.0": {"rate": "-0.0"},
    "integer rate": {"rate": "1"},
    # json reads an int, which float() cannot take; float("1e400") is inf.
    "integer rate past a float": {"rate": "1" + "0" * 400},
    "rate 1E5": {"rate": "1E5"},
    "rate 1e5": {"rate": "1e5"},
    "rate NaN": {"rate": "NaN"},
    "rate Infinity": {"rate": "Infinity"},
    "rate 1e400": {"rate": "1e400"},
    "rate 1e+16": {"rate": "1e+16"},
    "rate 00.5": {"rate": "00.5"},
    "rate .5": {"rate": ".5"},
    "rate 5.": {"rate": "5."},
    "step with a leading zero": {"step_text": "0{step}"},
    "doubled space": {"rate": " 0.01"},
    "trailing spaces": {"end": "  "},
    "crlf": {"end": "\r"},
    "one draw short": {"draws": "1, 2"},
    "one draw over": {"draws": "1, 2, 3, 4"},
    "10-digit count": {"draws": "9999999999, 1, 2"},
    "9-digit count": {"draws": "999999999, 1, 2"},
    "count with a leading zero": {"draws": "01, 1, 2"},
    "negative count": {"draws": "-1, 1, 2"},
    "no space after a comma": {"draws": "1,1, 2"},
}


class TestPlainLines:
    """A line the writer writes without a row is read by one pattern and every
    other line by ``json``, with the same checks, messages and exports."""

    @pytest.mark.parametrize("kind", EXPORT_KINDS)
    @pytest.mark.parametrize(
        "line, detail, step",
        [*((line, detail, 3) for line, detail in BAD_LINES.values()), *((line, detail, 2) for line, detail in BAD_V2_LINES.values())],
        ids=[*BAD_LINES, *BAD_V2_LINES],
    )
    def test_bad_line_at_a_plain_line_exits_3_like_iter_trace(self, tmp_path, line, detail, step, kind):
        path = plain_trace(tmp_path / "t.jsonl", {step: line})
        with pytest.raises(ValueError) as raised:
            read_trace(path)
        message = str(raised.value)
        assert message.startswith(f"{path}:{step + 1}: bad record: {detail}")
        assert cli_export(path, kind) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("step", [3, 520])
    @pytest.mark.parametrize("change", list(NEAR_MISSES.values()), ids=list(NEAR_MISSES))
    def test_near_miss_reads_as_json_reads_it(self, tmp_path, change, step):
        change = {k: v.format(step=step) for k, v in change.items()}
        path = plain_trace(tmp_path / "t.jsonl", {step: plain_line(step, **change)})
        for kind in EXPORT_KINDS:
            assert cli_export(path, kind) == export_outcome(path, kind)
        assert read_outcome(path) == read_outcome(path, json_only=True)

    def test_plain_first_line_lacks_its_rows(self, tmp_path):
        # No line before it has rows to carry over.
        path = plain_trace(tmp_path / "t.jsonl", {1: plain_line(1)})
        for kind in EXPORT_KINDS:
            assert cli_export(path, kind) == export_outcome(path, kind) == (
                3, "", f"error: {path}:2: bad record: missing key 'probabilities'\n"
            )

    @pytest.mark.parametrize("kind", EXPORT_KINDS)
    def test_running_totals_past_int64_stay_exact(self, tmp_path, kind):
        # The first line's counts sit just below 2**63, past it and at -2**63,
        # and the plain lines of both blocks add to them.
        draws = {1: [2**63 - 700, 2**64, -(2**63)], 300: [999_999_999, 0, 1]}
        draws.update({step: [step % 7, step % 5, 2 * step] for step in range(2, PLAIN_STEPS + 1) if step not in draws})
        first = json.dumps({**V2_FIRST, "draws": draws[1]})
        path = plain_trace(tmp_path / "t.jsonl", {1: first, 300: plain_line(300, draws="999999999, 0, 1")})
        outcome = cli_export(path, kind)
        assert outcome == export_outcome(path, kind)
        if kind == "instance_coverage":
            totals = [sum(column) for column in zip(*draws.values())]
            assert outcome[1].splitlines()[-1] == f"{PLAIN_STEPS}," + ",".join(map(str, totals))


def error_of(convert, value):
    """What ``convert(value)`` raises, as text."""
    try:
        convert(value)
    except (OverflowError, ValueError) as e:
        return str(e)
    pytest.skip(f"{convert.__name__} reads a {len(str(value))}-character value here")


# A number past what its type takes: an integer rate too large for a float,
# and a step past int's digit limit.  Each at step 3 of a plain trace, as a
# plain line and as a line with a row -> (line, detail).
LONG_STEP = "1" * 5000
UNREADABLE_NUMBERS = {
    "integer rate past a float, plain": (plain_line(3, rate=str(10**400)), lambda: error_of(float, 10**400)),
    "integer rate past a float, with a row": (
        v2_line(3, q=[0.5, 0.0, 0.0], learning_rate=10**400), lambda: error_of(float, 10**400)
    ),
    "step past int's digit limit, plain": (plain_line(3, step_text=LONG_STEP), lambda: error_of(int, LONG_STEP)),
    "step past int's digit limit, with a row": (
        v2_line(3, q=[0.5, 0.0, 0.0]).replace('"step": 3', f'"step": {LONG_STEP}'), lambda: error_of(int, LONG_STEP)
    ),
}


@pytest.mark.parametrize("kind", EXPORT_KINDS)
@pytest.mark.parametrize("line, detail", list(UNREADABLE_NUMBERS.values()), ids=list(UNREADABLE_NUMBERS))
def test_number_past_its_type_is_a_bad_record_on_its_line(tmp_path, line, detail, kind):
    """Such a number once escaped the reader as a bare ``error: ...`` naming
    neither the file nor the line."""
    path = plain_trace(tmp_path / "t.jsonl", {3: line})
    message = f"{path}:4: bad record: {detail()}"
    assert read_outcome(path) == read_outcome(path, json_only=True) == message
    assert cli_export(path, kind) == export_outcome(path, kind) == (3, "", f"error: {message}\n")


@pytest.fixture(scope="module")
def plain_line_indices(shipped_traces):
    """Each shipped trace's lines, and the indices of those that hold no row."""
    found = {}
    for key, trace in shipped_traces.items():
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        plain = [i for i, line in enumerate(lines[1:], 1) if list(json.loads(line)) == ["step", "learning_rate", "draws"]]
        if plain:  # a bandit run with 2-step windows writes a row on every line
            found[key] = lines, plain
    return found


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_plain_line_exports_as_json_reads_it(plain_line_indices, tmp_path_factory, data):
    """One character deleted, inserted, replaced or doubled in a plain line of
    a shipped trace: ``export`` prints, or fails with, what the reader gives
    when ``json`` reads every line."""
    key = data.draw(st.sampled_from(sorted(plain_line_indices)))
    lines, plain = plain_line_indices[key]
    i = data.draw(st.sampled_from(plain))
    line = lines[i]
    at = data.draw(st.integers(0, len(line) - 1))
    op = data.draw(st.sampled_from(["delete", "insert", "replace", "double"]))
    char = data.draw(st.sampled_from(' 0123456789.,-+eE[]{}":\r\t'))
    line = {
        "delete": line[:at] + line[at + 1 :],
        "insert": line[:at] + char + line[at:],
        "replace": line[:at] + char + line[at + 1 :],
        "double": line[:at] + line[at] + line[at:],
    }[op]
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_text("".join([*lines[:i], line, *lines[i + 1 :]]), encoding="utf-8")
    kind = data.draw(st.sampled_from(EXPORT_KINDS))
    assert cli_export(path, kind) == export_outcome(path, kind)
