import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from banditmix import runner
from banditmix.config import ConfigError, ExperimentConfig, load_config
from banditmix.mixture import Batch, MixtureDistribution
from banditmix.registry import builtin_registry
from banditmix.simworld import SimWorld, build_world
from banditmix.runner import (
    SUMMARY_FILENAME,
    TRACE_FILENAME,
    WORLD_FILENAME,
    compare_experiments,
    run_experiment,
    sweep_experiments,
)
from banditmix.trace import TraceWriter, iter_trace

from test_golden import POLICIES, SEEDS, WORLDS, golden_config
from trace_oracles import read_trace, recorded_run, run_records, summarize_records, window_lines, window_records

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_crashed_trace(path, steps, total):
    """The header and the records of a trace that stops after ``steps`` of ``total``.

    The reader yields every whole window, then raises on the steps missing.
    """
    header, windows = iter_trace(path)
    read = []
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: truncated trace: {steps} of {total} steps$"):
        read.extend(window_records(windows))
    return header, read


def small_cfg(**overrides):
    obj = {
        "bandit": {"total_steps": 40, "update_interval": 10, "batch_size": 16},
        "registry": {"arms": {"a": 1000, "b": 3000, "c": 6000}},
        "world": {"noise_scale": 0.1},
        "schedule": {"base_rate": 0.1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in obj:
            obj[key].update(value)
        else:
            obj[key] = value
    return ExperimentConfig.from_dict(obj)


class TestRunExperiment:
    def test_one_record_per_step(self):
        records = run_records(recorded_run(small_cfg()))
        assert [r.step for r in records] == list(range(1, 41))

    def test_counts_conserve_batch_size(self):
        for r in run_records(recorded_run(small_cfg())):
            assert sum(r.cumulative_counts) == r.step * 16

    def test_first_record_is_the_anchored_law_at_zero_estimates(self):
        run = recorded_run(ExperimentConfig.from_dict({"bandit": {"total_steps": 1, "update_interval": 1}}))
        registry = builtin_registry("tulu_v2")
        expected = (1.0 - 0.3) * (registry.prior / np.sum(registry.prior)) + 0.3 / 16
        assert np.array_equal(np.asarray(run_records(run)[0].probabilities), expected)

    def test_reward_rounds_land_on_interval_steps(self):
        for r in run_records(recorded_run(small_cfg())):
            if r.step % 10 == 0:
                assert r.rewards is not None and len(r.rewards) == 3
            else:
                assert r.rewards is None

    def test_record_probabilities_predate_the_round(self):
        # the distribution logged at a round step is the one the batch was
        # drawn from; the updated one first applies at the next step
        records = run_records(recorded_run(small_cfg()))
        before = records[8].probabilities  # step 9
        at_round = records[9].probabilities  # step 10, round runs after
        after = records[10].probabilities  # step 11
        assert at_round == before
        assert after != at_round

    def test_estimates_recorded_after_the_round(self):
        records = run_records(recorded_run(small_cfg()))
        assert records[9].q != (0.0, 0.0, 0.0)
        assert records[8].q == (0.0, 0.0, 0.0)

    def test_non_adaptive_policy_never_rounds(self):
        records = run_records(recorded_run(small_cfg(policy={"variant": "uniform"})))
        assert all(r.rewards is None for r in records)
        assert all(r.q == (0.0, 0.0, 0.0) for r in records)

    def test_seed_override(self):
        base = small_cfg()
        a = run_experiment(base, seed=5)
        b = run_experiment(base, seed=5)
        c = run_experiment(base, seed=6)
        assert a.summary == b.summary
        assert a.summary != c.summary

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "3"])
    def test_seed_override_read_like_the_config_key(self, seed):
        with pytest.raises(ConfigError, match=r"^config\.seed: expected an integer"):
            run_experiment(small_cfg(), seed=seed)

    def test_same_seed_reproduces_records_exactly(self):
        a = recorded_run(small_cfg(), seed=3)
        b = recorded_run(small_cfg(), seed=3)
        assert run_records(a) == run_records(b)

    def test_final_mean_loss_matches_world(self):
        result = run_experiment(small_cfg())
        assert result.final_mean_loss == pytest.approx(
            float(np.mean(result.world.loss_vector))
        )
        assert result.summary.final_losses == tuple(result.world.loss_vector.tolist())

    def test_training_actually_reduces_loss(self):
        result = run_experiment(small_cfg())
        assert result.final_mean_loss < 3.0

    def test_out_dir_writes_all_artifacts(self, tmp_path):
        run_experiment(small_cfg(), out_dir=tmp_path)
        assert (tmp_path / TRACE_FILENAME).exists()
        assert (tmp_path / SUMMARY_FILENAME).exists()
        assert (tmp_path / WORLD_FILENAME).exists()
        header, records = read_trace(tmp_path / TRACE_FILENAME)
        assert header["arm_names"] == ["a", "b", "c"]
        assert len(records) == 40
        summary = json.loads((tmp_path / SUMMARY_FILENAME).read_text())
        assert summary["steps"] == 40

    def test_written_trace_equals_in_memory_records(self, tmp_path):
        run = recorded_run(small_cfg(), out_dir=tmp_path)
        _, records = read_trace(tmp_path / TRACE_FILENAME)
        assert records == run_records(run)

    def test_run_raising_mid_window_leaves_whole_records(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        clean = run_records(recorded_run(cfg))
        write = TraceWriter.write
        on_disk = []

        def failing_write(writer, window, counts, rates):
            if window.first == 11:
                on_disk.append((tmp_path / TRACE_FILENAME).read_text(encoding="utf-8"))
                raise RuntimeError("disk full")
            write(writer, window, counts, rates)

        monkeypatch.setattr(TraceWriter, "write", failing_write)
        with pytest.raises(RuntimeError, match="disk full"):
            run_experiment(cfg, out_dir=tmp_path)
        # The first window (steps 1-10) was flushed before the second was
        # handed to the writer, and the failed window left no line.
        lines = [json.loads(line) for line in on_disk[0].splitlines()[1:]]
        assert [(w["first"], w["last"]) for w in lines] == [(1, 10)]
        assert (tmp_path / TRACE_FILENAME).read_text(encoding="utf-8") == on_disk[0]
        _, records = read_crashed_trace(tmp_path / TRACE_FILENAME, 10, 40)
        assert records == clean[:10]

    @pytest.mark.parametrize(
        "world, policy, window_draws",
        [
            # Reward rounds every 50 steps and a last window of 43 steps.
            ("tulu_default", None, None),
            # A non-adaptive policy: one distribution and no rewards.
            ("tulu_default", "uniform", None),
            # Windows of 3, 3, 3 and 1 steps per interval, the last with a round.
            ("volatile_world", None, 96),
            # Two-step windows, each ending in a round.
            ("deep_gap_world", None, None),
        ],
    )
    def test_trace_lines_are_json_dumps_of_windows(self, tmp_path, monkeypatch, world, policy, window_draws):
        obj = json.loads((CONFIGS / f"{world}.json").read_text(encoding="utf-8"))
        if policy is not None:
            obj["policy"] = {"variant": policy}
        if window_draws is not None:
            monkeypatch.setattr(runner, "WINDOW_DRAWS", window_draws)
        run = recorded_run(ExperimentConfig.from_dict(obj), out_dir=tmp_path)
        result = run.result
        sizes = [w.last - w.first + 1 for w in result.windows]
        if window_draws is not None:
            assert sizes[:4] == [3, 3, 3, 1]
        if world == "tulu_default":
            assert sizes[-1] == 43
        assert any(w.rewards is not None for w in result.windows) is (policy is None)
        lines = (tmp_path / TRACE_FILENAME).read_text(encoding="utf-8").splitlines()[1:]
        assert lines == window_lines(run)

    def test_artifact_write_raising_midway_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # The world's JSON is streamed into a temp file that never replaces
        # world.json: the summary, written first, is whole, and the
        # directory holds no partial world.json and no temp file.
        cfg = small_cfg()
        clean = run_experiment(cfg)
        state_dict = SimWorld.state_dict
        monkeypatch.setattr(SimWorld, "state_dict", lambda w: {**state_dict(w), "z": object()})
        with pytest.raises(TypeError):
            run_experiment(cfg, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [SUMMARY_FILENAME, TRACE_FILENAME]
        summary = json.loads((tmp_path / SUMMARY_FILENAME).read_text(encoding="utf-8"))
        assert summary == json.loads(json.dumps(clean.summary.to_dict()))

    def test_crashed_run_leaves_no_stale_summary_or_world(self, tmp_path, monkeypatch):
        # A summary and world from an earlier run in the same directory must
        # not outlive a later run that crashes, or they would sit beside a
        # trace of a different run.
        cfg = load_config(CONFIGS / "volatile_world.json")
        run_experiment(cfg, seed=0, out_dir=tmp_path)
        assert (tmp_path / SUMMARY_FILENAME).exists() and (tmp_path / WORLD_FILENAME).exists()
        rounds = []
        lookahead_round = runner.lookahead_round

        def failing_round(*args, **kwargs):
            rounds.append(1)
            if len(rounds) == 5:
                raise RuntimeError("round failed")
            return lookahead_round(*args, **kwargs)

        monkeypatch.setattr(runner, "lookahead_round", failing_round)
        with pytest.raises(RuntimeError, match="round failed"):
            run_experiment(cfg, seed=1, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [TRACE_FILENAME]
        # The four windows before the failed round are whole records.
        header, records = read_crashed_trace(tmp_path / TRACE_FILENAME, 40, 200)
        assert header["seed"] == 1
        assert [r.step for r in records] == list(range(1, 41))

    def test_reward_rounds_build_no_batch(self, monkeypatch):
        # Each window's draw builds one Batch; a reward round hands its probe
        # examples over as one (K, B) array and builds none.
        built = []
        post_init = Batch.__post_init__

        def counted(batch):
            built.append(1)
            post_init(batch)

        monkeypatch.setattr(Batch, "__post_init__", counted)
        result = run_experiment(load_config(CONFIGS / "volatile_world.json"))
        assert result.resolved.config.policy.adaptive
        assert sum(w.rewards is not None for w in result.windows) == 20
        assert len(built) == len(result.windows)

    def test_zero_step_run(self):
        cfg = small_cfg(bandit={"total_steps": 0})
        run = recorded_run(cfg)
        assert run_records(run) == []
        assert run.result.summary.steps == 0
        assert run.result.summary.coverage_ratio == (0.0, 0.0, 0.0)

    def test_uniform_coverage_tracks_inverse_counts(self):
        # equal draws per arm, so coverage ratios scale like 1 / instances
        result = run_experiment(
            small_cfg(policy={"variant": "uniform"}, bandit={"total_steps": 300})
        )
        ratio = np.asarray(result.summary.coverage_ratio)
        counts = np.array([1000.0, 3000.0, 6000.0])
        scaled = ratio * counts
        expected = 300 * 16 / 3
        np.testing.assert_allclose(scaled, expected, rtol=0.1)


class TestColumns:
    """A run keeps no per-step column and builds no record: its history is its windows."""

    @pytest.mark.parametrize("world", WORLDS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_summary_equals_summarize_of_records(self, world, policy, seed):
        run = recorded_run(golden_config(world, policy), seed=seed)
        result, resolved = run.result, run.result.resolved
        assert summarize_records(
            run_records(run),
            resolved.registry,
            seed=resolved.config.seed,
            config_hash=resolved.config_hash,
            final_losses=result.summary.final_losses,
        ) == result.summary

    def test_traced_run_writes_one_line_per_window(self, tmp_path, monkeypatch):
        written = []
        write = TraceWriter.write

        def counted_write(writer, window, counts, rates):
            written.append(window)
            write(writer, window, counts, rates)

        monkeypatch.setattr(TraceWriter, "write", counted_write)
        result = run_experiment(load_config(CONFIGS / "tulu_default.json"), out_dir=tmp_path)
        assert len(written) == 103
        assert len((tmp_path / TRACE_FILENAME).read_text(encoding="utf-8").splitlines()) == 1 + 103
        assert tuple(written) == result.windows

    def test_results_compare_by_identity(self):
        a, b = run_experiment(small_cfg()), run_experiment(small_cfg())
        assert a == a
        assert a != b

    def test_default_tulu_run_peaks_under_1_mb(self):
        # A run that kept a (5143, 16) int64 column of cumulative counts,
        # 0.66 MB alone, peaked at 1.29 MB here; without it, at 0.59 MB.
        cfg = load_config(CONFIGS / "tulu_default.json")
        # A first run imports and caches what any run needs, so the peak
        # below is the run's own wherever the test runs in the suite.
        run_experiment(cfg)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_twenty_held_volatile_runs_peak_under_0_31_mb(self):
        # The shipped sweep's shape, held as a sweep's caller and compare
        # hold their results: each result keeps its world, so state a world
        # keeps is paid twenty times.  Caching two per-world arrays on each
        # world once raised the sweep's peak by 6%.
        cfg = load_config(CONFIGS / "volatile_world.json")
        # A first pass fills the interpreter's and numpy's caches, so the
        # peak below is the runs' own wherever the test runs in the suite.
        hold = [run_experiment(cfg, seed=seed) for seed in range(20)]
        del hold
        tracemalloc.start()
        try:
            hold = [run_experiment(cfg, seed=seed) for seed in range(20)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(hold) == 20
        assert peak < 310_000


SHIPPED = ("tulu_default", "deep_gap_world", "volatile_world")


def shipped_config(name, variant, **bandit):
    obj = json.loads((CONFIGS / f"{name}.json").read_text(encoding="utf-8"))
    obj["policy"] = {"variant": variant}
    obj["bandit"].update(bandit)
    return ExperimentConfig.from_dict(obj)


class TestRngStreams:
    """The four streams a run splits its seed into stay independent."""

    @pytest.mark.parametrize("name", SHIPPED)
    def test_reward_rounds_never_advance_the_training_stream(self, name):
        # Replaying the windows' draws on a fresh training stream, with no
        # reward round in between, gives the run's counts.
        cfg = shipped_config(name, "bandit")
        run = recorded_run(cfg)
        result = run.result
        registry, width = result.resolved.registry, result.resolved.bandit.batch_size
        assert any(w.rewards is not None for w in result.windows)
        train_rng = runner._rng_streams(cfg.seed)[0]
        drawn = np.zeros(registry.num_arms, dtype=np.int64)
        for w in result.windows:
            m = w.last - w.first + 1
            dist = MixtureDistribution(p=np.array(w.probabilities))
            batch = runner.sample_batch(dist, registry, width, train_rng, steps=m)
            for t, arms in enumerate(batch.arms.reshape(m, width)):
                drawn += np.bincount(arms, minlength=registry.num_arms)
                assert np.array_equal(run.counts[w.first - 1 + t], drawn)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_world_starts_the_same_under_every_policy(self, name, monkeypatch):
        built = []

        def recording(*args, **kwargs):
            world = build_world(*args, **kwargs)
            built.append(world.state_dict())
            return world

        monkeypatch.setattr(runner, "build_world", recording)
        for variant in ("bandit", "uniform"):
            run_experiment(shipped_config(name, variant), seed=3)
        assert len(built) == 2
        assert built[0] == built[1]


class TestCompare:
    def variants(self):
        return [
            small_cfg(),
            small_cfg(policy={"variant": "uniform"}),
            small_cfg(policy={"variant": "proportional"}),
        ]

    def test_rows_one_per_config(self):
        rows, results = compare_experiments(self.variants(), seed=0)
        assert [r.variant for r in rows] == ["bandit", "uniform", "proportional"]
        assert len(results) == 3

    def test_shared_world_enforced(self):
        configs = [small_cfg(), small_cfg(world={"noise_scale": 0.5})]
        with pytest.raises(ConfigError, match="world"):
            compare_experiments(configs, seed=0)

    def test_shared_registry_enforced(self):
        configs = [small_cfg(), small_cfg(registry={"arms": {"x": 10, "y": 10}})]
        with pytest.raises(ConfigError, match="registry"):
            compare_experiments(configs, seed=0)

    def test_shared_step_budget_enforced(self):
        configs = [small_cfg(), small_cfg(bandit={"total_steps": 20})]
        with pytest.raises(ConfigError, match="steps"):
            compare_experiments(configs, seed=0)

    def test_seed_applied_to_all(self):
        rows_a, _ = compare_experiments(self.variants(), seed=1)
        rows_b, _ = compare_experiments(self.variants(), seed=1)
        assert rows_a == rows_b

    @pytest.mark.parametrize("seed", [-1, None])
    def test_seed_read_like_the_config_key(self, seed):
        with pytest.raises(ConfigError, match=r"^config\.seed: expected an integer"):
            compare_experiments(self.variants(), seed=seed)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_experiments([], seed=0)

    def test_resolves_each_config_once(self, resolutions):
        compare_experiments(self.variants(), seed=3)
        assert [c.policy.variant for c in resolutions] == ["bandit", "uniform", "proportional"]


class TestSweep:
    def test_grid_product_with_seeds(self):
        result = sweep_experiments(
            small_cfg(), {"beta": [1.0, 4.0], "gamma": [0.3]}, seeds=2
        )
        assert len(result.aggregates) == 2
        assert len(result.rows) == 4
        assert result.skipped == []
        assert {row.seed for row in result.rows} == {0, 1}

    def test_rows_carry_their_params(self):
        result = sweep_experiments(small_cfg(), {"beta": [2.0]}, seeds=1)
        assert result.rows[0].params == (("beta", 2.0),)

    def test_aggregate_stats(self):
        result = sweep_experiments(small_cfg(), {"beta": [4.0]}, seeds=3)
        agg = result.aggregates[0]
        losses = [row.final_mean_loss for row in result.rows]
        assert agg.runs == 3
        assert agg.mean_final_loss == pytest.approx(np.mean(losses))
        assert agg.std_final_loss == pytest.approx(np.std(losses))

    def test_invalid_point_skipped_not_fatal(self):
        result = sweep_experiments(small_cfg(), {"gamma": [0.3, 2.0]}, seeds=1)
        assert len(result.aggregates) == 1
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == (("gamma", 2.0),)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("gamma", True, "a number"),
            ("update_interval", 2.5, "an integer"),
            ("beta", "hot", "a number"),
            ("gamma", None, "a number"),
            ("beta", 10**400, "a number in the float range"),
        ],
    )
    def test_ill_typed_point_skipped_like_a_config_file(self, key, value, expected):
        # The value is read exactly as the same key in a config file is.
        result = sweep_experiments(small_cfg(), {key: [value, 1]}, seeds=1)
        assert [a.params for a in result.aggregates] == [((key, 1),)]
        reason = f"bandit.{key}: expected {expected}, got {value!r}"
        assert result.skipped == [(((key, value),), reason)]
        with pytest.raises(ConfigError) as from_file:
            small_cfg(bandit={key: value})
        assert str(from_file.value) == reason

    def test_unknown_key_is_an_upfront_error(self):
        with pytest.raises(ConfigError, match="grid.batch_size"):
            sweep_experiments(small_cfg(), {"batch_size": [64]}, seeds=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep_experiments(small_cfg(), {}, seeds=1)

    def test_bad_seed_count_rejected(self):
        with pytest.raises(ConfigError):
            sweep_experiments(small_cfg(), {"beta": [1.0]}, seeds=0)

    def test_nonlist_grid_values_rejected(self):
        with pytest.raises(ConfigError, match="grid.beta"):
            sweep_experiments(small_cfg(), {"beta": 4.0}, seeds=1)

    def test_resolves_each_grid_point_once(self, resolutions):
        grid = json.loads((CONFIGS / "alpha_grid.json").read_text(encoding="utf-8"))
        result = sweep_experiments(load_config(CONFIGS / "volatile_world.json"), grid, seeds=5)
        assert len(result.rows) == 20
        assert [c.bandit.alpha for c in resolutions] == grid["alpha"]

    def test_run_of_a_resolved_config_resolves_nothing(self, resolutions):
        cfg = small_cfg()
        cfg.resolve()
        resolutions.clear()
        run = recorded_run(cfg, seed=4)
        assert resolutions == []
        assert run.result.resolved.config.seed == 4
        assert np.array_equal(run.counts, recorded_run(small_cfg(), seed=4).counts)

    def test_base_seed_offsets_runs(self):
        cfg = small_cfg(seed=10)
        result = sweep_experiments(cfg, {"beta": [4.0]}, seeds=2)
        assert {row.seed for row in result.rows} == {10, 11}
