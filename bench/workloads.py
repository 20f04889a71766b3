"""The three workloads: what one closed-loop iteration runs, and its checks.

Each workload calls the public API the way a user would.  ``iterate`` does
the timed work of one iteration; ``check`` then verifies its outputs outside
the timed region.  Runs inside an iteration use consecutive seeds, so the
same workload seed always gives the same runs.

A run's set-up time is read from the program's own timed runs: from the
run's start (the end of the previous run inside a sweep) to its first
``sample_batch`` call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from banditmix import cli, config, runner
from banditmix.trace import EXPORT_KINDS

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
SUMMARY, WORLD, TRACE = runner.SUMMARY_FILENAME, runner.WORLD_FILENAME, runner.TRACE_FILENAME


@dataclass
class Raw:
    """What one iteration produced, with its timings."""

    seed: int
    wall_s: float
    run_s: list[float]
    setup_s: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)
    export_s: float = 0.0
    export_text: list[str] = field(default_factory=list)
    exit_codes: list[int] = field(default_factory=list)


@dataclass
class Outcome:
    """The checked result of one iteration."""

    digest: str
    problems: list[str]
    artifact_bytes: int = 0
    trace_bytes: int = 0


@contextlib.contextmanager
def time_to_first_step(start: float, out: list[float]):
    """Append to ``out`` the time from ``start`` to the run's first ``sample_batch`` call.

    The wrapper puts the original back on that call, so the steps after it
    run unwrapped.
    """
    original = runner.sample_batch

    def first_step(*args, **kwargs):
        out.append(perf_counter() - start)
        runner.sample_batch = original
        return original(*args, **kwargs)

    runner.sample_batch = first_step
    try:
        yield
    finally:
        runner.sample_batch = original


def outcome_digest(summary: dict, world: dict) -> str:
    """Hash of a run's numeric outcome.

    ``config_hash`` and the trace bytes are left out on purpose, so that
    refactors of the config schema or the trace format that keep behaviour
    still match the recorded reference.
    """
    obj = {k: summary[k] for k in ("steps", "final_losses", "coverage_ratio", "mean_step_tv")}
    obj["world_loss"] = world["loss"]
    obj["world_rng_state"] = world["rng_state"]
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def combine(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def outcome_problems(summary: dict, resolved, constant_schedule: bool) -> list[str]:
    """Invariants every finished run satisfies, whatever its seed."""
    bandit = resolved.bandit
    problems = []
    if summary["steps"] != bandit.total_steps:
        problems.append(f"ran {summary['steps']} of {bandit.total_steps} steps")
    losses = np.asarray(summary["final_losses"], dtype=np.float64)
    if losses.shape != (bandit.num_arms,) or not np.all(np.isfinite(losses)) or np.any(losses < 0):
        problems.append("final losses are not finite and nonnegative per arm")
    draws = float(np.dot(summary["coverage_ratio"], resolved.registry.counts))
    if round(draws) != bandit.total_steps * bandit.batch_size:
        problems.append(f"coverage accounts for {draws} draws, not steps x batch size")
    tv = summary["mean_step_tv"]
    if not 0.0 <= tv <= 1.0 or (constant_schedule and tv != 0.0):
        problems.append(f"mean step tv {tv} out of range")
    return problems


class Workload:
    name: str
    config_path: Path
    runs_per_iteration = 1
    # Iteration i starts at seed + i * seed_stride.
    seed_stride = 1

    def prepare(self, workdir: Path) -> None:
        self.resolved = config.load_config(self.config_path).resolve()
        self.steps_per_run = self.resolved.bandit.total_steps

    def iterate(self, seed: int) -> Raw:
        raise NotImplementedError

    def setup_problems(self, raw: Raw) -> list[str]:
        if len(raw.setup_s) != self.runs_per_iteration:
            return [f"{len(raw.setup_s)} runs reached step 1, not {self.runs_per_iteration}"]
        return []

    def check(self, raw: Raw) -> Outcome:
        digests, problems = [], self.setup_problems(raw)
        for result in raw.results:
            summary = result.summary.to_dict()
            digests.append(outcome_digest(summary, result.world.state_dict()))
            problems += outcome_problems(summary, self.resolved, constant_schedule=False)
        return Outcome(combine(digests), problems)


class TuluBandit(Workload):
    name = "tulu_bandit"
    config_path = CONFIGS / "tulu_default.json"

    def iterate(self, seed: int) -> Raw:
        raw = Raw(seed, 0.0, [])
        t0 = perf_counter()
        with time_to_first_step(t0, raw.setup_s):
            result = runner.run_experiment(config.load_config(self.config_path), seed=seed)
        t1 = perf_counter()
        raw.wall_s = t1 - t0
        raw.run_s.append(t1 - t0)
        raw.results.append(result)
        return raw


class TuluUniformIO(Workload):
    """The CLI path: ``run`` with an output dir, then each ``export`` kind."""

    name = "tulu_uniform_io"

    def prepare(self, workdir: Path) -> None:
        obj = json.loads((CONFIGS / "tulu_default.json").read_text(encoding="utf-8"))
        obj["policy"]["variant"] = "uniform"
        self.config_path = workdir / "tulu_uniform.json"
        self.config_path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
        self.out = workdir / "out"
        super().prepare(workdir)

    def iterate(self, seed: int) -> Raw:
        trace_path = str(self.out / TRACE)
        raw = Raw(seed, 0.0, [])
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), time_to_first_step(t0, raw.setup_s):
            raw.exit_codes.append(
                cli.main(["run", "--config", str(self.config_path), "--seed", str(seed), "--out", str(self.out)])
            )
        t1 = perf_counter()
        for kind in EXPORT_KINDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                raw.exit_codes.append(cli.main(["export", "--trace", trace_path, "--kind", kind]))
            raw.export_text.append(buf.getvalue())
        t2 = perf_counter()
        raw.wall_s, raw.export_s = t2 - t0, t2 - t1
        raw.run_s.append(t1 - t0)
        return raw

    def check(self, raw: Raw) -> Outcome:
        problems = self.setup_problems(raw)
        problems += [f"cli exit code {c}" for c in raw.exit_codes if c != 0]
        try:
            summary = json.loads((self.out / SUMMARY).read_text(encoding="utf-8"))
            world = json.loads((self.out / WORLD).read_text(encoding="utf-8"))
            sizes = {p.name: p.stat().st_size for p in self.out.iterdir()}
        except (OSError, ValueError) as e:
            return Outcome("", problems + [f"unreadable artifacts: {e}"])
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        if summary["seed"] != raw.seed:
            problems.append(f"summary seed {summary['seed']} != {raw.seed}")
        problems += outcome_problems(summary, self.resolved, constant_schedule=True)
        for kind, text in zip(EXPORT_KINDS, raw.export_text):
            lines = text.count("\n")
            if lines != summary["steps"] + 1:
                problems.append(f"export {kind} has {lines} lines, not steps + 1")
        return Outcome(
            combine([outcome_digest(summary, world)]),
            problems,
            artifact_bytes=sum(sizes.values()),
            trace_bytes=sizes.get(TRACE, 0),
        )


class SeedSweep(Workload):
    """``sweep_experiments`` as the shipped smoothing-volatility experiment runs it."""

    name = "seed_sweep"
    config_path = CONFIGS / "volatile_world.json"
    grid_path = CONFIGS / "alpha_grid.json"
    seeds_per_sweep = 5

    def prepare(self, workdir: Path) -> None:
        super().prepare(workdir)
        grid = json.loads(self.grid_path.read_text(encoding="utf-8"))
        self.runs_per_iteration = self.seeds_per_sweep * math.prod(len(v) for v in grid.values())
        self.seed_stride = self.seeds_per_sweep

    def iterate(self, seed: int) -> Raw:
        inner = runner.run_experiment
        raw = Raw(seed, 0.0, [])
        # A run's set-up starts where the previous run ended, so it takes in
        # the sweep's own work between runs, such as resolving a grid point.
        last_end = t0 = perf_counter()

        def timed_run(*args, **kwargs):
            nonlocal last_end
            t = perf_counter()
            with time_to_first_step(last_end, raw.setup_s):
                result = inner(*args, **kwargs)
            last_end = perf_counter()
            raw.run_s.append(last_end - t)
            raw.results.append(result)
            return result

        runner.run_experiment = timed_run
        try:
            cfg = dataclasses.replace(config.load_config(self.config_path), seed=seed)
            grid = json.loads(self.grid_path.read_text(encoding="utf-8"))
            runner.sweep_experiments(cfg, grid, seeds=self.seeds_per_sweep)
            raw.wall_s = perf_counter() - t0
        finally:
            runner.run_experiment = inner
        return raw

    def check(self, raw: Raw) -> Outcome:
        outcome = super().check(raw)
        if len(raw.results) != self.runs_per_iteration:
            outcome.problems.append(f"{len(raw.results)} runs, not {self.runs_per_iteration}")
        return outcome


WORKLOADS = {w.name: w for w in (TuluBandit, TuluUniformIO, SeedSweep)}
