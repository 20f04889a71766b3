"""Experiment execution: the scheduling loop, comparisons, and sweeps.

One run wires registry -> policy -> world -> trace.  Steps are 1-based; at
every step the current distribution samples a batch and the world takes one
training step, and on steps divisible by the update interval an adaptive
policy runs a reward round and recomputes its distribution.  A step's trace
line therefore holds the distribution its batch was drawn from and the
estimates as of the end of the step.

Since the distribution changes only at a reward round, the loop runs in
windows: the steps up to the next multiple of the update interval, or to the
end of the run.  A window draws all its batches in one ``sample_batch`` call
and trains on them in one ``train_steps`` call, which give the same numbers
as one call per step.  A long interval is split into windows of at most
``WINDOW_DRAWS`` draws, so memory does not grow with the interval.

The run keeps one history, its ``Window``s: per window, the distribution
its steps sample from, the estimates before and after its reward round, and
the round's rewards.  The loop holds the estimates ``q`` itself and keeps
only a running total of the draws per arm.  The trace is written a window
at a time, from its per-step draws and rates, and the summary comes from the
final draws and the windows.

Randomness is split into four independent streams derived from the run seed:
training-batch sampling, reward-batch sampling, world initialization, and
world process noise.  Reward rounds never advance the training stream.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    SWEEPABLE,
    ConfigError,
    ExperimentConfig,
    ResolvedExperiment,
    apply_param_overrides,
)
from .mixture import sample_batch
from .rewards import lookahead_round
from .simworld import SimWorld, build_world
from .trace import (
    RunSummary,
    TraceWriter,
    Window,
    save_world_checkpoint,
    summarize,
    write_json_atomic,
)

__all__ = [
    "RunResult",
    "run_experiment",
    "CompareRow",
    "compare_experiments",
    "SweepRow",
    "SweepAggregate",
    "SweepResult",
    "sweep_experiments",
    "TRACE_FILENAME",
    "SUMMARY_FILENAME",
    "WORLD_FILENAME",
]

# Largest number of draws (steps x batch size) in one window, unless a
# single step is larger.
WINDOW_DRAWS = 1 << 16

TRACE_FILENAME = "trace.jsonl"
SUMMARY_FILENAME = "summary.json"
WORLD_FILENAME = "world.json"


@dataclass(frozen=True, eq=False)
class RunResult:
    """A finished run; ``windows`` is its history, one ``Window`` per window."""

    resolved: ResolvedExperiment
    summary: RunSummary
    world: SimWorld
    windows: tuple[Window, ...]

    @property
    def final_mean_loss(self) -> float:
        return float(np.mean(self.world.loss_vector))


def _rng_streams(seed: int) -> tuple[np.random.Generator, ...]:
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


def run_experiment(
    cfg: ExperimentConfig,
    *,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Execute one full run; optionally persist trace, summary, and world.

    ``seed`` overrides the config's seed.  With ``out_dir`` set, the run
    writes ``trace.jsonl``, ``summary.json``, and ``world.json`` there; the
    last two are removed first and written only when the run completes.
    """
    if seed is not None:
        cfg = cfg.with_seed(seed)
    resolved = cfg.resolve()
    registry = resolved.registry
    bandit = resolved.bandit
    k, width, interval = registry.num_arms, bandit.batch_size, bandit.update_interval
    steps = bandit.total_steps
    span = min(interval, max(WINDOW_DRAWS // width, 1))
    train_rng, reward_rng, init_rng, sim_rng = _rng_streams(cfg.seed)
    world = build_world(cfg.world, k, init_rng, sim_rng)
    policy = cfg.policy
    windows: list[Window] = []

    writer = contextlib.nullcontext()
    if out_dir is not None:
        # A crashed run must not leave its trace beside an earlier run's files.
        for name in (SUMMARY_FILENAME, WORLD_FILENAME):
            (Path(out_dir) / name).unlink(missing_ok=True)
        writer = TraceWriter(
            Path(out_dir) / TRACE_FILENAME,
            arm_names=registry.names,
            seed=cfg.seed,
            config_hash=resolved.config_hash,
            total_steps=steps,
        )

    # The distribution and the estimates change only at a reward round, so
    # their rows are built once per change and shared by every window until
    # the next one.
    q = np.zeros(k)
    dist = policy.distribution(registry, bandit, q)
    probabilities, q_row = tuple(dist.p.tolist()), tuple(q.tolist())
    drawn = np.zeros(k, dtype=np.int64)
    with writer as trace:
        first = 1
        while first <= steps:
            # The window ends at the next multiple of the interval, after
            # span steps, or at the end of the run, whichever comes first.
            round_step = first + interval - 1 - (first - 1) % interval
            last = min(first + span - 1, round_step, steps)
            m = last - first + 1
            batch = sample_batch(dist, registry, width, train_rng, steps=m)
            drawn += np.bincount(batch.arms, minlength=k)
            rates = cfg.schedule.rates(first - 1, last, steps)
            world.train_steps(batch, rates)
            q_before, rewards = q_row, None
            if policy.adaptive and last == round_step:
                rewards = lookahead_round(
                    world,
                    registry,
                    q,
                    bandit,
                    float(rates[-1]),
                    reward_rng,
                    reward_kind=policy.reward_kind,
                )
                q_row, rewards = tuple(q.tolist()), tuple(rewards.tolist())
            window = Window(first, last, probabilities, q_before, q_row, rewards)
            if rewards is not None:
                dist = policy.distribution(registry, bandit, q)
                probabilities = tuple(dist.p.tolist())
            windows.append(window)
            if trace is not None:
                per_step = np.bincount(np.arange(m).repeat(width) * k + batch.arms, minlength=m * k)
                trace.write(window, per_step.reshape(m, k), rates)
            first = last + 1

    final_losses = tuple(world.loss_vector.tolist())
    summary = summarize(
        drawn,
        windows,
        steps,
        registry,
        seed=cfg.seed,
        config_hash=resolved.config_hash,
        final_losses=final_losses,
    )
    if out_dir is not None:
        out = Path(out_dir)
        write_json_atomic(out / SUMMARY_FILENAME, summary.to_dict())
        save_world_checkpoint(out / WORLD_FILENAME, world.state_dict())
    return RunResult(
        resolved=resolved,
        summary=summary,
        world=world,
        windows=tuple(windows),
    )


def _outcomes(result: RunResult) -> dict[str, float]:
    """The figures a comparison or sweep row reports for one run."""
    return {
        "final_mean_loss": result.final_mean_loss,
        "coverage_variance": float(np.var(result.summary.coverage_ratio)),
        "mean_step_tv": result.summary.mean_step_tv,
    }


@dataclass(frozen=True)
class CompareRow:
    label: str
    variant: str
    final_mean_loss: float
    coverage_variance: float
    mean_step_tv: float


def _require_shared(configs: list[ExperimentConfig], resolved: list[ResolvedExperiment]) -> None:
    first = configs[0]
    first_total = resolved[0].bandit.total_steps
    for i, (cfg, res) in enumerate(zip(configs[1:], resolved[1:]), start=2):
        if cfg.registry != first.registry:
            raise ConfigError(f"config #{i} uses a different registry; comparisons need one")
        if cfg.world != first.world:
            raise ConfigError(f"config #{i} uses a different world; comparisons need one")
        if cfg.schedule != first.schedule:
            raise ConfigError(f"config #{i} uses a different schedule; comparisons need one")
        if res.bandit.total_steps != first_total:
            raise ConfigError(
                f"config #{i} runs {res.bandit.total_steps} steps, others run {first_total}"
            )
        if res.bandit.batch_size != resolved[0].bandit.batch_size:
            raise ConfigError(f"config #{i} uses a different batch size; comparisons need one")


def compare_experiments(
    configs: list[ExperimentConfig], seed: int
) -> tuple[list[CompareRow], list[RunResult]]:
    """Run each config on an identically-seeded world and tabulate outcomes.

    All configs must agree on registry, world, schedule, step budget, and
    batch size, so rows differ only through their policies.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    configs = [c.with_seed(seed) for c in configs]
    resolved = [c.resolve() for c in configs]
    _require_shared(configs, resolved)
    rows: list[CompareRow] = []
    results: list[RunResult] = []
    for i, cfg in enumerate(configs, start=1):
        result = run_experiment(cfg)
        rows.append(CompareRow(label=f"#{i}", variant=cfg.policy.variant, **_outcomes(result)))
        results.append(result)
    return rows, results


@dataclass(frozen=True)
class SweepRow:
    params: tuple[tuple[str, float], ...]
    seed: int
    final_mean_loss: float
    coverage_variance: float
    mean_step_tv: float


@dataclass(frozen=True)
class SweepAggregate:
    params: tuple[tuple[str, float], ...]
    runs: int
    mean_final_loss: float
    std_final_loss: float


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    aggregates: list[SweepAggregate]
    skipped: list[tuple[tuple[tuple[str, float], ...], str]]


def sweep_experiments(cfg: ExperimentConfig, grid: dict[str, list], seeds: int) -> SweepResult:
    """Run the cartesian product of ``grid`` over ``seeds`` consecutive seeds.

    Grid keys must be sweepable hyperparameters; an invalid grid point is
    skipped and reported rather than aborting the sweep.  Seeds run from the
    base config's seed upward.
    """
    if not grid:
        raise ConfigError("sweep needs a nonempty grid")
    if seeds < 1:
        raise ConfigError(f"sweep needs at least one seed, got {seeds}")
    for key, values in grid.items():
        if key not in SWEEPABLE:
            raise ConfigError(
                f"grid.{key}: not sweepable; choose from {', '.join(sorted(SWEEPABLE))}"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid.{key}: expected a nonempty list of values")
    keys = list(grid)
    rows: list[SweepRow] = []
    aggregates: list[SweepAggregate] = []
    skipped: list[tuple[tuple[tuple[str, float], ...], str]] = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        params = tuple(zip(keys, combo))
        try:
            point_cfg = apply_param_overrides(cfg, dict(params))
            point_cfg.resolve()
        except ConfigError as e:
            skipped.append((params, str(e)))
            continue
        losses = []
        for seed in range(cfg.seed, cfg.seed + seeds):
            result = run_experiment(point_cfg, seed=seed)
            rows.append(SweepRow(params=params, seed=seed, **_outcomes(result)))
            losses.append(result.final_mean_loss)
        aggregates.append(
            SweepAggregate(
                params=params,
                runs=len(losses),
                mean_final_loss=float(np.mean(losses)),
                std_final_loss=float(np.std(losses)),
            )
        )
    return SweepResult(rows=rows, aggregates=aggregates, skipped=skipped)
