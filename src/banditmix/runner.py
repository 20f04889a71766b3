"""Experiment execution: the scheduling loop, comparisons, and sweeps.

One run wires registry -> policy -> world -> trace.  Steps are 1-based; at
every step the current distribution samples a batch and the world takes one
training step, and on steps divisible by the update interval an adaptive
policy runs a reward round and recomputes its distribution.  Each record
therefore carries the distribution the step's batch was drawn from and the
estimates as of the end of the step.

Randomness is split into four independent streams derived from the run seed:
training-batch sampling, reward-batch sampling, world initialization, and
world process noise.  Reward rounds never advance the training stream.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
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
from .policies import MixturePolicy
from .registry import ArmRegistry
from .rewards import lookahead_round
from .simworld import SimWorld, build_world
from .trace import (
    RunSummary,
    TraceRecord,
    TraceWriter,
    save_world_checkpoint,
    summarize,
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

TRACE_FILENAME = "trace.jsonl"
SUMMARY_FILENAME = "summary.json"
WORLD_FILENAME = "world.json"


@dataclass(frozen=True)
class RunResult:
    resolved: ResolvedExperiment
    records: list[TraceRecord]
    summary: RunSummary
    world: SimWorld

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
    writes ``trace.jsonl``, ``summary.json``, and ``world.json`` there.
    """
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    resolved = cfg.resolve()
    registry = resolved.registry
    bandit = resolved.bandit
    train_rng, reward_rng, init_rng, sim_rng = _rng_streams(resolved.seed)
    world = build_world(resolved.world_params, registry.num_arms, init_rng, sim_rng)
    policy = MixturePolicy(resolved.policy_kind, registry, bandit)
    counts = np.zeros(registry.num_arms, dtype=np.int64)
    records: list[TraceRecord] = []

    writer = None
    if out_dir is not None:
        writer = TraceWriter(
            Path(out_dir) / TRACE_FILENAME,
            arm_names=registry.names,
            seed=resolved.seed,
            config_hash=resolved.config_hash,
        )
        writer.__enter__()
    # The distribution and the estimates change only at a reward round, so
    # their rows are built once per change and shared by every record until
    # the next one.
    dist = probabilities = None
    q = tuple(policy.state.q.tolist())
    try:
        for step in range(1, bandit.total_steps + 1):
            lr = resolved.schedule.rate(step - 1)
            current = policy.distribution()
            if current is not dist:
                dist = current
                probabilities = tuple(dist.p.tolist())
            batch = sample_batch(dist, registry, bandit.batch_size, train_rng)
            counts += np.bincount(batch.arms, minlength=registry.num_arms)
            world.train_step(batch, lr)
            rewards = None
            if policy.adaptive and step % bandit.update_interval == 0:
                policy.state.step = step
                reports = lookahead_round(
                    world,
                    registry,
                    policy.state,
                    bandit,
                    lr,
                    reward_rng,
                    reward_kind=resolved.policy_kind.reward_kind,
                )
                policy.apply_reward_round(reports)
                rewards = tuple(r.reward for r in reports)
                q = tuple(policy.state.q.tolist())
            record = TraceRecord(
                step=step,
                probabilities=probabilities,
                q=q,
                learning_rate=lr,
                cumulative_counts=tuple(counts.tolist()),
                rewards=rewards,
            )
            records.append(record)
            if writer is not None:
                writer.write(record)
    finally:
        if writer is not None:
            writer.__exit__(None, None, None)

    final_losses = tuple(world.loss_vector.tolist())
    if records:
        summary = summarize(
            records,
            registry,
            seed=resolved.seed,
            config_hash=resolved.config_hash,
            final_losses=final_losses,
        )
    else:
        # Zero-length run: summarize the untouched initial state.
        summary = RunSummary(
            seed=resolved.seed,
            config_hash=resolved.config_hash,
            steps=0,
            final_losses=final_losses,
            coverage_ratio=tuple(0.0 for _ in range(registry.num_arms)),
            mean_step_tv=0.0,
        )
    if out_dir is not None:
        out = Path(out_dir)
        (out / SUMMARY_FILENAME).write_text(
            json.dumps(summary.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        save_world_checkpoint(out / WORLD_FILENAME, world.state_dict())
    return RunResult(resolved=resolved, records=records, summary=summary, world=world)


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
    configs = [dataclasses.replace(c, seed=seed) for c in configs]
    resolved = [c.resolve() for c in configs]
    _require_shared(configs, resolved)
    rows: list[CompareRow] = []
    results: list[RunResult] = []
    for i, cfg in enumerate(configs, start=1):
        result = run_experiment(cfg)
        coverage = np.asarray(result.summary.coverage_ratio)
        rows.append(
            CompareRow(
                label=f"#{i}",
                variant=cfg.policy.variant,
                final_mean_loss=result.final_mean_loss,
                coverage_variance=float(np.var(coverage)),
                mean_step_tv=result.summary.mean_step_tv,
            )
        )
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
            coverage = np.asarray(result.summary.coverage_ratio)
            rows.append(
                SweepRow(
                    params=params,
                    seed=seed,
                    final_mean_loss=result.final_mean_loss,
                    coverage_variance=float(np.var(coverage)),
                    mean_step_tv=result.summary.mean_step_tv,
                )
            )
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
