"""End-to-end acceptance checks.

Each test prints one PASS line with its headline numbers; run with -v (or
-s) to see them.  The simulator-based checks use small designed worlds,
calibrated so the expected orderings hold with wide margins across seeds;
the exact-math checks pin frozen high-precision oracle values.
"""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from banditmix.config import ExperimentConfig, load_config
from banditmix.mixture import BanditConfig, mixture_probs, sample_batch
from banditmix.registry import builtin_registry
from banditmix.rewards import ema_update, lookahead_round
from banditmix.runner import run_experiment
from banditmix.simworld import build_world

from learner_contract import check_call_is_pure, random_batch
from test_mixture import boltzmann_probs
from test_rewards import score_round

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Frozen arbitrary-precision oracle values (epsilon = 1e-8 folded in).
DELTA_LOSS_SINGLE = 0.4999999975000000125  # pre=(2,), post=(1,)
DELTA_LOSS_TRIPLE = 0.3333333308333333541667  # pre=(1,2,4), post=(0.5,1,4)
DELTA_ENTROPY_PAIR = 0.2499999983333333444444  # pre=(0.5,1.5), post=(0.5,0.75)

# A world with one deep improvable arm (large gap, low floor) next to two
# nearly-saturated arms (high floors, thin gaps) that dominate the prior.
# Long warmup gives an adaptive policy time to find the deep arm before the
# learning-rate budget is spent.
ADAPTATION_WORLD = {
    "bandit": {
        "beta": 12.0,
        "gamma": 0.2,
        "alpha": 0.4,
        "epsilon": 1e-8,
        "update_interval": 2,
        "batch_size": 32,
        "total_steps": 60,
    },
    "registry": {"arms": {"deep": 2000, "shallow_a": 4000, "shallow_b": 4000}},
    "world": {
        "base_loss": [5.0, 1.0, 1.0],
        "floor": [0.3, 0.9, 0.9],
        "learnability": 1.0,
        "transfer": 0.0,
        "noise_scale": 0.02,
    },
    "schedule": {"base_rate": 0.18, "warmup_fraction": 0.25},
}

# Reward noise large enough that a fast estimate average chases it.
VOLATILE_WORLD = {
    "bandit": {
        "beta": 4.0,
        "gamma": 0.3,
        "alpha": 0.95,
        "epsilon": 1e-8,
        "update_interval": 10,
        "batch_size": 32,
        "total_steps": 200,
    },
    "registry": {"arms": {"a": 5000, "b": 5000, "c": 5000, "d": 5000}},
    "world": {"base_loss": 3.0, "floor": 0.5, "transfer": 0.0, "noise_scale": 0.5},
    "schedule": {"base_rate": 0.3, "warmup_fraction": 0.03},
}

SEEDS = range(50)


def with_policy(cfg: ExperimentConfig, **changes) -> ExperimentConfig:
    return dataclasses.replace(cfg, policy=dataclasses.replace(cfg.policy, **changes))


@pytest.fixture(scope="module")
def adaptation_runs():
    """Final mean losses on the designed world, per seed, per policy."""
    base = ExperimentConfig.from_dict(ADAPTATION_WORLD)
    variants = {
        "bandit": base,
        "uniform": with_policy(base, variant="uniform"),
        "proportional": with_policy(base, variant="proportional"),
        "entropy": with_policy(base, reward_kind="delta_entropy"),
    }
    start = time.perf_counter()
    losses = {
        name: [run_experiment(cfg, seed=s).final_mean_loss for s in SEEDS]
        for name, cfg in variants.items()
    }
    losses["elapsed"] = time.perf_counter() - start
    return losses


def test_criterion_01_probability_law_suite():
    rng = np.random.default_rng(2024)
    instances = 10_000
    start = time.perf_counter()
    for i in range(instances):
        k = int(rng.integers(1, 65))
        scale = 100.0 if i % 20 == 0 else 5.0
        q = rng.uniform(-scale, scale, size=k)
        prior = rng.dirichlet(np.ones(k))
        if k > 1 and i % 10 == 0:
            # some arms carry no anchor mass at all
            wipe = rng.integers(1, k)
            prior[rng.permutation(k)[:wipe]] = 0.0
            prior = prior / prior.sum()
        beta = float(rng.uniform(0.0, 10.0))
        gamma = float(rng.uniform(0.0, 1.0))
        cfg = BanditConfig(num_arms=k, total_steps=0, beta=beta, gamma=gamma)
        p = mixture_probs(q, prior, cfg).p

        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= gamma / k - 1e-12)

        shifted = mixture_probs(q + float(rng.uniform(-50.0, 50.0)), prior, cfg).p
        assert np.max(np.abs(shifted - p)) <= 1e-12

        if i % 4 == 0:
            uniform_prior = np.full(k, 1.0 / k)
            reduced = mixture_probs(q, uniform_prior, cfg).p
            direct = (1.0 - gamma) * boltzmann_probs(q, beta) + gamma / k
            assert np.max(np.abs(reduced - direct)) <= 1e-12

        if i % 10 == 1:
            # beta = 0: estimates drop out, leaving the anchored closed form
            zero_beta = BanditConfig(num_arms=k, total_steps=0, beta=0.0, gamma=gamma)
            got = mixture_probs(q, prior, zero_beta).p
            expected = (1.0 - gamma) * (prior / np.sum(prior)) + gamma / k
            assert np.array_equal(got, expected)
        if i % 10 == 2:
            # gamma = 1: the floor is everything
            all_floor = BanditConfig(num_arms=k, total_steps=0, beta=beta, gamma=1.0)
            got = mixture_probs(q, prior, all_floor).p
            assert np.array_equal(got, np.full(k, 1.0 / k))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 1: PASS ({instances} randomized instances in {elapsed:.2f}s)")


def test_criterion_02_sampling_fidelity():
    registry = builtin_registry("tulu_v2")
    cfg = BanditConfig(num_arms=16, total_steps=0)
    dist = mixture_probs(np.linspace(-0.5, 0.5, 16), registry.prior, cfg)
    rng = np.random.default_rng(7)
    draws = 100_000
    start = time.perf_counter()
    batch = sample_batch(dist, registry, draws, rng)
    elapsed = time.perf_counter() - start
    freq = np.bincount(batch.arms, minlength=16) / draws
    result = scipy.stats.chisquare(np.bincount(batch.arms, minlength=16), draws * dist.p)
    assert result.pvalue > 0.001
    assert np.max(np.abs(freq - dist.p)) <= 0.01
    assert elapsed < 2.0
    print(
        f"criterion 2: PASS (chi2 p={result.pvalue:.3f}, "
        f"max |freq - p| = {np.max(np.abs(freq - dist.p)):.4f}, {elapsed:.3f}s)"
    )


def test_criterion_03_reward_and_ema_exactness():
    # Each oracle is one arm's probe result, scored by a whole reward round.
    got = score_round([[2.0]], [[1.0]])[0]
    assert abs(got - DELTA_LOSS_SINGLE) <= 1e-12
    got = score_round([[1.0, 2.0, 4.0]], [[0.5, 1.0, 4.0]])[0]
    assert abs(got - DELTA_LOSS_TRIPLE) <= 1e-12
    got = score_round([[0.5, 1.5]], [[0.5, 0.75]], "delta_entropy")[0]
    assert abs(got - DELTA_ENTROPY_PAIR) <= 1e-12

    import math

    rng = np.random.default_rng(11)
    alpha = 0.95
    q0 = 0.3
    rewards = rng.uniform(-1.0, 1.0, size=1000)
    q = q0
    for r in rewards:
        q = ema_update(q, float(r), alpha)
    n = len(rewards)
    closed = alpha**n * q0 + (1.0 - alpha) * math.fsum(
        alpha ** (n - 1 - i) * rewards[i] for i in range(n)
    )
    assert abs(q - closed) <= 1e-10
    print(f"criterion 3: PASS (oracles exact, 1000-step unroll drift {abs(q - closed):.2e})")


def test_criterion_04_learner_contract():
    """A reward round is pure: on each shipped config's noisy world, for both
    reward kinds, a round leaves ``state_dict()`` and the generator as they
    were, and the next real steps give the bits of a world that never probed.
    So does a probe call that raises."""
    checks = 0
    for name in ("deep_gap_world", "tulu_default", "volatile_world"):
        cfg = load_config(CONFIGS / f"{name}.json")
        resolved = cfg.resolve()
        registry, bandit = resolved.registry, resolved.bandit
        k, lr = registry.num_arms, cfg.schedule.base_rate
        assert cfg.world.noise_scale > 0, name
        world = build_world(cfg.world, k, np.random.default_rng(1), np.random.default_rng(2))
        rng = np.random.default_rng(3)
        batch = random_batch(k, 2 * bandit.batch_size, rng)
        world.train_steps(batch, [lr, lr])
        examples = rng.integers(0, 100, size=(k, bandit.batch_size))
        for kind in ("delta_loss", "delta_entropy"):
            entropy = kind == "delta_entropy"

            def reward_round(w, rate=lr):
                q = np.zeros(k)
                lookahead_round(w, registry, q, bandit, rate, np.random.default_rng(4), reward_kind=kind)

            refused = [
                lambda w: reward_round(w, float("nan")),
                lambda w: w.probe(examples[:-1], lr, entropy=entropy),
                lambda w: w.probe(examples.astype(np.float64), lr, entropy=entropy),
            ]
            check_call_is_pure(world, reward_round, batch, [lr, 0.5 * lr])
            for call in refused:
                check_call_is_pure(world, call, batch, [lr, 0.5 * lr], raises=ValueError)
            checks += 1 + len(refused)
    print(f"criterion 4: PASS ({checks} rounds and refused probes left every world bit-identical)")


def test_criterion_05_instance_coverage_balance():
    cfg = ExperimentConfig.from_dict({"world": {"noise_scale": 0.1}})
    uniform_cfg = with_policy(cfg, variant="uniform")
    start = time.perf_counter()
    wins = 0
    for seed in SEEDS:
        var_bandit = np.var(run_experiment(cfg, seed=seed).summary.coverage_ratio)
        var_uniform = np.var(run_experiment(uniform_cfg, seed=seed).summary.coverage_ratio)
        if var_bandit < var_uniform:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 45
    assert elapsed < 120.0
    print(f"criterion 5: PASS (lower coverage variance in {wins}/50 seeds, {elapsed:.1f}s)")


def test_criterion_06_nonstationary_adaptation(adaptation_runs):
    beats_uniform = sum(
        b < u for b, u in zip(adaptation_runs["bandit"], adaptation_runs["uniform"])
    )
    beats_proportional = sum(
        b < p for b, p in zip(adaptation_runs["bandit"], adaptation_runs["proportional"])
    )
    assert beats_uniform >= 45
    assert beats_proportional >= 45
    assert adaptation_runs["elapsed"] < 120.0
    print(
        f"criterion 6: PASS (beats uniform {beats_uniform}/50, "
        f"proportional {beats_proportional}/50, {adaptation_runs['elapsed']:.1f}s)"
    )


def test_criterion_07_estimate_smoothing_volatility():
    base = ExperimentConfig.from_dict(VOLATILE_WORLD)
    fast = dataclasses.replace(base, bandit=dataclasses.replace(base.bandit, alpha=0.2))
    wins = 0
    for seed in SEEDS:
        tv_fast = run_experiment(fast, seed=seed).summary.mean_step_tv
        tv_slow = run_experiment(base, seed=seed).summary.mean_step_tv
        if tv_fast > tv_slow:
            wins += 1
    assert wins >= 48
    print(f"criterion 7: PASS (fast averaging more volatile in {wins}/50 seeds)")


def test_criterion_08_uniform_anchor_stays_near_uniform():
    cfg = ExperimentConfig.from_dict(
        {
            "bandit": {"total_steps": 400},
            "world": {"noise_scale": 0.1},
        }
    )
    no_prior = with_policy(cfg, variant="bandit_no_prior")
    for seed in range(5):
        tv_anchored = _mean_tv_from_uniform(run_experiment(cfg, seed=seed))
        tv_no_prior = _mean_tv_from_uniform(run_experiment(no_prior, seed=seed))
        assert tv_no_prior < tv_anchored
    print(
        f"criterion 8: PASS (time-averaged TV from uniform: "
        f"{tv_no_prior:.4f} unanchored vs {tv_anchored:.4f} anchored)"
    )


def _mean_tv_from_uniform(result):
    k = result.resolved.registry.num_arms
    sizes = [w.last - w.first + 1 for w in result.windows]
    probs = np.repeat([w.probabilities for w in result.windows], sizes, axis=0)
    return float(np.mean(0.5 * np.abs(probs - 1.0 / k).sum(axis=1)))


def test_criterion_09_byte_identical_traces(tmp_path):
    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps(ADAPTATION_WORLD))
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "banditmix",
                "run",
                "--config",
                str(config_path),
                "--seed",
                "3",
                "--out",
                str(d),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    trace_a = (dirs[0] / "trace.jsonl").read_bytes()
    trace_b = (dirs[1] / "trace.jsonl").read_bytes()
    assert trace_a == trace_b
    assert (dirs[0] / "world.json").read_bytes() == (dirs[1] / "world.json").read_bytes()
    print(f"criterion 9: PASS (two runs, {len(trace_a)} byte traces identical)")


def test_criterion_10_entropy_reward_parity(adaptation_runs):
    wins = sum(
        e < u for e, u in zip(adaptation_runs["entropy"], adaptation_runs["uniform"])
    )
    assert wins >= 40
    print(f"criterion 10: PASS (entropy-scored variant beats uniform in {wins}/50 seeds)")
