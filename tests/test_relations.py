"""Relations between whole runs that must hold bit for bit.

A run splits its seed into independent streams; reward rounds draw only
from their own.  So a relation between two configs that differ in one knob
pins what a round may touch, over every step of a run.
"""

import dataclasses

import numpy as np
import pytest

from banditmix.config import RegistrySection
from banditmix.policies import PolicyKind

from test_runner import SHIPPED, shipped_config
from trace_oracles import recorded_run


def short_config(name, variant, **bandit):
    if name == "tulu_default":
        bandit["total_steps"] = 500
    return shipped_config(name, variant, **bandit)


def assert_same_training(a, b):
    """The recorded runs ``a`` and ``b`` drew and trained alike and end in one world."""
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.learning_rates, b.learning_rates)
    assert a.result.world.state_dict() == b.result.world.state_dict()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SHIPPED)
def test_bandit_at_gamma_one_is_uniform(name, seed):
    # At gamma = 1 the bandit's distribution is the uniform floor, whatever
    # its estimates.  Its rounds still run; if one drew from the training or
    # noise stream, or left the world moved, counts or world would differ.
    bandit = recorded_run(short_config(name, "bandit", gamma=1.0), seed=seed)
    uniform = recorded_run(short_config(name, "uniform"), seed=seed)
    assert sum(w.rewards is not None for w in bandit.result.windows) >= 2
    assert_same_training(bandit, uniform)


def assert_equals_static_run(cfg, seed, bandit):
    """The recorded ``bandit`` drew and trained as a static run at its first probabilities."""
    static = dataclasses.replace(cfg, policy=PolicyKind("static", static_probs=bandit.result.windows[0].probabilities))
    assert_same_training(bandit, recorded_run(static, seed=seed))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SHIPPED)
def test_zero_rate_freezes_the_run(name, seed):
    # At rate 0 no step moves the world and no probe moves a loss, so every
    # reward is 0, the estimates stay 0 and the distribution never changes.
    cfg = short_config(name, "bandit")
    cfg = dataclasses.replace(cfg, schedule=dataclasses.replace(cfg.schedule, base_rate=0.0))
    bandit = recorded_run(cfg, seed=seed)
    assert sum(w.rewards is not None for w in bandit.result.windows) >= 2
    assert all(w.q_after == (0.0,) * len(w.q_after) for w in bandit.result.windows)
    assert not bandit.learning_rates.any()
    assert_equals_static_run(cfg, seed, bandit)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SHIPPED)
def test_one_final_round_changes_nothing(name, seed):
    # The only round follows the last draw; if it drew from the training or
    # noise stream, or left the world moved, the static twin would differ.
    cfg = short_config(name, "bandit")
    total = cfg.resolve().bandit.total_steps
    cfg = dataclasses.replace(cfg, bandit=dataclasses.replace(cfg.bandit, update_interval=total))
    bandit = recorded_run(cfg, seed=seed)
    assert [w.rewards is not None for w in bandit.result.windows][-1]
    assert sum(w.rewards is not None for w in bandit.result.windows) == 1
    assert_equals_static_run(cfg, seed, bandit)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SHIPPED)
def test_no_prior_is_the_bandit_on_equal_counts(name, seed):
    # With every arm's count equal the prior c / (K c) is 1 / K, the same
    # double as the no-prior anchor, so the two variants run alike; only
    # the summary's config hash tells them apart.
    runs = []
    for variant in ("bandit", "bandit_no_prior"):
        cfg = shipped_config(name, variant, **({"total_steps": 300} if name == "tulu_default" else {}))
        names = cfg.resolve().registry.names
        cfg = dataclasses.replace(cfg, registry=RegistrySection(arms=tuple((n, 4000) for n in names)))
        runs.append(recorded_run(cfg, seed=seed))
    assert_same_training(*runs)
    bandit, no_prior = (run.result for run in runs)
    assert sum(w.rewards is not None for w in bandit.windows) >= 2
    assert len(set(bandit.windows[-1].probabilities)) > 1
    assert bandit.windows == no_prior.windows
    assert bandit.summary.config_hash != no_prior.summary.config_hash
    assert dataclasses.replace(bandit.summary, config_hash=no_prior.summary.config_hash) == no_prior.summary
