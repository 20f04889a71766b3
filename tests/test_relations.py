"""Relations between whole runs that must hold bit for bit.

A run splits its seed into independent streams; reward rounds draw only
from their own.  So a relation between two configs that differ in one knob
pins what a round may touch, over every step of a run.
"""

import numpy as np
import pytest

from banditmix.runner import run_experiment

from test_runner import SHIPPED, shipped_config


def short_config(name, variant, **bandit):
    if name == "tulu_default":
        bandit["total_steps"] = 500
    return shipped_config(name, variant, **bandit)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SHIPPED)
def test_bandit_at_gamma_one_is_uniform(name, seed):
    # At gamma = 1 the bandit's distribution is the uniform floor, whatever
    # its estimates.  Its rounds still run; if one drew from the training or
    # noise stream, or left the world moved, counts or world would differ.
    bandit = run_experiment(short_config(name, "bandit", gamma=1.0), seed=seed)
    uniform = run_experiment(short_config(name, "uniform"), seed=seed)
    assert sum(w.rewards is not None for w in bandit.windows) >= 2
    assert np.array_equal(bandit.counts, uniform.counts)
    assert np.array_equal(bandit.learning_rates, uniform.learning_rates)
    assert bandit.world.state_dict() == uniform.world.state_dict()
