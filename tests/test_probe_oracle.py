"""End-to-end oracle for the closed-form reward round.

Each run is repeated on a world whose ``probe`` is the reference
``LoopLearner.probe`` loop: the runner's ``build_world`` is patched to hand
the loop a ``LoopWorld`` in the state of the world it built.  Both runs must
produce equal records and an equal final world.
"""

import json
from pathlib import Path

import pytest

from banditmix import runner
from banditmix.config import ExperimentConfig

from learner_contract import LoopLearner, LoopWorld
from trace_oracles import recorded_run, run_records

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
WORLDS = ("tulu_default", "deep_gap_world", "volatile_world")
TULU_STEPS = 500

# One arm probed with two examples per round, every step: the factor is
# squared at every probe, where a one-arm world's own step and the closed
# form used to round differently.
ONE_ARM = {
    "bandit": {"total_steps": 300, "update_interval": 1, "batch_size": 2},
    "schedule": {"base_rate": 0.3, "warmup_fraction": 0.5},
    "world": {"noise_scale": 0.1},
    "registry": {"arms": {"only": 1000}},
}


class GenericProbeWorld(LoopWorld):
    probe = LoopLearner.probe


def world_config(world: str, reward_kind: str) -> ExperimentConfig:
    obj = json.loads((CONFIGS / f"{world}.json").read_text(encoding="utf-8"))
    if world == "tulu_default":
        obj["bandit"]["total_steps"] = TULU_STEPS
    obj["policy"] = {"variant": "bandit", "reward_kind": reward_kind}
    return ExperimentConfig.from_dict(obj)


def cases():
    for world in WORLDS:
        for reward_kind in ("delta_loss", "delta_entropy"):
            for seed in (0, 1):
                yield pytest.param(world_config(world, reward_kind), seed, id=f"{world}/{reward_kind}/{seed}")
    for seed in (1, 2, 3):
        yield pytest.param(ExperimentConfig.from_dict(ONE_ARM), seed, id=f"one_arm/{seed}")


@pytest.mark.parametrize("cfg, seed", cases())
def test_closed_form_round_matches_generic_loop(cfg, seed, monkeypatch):
    closed = recorded_run(cfg, seed=seed)
    build_world = runner.build_world
    monkeypatch.setattr(
        runner, "build_world", lambda *args: GenericProbeWorld.from_state_dict(build_world(*args).state_dict())
    )
    generic = recorded_run(cfg, seed=seed)
    assert type(generic.result.world) is GenericProbeWorld
    assert run_records(closed) == run_records(generic)
    assert closed.result.world.state_dict() == generic.result.world.state_dict()
