import numpy as np
import pytest
from hypothesis import settings

from banditmix.config import ExperimentConfig
from banditmix.mixture import BanditConfig
from banditmix.registry import ArmRegistry

# Every @given test draws the same examples on every run and every host;
# a test's own @settings inherit this.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_registry():
    return ArmRegistry.from_counts({"a": 1000, "b": 3000, "c": 6000})


@pytest.fixture
def small_config():
    return BanditConfig(num_arms=3, total_steps=100, update_interval=10, batch_size=8)


@pytest.fixture
def resolutions(monkeypatch):
    """A list that gets each config the uncached resolver builds for."""
    built = []
    build = ExperimentConfig._build_resolution

    def counted(cfg):
        built.append(cfg)
        return build(cfg)

    monkeypatch.setattr(ExperimentConfig, "_build_resolution", counted)
    return built
