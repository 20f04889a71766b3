"""Experiment configuration: JSON schema, validation, and hashing.

Configs are plain JSON objects with one section per concern.  One table maps
every key to a reader that checks its value, for config files and sweep
grids alike; unknown keys are errors, and every complaint names the key
path.  The policy, world and schedule sections are their runtime types,
checked at load.  ``resolve`` builds the rest (registry and bandit
hyperparameters), deriving the step budget from the registry unless given,
once per config object; the copies ``with_seed`` makes share what it built.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .mixture import BanditConfig, MixtureDistribution
from .policies import PolicyKind
from .registry import ArmRegistry, BUILTIN_REGISTRIES, builtin_registry
from .simworld import LrSchedule, WorldParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResolvedExperiment",
    "load_json",
    "load_config",
    "apply_param_overrides",
    "resolve_output_dir",
    "OUTPUT_DIR_ENV",
]

OUTPUT_DIR_ENV = "BANDITMIX_OUTPUT_DIR"

# Epoch multiplier used when total_steps is not given: enough steps to pass
# over the full pool about twice at the configured batch size.
DEFAULT_EPOCHS = 2


class ConfigError(ValueError):
    """A config failed validation; the message names the offending key."""


def _mismatch(path: str, what: str, value: object) -> ConfigError:
    return ConfigError(f"{path}: expected {what}, got {value!r}")


# Key readers: each takes a JSON value and its key path, and returns the
# value the config holds or raises a ConfigError naming the path.


def _number(v: object, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _mismatch(path, "a number", v)
    try:
        return float(v)
    except OverflowError:  # an integer past the float range
        raise _mismatch(path, "a number in the float range", v) from None


def _integer(v: object, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _mismatch(path, "an integer", v)
    return v


def _count(v: object, path: str) -> int:
    if _integer(v, path) < 0:
        raise _mismatch(path, "an integer >= 0", v)
    return v


def _string(v: object, path: str) -> str:
    if not isinstance(v, str):
        raise _mismatch(path, "a string", v)
    return v


def _numbers(v: object, path: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise _mismatch(path, "a list of numbers", v)
    return tuple(_number(x, path) for x in v)


def _number_or_numbers(v: object, path: str) -> float | tuple[float, ...]:
    return _numbers(v, path) if isinstance(v, list) else _number(v, path)


def _optional(read):
    return lambda v, path: None if v is None else read(v, path)


def _registry_name(v: object, path: str) -> str:
    if _string(v, path) not in BUILTIN_REGISTRIES:
        raise _mismatch(path, f"a built-in registry ({', '.join(sorted(BUILTIN_REGISTRIES))})", v)
    return v


def _arms(v: object, path: str) -> tuple[tuple[str, int], ...]:
    # An ordered object of name -> count, or a list of [name, count] pairs.
    pairs = list(v.items()) if isinstance(v, dict) else v
    if not (isinstance(pairs, list) and pairs and all(
        isinstance(e, (list, tuple)) and len(e) == 2 and isinstance(e[0], str) for e in pairs
    )):
        raise _mismatch(path, "a nonempty object or list of [name, count] pairs", v)
    return tuple((name, _integer(count, f"{path}.{name}")) for name, count in pairs)


@dataclass(frozen=True)
class BanditSection:
    """``BanditConfig`` without the arm count; ``resolve`` adds it and
    derives a null ``total_steps``.  The defaults are ``BanditConfig``'s."""

    beta: float = BanditConfig.beta
    gamma: float = BanditConfig.gamma
    alpha: float = BanditConfig.alpha
    epsilon: float = BanditConfig.epsilon
    update_interval: int = BanditConfig.update_interval
    batch_size: int = BanditConfig.batch_size
    total_steps: int | None = None


@dataclass(frozen=True)
class RegistrySection:
    """Either a built-in registry name or inline arm definitions."""

    name: str | None = None
    arms: tuple[tuple[str, int], ...] | None = None
    prior: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.arms is None):
            raise ConfigError("registry: give exactly one of 'name' or 'arms'")
        if self.prior is not None and self.name is not None:
            raise ConfigError("registry.prior: only valid with inline 'arms'")

    def build(self) -> ArmRegistry:
        if self.name is not None:
            return builtin_registry(self.name)
        return ArmRegistry.from_counts(list(self.arms), prior=self.prior)


# The schema: each section's type and the reader of every key.
_SECTIONS = {
    "bandit": BanditSection,
    "schedule": LrSchedule,
    "policy": PolicyKind,
    "world": WorldParams,
    "registry": RegistrySection,
}
_READERS = {
    "config": {"seed": _count, "output_dir": _optional(_string)},
    "bandit": {
        **dict.fromkeys(("beta", "gamma", "alpha", "epsilon"), _number),
        "update_interval": _integer,
        "batch_size": _integer,
        "total_steps": _optional(_count),
    },
    "schedule": {"base_rate": _number, "warmup_fraction": _number},
    "policy": {"variant": _string, "reward_kind": _string, "static_probs": _optional(_numbers)},
    "world": {
        **dict.fromkeys(("base_loss", "floor", "learnability"), _number_or_numbers),
        "transfer": _optional(_number),
        "noise_scale": _number,
        "init_spread": _number,
    },
    "registry": {
        "name": _optional(_registry_name),
        "arms": _optional(_arms),
        "prior": _optional(_numbers),
    },
}
# Keys whose lists need one entry per arm, checked once the registry is built.
_PER_ARM = (("policy", "static_probs"), ("world", "base_loss"), ("world", "floor"), ("world", "learnability"))


def _read(section: str, key: str, value: object) -> object:
    return _READERS[section][key](value, f"{section}.{key}")


def _read_object(obj: object, path: str, allowed) -> dict:
    if not isinstance(obj, dict):
        raise _mismatch(path, "an object", obj)
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(repr(k) for k in unknown)}")
    return obj


def _build(section: str, make, **kwargs):
    """``make(**kwargs)``, turning a ValueError into a ConfigError naming ``section``."""
    try:
        return make(**kwargs)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from e


def _read_section(section: str, obj: object):
    if section == "registry" and isinstance(obj, str):
        obj = {"name": obj}
    obj = _read_object(obj, section, _READERS[section])
    return _build(section, _SECTIONS[section], **{k: _read(section, k, v) for k, v in obj.items()})


@dataclass(frozen=True)
class ExperimentConfig:
    bandit: BanditSection = BanditSection()
    schedule: LrSchedule = LrSchedule()
    policy: PolicyKind = PolicyKind()
    world: WorldParams = WorldParams()
    registry: RegistrySection = RegistrySection(name="tulu_v2")
    seed: int = 0
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, obj: object) -> "ExperimentConfig":
        obj = _read_object(obj, "config", _SECTIONS.keys() | _READERS["config"].keys())
        return cls(
            **{k: _read_section(k, v) if k in _SECTIONS else _read("config", k, v) for k, v in obj.items()}
        )

    def with_seed(self, seed: object) -> "ExperimentConfig":
        """A copy with ``seed`` read as the config's ``seed`` key is.

        The copy shares this config's resolution, if it has one, since no
        part of it depends on the seed.  Every other copy resolves anew.
        """
        copy = dataclasses.replace(self, seed=_read("config", "seed", seed))
        if "_resolution" in self.__dict__:
            object.__setattr__(copy, "_resolution", self._resolution)
        return copy

    def config_hash(self) -> str:
        """Short content hash over everything that shapes the run but the seed."""
        # Each section's fields as they are, the values ``asdict`` would
        # deep-copy; json writes tuples as arrays.
        obj = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            obj[name] = {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}
        canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def resolve(self) -> "ResolvedExperiment":
        """Build the runtime objects, or raise ConfigError naming the problem.

        They are built on the first call and kept on this object, outside
        its fields, so ``==``, ``hash`` and ``repr`` ignore them; a call that
        raises keeps nothing, and the next call raises again.
        """
        if "_resolution" not in self.__dict__:
            object.__setattr__(self, "_resolution", self._build_resolution())
        return ResolvedExperiment(config=self, **self._resolution)

    def _build_resolution(self) -> dict:
        """The seed-independent fields of ``resolve``'s result."""
        registry = _build("registry", self.registry.build)
        k = registry.num_arms
        total = self.bandit.total_steps
        if total is None:
            # BanditConfig rejects a batch size below 1; only the division
            # must not fail on it first.
            total = -(-DEFAULT_EPOCHS * registry.total_count // max(self.bandit.batch_size, 1))
        # A section's fields are keyword arguments of its runtime type.
        bandit_args = vars(self.bandit) | {"num_arms": k, "total_steps": total}
        bandit = _build("bandit", BanditConfig, **bandit_args)
        for section, key in _PER_ARM:
            v = getattr(getattr(self, section), key)
            if isinstance(v, tuple) and len(v) != k:
                raise ConfigError(f"{section}: {key} has {len(v)} entries but the registry has {k} arms")
        # The run builds its world and a static distribution from these
        # values; check them here so a config that validates also runs.
        _build("world", self.world.per_arm, num_arms=k)
        if self.policy.static_probs is not None:
            _build("policy.static_probs", MixtureDistribution, p=self.policy.static_probs)
        return {
            "registry": registry,
            "bandit": bandit,
            "config_hash": self.config_hash(),
        }


@dataclass(frozen=True)
class ResolvedExperiment:
    """The runtime objects a validated config denotes.

    Only what ``config`` does not already hold: its policy, world, schedule
    and seed are the ``config`` fields of those names.
    """

    config: ExperimentConfig
    registry: ArmRegistry
    bandit: BanditConfig
    config_hash: str


def load_json(path: str | Path, what: str) -> object:
    """Parse a JSON file; an unreadable file, bad JSON or a repeated key is a ConfigError.

    Bad JSON is any text ``json.loads`` refuses, including bytes that are
    not UTF-8, an integer past Python's digit limit and nesting past the
    recursion limit; each error names the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from None

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ConfigError:
        raise
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    except (ValueError, RecursionError) as e:  # an integer past int's digit limit, or deep nesting
        raise ConfigError(f"{path} is not valid JSON: {e}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    return ExperimentConfig.from_dict(load_json(path, "config"))


# Bandit hyperparameters a sweep may vary.
SWEEPABLE = ("beta", "gamma", "alpha", "update_interval")


def apply_param_overrides(cfg: ExperimentConfig, overrides: dict[str, object]) -> ExperimentConfig:
    """Return a copy of ``cfg`` with sweepable hyperparameters replaced.

    Each value is read exactly as the same key in a config file is.
    """
    changes = {}
    for key, value in overrides.items():
        if key not in SWEEPABLE:
            raise ConfigError(
                f"sweep: cannot vary {key!r}; sweepable: {', '.join(sorted(SWEEPABLE))}"
            )
        changes[key] = _read("bandit", key, value)
    if not changes:
        return cfg
    return dataclasses.replace(cfg, bandit=dataclasses.replace(cfg.bandit, **changes))


def resolve_output_dir(cli_out: str | None, cfg: ExperimentConfig) -> Path:
    """Output directory precedence: CLI flag, then config, then env, then ./runs."""
    if cli_out is not None:
        return Path(cli_out)
    if cfg.output_dir is not None:
        return Path(cfg.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("runs")
