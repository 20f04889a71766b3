import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditmix.config import (
    OUTPUT_DIR_ENV,
    SWEEPABLE,
    ConfigError,
    ExperimentConfig,
    apply_param_overrides,
    load_config,
    resolve_output_dir,
)
from banditmix.config import BanditSection
from banditmix.mixture import BanditConfig
from banditmix.policies import POLICY_VARIANTS
from banditmix.registry import BUILTIN_REGISTRIES
from banditmix.simworld import LrSchedule

def config_dict(cfg):
    """``cfg``'s fields as the plain JSON a config file holds."""
    return json.loads(json.dumps(dataclasses.asdict(cfg), default=list))


INLINE_REGISTRY = {"arms": {"a": 1000, "b": 3000}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Configs that between them use every key reader: registry as an object, as
# pairs and with a prior; world vectors with a null transfer; a static
# policy; an explicit step budget.
PINNED_INLINE = {
    "defaults": {},
    "registry_object": {"registry": INLINE_REGISTRY},
    "registry_pairs_prior": {
        "registry": {"arms": [["b", 4000], ["a", 2000]], "prior": [0.25, 0.75]},
    },
    "world_vectors_null_transfer": {
        "registry": {"arms": {"a": 1000, "b": 2000, "c": 3000}},
        "world": {
            "base_loss": [3.0, 2.5, 2],
            "floor": [0.5, 0.25, 0.5],
            "learnability": [1, 0.5, 0.75],
            "transfer": None,
            "noise_scale": 0.2,
            "init_spread": 0.1,
        },
    },
    "static_policy": {
        "registry": INLINE_REGISTRY,
        "policy": {"variant": "static", "static_probs": [0.25, 0.75]},
    },
    "explicit_total_steps": {
        "bandit": {
            "beta": 2,
            "gamma": 0.1,
            "alpha": 0.5,
            "epsilon": 1e-6,
            "update_interval": 5,
            "batch_size": 16,
            "total_steps": 40,
        },
        "schedule": {"base_rate": 0.05, "warmup_fraction": 0.1},
        "policy": {"variant": "bandit_no_prior", "reward_kind": "delta_entropy"},
        "registry": "tulu_v2_science_merged",
        "seed": 5,
    },
}

# Captured before the config sections became the runtime types; a schema
# refactor must leave every one of them unchanged.
PINNED_HASHES = {
    "defaults": "d798bce5ffee",
    "registry_object": "aaff4fcddcd7",
    "registry_pairs_prior": "8b0173d8700c",
    "world_vectors_null_transfer": "32abcc2eabb8",
    "static_policy": "9f59ed93fb81",
    "explicit_total_steps": "c2cff86de97e",
    "tulu_default": "277a9da3a907",
    "deep_gap_world": "70283c4c7d81",
    "volatile_world": "fe6aff851c3e",
}


def pinned_config(name):
    if name in PINNED_INLINE:
        return ExperimentConfig.from_dict(PINNED_INLINE[name])
    return load_config(CONFIGS / f"{name}.json")


class TestFromDict:
    def test_empty_object_gives_defaults(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.bandit.beta == 4.0
        assert cfg.bandit.gamma == 0.3
        assert cfg.bandit.alpha == 0.95
        assert cfg.bandit.update_interval == 50
        assert cfg.bandit.batch_size == 128
        assert cfg.schedule.base_rate == 0.01
        assert cfg.policy.variant == "bandit"
        assert cfg.registry.name == "tulu_v2"
        assert cfg.seed == 0

    def test_empty_object_resolves_to_the_runtime_defaults(self):
        # The sections take their defaults from the runtime types, so the two
        # cannot drift apart.
        cfg = ExperimentConfig.from_dict({})
        bandit = cfg.resolve().bandit
        assert bandit == BanditConfig(num_arms=bandit.num_arms, total_steps=bandit.total_steps)
        assert cfg.schedule == LrSchedule()

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="config"):
            ExperimentConfig.from_dict({"bandits": {}})

    def test_unknown_section_key_names_the_path(self):
        with pytest.raises(ConfigError, match="bandit"):
            ExperimentConfig.from_dict({"bandit": {"betta": 2.0}})

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="bandit.beta"):
            ExperimentConfig.from_dict({"bandit": {"beta": "hot"}})
        with pytest.raises(ConfigError, match="bandit.update_interval"):
            ExperimentConfig.from_dict({"bandit": {"update_interval": 2.5}})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bandit": {"beta": True}})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_dict({"seed": -1})

    def test_registry_bare_string(self):
        cfg = ExperimentConfig.from_dict({"registry": "tulu_v2_science_merged"})
        assert cfg.registry.name == "tulu_v2_science_merged"

    def test_registry_unknown_name(self):
        with pytest.raises(ConfigError, match="registry.name"):
            ExperimentConfig.from_dict({"registry": "imagenet"})

    def test_registry_inline_arms(self):
        cfg = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY})
        assert cfg.registry.name is None
        assert cfg.registry.arms == (("a", 1000), ("b", 3000))

    def test_registry_arms_as_pairs(self):
        cfg = ExperimentConfig.from_dict({"registry": {"arms": [["b", 10], ["a", 20]]}})
        assert cfg.registry.arms == (("b", 10), ("a", 20))

    def test_registry_name_and_arms_exclusive(self):
        with pytest.raises(ConfigError, match="registry"):
            ExperimentConfig.from_dict({"registry": {"name": "tulu_v2", "arms": {"a": 1}}})
        with pytest.raises(ConfigError, match="registry"):
            ExperimentConfig.from_dict({"registry": {}})

    def test_registry_prior_only_with_inline_arms(self):
        with pytest.raises(ConfigError, match="registry.prior"):
            ExperimentConfig.from_dict({"registry": {"name": "tulu_v2", "prior": [0.5, 0.5]}})
        cfg = ExperimentConfig.from_dict(
            {"registry": {"arms": {"a": 10, "b": 10}, "prior": [0.9, 0.1]}}
        )
        assert cfg.registry.prior == (0.9, 0.1)

    def test_world_vectors_and_null_transfer(self):
        cfg = ExperimentConfig.from_dict(
            {"world": {"base_loss": [3.0, 2.0], "transfer": None, "noise_scale": 0.1}}
        )
        assert cfg.world.base_loss == (3.0, 2.0)
        assert cfg.world.transfer is None

    def test_static_probs_parsed(self):
        cfg = ExperimentConfig.from_dict(
            {
                "policy": {"variant": "static", "static_probs": [0.5, 0.5]},
                "registry": INLINE_REGISTRY,
            }
        )
        assert cfg.policy.static_probs == (0.5, 0.5)

    def test_policy_and_world_checked_at_load(self):
        with pytest.raises(ConfigError, match="policy: unknown policy variant"):
            ExperimentConfig.from_dict({"policy": {"variant": "greedy"}})
        with pytest.raises(ConfigError, match="world: transfer"):
            ExperimentConfig.from_dict({"world": {"transfer": 2.0}})

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"base_rate": -0.5}, "schedule: base_rate must be finite and >= 0, got -0.5"),
            ({"base_rate": float("inf")}, "schedule: base_rate must be finite and >= 0, got inf"),
            ({"warmup_fraction": 1}, "schedule: warmup_fraction must lie in [0, 1), got 1.0"),
            ({"warmup_fraction": -0.25}, "schedule: warmup_fraction must lie in [0, 1), got -0.25"),
        ],
    )
    def test_schedule_checked_at_load(self, tmp_path, schedule, message):
        # Refused by from_dict and by load_config alike, before any resolve.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict({"schedule": schedule})
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"schedule": schedule}), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)


# Each of these crashed with a bare TypeError (exit 3) naming no key.
NULL_INTEGERS = {
    "config.seed": {"seed": None},
    "bandit.update_interval": {"bandit": {"update_interval": None}},
    "bandit.batch_size": {"bandit": {"batch_size": None}},
}


@pytest.mark.parametrize("path", sorted(NULL_INTEGERS))
def test_null_integer_is_a_config_error(path):
    with pytest.raises(ConfigError, match=f"^{path}: expected an integer, got None"):
        ExperimentConfig.from_dict({"registry": INLINE_REGISTRY, **NULL_INTEGERS[path]}).resolve()


def test_zero_batch_size_with_derived_budget_is_a_config_error():
    cfg = ExperimentConfig.from_dict({"bandit": {"batch_size": 0}})
    with pytest.raises(ConfigError, match="bandit: batch_size must be >= 1"):
        cfg.resolve()


class TestPinnedHashes:
    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_hash_unchanged(self, name):
        cfg = pinned_config(name)
        cfg.resolve()
        assert cfg.config_hash() == PINNED_HASHES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_dict_round_trip(self, name):
        cfg = pinned_config(name)
        assert ExperimentConfig.from_dict(config_dict(cfg)) == cfg


class TestConfigHash:
    def test_stable_across_equal_configs(self):
        a = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY})
        b = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY})
        assert a.config_hash() == b.config_hash()

    def test_seed_does_not_change_hash(self):
        a = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY, "seed": 0})
        b = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY, "seed": 99})
        assert a.config_hash() == b.config_hash()

    def test_output_dir_does_not_change_hash(self):
        a = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY})
        b = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY, "output_dir": "x"})
        assert a.config_hash() == b.config_hash()

    def test_substantive_change_changes_hash(self):
        a = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY})
        b = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY, "bandit": {"beta": 5.0}})
        assert a.config_hash() != b.config_hash()

    def test_hash_is_short_hex(self):
        h = ExperimentConfig().config_hash()
        assert len(h) == 12
        int(h, 16)


def reference_config_hash(cfg):
    """``config_hash`` as it was first written: ``asdict``, a deep copy, then the dump."""
    obj = dataclasses.asdict(cfg)
    del obj["seed"], obj["output_dir"]
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json") if p.stem != "alpha_grid")

# from_dict input: JSON ints and floats (-0.0 too) for number keys, world
# keys as a number or a list, inline arms as an object or pairs with and
# without a prior, a static policy with its probabilities.  Each section and
# key may be left out.
_numbers = st.one_of(
    st.integers(-5, 5), st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e-6, 1e300]), st.floats(allow_nan=False)
)
_unit = st.one_of(st.sampled_from([0, 1, 0.0, -0.0, 1.0]), st.floats(0, 1))
# The schedule values load accepts: a finite rate >= 0 and a fraction in [0, 1).
_rate = st.one_of(st.integers(0, 5), st.sampled_from([0.0, -0.0, 0.5, 1e-6, 1e300]), st.floats(0, allow_infinity=False))
_fraction = st.one_of(st.sampled_from([0, 0.0, -0.0, 0.5]), st.floats(0, 1, exclude_max=True))
_arms = st.lists(st.tuples(st.text("abc", min_size=1, max_size=3), st.integers(0, 10**6)), min_size=1, max_size=4)
_registry = st.one_of(
    st.sampled_from(sorted(BUILTIN_REGISTRIES)),
    st.fixed_dictionaries({"name": st.sampled_from(sorted(BUILTIN_REGISTRIES))}),
    st.fixed_dictionaries(
        {"arms": st.one_of(_arms.map(dict), _arms.map(lambda pairs: [list(p) for p in pairs]))},
        optional={"prior": st.lists(_numbers, max_size=4)},
    ),
)
_policy = st.one_of(
    st.fixed_dictionaries(
        {"variant": st.sampled_from([v for v in POLICY_VARIANTS if v != "static"])},
        optional={"reward_kind": st.sampled_from(["delta_loss", "delta_entropy"])},
    ),
    st.fixed_dictionaries({"variant": st.just("static"), "static_probs": st.lists(_numbers, max_size=4)}),
)
_world = st.fixed_dictionaries(
    {},
    optional={
        **dict.fromkeys(("base_loss", "floor", "learnability"), st.one_of(_numbers, st.lists(_numbers, max_size=4))),
        "transfer": st.one_of(st.none(), _unit),
        "noise_scale": st.one_of(st.integers(0, 3), st.floats(0, 10)),
        "init_spread": st.one_of(st.just(0), st.floats(0, 0.99)),
    },
)
_bandit = st.fixed_dictionaries(
    {},
    optional={
        **dict.fromkeys(("beta", "gamma", "alpha", "epsilon"), _numbers),
        "update_interval": st.integers(-2, 100),
        "batch_size": st.integers(-2, 256),
        "total_steps": st.one_of(st.none(), st.integers(0, 10**4)),
    },
)
CONFIG_INPUTS = st.fixed_dictionaries(
    {},
    optional={
        "bandit": _bandit,
        "schedule": st.fixed_dictionaries({}, optional={"base_rate": _rate, "warmup_fraction": _fraction}),
        "policy": _policy,
        "world": _world,
        "registry": _registry,
        "seed": st.integers(0, 99),
        "output_dir": st.one_of(st.none(), st.text(max_size=3)),
    },
)


class TestHashReference:
    @pytest.mark.parametrize("name", sorted({*SHIPPED, *PINNED_INLINE}))
    def test_equals_the_asdict_form(self, name):
        cfg = pinned_config(name)
        assert cfg.config_hash() == reference_config_hash(cfg)

    @settings(max_examples=300, deadline=None)
    @given(obj=CONFIG_INPUTS)
    def test_equals_the_asdict_form_on_from_dict_input(self, obj):
        cfg = ExperimentConfig.from_dict(obj)
        assert cfg.config_hash() == reference_config_hash(cfg)

    @pytest.mark.parametrize("a, b", [(4, 4.0), (0.0, -0.0)])
    def test_equal_configs_of_other_number_types_hash_apart(self, a, b):
        # Such configs compare equal, so a cache keyed by config equality
        # would hand one the other's hash.
        cfg_a, cfg_b = (ExperimentConfig(bandit=BanditSection(beta=v)) for v in (a, b))
        assert cfg_a == cfg_b and hash(cfg_a) == hash(cfg_b)
        hashes = cfg_a.resolve().config_hash, cfg_b.resolve().config_hash
        assert hashes == (reference_config_hash(cfg_a), reference_config_hash(cfg_b))
        assert hashes[0] != hashes[1]


def registry_view(registry):
    return registry.names, registry.counts.tolist(), registry.prior.tolist()


class TestSharedResolution:
    @pytest.mark.parametrize("name", SHIPPED)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_seed_copy_resolves_like_a_fresh_load(self, name, seed):
        cfg = load_config(CONFIGS / f"{name}.json")
        cfg.resolve()
        shared = cfg.with_seed(seed).resolve()
        fresh = dataclasses.replace(load_config(CONFIGS / f"{name}.json"), seed=seed).resolve()
        assert shared.config.seed == seed
        assert shared.config == fresh.config
        assert (shared.config_hash, shared.bandit) == (fresh.config_hash, fresh.bandit)
        assert registry_view(shared.registry) == registry_view(fresh.registry)

    def test_resolves_once_per_object_and_seed_copy(self, resolutions):
        cfg = ExperimentConfig()
        first = cfg.resolve()
        copies = [cfg.with_seed(seed) for seed in range(3)]
        results = [c.resolve() for c in [cfg, *copies, *copies]]
        assert resolutions == [cfg]
        assert [r.config.seed for r in results] == [0, 0, 1, 2, 0, 1, 2]
        assert all(r.registry is first.registry and r.bandit is first.bandit for r in results)

    def test_other_copies_resolve_anew(self, resolutions):
        cfg = ExperimentConfig()
        cfg.resolve()
        copies = [
            apply_param_overrides(cfg, {"beta": 2.0}),
            dataclasses.replace(cfg, seed=3),
            ExperimentConfig.from_dict(config_dict(cfg)),
        ]
        for copy in copies:
            copy.resolve()
        assert resolutions == [cfg, *copies]

    def test_seed_copy_of_an_unresolved_config_resolves_itself(self, resolutions):
        cfg = ExperimentConfig()
        copy = cfg.with_seed(1)
        copy.resolve()
        cfg.resolve()
        assert resolutions == [copy, cfg]

    def test_failed_resolution_is_not_kept(self, resolutions):
        cfg = ExperimentConfig.from_dict({"bandit": {"gamma": 1.5}, "registry": INLINE_REGISTRY})
        for _ in range(3):
            with pytest.raises(ConfigError, match="bandit"):
                cfg.resolve()
            with pytest.raises(ConfigError, match="bandit"):
                cfg.with_seed(1).resolve()
        assert len(resolutions) == 6

    def test_eq_hash_and_repr_stay_field_only(self):
        cfg, twin = ExperimentConfig(), ExperimentConfig()
        before = repr(cfg)
        cfg.resolve()
        assert repr(cfg) == before == repr(twin)
        assert cfg == twin and hash(cfg) == hash(twin)
        assert config_dict(cfg) == config_dict(twin)


class TestResolve:
    def test_default_total_steps_covers_two_epochs(self):
        resolved = ExperimentConfig().resolve()
        # ceil(2 * 329140 / 128)
        assert resolved.bandit.total_steps == 5143
        assert resolved.registry.num_arms == 16

    def test_explicit_total_steps_wins(self):
        cfg = ExperimentConfig.from_dict(
            {"bandit": {"total_steps": 100, "update_interval": 10}, "registry": INLINE_REGISTRY}
        )
        assert cfg.resolve().bandit.total_steps == 100

    def test_bad_bandit_values_name_the_section(self):
        cfg = ExperimentConfig.from_dict(
            {"bandit": {"gamma": 1.5}, "registry": INLINE_REGISTRY}
        )
        with pytest.raises(ConfigError, match="bandit"):
            cfg.resolve()

    def test_static_probs_length_checked_against_registry(self):
        cfg = ExperimentConfig.from_dict(
            {
                "policy": {"variant": "static", "static_probs": [0.2, 0.3, 0.5]},
                "registry": INLINE_REGISTRY,
            }
        )
        with pytest.raises(ConfigError, match="policy"):
            cfg.resolve()

    def test_world_vector_length_checked_against_registry(self):
        cfg = ExperimentConfig.from_dict(
            {"world": {"base_loss": [3.0, 2.0, 1.0]}, "registry": INLINE_REGISTRY}
        )
        with pytest.raises(ConfigError, match="world"):
            cfg.resolve()

    def test_inline_prior_reaches_registry(self):
        cfg = ExperimentConfig.from_dict(
            {
                "bandit": {"total_steps": 100, "update_interval": 10},
                "registry": {"arms": {"a": 10, "b": 30}, "prior": [0.5, 0.5]},
            }
        )
        resolved = cfg.resolve()
        assert tuple(resolved.registry.prior) == (0.5, 0.5)

    def test_hash_carried_through(self):
        cfg = ExperimentConfig.from_dict({"registry": INLINE_REGISTRY})
        assert cfg.resolve().config_hash == cfg.config_hash()


class TestDictRoundTrip:
    def test_to_dict_then_from_dict(self):
        cfg = ExperimentConfig.from_dict(
            {
                "bandit": {"beta": 2.0, "total_steps": 50, "update_interval": 10},
                "world": {"base_loss": [3.0, 2.0], "floor": [0.5, 0.5]},
                "registry": INLINE_REGISTRY,
                "seed": 7,
            }
        )
        again = ExperimentConfig.from_dict(config_dict(cfg))
        assert again == cfg


class TestLoadConfig:
    def test_loads_json_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"registry": INLINE_REGISTRY, "seed": 3}))
        cfg = load_config(path)
        assert cfg.seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    # Text json.loads refuses with an error other than JSONDecodeError; each
    # once escaped load_json as that error.
    @pytest.mark.parametrize(
        "data, detail",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            (b'{"bandit": {"beta": ' + b"7" * 5001 + b"}}", "Exceeds the limit"),
            (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf-8", "integer-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_unparsable_text_is_a_config_error_naming_the_file(self, tmp_path, data, detail):
        path = tmp_path / "unparsable.json"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} is not valid JSON: .*{detail}"):
            load_config(path)

    # json.loads keeps the last of two equal keys; a config must not.
    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"registry": {"arms": {"a": 1000, "a": 2000, "b": 500}}}', "'a'"),
            ('{"registry": {"arms": {"a": 1000, "b": 500}}, "bandit": {"beta": 1.0}, "bandit": {"beta": 2.0}}', "'bandit'"),
        ],
    )
    def test_duplicate_key(self, tmp_path, text, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"duplicate key {key}"):
            load_config(path)


class TestOverrides:
    def test_sweepable_table(self):
        assert set(SWEEPABLE) == {"beta", "gamma", "alpha", "update_interval"}

    def test_apply_override(self):
        cfg = apply_param_overrides(ExperimentConfig(), {"beta": 8.0, "alpha": 0.5})
        assert cfg.bandit.beta == 8.0
        assert cfg.bandit.alpha == 0.5

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="sweep"):
            apply_param_overrides(ExperimentConfig(), {"batch_size": 64})

    def test_empty_overrides_return_config_unchanged(self):
        cfg = ExperimentConfig()
        assert apply_param_overrides(cfg, {}) is cfg

    def test_override_numbers_stored_as_in_a_file(self):
        cfg = apply_param_overrides(ExperimentConfig(), {"beta": 8})
        assert cfg == ExperimentConfig.from_dict({"bandit": {"beta": 8}})
        assert type(cfg.bandit.beta) is float


class TestOutputDir:
    def test_cli_flag_wins(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/env/dir")
        cfg = ExperimentConfig.from_dict({"output_dir": "/cfg/dir"})
        assert resolve_output_dir("/cli/dir", cfg) == Path("/cli/dir")

    def test_config_beats_env(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/env/dir")
        cfg = ExperimentConfig.from_dict({"output_dir": "/cfg/dir"})
        assert resolve_output_dir(None, cfg) == Path("/cfg/dir")

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "/env/dir")
        assert resolve_output_dir(None, ExperimentConfig()) == Path("/env/dir")

    def test_default_is_runs(self, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert resolve_output_dir(None, ExperimentConfig()) == Path("runs")
