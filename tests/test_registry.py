import re

import numpy as np
import pytest

from banditmix.registry import (
    BUILTIN_REGISTRIES,
    ArmRegistry,
    builtin_registry,
    make_tulu_registry,
)

# Independently computed: 114000 / 329140 at 40 digits, frozen.
SHAREGPT_PRIOR_ORACLE = 0.3463571732393510360333


class TestArmRegistry:
    def test_from_counts_dict(self):
        reg = ArmRegistry.from_counts({"x": 100, "y": 300})
        assert reg.names == ("x", "y")
        assert reg.total_count == 400
        np.testing.assert_allclose(reg.prior, [0.25, 0.75], atol=1e-15)

    def test_from_counts_pairs_preserves_order(self):
        reg = ArmRegistry.from_counts([("z", 10), ("a", 30)])
        assert reg.names == ("z", "a")

    def test_explicit_prior_override(self):
        reg = ArmRegistry.from_counts({"x": 100, "y": 300}, prior=[0.5, 0.5])
        np.testing.assert_allclose(reg.prior, [0.5, 0.5])

    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ArmRegistry.from_counts({"x": 1, "y": 1}, prior=[0.5, 0.6])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ArmRegistry.from_counts([("x", 1), ("x", 2)])

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            ArmRegistry.from_counts({"x": 0})

    @pytest.mark.parametrize("count", [2**63, 10**22])
    def test_counts_past_int64_rejected(self, count):
        with pytest.raises(ValueError, match=rf"^arm 'x': count must be >= 1 and below 2\*\*63, got {count}$"):
            ArmRegistry.from_counts({"a": 1, "x": count})

    # from_counts once truncated 1.9 to 1 and parsed "7" as 7.
    @pytest.mark.parametrize("count", [1.9, 2.0, "7", True, np.bool_(True), np.float64(3.0), None])
    def test_non_integer_count_rejected_naming_the_arm(self, count):
        with pytest.raises(ValueError, match=f"^arm 'x': count must be an integer, got {re.escape(repr(count))}$"):
            ArmRegistry.from_counts({"a": 2, "x": count})

    @pytest.mark.parametrize("count", [np.int64(7), np.int32(7), np.uint64(7)])
    def test_numpy_integer_counts_accepted(self, count):
        reg = ArmRegistry.from_counts({"a": 2, "x": count})
        assert reg.counts.tolist() == [2, 7]
        assert type(reg.total_count) is int

    def test_counts_array_accepted(self):
        reg = ArmRegistry(("a", "b"), np.array([3, 5]), None)
        assert reg.counts.tolist() == [3, 5]

    def test_largest_counts_total_exactly(self):
        reg = ArmRegistry.from_counts({"a": 2**63 - 1, "b": 2**62, "c": 2**62})
        assert reg.counts.tolist() == [2**63 - 1, 2**62, 2**62]
        assert reg.total_count == 2**64 - 1

    @pytest.mark.parametrize("name", [1, None, b"x"])
    def test_name_must_be_a_string(self, name):
        # A run writes the names into its trace, whose reader takes only strings.
        with pytest.raises(ValueError, match=f"^arm name must be nonempty and a string, got {re.escape(repr(name))}$"):
            ArmRegistry.from_counts({name: 10})

    def test_arrays_are_read_only(self):
        reg = ArmRegistry.from_counts({"x": 1, "y": 2})
        with pytest.raises(ValueError):
            reg.prior[0] = 0.9
        with pytest.raises(ValueError):
            reg.counts[0] = 5


class TestBuiltinCollection:
    def test_sixteen_arms_and_total(self):
        reg = make_tulu_registry()
        assert reg.num_arms == 16
        assert reg.total_count == 329_140

    def test_known_counts(self):
        reg = make_tulu_registry()
        assert reg.counts[reg.names.index("sharegpt")] == 114_000
        assert reg.counts[reg.names.index("flan_v2")] == 50_000
        assert reg.counts[reg.names.index("lima")] == 1_000
        assert reg.counts[reg.names.index("hardcoded")] == 140

    def test_science_bundle_split(self):
        # 7000 split evenly across six sub-tasks, remainder on the first
        reg = make_tulu_registry()
        science = [c for n, c in zip(reg.names, reg.counts) if n.startswith("science")]
        assert science == [1170, 1166, 1166, 1166, 1166, 1166]
        assert sum(science) == 7_000

    def test_largest_arm_prior_oracle(self):
        reg = make_tulu_registry()
        got = reg.prior[reg.names.index("sharegpt")]
        assert got == pytest.approx(SHAREGPT_PRIOR_ORACLE, abs=1e-15)

    def test_prior_matches_count_fractions(self):
        reg = make_tulu_registry()
        np.testing.assert_allclose(
            reg.prior, reg.counts / reg.total_count, atol=1e-15, rtol=0
        )

    def test_merged_variant(self):
        reg = make_tulu_registry(split_science=False)
        assert reg.num_arms == 11
        assert reg.counts[reg.names.index("science")] == 7_000
        assert reg.total_count == 329_140

    def test_builtin_lookup(self):
        assert set(BUILTIN_REGISTRIES) == {"tulu_v2", "tulu_v2_science_merged"}
        assert builtin_registry("tulu_v2").num_arms == 16
        assert builtin_registry("tulu_v2_science_merged").num_arms == 11
        with pytest.raises(KeyError):
            builtin_registry("nope")
