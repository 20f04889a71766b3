import numpy as np
import pytest

from banditmix.mixture import BanditConfig, mixture_probs
from banditmix.policies import (
    ADAPTIVE_VARIANTS,
    POLICY_VARIANTS,
    MixturePolicy,
    PolicyKind,
)


@pytest.fixture
def cfg():
    return BanditConfig(num_arms=3, total_steps=100, update_interval=10, batch_size=8)


class TestPolicyKind:
    def test_variant_table(self):
        assert POLICY_VARIANTS == ("bandit", "bandit_no_prior", "proportional", "uniform", "static")
        assert ADAPTIVE_VARIANTS == ("bandit", "bandit_no_prior")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            PolicyKind(variant="exotic")

    def test_static_requires_probs(self):
        with pytest.raises(ValueError):
            PolicyKind(variant="static")
        with pytest.raises(ValueError):
            PolicyKind(variant="uniform", static_probs=(0.5, 0.5))
        PolicyKind(variant="static", static_probs=(0.5, 0.5))

    def test_unknown_reward_kind_rejected(self):
        with pytest.raises(ValueError):
            PolicyKind(reward_kind="nope")

    def test_adaptive_flag(self):
        assert PolicyKind(variant="bandit").adaptive
        assert PolicyKind(variant="bandit_no_prior").adaptive
        assert not PolicyKind(variant="uniform").adaptive


class TestMixturePolicy:
    def test_anchor_is_registry_prior(self, small_registry, cfg):
        policy = MixturePolicy(PolicyKind(variant="bandit"), small_registry, cfg)
        expected = mixture_probs(policy.q, small_registry.prior, cfg)
        np.testing.assert_array_equal(policy.distribution().p, expected.p)

    def test_no_prior_anchor_is_uniform(self, small_registry, cfg):
        policy = MixturePolicy(PolicyKind(variant="bandit_no_prior"), small_registry, cfg)
        uniform = np.full(3, 1.0 / 3)
        expected = mixture_probs(policy.q, uniform, cfg)
        np.testing.assert_array_equal(policy.distribution().p, expected.p)

    @pytest.mark.parametrize("variant", ["bandit", "uniform"])
    def test_estimates_start_at_zero(self, small_registry, cfg, variant):
        policy = MixturePolicy(PolicyKind(variant=variant), small_registry, cfg)
        assert policy.q.dtype == np.float64
        assert policy.q.tolist() == [0.0, 0.0, 0.0]

    def test_no_prior_starts_exactly_uniform(self, small_registry, cfg):
        policy = MixturePolicy(PolicyKind(variant="bandit_no_prior"), small_registry, cfg)
        np.testing.assert_allclose(policy.distribution().p, 1.0 / 3, atol=1e-15)

    def test_proportional_matches_counts(self, small_registry, cfg):
        policy = MixturePolicy(PolicyKind(variant="proportional"), small_registry, cfg)
        np.testing.assert_allclose(policy.distribution().p, [0.1, 0.3, 0.6], atol=1e-15)

    def test_uniform(self, small_registry, cfg):
        policy = MixturePolicy(PolicyKind(variant="uniform"), small_registry, cfg)
        np.testing.assert_allclose(policy.distribution().p, 1.0 / 3, atol=1e-15)

    def test_static_uses_given_probs(self, small_registry, cfg):
        kind = PolicyKind(variant="static", static_probs=(0.2, 0.2, 0.6))
        policy = MixturePolicy(kind, small_registry, cfg)
        np.testing.assert_allclose(policy.distribution().p, [0.2, 0.2, 0.6], atol=1e-15)

    def test_static_probs_length_checked(self, small_registry, cfg):
        kind = PolicyKind(variant="static", static_probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            MixturePolicy(kind, small_registry, cfg)

    def test_arm_count_mismatch_rejected(self, small_registry):
        bad_cfg = BanditConfig(num_arms=5, total_steps=100)
        with pytest.raises(ValueError):
            MixturePolicy(PolicyKind(variant="bandit"), small_registry, bad_cfg)

    def test_distribution_cached_until_round_applied(self, small_registry, cfg):
        policy = MixturePolicy(PolicyKind(variant="bandit"), small_registry, cfg)
        before = policy.distribution()
        # mutating the estimates alone must not change the cached vector
        policy.q[0] = 2.0
        assert policy.distribution() is before
        policy.apply_reward_round()
        after = policy.distribution()
        assert after is not before
        assert after.p[0] > before.p[0]

    def test_non_adaptive_ignores_rewards(self, small_registry, cfg):
        # static variants take no estimate updates
        for variant in ("uniform", "proportional"):
            policy = MixturePolicy(PolicyKind(variant=variant), small_registry, cfg)
            before = policy.distribution()
            policy.q[0] = 2.0
            policy.apply_reward_round()
            assert policy.distribution() is before

    def test_all_rewards_equal_leaves_distribution_unchanged(self, small_registry, cfg):
        # equal estimates shift nothing: the law is invariant to a common offset
        policy = MixturePolicy(PolicyKind(variant="bandit"), small_registry, cfg)
        before = policy.distribution().p.copy()
        policy.q[:] = 0.7
        policy.apply_reward_round()
        np.testing.assert_allclose(policy.distribution().p, before, atol=1e-12)
