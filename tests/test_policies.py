import numpy as np
import pytest

from banditmix.config import ExperimentConfig
from banditmix.mixture import BanditConfig, mixture_probs
from banditmix.policies import ADAPTIVE_VARIANTS, POLICY_VARIANTS, PolicyKind
from banditmix.runner import run_experiment


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
    """Each variant's distribution, by ``PolicyKind.distribution`` at estimates the caller holds."""

    def dist(self, variant, registry, cfg, q=None, **kwargs):
        q = np.zeros(registry.num_arms) if q is None else q
        return PolicyKind(variant=variant, **kwargs).distribution(registry, cfg, q)

    def test_anchor_is_registry_prior(self, small_registry, cfg):
        q = np.array([0.1, -0.2, 0.3])
        expected = mixture_probs(q, small_registry.prior, cfg)
        np.testing.assert_array_equal(self.dist("bandit", small_registry, cfg, q).p, expected.p)

    def test_no_prior_anchor_is_uniform(self, small_registry, cfg):
        q = np.array([0.1, -0.2, 0.3])
        expected = mixture_probs(q, np.full(3, 1.0 / 3), cfg)
        np.testing.assert_array_equal(self.dist("bandit_no_prior", small_registry, cfg, q).p, expected.p)

    @pytest.mark.parametrize("variant", ["bandit", "uniform"])
    def test_estimates_start_at_zero(self, variant):
        # The run loop holds the estimates, float64 zeros until the first round.
        cfg = ExperimentConfig.from_dict(
            {
                "bandit": {"total_steps": 10, "update_interval": 5, "batch_size": 8},
                "registry": {"arms": {"a": 1000, "b": 3000, "c": 6000}},
                "policy": {"variant": variant},
            }
        )
        first = run_experiment(cfg).windows[0]
        assert first.q == (0.0, 0.0, 0.0)
        assert all(type(x) is float for x in first.q)
        resolved = cfg.resolve()
        assert first.probabilities == tuple(self.dist(variant, resolved.registry, resolved.bandit).p.tolist())

    def test_no_prior_starts_exactly_uniform(self, small_registry, cfg):
        np.testing.assert_allclose(self.dist("bandit_no_prior", small_registry, cfg).p, 1.0 / 3, atol=1e-15)

    def test_proportional_matches_counts(self, small_registry, cfg):
        np.testing.assert_allclose(self.dist("proportional", small_registry, cfg).p, [0.1, 0.3, 0.6], atol=1e-15)

    def test_uniform(self, small_registry, cfg):
        np.testing.assert_allclose(self.dist("uniform", small_registry, cfg).p, 1.0 / 3, atol=1e-15)

    def test_static_uses_given_probs(self, small_registry, cfg):
        dist = self.dist("static", small_registry, cfg, static_probs=(0.2, 0.2, 0.6))
        np.testing.assert_allclose(dist.p, [0.2, 0.2, 0.6], atol=1e-15)

    def test_static_probs_length_checked(self, small_registry, cfg):
        with pytest.raises(ValueError, match="static_probs has 2 entries but registry has 3 arms"):
            self.dist("static", small_registry, cfg, static_probs=(0.5, 0.5))

    def test_arm_count_mismatch_rejected(self, small_registry):
        # Estimates sized to the registry disagree with the config, and
        # estimates sized to the config disagree with the registry's anchor.
        bad_cfg = BanditConfig(num_arms=5, total_steps=100)
        for variant in ADAPTIVE_VARIANTS:
            with pytest.raises(ValueError, match="q has 3 entries but config expects 5 arms"):
                self.dist(variant, small_registry, bad_cfg)
            with pytest.raises(ValueError, match="q and prior must have equal length, got 5 and 3"):
                self.dist(variant, small_registry, bad_cfg, np.zeros(5))

    def test_distribution_follows_estimates(self, small_registry, cfg):
        before = self.dist("bandit", small_registry, cfg)
        q = np.zeros(3)
        q[0] = 2.0
        after = self.dist("bandit", small_registry, cfg, q)
        assert after.p[0] > before.p[0]

    def test_non_adaptive_ignores_rewards(self, small_registry, cfg):
        # static variants take no estimate updates
        for variant in ("uniform", "proportional"):
            before = self.dist(variant, small_registry, cfg)
            after = self.dist(variant, small_registry, cfg, np.array([2.0, 0.0, 0.0]))
            np.testing.assert_array_equal(after.p, before.p)

    def test_all_rewards_equal_leaves_distribution_unchanged(self, small_registry, cfg):
        # equal estimates shift nothing: the law is invariant to a common offset
        before = self.dist("bandit", small_registry, cfg)
        after = self.dist("bandit", small_registry, cfg, np.full(3, 0.7))
        np.testing.assert_allclose(after.p, before.p, atol=1e-12)
