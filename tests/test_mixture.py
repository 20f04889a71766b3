import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditmix.mixture import (
    BanditConfig,
    Batch,
    MixtureDistribution,
    mixture_probs,
    prior_scaled_probs,
    sample_batch,
)
from banditmix.registry import ArmRegistry

# High-precision reference values, evaluated independently with an
# arbitrary-precision library and frozen here as literals.
SOFTMAX_ORACLE = (0.4717762210677907782199, 0.3162410582246814582014, 0.2119827207075277635787)
PRIOR_SCALED_ORACLE = (0.6321417744906080523164, 0.2542423820265570642065, 0.1136158434828348834771)
MIXTURE_ORACLE = (0.5424992421434256366215, 0.2779696674185899449446, 0.1795310904379844184339)

Q3 = np.array([0.1, 0.0, -0.1])
PRIOR3 = np.array([0.5, 0.3, 0.2])


def boltzmann_probs(q, beta):
    """Softmax of ``beta * q``, stabilized by subtracting the max logit.

    The law ``prior_scaled_probs`` must reduce to under a uniform prior.
    """
    z = beta * np.asarray(q, dtype=np.float64)
    w = np.exp(z - np.max(z))
    return w / np.sum(w)


def oracle_config(num_arms=3, **kw):
    defaults = dict(total_steps=100, beta=4.0, gamma=0.3, update_interval=10, batch_size=8)
    defaults.update(kw)
    return BanditConfig(num_arms=num_arms, **defaults)


class TestBanditConfig:
    def test_defaults_valid(self):
        cfg = BanditConfig(num_arms=16, total_steps=5000)
        assert cfg.beta == 4.0
        assert cfg.gamma == 0.3
        assert cfg.alpha == 0.95
        assert cfg.update_interval == 50
        assert cfg.batch_size == 128

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_arms": 0},
            {"beta": -0.1},
            {"gamma": -0.01},
            {"gamma": 1.01},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"epsilon": 0.0},
            {"epsilon": -1e-8},
            {"update_interval": 0},
            {"batch_size": 0},
            {"total_steps": -1},
            {"epsilon": float("nan")},
            {"epsilon": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kw):
        base = dict(num_arms=4, total_steps=100, update_interval=10, batch_size=8)
        base.update(kw)
        with pytest.raises(ValueError):
            BanditConfig(**base)

    def test_interval_must_fit_inside_run(self):
        with pytest.raises(ValueError):
            BanditConfig(num_arms=4, total_steps=10, update_interval=11)
        # a zero-length run is allowed and skips the interval check
        BanditConfig(num_arms=4, total_steps=0, update_interval=50)

    def test_frozen(self):
        cfg = BanditConfig(num_arms=4, total_steps=100)
        with pytest.raises(AttributeError):
            cfg.beta = 2.0


class TestMixtureDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixtureDistribution(p=np.array([0.5, 0.6]))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            MixtureDistribution(p=np.array([1.1, -0.1]))

    def test_cumulative_ends_at_one(self):
        dist = MixtureDistribution(p=np.array([0.2, 0.3, 0.5]))
        cumulative = np.cumsum(dist.p)
        assert cumulative[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cumulative) >= 0)


class TestBatch:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Batch(arms=np.array([0, 1]), examples=np.array([5]))

    @pytest.mark.parametrize(
        "arms, examples, field",
        [
            ([1.9, 0.2], [3.7, True], "arms"),
            ([1, 0], [3.7, True], "examples"),
            (np.array([True, False]), [3, 1], "arms"),
            ([1, 0], np.array(["3", "1"]), "examples"),
        ],
        ids=["float-arms", "float-examples", "bool", "str"],
    )
    def test_non_integer_fields_rejected(self, arms, examples, field):
        # Truncating 1.9 to arm 1 would train on an arm nobody drew.
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            Batch(arms=arms, examples=examples)

    @pytest.mark.parametrize(
        "arms, examples",
        [
            (np.array([2, 0], dtype=np.uint8), np.array([7, 9], dtype=np.int32)),
            ([2, 0], [7, 9]),
            (np.array([], dtype=np.float64), np.array([], dtype=bool)),
        ],
        ids=["uint8-int32", "lists", "empty"],
    )
    def test_integer_and_empty_fields_become_int64(self, arms, examples):
        batch = Batch(arms=arms, examples=examples)
        assert batch.arms.dtype == batch.examples.dtype == np.int64
        np.testing.assert_array_equal(batch.arms, arms)
        np.testing.assert_array_equal(batch.examples, examples)


class TestProbabilityLaw:
    def test_softmax_oracle(self):
        p = boltzmann_probs(Q3, beta=4.0)
        np.testing.assert_allclose(p, SOFTMAX_ORACLE, atol=1e-15, rtol=0)

    def test_prior_scaled_oracle(self):
        p = prior_scaled_probs(Q3, PRIOR3, beta=4.0)
        np.testing.assert_allclose(p, PRIOR_SCALED_ORACLE, atol=1e-15, rtol=0)

    def test_mixture_oracle(self):
        dist = mixture_probs(Q3, PRIOR3, oracle_config())
        np.testing.assert_allclose(dist.p, MIXTURE_ORACLE, atol=1e-15, rtol=0)

    def test_zero_prior_arm_gets_exactly_the_floor(self):
        prior = np.array([0.6, 0.4, 0.0])
        cfg = oracle_config(gamma=0.3)
        dist = mixture_probs(np.array([0.0, 0.0, 10.0]), prior, cfg)
        # no anchor mass means the uniform floor is all that arm receives,
        # regardless of its estimate
        assert dist.p[2] == 0.3 / 3

    def test_single_arm_is_degenerate(self):
        dist = mixture_probs(np.array([2.3]), np.array([1.0]), oracle_config(num_arms=1))
        assert dist.p[0] == pytest.approx(1.0, abs=1e-15)

    def test_large_estimates_do_not_overflow(self):
        q = np.array([800.0, 0.0, -800.0])
        p = prior_scaled_probs(q, PRIOR3, beta=10.0)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("prior", [[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])
    def test_overflowing_logits_raise(self, prior):
        # Finite q whose beta * q is infinite: the normalizer would be NaN.
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="beta \\* q overflows"):
            prior_scaled_probs([1e308, -1e308], prior, 10.0)

    def test_reward_gap_raises_that_arm(self):
        # one arm's estimate far above the rest must strictly gain mass
        cfg = oracle_config(gamma=0.3)
        flat = mixture_probs(np.zeros(3), PRIOR3, cfg)
        bumped = mixture_probs(np.array([1.0, 0.0, 0.0]), PRIOR3, cfg)
        assert bumped.p[0] > flat.p[0]

    def test_beta_zero_ignores_estimates(self):
        cfg = oracle_config(beta=0.0, gamma=0.3)
        p_expected = (1.0 - 0.3) * (PRIOR3 / np.sum(PRIOR3)) + 0.3 / 3
        for q in (np.zeros(3), np.array([5.0, -3.0, 1.0])):
            dist = mixture_probs(q, PRIOR3, cfg)
            assert np.array_equal(dist.p, p_expected)

    def test_gamma_one_is_uniform(self):
        cfg = oracle_config(gamma=1.0)
        dist = mixture_probs(np.array([5.0, -3.0, 1.0]), PRIOR3, cfg)
        assert np.array_equal(dist.p, np.full(3, 1.0 / 3))


prob_floats = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)


@st.composite
def law_instances(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    q = np.array(draw(st.lists(prob_floats, min_size=k, max_size=k)))
    weights = np.array(
        draw(st.lists(st.floats(0.01, 10.0, allow_nan=False), min_size=k, max_size=k))
    )
    prior = weights / weights.sum()
    beta = draw(st.floats(0.0, 10.0, allow_nan=False))
    gamma = draw(st.floats(0.0, 1.0, allow_nan=False))
    return k, q, prior, beta, gamma


@settings(deadline=None)
@given(law_instances())
def test_mixture_sums_to_one(instance):
    k, q, prior, beta, gamma = instance
    cfg = BanditConfig(num_arms=k, total_steps=0, beta=beta, gamma=gamma)
    dist = mixture_probs(q, prior, cfg)
    assert abs(dist.p.sum() - 1.0) <= 1e-12


@settings(deadline=None)
@given(law_instances())
def test_mixture_respects_floor(instance):
    k, q, prior, beta, gamma = instance
    cfg = BanditConfig(num_arms=k, total_steps=0, beta=beta, gamma=gamma)
    dist = mixture_probs(q, prior, cfg)
    assert np.all(dist.p >= gamma / k - 1e-12)


@settings(deadline=None)
@given(law_instances(), st.floats(-50.0, 50.0, allow_nan=False))
def test_mixture_shift_invariant(instance, shift):
    k, q, prior, beta, gamma = instance
    cfg = BanditConfig(num_arms=k, total_steps=0, beta=beta, gamma=gamma)
    base = mixture_probs(q, prior, cfg)
    shifted = mixture_probs(q + shift, prior, cfg)
    np.testing.assert_allclose(shifted.p, base.p, atol=1e-12, rtol=0)


@settings(deadline=None)
@given(law_instances())
def test_uniform_prior_reduces_to_plain_softmax(instance):
    k, q, _, beta, gamma = instance
    cfg = BanditConfig(num_arms=k, total_steps=0, beta=beta, gamma=gamma)
    uniform_prior = np.full(k, 1.0 / k)
    dist = mixture_probs(q, uniform_prior, cfg)
    expected = (1.0 - gamma) * boltzmann_probs(q, beta) + gamma / k
    np.testing.assert_allclose(dist.p, expected, atol=1e-12, rtol=0)


class TestSampling:
    def test_degenerate_mass_always_selected(self, rng, small_registry):
        # Arms with zero probability are never drawn.
        dist = MixtureDistribution(p=np.array([0.0, 1.0, 0.0]))
        batch = sample_batch(dist, small_registry, 500, rng)
        assert np.all(batch.arms == 1)

    def test_batch_examples_within_arm_counts(self, rng, small_registry):
        dist = MixtureDistribution(p=np.array([0.3, 0.3, 0.4]))
        batch = sample_batch(dist, small_registry, 500, rng)
        assert batch.arms.size == 500
        assert np.all((0 <= batch.examples) & (batch.examples < small_registry.counts[batch.arms]))

    def test_same_seed_same_batch(self, small_registry):
        dist = MixtureDistribution(p=np.array([0.3, 0.3, 0.4]))
        a = sample_batch(dist, small_registry, 64, np.random.default_rng(7))
        b = sample_batch(dist, small_registry, 64, np.random.default_rng(7))
        assert np.array_equal(a.arms, b.arms)
        assert np.array_equal(a.examples, b.examples)

    def test_frequencies_track_probabilities(self, rng, small_registry):
        p = np.array([0.1, 0.2, 0.7])
        dist = MixtureDistribution(p=p)
        batch = sample_batch(dist, small_registry, 20_000, rng)
        freq = np.bincount(batch.arms, minlength=3) / batch.arms.size
        np.testing.assert_allclose(freq, p, atol=0.02)

    def test_draw_above_float_total_capped_at_last_arm(self):
        # Ten masses of 0.1 sum to just under 1 in floating point, so the
        # largest draw random() can return lands past the last cumulative
        # bound; the index must still be capped at K - 1.
        k = 10
        dist = MixtureDistribution(p=np.full(k, 0.1))
        top = np.nextafter(1.0, 0.0)
        cumulative = np.cumsum(dist.p)
        assert cumulative[-1] <= top
        assert np.searchsorted(cumulative, top, side="right") == k

        class TopDraws:
            # Not numpy's PCG64, so sample_batch draws through the one-step loop.
            bit_generator = None

            def __init__(self):
                self.examples = np.random.default_rng(0)

            def random(self, size):
                return np.full(size, top)

            def integers(self, low, high):
                return self.examples.integers(low, high)

        registry = ArmRegistry.from_counts({f"a{i}": 10 * (i + 1) for i in range(k)})
        batch = sample_batch(dist, registry, 16, TopDraws())
        assert np.array_equal(batch.arms, np.full(16, k - 1))
        assert np.all(batch.examples < registry.counts[k - 1])
