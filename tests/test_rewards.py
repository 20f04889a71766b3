import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditmix.mixture import BanditConfig
from banditmix.registry import ArmRegistry
from banditmix.rewards import Learner, ema_update, lookahead_round

from learner_contract import LinearLearner

# Frozen arbitrary-precision evaluations of the relative-drop score with
# epsilon = 1e-8 folded in (so not the idealized 0.5 / 1/3 / ... values).
DELTA_LOSS_SINGLE = 0.4999999975000000125  # pre=(2,), post=(1,)
DELTA_LOSS_TRIPLE = 0.3333333308333333541667  # pre=(1,2,4), post=(0.5,1,4)
DELTA_ENTROPY_SINGLE = 0.19999999800000002  # pre=(1,), post=(0.8,)
DELTA_ENTROPY_PAIR = 0.2499999983333333444444  # pre=(0.5,1.5), post=(0.5,0.75)


def relative_drop(pre, post, epsilon=1e-8):
    """One arm's reward scored alone: the per-arm oracle of a round's scores."""
    return float(((pre - post) / (pre + epsilon)).mean())


def score_round(pre_rows, post_rows, reward_kind="delta_loss", epsilon=1e-8):
    """The rewards ``lookahead_round`` gives a learner whose probe returns
    ``(pre_rows, post_rows)``: one row per arm, each row one arm's batch."""
    k, b = len(pre_rows), max(len(pre_rows[0]), 1)
    registry, cfg = fixed_round(k, b, epsilon)
    learner = FixedProbe(pre_rows, post_rows)
    return lookahead_round(learner, registry, np.zeros(k), cfg, 0.1, np.random.default_rng(0), reward_kind)


class TestRelativeDrop:
    def test_single_element_oracle(self):
        got = score_round([[2.0]], [[1.0]])
        assert got[0] == pytest.approx(DELTA_LOSS_SINGLE, abs=1e-15)

    def test_termwise_mean_oracle(self):
        got = score_round([[1.0, 2.0, 4.0]], [[0.5, 1.0, 4.0]])
        assert got[0] == pytest.approx(DELTA_LOSS_TRIPLE, abs=1e-15)

    def test_entropy_variant_oracles(self):
        got = score_round([[1.0]], [[0.8]], "delta_entropy")
        assert got[0] == pytest.approx(DELTA_ENTROPY_SINGLE, abs=1e-15)
        got = score_round([[0.5, 1.5]], [[0.5, 0.75]], "delta_entropy")
        assert got[0] == pytest.approx(DELTA_ENTROPY_PAIR, abs=1e-15)

    def test_no_change_scores_zero(self):
        assert score_round([[3.0, 3.0]], [[3.0, 3.0]]).tolist() == [0.0]

    def test_regression_scores_negative(self):
        assert score_round([[1.0]], [[2.0]])[0] < 0.0

    def test_zero_pre_is_safe(self):
        # epsilon keeps the denominator finite even at an exactly-zero loss
        assert score_round([[0.0]], [[0.0]]).tolist() == [0.0]

    def test_reward_below_one_for_nonnegative_post(self):
        assert score_round([[5.0]], [[0.0]])[0] < 1.0

    @pytest.mark.parametrize(
        "pre, post",
        [
            (np.array([1.0, 2.0]), np.array([1.0])),
            (np.array([]), np.array([])),
            (np.array([-1.0]), np.array([0.5])),
            (np.array([np.nan]), np.array([0.5])),
            (np.array([1.0]), np.array([np.inf])),
        ],
    )
    def test_bad_inputs_rejected(self, pre, post):
        with pytest.raises(ValueError):
            score_round([pre], [post])

    def test_epsilon_must_be_positive(self):
        # A round takes epsilon only from a BanditConfig, which refuses it.
        with pytest.raises(ValueError, match="epsilon"):
            score_round([[1.0]], [[0.5]], epsilon=0.0)


@settings(deadline=None)
@given(
    st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=16),
    st.floats(0.0, 100.0, allow_nan=False),
)
def test_reward_bounded_above_by_one(pre_values, post_value):
    assert score_round([pre_values], [[post_value] * len(pre_values)])[0] < 1.0


class TestEmaUpdate:
    def test_single_step(self):
        assert ema_update(0.0, 1.0, 0.95) == pytest.approx(0.05, abs=1e-15)

    def test_matches_closed_form_over_thousand_steps(self, rng):
        # iterated updates vs. the unrolled geometric form, summed with fsum
        alpha = 0.95
        rewards = rng.uniform(-1.0, 1.0, size=1000)
        q = 0.3
        for r in rewards:
            q = ema_update(q, float(r), alpha)
        n = len(rewards)
        closed = alpha**n * 0.3 + (1.0 - alpha) * math.fsum(
            alpha ** (n - 1 - i) * rewards[i] for i in range(n)
        )
        assert q == pytest.approx(closed, abs=1e-10)

    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ema_update(0.0, 1.0, bad)

    def test_nonfinite_reward_rejected(self):
        with pytest.raises(ValueError):
            ema_update(0.0, float("nan"), 0.5)


class RecordingLearner(LinearLearner):
    """``LinearLearner`` that keeps the examples its last probe was handed."""

    def probe(self, examples, learning_rate, entropy=False):
        self.examples = examples.copy()
        return super().probe(examples, learning_rate, entropy)


class TestLookaheadRound:
    def make_fixture(self, theta=(2.0, 4.0), alpha=0.5):
        registry = ArmRegistry.from_counts({"a": 100, "b": 100})
        cfg = BanditConfig(
            num_arms=2, total_steps=0, alpha=alpha, update_interval=1, batch_size=4
        )
        learner = RecordingLearner(theta)
        return learner, registry, np.zeros(2), cfg

    def test_rewards_match_hand_computed_response(self, rng):
        # probe batches are single-arm, so the toy moves theta_k down by
        # exactly the learning rate: r_k = lr / (theta_k + eps)
        learner, registry, q, cfg = self.make_fixture()
        lr = 0.5
        rewards = lookahead_round(learner, registry, q, cfg, lr, rng)
        assert rewards.dtype == np.float64 and rewards.shape == (2,)
        for k, theta_k in enumerate((2.0, 4.0)):
            expected = lr / (theta_k + cfg.epsilon)
            assert rewards[k] == pytest.approx(expected, abs=1e-12)

    def test_visits_arms_in_registry_order(self, rng):
        learner, registry, q, cfg = self.make_fixture(theta=(4.0, 2.0))
        rewards = lookahead_round(learner, registry, q, cfg, 0.1, rng)
        # one row of batch_size examples per arm, in arm order
        assert learner.examples.shape == (2, 4)
        assert learner.examples.dtype == np.int64
        # theta is reversed, so arm 1's relative drop is the larger
        assert rewards[0] < rewards[1]

    def test_estimates_updated_in_place(self, rng):
        learner, registry, q, cfg = self.make_fixture(alpha=0.5)
        rewards = lookahead_round(learner, registry, q, cfg, 0.5, rng)
        assert q.tolist() == (0.5 * rewards).tolist()

    def test_permanent_state_untouched(self, rng):
        learner, registry, q, cfg = self.make_fixture()
        before = learner.theta.copy()
        lookahead_round(learner, registry, q, cfg, 0.5, rng)
        assert np.array_equal(learner.theta, before)

    def test_restore_runs_even_when_measurement_raises(self, rng):
        learner, registry, q, cfg = self.make_fixture()

        class Exploding(LinearLearner):
            def __init__(self, theta):
                super().__init__(theta)
                self.calls = 0

            def loss(self, batch):
                self.calls += 1
                if self.calls == 4:  # post-measurement of the second arm
                    raise RuntimeError("measurement failed")
                return super().loss(batch)

        exploding = Exploding((2.0, 4.0))
        before = exploding.theta.copy()
        q_before = q.copy()
        with pytest.raises(RuntimeError):
            lookahead_round(exploding, registry, q, cfg, 0.5, rng)
        # the virtual step was rolled back and no partial estimates leaked
        assert np.array_equal(exploding.theta, before)
        assert np.array_equal(q, q_before)

    def test_probe_batches_come_from_given_stream(self):
        learner, registry, q, cfg = self.make_fixture()
        r1 = lookahead_round(learner, registry, q, cfg, 0.1, np.random.default_rng(3))
        learner2, _, q2, _ = self.make_fixture()
        r2 = lookahead_round(learner2, registry, q2, cfg, 0.1, np.random.default_rng(3))
        assert r1.tolist() == r2.tolist()
        assert np.array_equal(learner.examples, learner2.examples)
        # row j is arm j's draw from the stream, arm after arm
        stream = np.random.default_rng(3)
        expected = [stream.integers(0, count, size=4) for count in registry.counts]
        assert np.array_equal(learner.examples, expected)
        # the rewards are the relative drops of what probe measured on them
        pres, posts = learner.probe(learner.examples, 0.1)
        for k in range(2):
            assert r1[k] == relative_drop(pres[k], posts[k], cfg.epsilon)

    def test_entropy_kind_uses_entropy_channel(self, rng):
        learner, registry, q, cfg = self.make_fixture()
        rewards = lookahead_round(
            learner, registry, q, cfg, 0.5, rng, reward_kind="delta_entropy"
        )
        # toy entropy is half the loss, and the relative drop is scale-free
        # up to epsilon, so the reward stays close to the loss-based one
        for k, theta_k in enumerate((2.0, 4.0)):
            expected = (0.5 * 0.5) / (0.5 * theta_k + cfg.epsilon)
            assert rewards[k] == pytest.approx(expected, abs=1e-12)

    def test_unknown_reward_kind_rejected(self, rng):
        learner, registry, q, cfg = self.make_fixture()
        with pytest.raises(ValueError):
            lookahead_round(learner, registry, q, cfg, 0.1, rng, reward_kind="nope")

    def test_arm_count_mismatch_rejected(self, rng):
        learner, registry, _, cfg = self.make_fixture()
        with pytest.raises(ValueError):
            lookahead_round(learner, registry, np.zeros(3), cfg, 0.1, rng)
        three = BanditConfig(num_arms=3, total_steps=0, update_interval=1, batch_size=4)
        with pytest.raises(ValueError, match="disagree"):
            lookahead_round(learner, registry, np.zeros(2), three, 0.1, rng)


BAD_Q = {
    "list": [0.0, 0.0],
    "float32": np.zeros(2, dtype=np.float32),
    "int": np.zeros(2, dtype=np.int64),
    "column": np.zeros((2, 1)),
    "short": np.zeros(1),
    "nan": np.array([0.0, np.nan]),
    "inf": np.array([np.inf, 0.0]),
}


@pytest.mark.parametrize("bad", sorted(BAD_Q))
def test_bad_q_rejected_before_drawing(bad):
    """``q`` is checked where it enters: a round with bad estimates raises
    before it draws from the reward stream or probes the learner."""
    learner, registry, _, cfg = TestLookaheadRound().make_fixture()
    q = BAD_Q[bad]
    before = np.array(q, copy=True)
    rng = np.random.default_rng(0)
    rng_before = rng.bit_generator.state
    with pytest.raises(ValueError, match="q"):
        lookahead_round(learner, registry, q, cfg, 0.1, rng)
    assert rng.bit_generator.state == rng_before
    assert not hasattr(learner, "examples")
    assert np.array_equal(np.asarray(q), before, equal_nan=True)


class FixedProbe(Learner):
    """Hands ``lookahead_round`` a given probe result, whatever the examples."""

    def __init__(self, pres, posts):
        self.pres, self.posts = pres, posts

    def probe(self, examples, learning_rate, entropy=False):
        self.examples = examples
        return self.pres, self.posts

    def train_steps(self, batch, learning_rates):
        raise AssertionError("a reward round takes no real step")


def fixed_round(k, b, epsilon=1e-8, alpha=0.9):
    registry = ArmRegistry.from_counts({f"a{i}": 100 for i in range(k)})
    cfg = BanditConfig(
        num_arms=k, total_steps=0, alpha=alpha, epsilon=epsilon, update_interval=1, batch_size=b
    )
    return registry, cfg


@settings(deadline=None, max_examples=150)
@given(
    k=st.integers(1, 16),
    b=st.integers(1, 128),
    epsilon=st.floats(1e-12, 1.0),
    alpha=st.floats(0.01, 0.99),
    entropy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_pass_round_matches_per_arm_loop(k, b, epsilon, alpha, entropy, seed):
    """The stacked scoring and EMA give the per-arm loop's rewards and q bit
    for bit."""
    rng = np.random.default_rng(seed)
    # Losses across several orders of magnitude, exact zeros and post
    # values above pre, so rounding in the sum and the ratio is exercised.
    scale = 10.0 ** rng.uniform(-6, 6, size=(k, 1))
    pre = scale * rng.exponential(size=(k, b))
    pre[rng.random((k, b)) < 0.05] = 0.0
    post = pre * rng.uniform(0.0, 1.2, size=(k, b))
    q0 = rng.uniform(-1.0, 1.0, size=k)
    registry, cfg = fixed_round(k, b, epsilon, alpha)
    q = q0.copy()
    kind = "delta_entropy" if entropy else "delta_loss"
    # The learner returns per-arm lists, as the generic probe does.
    learner = FixedProbe(list(pre), list(post))
    rewards = lookahead_round(
        learner, registry, q, cfg, 0.1, np.random.default_rng(0), reward_kind=kind
    )
    assert rewards.dtype == np.float64 and rewards.shape == (k,)
    # probe was handed one row of b examples per arm, in arm order
    assert learner.examples.shape == (k, b)
    for arm in range(k):
        reward = relative_drop(pre[arm], post[arm], epsilon)
        assert rewards[arm] == reward
        assert q[arm] == ema_update(float(q0[arm]), reward, alpha)


def test_array_ema_matches_scalar_calls():
    q = np.array([0.1, -0.2, 0.3])
    r = np.array([0.5, 0.25, -1.0])
    got = ema_update(q, r, 0.95)
    assert got.tolist() == [ema_update(float(a), float(b), 0.95) for a, b in zip(q, r)]
    with pytest.raises(ValueError, match="reward must be finite"):
        ema_update(q, np.array([0.5, np.inf, 0.0]), 0.95)


GOOD = [np.array([2.0, 1.0]), np.array([3.0, 4.0])]
BAD_PROBES = {
    # arm 1's post has a different length from its pre
    "ragged_pair": (GOOD, [np.array([1.0, 0.5]), np.array([2.0])], "equal-length"),
    # each pair matches, but the arms disagree on the batch length
    "ragged_arms": ([np.array([2.0]), np.array([3.0, 4.0])], [np.array([1.0]), np.array([2.0, 3.0])], "equal-length"),
    "scalar_rows": ([2.0, 3.0], [1.0, 2.0], "equal-length"),
    "empty_rows": ([np.array([]), np.array([])], [np.array([]), np.array([])], "equal-length"),
    "nan": (GOOD, [np.array([1.0, np.nan]), np.array([2.0, 3.0])], "finite"),
    "negative_pre": ([np.array([2.0, -1.0]), GOOD[1]], GOOD, "nonnegative"),
    "one_result_short": (GOOD[:1], GOOD[:1], r"equal-length .* the \(2, 2\) examples"),
    "one_result_long": (GOOD * 2, GOOD * 2, r"equal-length .* the \(2, 2\) examples"),
    # one result per arm, each of the wrong length
    "wrong_width": ([np.ones(3)] * 2, [np.ones(3)] * 2, r"equal-length .* the \(2, 2\) examples"),
}


@pytest.mark.parametrize("bad", sorted(BAD_PROBES))
@pytest.mark.parametrize("kind", ["delta_loss", "delta_entropy"])
def test_invalid_probe_result_rejected_and_state_untouched(bad, kind):
    pres, posts, message = BAD_PROBES[bad]
    registry, cfg = fixed_round(2, 2)
    q = np.array([0.25, -0.5])
    with pytest.raises(ValueError, match=message):
        lookahead_round(
            FixedProbe(pres, posts), registry, q, cfg, 0.1, np.random.default_rng(0), reward_kind=kind
        )
    assert q.tolist() == [0.25, -0.5]
