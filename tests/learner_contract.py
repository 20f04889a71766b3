"""Reusable contract checks for Learner implementations.

Any learner usable with lookahead_round must pass these: the simulator
does, and so must any adapter wrapping a real training loop.  Imported
by test modules; not collected directly.
"""

import numpy as np

from banditmix.mixture import Batch
from banditmix.rewards import Learner


class LinearLearner(Learner):
    """Toy learner with a closed-form loss response, for oracle tests.

    Per-arm loss is a scalar theta_j; a step on a batch moves each
    theta_j down by learning_rate * n_j / len(batch), where n_j counts
    batch elements from arm j.  No noise, no floor, no cross-arm
    coupling, so every reward is hand-computable.
    """

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=np.float64).copy()

    def snapshot(self):
        return self.theta.copy()

    def restore(self, token):
        self.theta = np.asarray(token, dtype=np.float64).copy()

    def loss(self, batch):
        return self.theta[batch.arms].copy()

    def entropy(self, batch):
        return 0.5 * self.theta[batch.arms]

    def train_step(self, batch, learning_rate):
        n = np.bincount(batch.arms, minlength=self.theta.size)
        self.theta = self.theta - learning_rate * n / len(batch)


def random_batch(num_arms, batch_size, rng, max_example=10_000):
    arms = rng.integers(0, num_arms, size=batch_size)
    examples = rng.integers(0, max_example, size=batch_size)
    return Batch(arms=arms.astype(np.int64), examples=examples.astype(np.int64))


def check_loss_purity(learner, batch):
    """loss() must be a pure read: repeated calls agree bit for bit."""
    first = np.asarray(learner.loss(batch))
    for _ in range(3):
        again = np.asarray(learner.loss(batch))
        assert np.array_equal(first, again)


def check_snapshot_roundtrip(learner, batch, learning_rate=0.1):
    """Mutate between snapshot and restore; probe losses must come back
    bit-identical."""
    before = np.asarray(learner.loss(batch))
    token = learner.snapshot()
    learner.train_step(batch, learning_rate)
    learner.restore(token)
    after = np.asarray(learner.loss(batch))
    assert np.array_equal(before, after)


def check_mutate_restore_cycles(learner, num_arms, rng, cycles=1000, batch_size=8):
    """Many mutate/restore cycles must not drift permanent state at all."""
    probe = random_batch(num_arms, batch_size, rng)
    before = np.asarray(learner.loss(probe))
    token = learner.snapshot()
    for _ in range(cycles):
        batch = random_batch(num_arms, batch_size, rng)
        learner.train_step(batch, rng.uniform(0.01, 0.5))
        learner.restore(token)
    after = np.asarray(learner.loss(probe))
    assert np.array_equal(before, after)


def check_probe_matches_default(learner, examples, lr, entropy=False):
    """An overridden probe() must return what the generic Learner.probe loop
    returns, bit for bit, and leave the learner exactly as it found it.

    ``examples`` is a round's ``(K, B)`` array, row ``j`` for arm ``j``.
    """
    batches = [Batch(arms=np.full(len(row), arm), examples=row) for arm, row in enumerate(examples)]
    before = [np.asarray(learner.loss(b)) for b in batches]
    token = learner.snapshot()
    pres, posts = learner.probe(examples, lr, entropy=entropy)
    for batch, seen in zip(batches, before):
        assert np.array_equal(learner.loss(batch), seen)
    # Hidden state such as a generator shows up in the next real step.
    learner.train_step(batches[0], lr)
    stepped = np.asarray(learner.loss(batches[0]))
    learner.restore(token)
    learner.train_step(batches[0], lr)
    assert np.array_equal(learner.loss(batches[0]), stepped)
    learner.restore(token)
    want_pres, want_posts = Learner.probe(learner, examples, lr, entropy=entropy)
    assert len(pres) == len(posts) == len(batches)
    for got, want in zip([*pres, *posts], [*want_pres, *want_posts]):
        assert np.array_equal(got, want)


def check_train_steps_matches_default(learner, batch, learning_rates):
    """An overridden train_steps() must leave the learner as the generic
    Learner.train_steps loop does, bit for bit; the learner ends in that
    state."""
    token = learner.snapshot()
    seen = []
    for train_steps in (type(learner).train_steps, Learner.train_steps):
        learner.restore(token)
        train_steps(learner, batch, learning_rates)
        after = np.asarray(learner.loss(batch))
        end = learner.snapshot()
        # Hidden state such as a generator shows up in the next real step.
        learner.train_step(batch, 0.1)
        seen.append((after, np.asarray(learner.loss(batch))))
        learner.restore(end)
    (got_after, got_next), (want_after, want_next) = seen
    assert np.array_equal(got_after, want_after)
    assert np.array_equal(got_next, want_next)


def check_full_contract(learner, num_arms, rng, cycles=1000):
    batch = random_batch(num_arms, 8, rng)
    check_loss_purity(learner, batch)
    check_snapshot_roundtrip(learner, batch)
    check_mutate_restore_cycles(learner, num_arms, rng, cycles=cycles)
