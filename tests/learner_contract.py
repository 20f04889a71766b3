"""Reusable contract checks for Learner implementations.

Any learner usable with lookahead_round must pass these: the simulator
does, and so must any adapter wrapping a real training loop.  LoopLearner
holds the reference loops of train_steps and probe that the checks compare
a learner against.  Imported by test modules; not collected directly.
"""

import numpy as np

from banditmix.mixture import Batch
from banditmix.rewards import Learner


class LoopLearner(Learner):
    """A Learner whose train_steps and probe are plain loops of train_step.

    These loops are the contract's references: a learner's own train_steps
    and probe must give what they give, bit for bit.
    """

    def train_steps(self, batch, learning_rates):
        """One train_step per rate, on the batch's equal consecutive rows.

        Takes the steps before an invalid one.
        """
        m = len(learning_rates)
        if m < 1 or len(batch) % m:
            raise ValueError(f"a batch of {len(batch)} does not split into {m} equal steps")
        width = len(batch) // m
        for t, lr in enumerate(learning_rates):
            rows = slice(t * width, (t + 1) * width)
            self.train_step(Batch(arms=batch.arms[rows], examples=batch.examples[rows]), lr)

    def probe(self, examples, learning_rate, entropy=False):
        """Per row ``j`` of ``examples``, on ``Batch(np.full(B, j), examples[j])``:
        measure, snapshot, train_step, measure, and restore, even when a
        measurement raises."""
        measure = self.entropy if entropy else self.loss
        pres, posts = [], []
        for arm, row in enumerate(examples):
            batch = Batch(arms=np.full(len(row), arm), examples=row)
            pres.append(np.asarray(measure(batch), dtype=np.float64))
            token = self.snapshot()
            try:
                self.train_step(batch, learning_rate)
                posts.append(np.asarray(measure(batch), dtype=np.float64))
            finally:
                self.restore(token)
        return pres, posts


class LinearLearner(LoopLearner):
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
    """A learner's probe() must return what the LoopLearner.probe loop
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
    want_pres, want_posts = LoopLearner.probe(learner, examples, lr, entropy=entropy)
    assert len(pres) == len(posts) == len(batches)
    for got, want in zip([*pres, *posts], [*want_pres, *want_posts]):
        assert np.array_equal(got, want)


def check_train_steps_matches_default(learner, batch, learning_rates):
    """A learner's train_steps() must leave it as the LoopLearner.train_steps
    loop does, bit for bit; the learner ends in that state."""
    token = learner.snapshot()
    seen = []
    for train_steps in (type(learner).train_steps, LoopLearner.train_steps):
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
