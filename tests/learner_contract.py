"""The paper's look-ahead as reference loops, and checks against them.

The scheduling loop asks a learner for two calls, ``train_steps`` and
``probe``.  ``LoopLearner`` defines both as plain loops of the paper's
one-step operations: measure, snapshot, take one real step, restore.  A
learner whose ``train_steps`` and ``probe`` give what those loops give, bit
for bit, is usable with ``lookahead_round``; anyone who brings their own
learner can supply the five loop methods in a test subclass and run the
checks below.  ``LoopWorld`` does that for ``SimWorld``.  Imported by test
modules; not collected directly.
"""

from abc import abstractmethod

import numpy as np
import pytest

from banditmix.mixture import Batch
from banditmix.rewards import Learner
from banditmix.simworld import ENTROPY_LOSS_RATIO, SimWorld, _jitter_uniform


class LoopLearner(Learner):
    """A Learner whose train_steps and probe are plain loops of train_step.

    These loops are the contract's references: a learner's own train_steps
    and probe must give what they give, bit for bit.  The loops need the
    five one-step methods below.
    """

    @abstractmethod
    def snapshot(self):
        """Capture the full trainable state as an opaque token."""

    @abstractmethod
    def restore(self, token):
        """Return to the state captured by ``token``."""

    @abstractmethod
    def loss(self, batch):
        """Per-example losses for ``batch``, nonnegative, no side effects."""

    @abstractmethod
    def entropy(self, batch):
        """Per-example predictive entropies, no side effects."""

    @abstractmethod
    def train_step(self, batch, learning_rate):
        """Apply one real optimizer step."""

    def train_steps(self, batch, learning_rates):
        """One train_step per rate, on the batch's equal consecutive rows.

        Takes the steps before an invalid one.
        """
        m, n = len(learning_rates), batch.arms.size
        if m < 1 or n % m:
            raise ValueError(f"a batch of {n} does not split into {m} equal steps")
        width = n // m
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


class LoopWorld(SimWorld, LoopLearner):
    """A ``SimWorld`` with the one-step methods the reference loops need.

    ``train_steps`` and ``probe`` stay ``SimWorld``'s own, so every check run
    on a ``LoopWorld`` tests the product's code against the loops.  A step is
    a window of one row.  A measurement observes each example's loss as the
    module docstring states, by its own code: a noiseless world adds no
    jitter at all, where ``probe`` adds +-0.0.
    """

    def snapshot(self):
        return self.state_dict()

    def restore(self, token):
        self._loss = np.array(token["loss"])
        self._rng.bit_generator.state = token["rng_state"]

    def loss(self, batch):
        arms = batch.arms
        if arms.size == 0:
            raise ValueError("batch must be nonempty")
        if arms.min() < 0 or arms.max() >= self._loss.size:
            raise ValueError("batch refers to arms outside this world")
        per = self._loss[arms]
        if self._noise_scale > 0:
            per = per + self._noise_scale * _jitter_uniform(self._key, arms, batch.examples)
        return np.maximum(per, 0.0)

    def entropy(self, batch):
        return ENTROPY_LOSS_RATIO * self.loss(batch)

    def train_step(self, batch, learning_rate):
        self.train_steps(batch, [learning_rate])


def loop_world(world):
    """A ``LoopWorld`` in ``world``'s state, with a generator of its own."""
    return LoopWorld.from_state_dict(world.state_dict())


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
        self.theta = self.theta - learning_rate * n / batch.arms.size


def random_batch(num_arms, batch_size, rng, max_example=10_000):
    arms = rng.integers(0, num_arms, size=batch_size)
    examples = rng.integers(0, max_example, size=batch_size)
    return Batch(arms=arms.astype(np.int64), examples=examples.astype(np.int64))


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


def check_call_is_pure(world, call, batch, learning_rates, raises=None):
    """``call(world)`` leaves a ``SimWorld`` as it found it: ``state_dict()``,
    generator state included, is equal before and after, and the next
    ``train_steps`` gives the bits of a twin that never made the call.  With
    ``raises`` set, the call must raise that error."""
    before = world.state_dict()
    twin = SimWorld.from_state_dict(before)
    if raises is None:
        call(world)
    else:
        with pytest.raises(raises):
            call(world)
    assert world.state_dict() == before
    world.train_steps(batch, learning_rates)
    twin.train_steps(batch, learning_rates)
    assert world.state_dict() == twin.state_dict()
