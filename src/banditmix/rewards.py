"""Look-ahead rewards and smoothed per-arm estimates.

Each reward round probes every arm once: measure loss on a probe batch, take
one virtual optimizer step on that batch, measure again, restore the learner,
and score the arm by its relative loss drop.  ``lookahead_round`` folds the
round's scores into the running estimates through an exponential moving
average, in place, and returns them as one ``(K,)`` float64 array in arm
order; nothing else of the round is kept.  ``Learner.probe`` runs the
measurements of a whole round and ``Learner.train_steps`` the real steps
between two rounds; a learner that can compute either in closed form may
override it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Literal, Sequence

import numpy as np

from .mixture import BanditConfig, Batch, QState, _pcg64_fits, _pcg64_integers
from .registry import ArmRegistry

__all__ = [
    "Learner",
    "delta_loss_reward",
    "delta_entropy_reward",
    "ema_update",
    "lookahead_round",
]

RewardKind = Literal["delta_loss", "delta_entropy"]


class Learner(ABC):
    """Contract for anything trainable by the scheduling loop.

    ``snapshot`` and ``restore`` must round-trip exactly: after a snapshot,
    any sequence of ``train_step`` calls followed by ``restore`` leaves
    per-example losses identical to their pre-snapshot values, so a probe's
    virtual step is a ``train_step`` that gets rolled back.  ``loss`` must be
    a pure observation with no side effects.
    """

    @abstractmethod
    def snapshot(self) -> Any:
        """Capture full trainable state as an opaque token."""

    @abstractmethod
    def restore(self, token: Any) -> None:
        """Return to the state captured by ``token``."""

    @abstractmethod
    def loss(self, batch: Batch) -> np.ndarray:
        """Per-example losses for ``batch``, nonnegative, no side effects."""

    @abstractmethod
    def train_step(self, batch: Batch, learning_rate: float) -> None:
        """Apply one real optimizer step."""

    def train_steps(self, batch: Batch, learning_rates: Sequence[float]) -> None:
        """Apply one real step per learning rate, on equal consecutive rows.

        ``batch`` holds ``len(learning_rates)`` rows of equal length joined
        end to end, as ``sample_batch(..., steps=m)`` draws them; step ``t``
        is a ``train_step`` on row ``t`` at ``learning_rates[t]``.  An
        override must leave the learner exactly as this loop does, bit for
        bit, hidden state such as a generator included.
        """
        m = len(learning_rates)
        if m < 1 or len(batch) % m:
            raise ValueError(f"a batch of {len(batch)} does not split into {m} equal steps")
        width = len(batch) // m
        for t, lr in enumerate(learning_rates):
            rows = slice(t * width, (t + 1) * width)
            self.train_step(Batch(arms=batch.arms[rows], examples=batch.examples[rows]), lr)

    def entropy(self, batch: Batch) -> np.ndarray:
        """Per-example predictive entropies; optional capability."""
        raise NotImplementedError(f"{type(self).__name__} does not expose entropies")

    def probe(
        self, batches: Sequence[Batch], learning_rate: float, entropy: bool = False
    ) -> tuple[Sequence[np.ndarray], Sequence[np.ndarray]]:
        """Measure each batch before and after one virtual step on it.

        Returns ``(pres, posts)``: ``pres[j]`` and ``posts[j]`` are batch
        ``j``'s losses (entropies with ``entropy=True``) before and after the
        step.  Every probe starts from the current state: per batch, measure,
        snapshot, take the virtual step as a ``train_step``, measure again,
        and restore, even when a measurement raises.  An override must return
        the same values bit for bit and leave the learner unchanged.
        """
        measure = self.entropy if entropy else self.loss
        pres: list[np.ndarray] = []
        posts: list[np.ndarray] = []
        for batch in batches:
            pres.append(np.asarray(measure(batch), dtype=np.float64))
            token = self.snapshot()
            try:
                self.train_step(batch, learning_rate)
                posts.append(np.asarray(measure(batch), dtype=np.float64))
            finally:
                self.restore(token)
        return pres, posts


def _shape_error(what: str) -> ValueError:
    return ValueError(f"pre/post {what} must be equal-length nonempty 1-d arrays")


def _relative_drop(
    pre: np.ndarray, post: np.ndarray, epsilon: float, what: str, ndim: int = 1
) -> float | np.ndarray:
    """Mean of ``(pre - post) / (pre + epsilon)`` along the last axis.

    Takes ``ndim``-d arrays: a 1-d pair scores to a float, a (K, B) round to
    its K scores.
    """
    pre = np.asarray(pre, dtype=np.float64)
    post = np.asarray(post, dtype=np.float64)
    if pre.shape != post.shape or pre.ndim != ndim or pre.size < 1:
        raise _shape_error(what)
    if not (np.isfinite(pre).all() and np.isfinite(post).all()):
        raise ValueError(f"{what} values must be finite")
    if (pre < 0).any():
        raise ValueError(f"pre {what} must be nonnegative")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    # Each term is (pre - post) / (pre + eps): below 1 whenever post >= 0,
    # negative when the probe step hurt.
    drop = ((pre - post) / (pre + epsilon)).mean(axis=-1)
    return float(drop) if ndim == 1 else drop


def delta_loss_reward(pre: np.ndarray, post: np.ndarray, epsilon: float = 1e-8) -> float:
    """Mean relative loss drop over a probe batch."""
    return _relative_drop(pre, post, epsilon, "losses")


def delta_entropy_reward(pre: np.ndarray, post: np.ndarray, epsilon: float = 1e-8) -> float:
    """Mean relative entropy drop over a probe batch.

    Same functional form as ``delta_loss_reward``; callers feed it entropies
    instead of losses.
    """
    return _relative_drop(pre, post, epsilon, "entropies")


def ema_update(
    q: float | np.ndarray, reward: float | np.ndarray, alpha: float
) -> float | np.ndarray:
    """Blend a new reward into an estimate: ``alpha * q + (1 - alpha) * reward``.

    Elementwise: floats give a float, a round's arrays of estimates and
    rewards give the updated array.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not np.isfinite(reward).all():
        raise ValueError(f"reward must be finite, got {reward}")
    return alpha * q + (1.0 - alpha) * reward


def _probe_batch(
    arm: int, registry: ArmRegistry, batch_size: int, rng: np.random.Generator
) -> Batch:
    arms = np.full(batch_size, arm, dtype=np.int64)
    examples = rng.integers(0, registry.counts[arm], size=batch_size)
    return Batch(arms=arms, examples=examples)


def _probe_batches(registry: ArmRegistry, batch_size: int, rng: np.random.Generator) -> list[Batch]:
    """One single-arm batch per arm, in arm order: ``_probe_batch`` per arm.

    On a generator ``_pcg64_fits`` accepts, the whole round comes from one
    ``random_raw`` call with the same values and generator state; a
    rejected draw rewinds the generator and takes the per-arm loop.
    """
    k = registry.num_arms
    if _pcg64_fits(rng, registry.counts):
        bit_gen = rng.bit_generator
        start = bit_gen.state
        # One raw gives two 32-bit draws; a buffered half gives the first.
        words = bit_gen.random_raw((k * batch_size - start["has_uint32"] + 1) // 2)
        arms = np.arange(k).repeat(batch_size)
        examples = _pcg64_integers(bit_gen, start, words, registry.counts, arms)
        if examples is not None:
            arms, examples = arms.reshape(k, batch_size), examples.reshape(k, batch_size)
            return [Batch(arms=arms[a], examples=examples[a]) for a in range(k)]
    return [_probe_batch(a, registry, batch_size, rng) for a in range(k)]


def lookahead_round(
    learner: Learner,
    registry: ArmRegistry,
    state: QState,
    cfg: BanditConfig,
    learning_rate: float,
    rng: np.random.Generator,
    reward_kind: RewardKind = "delta_loss",
) -> np.ndarray:
    """Probe every arm once, update ``state.q`` in place, return the rewards.

    Draws one single-arm probe batch per arm from ``rng``, in arm order, then
    has ``learner.probe`` measure each before and after a virtual step, and
    scores all arms in one pass.  Returns the round's ``(K,)`` float64
    rewards in arm order.  The estimates change only after the whole round
    has been checked and scored, so a failed round leaves ``state``
    untouched.
    """
    if reward_kind not in ("delta_loss", "delta_entropy"):
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    if state.num_arms != registry.num_arms or state.num_arms != cfg.num_arms:
        raise ValueError("state, registry, and config disagree on the number of arms")
    entropy = reward_kind == "delta_entropy"
    what = "entropies" if entropy else "losses"

    batches = _probe_batches(registry, cfg.batch_size, rng)
    pres, posts = learner.probe(batches, learning_rate, entropy=entropy)
    # Score the round as one (K, B) pair; a ragged result cannot stack.
    try:
        pre = np.asarray(pres, dtype=np.float64)
        post = np.asarray(posts, dtype=np.float64)
    except ValueError:
        raise _shape_error(what) from None
    rewards = _relative_drop(pre, post, cfg.epsilon, what, ndim=2)
    if rewards.size != len(batches):
        raise ValueError(f"probe returned {rewards.size} results for {len(batches)} batches")
    state.q[:] = ema_update(state.q, rewards, cfg.alpha)
    return rewards
