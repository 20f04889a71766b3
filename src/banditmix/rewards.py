"""Look-ahead rewards and smoothed per-arm estimates.

Each reward round probes every arm once: measure loss on a probe batch from
the arm, take one virtual optimizer step on it, measure again, restore the
learner, and score the arm by its relative loss drop.  A round is plain
arrays: a ``(K, B)`` integer array of probe examples in, row ``j`` for arm
``j``, and the ``(K,)`` float64 estimates ``q``, which ``lookahead_round``
updates in place through an exponential moving average before it returns
the ``(K,)`` rewards.  ``Learner.probe`` runs the measurements of a whole
round and ``Learner.train_steps`` the real steps between two rounds; those
two calls are all the loop asks of a learner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Literal, Sequence

import numpy as np

from .mixture import BanditConfig, Batch
from .registry import ArmRegistry

__all__ = ["Learner", "ema_update", "lookahead_round"]

RewardKind = Literal["delta_loss", "delta_entropy"]


class Learner(ABC):
    """Contract for anything trainable by the scheduling loop.

    The loop calls two methods: ``train_steps`` for the real steps of a
    window and ``probe`` for a reward round.  ``LoopLearner`` in
    ``tests/learner_contract.py`` defines both as plain loops of the paper's
    one-step operations (measure, snapshot, step, restore); a learner must
    give what those loops give, bit for bit.
    """

    @abstractmethod
    def train_steps(self, batch: Batch, learning_rates: Sequence[float]) -> None:
        """Apply one real step per learning rate, on equal consecutive rows.

        ``batch`` holds ``len(learning_rates)`` rows of equal length joined
        end to end, as ``sample_batch(..., steps=m)`` draws them; step ``t``
        is one optimizer step on row ``t`` at ``learning_rates[t]``.  On
        valid input the learner must end exactly as that loop of steps leaves
        it, bit for bit, hidden state such as a generator included.
        ``SimWorld`` refuses an invalid window whole, before its first step.
        """

    @abstractmethod
    def probe(
        self, examples: np.ndarray, learning_rate: float, entropy: bool = False
    ) -> tuple[Sequence[np.ndarray], Sequence[np.ndarray]]:
        """Measure each row of ``(K, B)`` ``examples`` before and after a virtual step.

        This is the paper's 1-step look-ahead.  Row ``j`` holds arm ``j``'s
        probe examples.  Returns ``(pres, posts)``, row ``j``'s losses
        (entropies with ``entropy=True``) before and after the step.  The
        values must be, bit for bit, those of a loop that per row, on
        ``Batch(np.full(B, j), examples[j])``, measures, snapshots the
        learner, takes one real step, measures again and restores the
        snapshot; every probe starts from the current state, and the learner
        is left unchanged, even when a measurement raises.
        ``LoopLearner.probe`` in ``tests/learner_contract.py`` is that loop.
        """


def _shape_error(what: str, shape: tuple[int, int]) -> ValueError:
    return ValueError(f"pre/post {what} must be equal-length nonempty 1-d arrays, one per row of the {shape} examples")


def _relative_drop(pre: np.ndarray, post: np.ndarray, epsilon: float, what: str) -> np.ndarray:
    """Per-arm mean of ``(pre - post) / (pre + epsilon)`` over a ``(K, B)`` round."""
    if not (np.isfinite(pre).all() and np.isfinite(post).all()):
        raise ValueError(f"{what} values must be finite")
    if (pre < 0).any():
        raise ValueError(f"pre {what} must be nonnegative")
    # Each term is (pre - post) / (pre + eps): below 1 whenever post >= 0,
    # negative when the probe step hurt.
    drop = (pre - post) / (pre + epsilon)
    # numpy's float64 mean is this sum over the count, without its wrapper.
    return drop.sum(axis=-1) / drop.shape[-1]


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


def lookahead_round(
    learner: Learner,
    registry: ArmRegistry,
    q: np.ndarray,
    cfg: BanditConfig,
    learning_rate: float,
    rng: np.random.Generator,
    reward_kind: RewardKind = "delta_loss",
) -> np.ndarray:
    """Probe every arm once, update the estimates ``q`` in place, return the rewards.

    ``q`` must be a finite float64 array of shape ``(K,)``.  Draws the
    ``(K, B)`` probe examples, row ``j`` for arm ``j``, with one numpy call
    that gives the values and generator state of ``rng.integers(0, c,
    size=B)`` for each arm's count ``c`` in turn.  Has ``learner.probe``
    measure each row before and after a virtual step, and scores all arms
    in one pass.
    Returns the round's ``(K,)`` float64 rewards in arm order.  ``q``
    changes only after the whole round has been checked and scored, so a
    failed round leaves it untouched.
    """
    if reward_kind not in ("delta_loss", "delta_entropy"):
        raise ValueError(f"unknown reward kind {reward_kind!r}")
    k = registry.num_arms
    if cfg.num_arms != k:
        raise ValueError("registry and config disagree on the number of arms")
    if not (isinstance(q, np.ndarray) and q.dtype == np.float64 and q.shape == (k,) and np.isfinite(q).all()):
        raise ValueError(f"q must be a finite float64 array of shape ({k},)")
    entropy = reward_kind == "delta_entropy"
    what = "entropies" if entropy else "losses"

    examples = rng.integers(0, registry.counts.repeat(cfg.batch_size)).reshape(k, cfg.batch_size)
    pres, posts = learner.probe(examples, learning_rate, entropy=entropy)
    # Score the round as one (K, B) pair; a ragged result cannot stack.
    try:
        pre = np.asarray(pres, dtype=np.float64)
        post = np.asarray(posts, dtype=np.float64)
    except ValueError:
        raise _shape_error(what, examples.shape) from None
    if pre.shape != examples.shape or post.shape != examples.shape:
        raise _shape_error(what, examples.shape)
    rewards = _relative_drop(pre, post, cfg.epsilon, what)
    q[:] = ema_update(q, rewards, cfg.alpha)
    return rewards
