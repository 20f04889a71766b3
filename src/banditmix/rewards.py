"""Look-ahead rewards and smoothed per-arm estimates.

Each reward round probes every arm once: measure loss on a probe batch from
the arm, take one virtual optimizer step on it, measure again, restore the
learner, and score the arm by its relative loss drop.  A round is plain
arrays: a ``(K, B)`` integer array of probe examples in, row ``j`` for arm
``j``, and the ``(K,)`` float64 estimates ``q``, which ``lookahead_round``
updates in place through an exponential moving average before it returns
the ``(K,)`` rewards.  ``Learner.probe`` runs the measurements of a whole
round and ``Learner.train_steps`` the real steps between two rounds; each
must give what a loop of ``train_step`` calls gives, bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Literal, Sequence

import numpy as np

from .mixture import BanditConfig, Batch
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

    @abstractmethod
    def train_steps(self, batch: Batch, learning_rates: Sequence[float]) -> None:
        """Apply one real step per learning rate, on equal consecutive rows.

        ``batch`` holds ``len(learning_rates)`` rows of equal length joined
        end to end, as ``sample_batch(..., steps=m)`` draws them; step ``t``
        is a ``train_step`` on row ``t`` at ``learning_rates[t]``.  On valid
        input the learner must end exactly as that loop leaves it, bit for
        bit, hidden state such as a generator included.  ``SimWorld``
        refuses an invalid window whole, before its first step.
        """

    def entropy(self, batch: Batch) -> np.ndarray:
        """Per-example predictive entropies; optional capability."""
        raise NotImplementedError(f"{type(self).__name__} does not expose entropies")

    @abstractmethod
    def probe(
        self, examples: np.ndarray, learning_rate: float, entropy: bool = False
    ) -> tuple[Sequence[np.ndarray], Sequence[np.ndarray]]:
        """Measure each row of ``(K, B)`` ``examples`` before and after a virtual step.

        Row ``j`` holds arm ``j``'s probe examples.  Returns ``(pres,
        posts)``, row ``j``'s losses (entropies with ``entropy=True``) before
        and after the step.  The values must be, bit for bit, those of a
        loop that per row, on ``Batch(np.full(B, j), examples[j])``,
        measures, snapshots, takes the step as a ``train_step``, measures
        again and restores; every probe starts from the current state, and
        the learner is left unchanged, even when a measurement raises.
        """


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
        raise _shape_error(what) from None
    rewards = _relative_drop(pre, post, cfg.epsilon, what, ndim=2)
    if pre.shape != examples.shape:
        raise ValueError(f"probe returned shape {pre.shape} for examples of shape {examples.shape}")
    q[:] = ema_update(q, rewards, cfg.alpha)
    return rewards
