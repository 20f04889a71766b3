"""Probability law and categorical sampling for mixture scheduling.

The sampling distribution over arms is a Boltzmann (softmax) distribution
over reward estimates, rescaled by a prior over arms and blended with a
uniform floor so no arm's probability can fall below ``gamma / K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .registry import ArmRegistry

__all__ = [
    "BanditConfig",
    "MixtureDistribution",
    "Batch",
    "boltzmann_probs",
    "prior_scaled_probs",
    "mixture_probs",
    "sample_batch",
]


@dataclass(frozen=True)
class BanditConfig:
    """Scalar hyperparameters of the scheduling loop.

    beta sharpens exploitation of the reward estimates, gamma blends in the
    uniform floor, alpha smooths rewards with an exponential moving average,
    and epsilon stabilizes the reward denominator.
    """

    num_arms: int
    total_steps: int
    beta: float = 4.0
    gamma: float = 0.3
    alpha: float = 0.95
    epsilon: float = 1e-8
    update_interval: int = 50
    batch_size: int = 128

    def __post_init__(self) -> None:
        if self.num_arms < 1:
            raise ValueError(f"num_arms must be >= 1, got {self.num_arms}")
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.beta < 0 or not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.update_interval < 1:
            raise ValueError(f"update_interval must be >= 1, got {self.update_interval}")
        # A zero-length run has no steps at all, so no interval bound applies.
        if self.total_steps > 0 and self.update_interval > self.total_steps:
            raise ValueError(
                f"update_interval ({self.update_interval}) must not exceed "
                f"total_steps ({self.total_steps})"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class MixtureDistribution:
    """A sampling distribution over arms (nonnegative, sums to one)."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a nonempty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("p entries must be finite")
        if np.any(p < -1e-12):
            raise ValueError("p entries must be nonnegative")
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"p must sum to 1, got {total!r}")

    @property
    def num_arms(self) -> int:
        return int(self.p.size)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """Cumulative sums in fixed arm order, used by inverse-CDF sampling."""
        return np.cumsum(self.p)


@dataclass(frozen=True)
class Batch:
    """A sampled batch: parallel arrays of arm indices and example indices."""

    arms: np.ndarray
    examples: np.ndarray

    def __post_init__(self) -> None:
        arms = np.asarray(self.arms, dtype=np.int64)
        examples = np.asarray(self.examples, dtype=np.int64)
        if arms.shape != examples.shape or arms.ndim != 1:
            raise ValueError("arms and examples must be 1-d arrays of equal length")
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "examples", examples)

    def __len__(self) -> int:
        return int(self.arms.size)


def _check_finite_vector(name: str, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
    return v


def boltzmann_probs(q: np.ndarray, beta: float) -> np.ndarray:
    """Softmax of ``beta * q``, stabilized by subtracting the max logit."""
    q = _check_finite_vector("q", q)
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    z = beta * q
    w = np.exp(z - np.max(z))
    return w / np.sum(w)


def prior_scaled_probs(q: np.ndarray, prior: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann weights rescaled by a prior over arms and renormalized.

    Arms with zero prior mass get probability exactly zero.  The max logit is
    taken over positive-prior arms only, so the normalizer cannot underflow
    to zero.
    """
    q = _check_finite_vector("q", q)
    prior = _check_finite_vector("prior", prior)
    if prior.shape != q.shape:
        raise ValueError(f"q and prior must have equal length, got {q.size} and {prior.size}")
    if np.any(prior < 0):
        raise ValueError("prior entries must be nonnegative")
    positive = prior > 0
    if not np.any(positive):
        raise ValueError("prior must have at least one positive entry")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    z = beta * q
    # Exponentiate positive-prior entries only: a huge estimate on a
    # zero-prior arm would otherwise overflow into inf * 0.
    w = np.zeros_like(z)
    w[positive] = np.exp(z[positive] - np.max(z[positive])) * prior[positive]
    return w / np.sum(w)


def mixture_probs(q: np.ndarray, prior: np.ndarray, cfg: BanditConfig) -> MixtureDistribution:
    """Final sampling distribution: prior-scaled Boltzmann plus uniform floor.

    Returns ``(1 - gamma) * prior_scaled_probs(q, prior, beta) + gamma / K``,
    which keeps every arm's probability at or above ``gamma / K``.
    """
    # prior_scaled_probs checks the entries of q.
    if np.size(q) != cfg.num_arms:
        raise ValueError(f"q has {np.size(q)} entries but config expects {cfg.num_arms} arms")
    w = prior_scaled_probs(q, prior, cfg.beta)
    p = (1.0 - cfg.gamma) * w + cfg.gamma / cfg.num_arms
    return MixtureDistribution(p=p)


def sample_batch(
    dist: MixtureDistribution,
    registry: ArmRegistry,
    batch_size: int,
    rng: np.random.Generator,
    steps: int = 1,
) -> Batch:
    """Draw ``steps`` batches of ``(arm, example)`` pairs, joined end to end.

    Arms follow ``dist`` (the distribution is fixed for every batch);
    example indices are uniform over each chosen arm's instances, with
    replacement.  Per step, ``batch_size`` uniforms pick the arms and then
    one bounded integer per element picks the examples, so the result and
    the generator state equal ``steps`` one-step calls in sequence.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if dist.num_arms != registry.num_arms:
        raise ValueError(
            f"distribution covers {dist.num_arms} arms but registry has {registry.num_arms}"
        )
    window = _pcg64_window(dist, registry.counts, batch_size, steps, rng)
    if window is not None:
        return window
    draws = [_draw_step(dist, registry.counts, batch_size, rng) for _ in range(steps)]
    arms, examples = zip(*draws)
    return Batch(arms=np.concatenate(arms), examples=np.concatenate(examples))


def _draw_step(
    dist: MixtureDistribution, counts: np.ndarray, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    us = rng.random(batch_size)
    arms = dist.cumulative.searchsorted(us, side="right")
    # searchsorted never returns a negative index; only a draw at or above
    # the float total of p can land past the last arm.
    np.minimum(arms, dist.num_arms - 1, out=arms)
    return arms, rng.integers(0, counts[arms])


_LOW32 = np.uint64(0xFFFFFFFF)


def _pcg64_fits(rng: np.random.Generator, counts: np.ndarray) -> bool:
    """Whether ``_pcg64_integers`` can replay ``rng.integers(0, c)`` for each count.

    That needs numpy's ``PCG64`` and counts in ``[2, 2**32]``: a count of 1
    draws nothing, and a larger one draws 64-bit values.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        return False
    return counts.min() >= 2 and counts.max() <= 2**32


def _pcg64_integers(
    bit_gen: np.random.PCG64, start: dict, words: np.ndarray, counts: np.ndarray, arms: np.ndarray
) -> np.ndarray | None:
    """Integers in ``[0, counts[arms[i]])`` as numpy draws them, or None.

    ``words`` are raws ``bit_gen`` drew from state ``start`` for 32-bit use.
    The 32-bit draws are the half ``start`` holds buffered, if any, then the
    low and high halves of each word; numpy's ``Generator.integers`` turns
    one draw ``u`` into ``(u * c) >> 32`` by Lemire's method, rejected iff
    ``(u * c) mod 2**32`` is below ``(2**32 - c) mod c``.  On success the
    generator keeps the high half of the last word, and whether it is still
    unused.  Returns None with the generator rewound to ``start`` when any
    draw would be rejected.
    """
    halves = np.column_stack((words & _LOW32, words >> np.uint64(32))).ravel()
    if start["has_uint32"]:
        halves = np.concatenate(([np.uint64(start["uinteger"])], halves))
    bound = counts.astype(np.uint64)
    threshold = (np.uint64(2**32) - bound) % bound
    scaled = halves[: arms.size] * bound[arms]
    if ((scaled & _LOW32) < threshold[arms]).any():
        bit_gen.state = start
        return None
    end = bit_gen.state
    end["has_uint32"] = halves.size - arms.size
    if words.size:
        end["uinteger"] = int(words[-1] >> np.uint64(32))
    bit_gen.state = end
    return (scaled >> np.uint64(32)).astype(np.int64)


def _pcg64_window(
    dist: MixtureDistribution,
    counts: np.ndarray,
    batch_size: int,
    steps: int,
    rng: np.random.Generator,
) -> Batch | None:
    """``steps`` calls of ``_draw_step`` from one ``random_raw`` call, or None.

    Follows numpy's PCG64 ``Generator`` bit for bit, as the tests pin: a
    uniform double is a raw's top 53 bits over 2**53, and the example
    indices come from ``_pcg64_integers`` on the raws drawn after each
    step's doubles.  Returns None with ``rng`` unchanged when ``_pcg64_fits``
    does not hold or any draw would be rejected.
    """
    if not _pcg64_fits(rng, counts):
        return None
    bit_gen = rng.bit_generator
    start = bit_gen.state
    # Raws spent on 32-bit draws by the end of each step.
    spent = (np.arange(1, steps + 1) * batch_size - start["has_uint32"] + 1) // 2
    per_step = np.diff(spent, prepend=0)
    # Each step draws batch_size raws for its doubles, then its share of raws
    # for 32-bit draws.
    is_double = np.repeat(
        np.tile([True, False], steps), np.column_stack((np.full(steps, batch_size), per_step)).ravel()
    )
    raws = bit_gen.random_raw(is_double.size)
    us = (raws[is_double] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    arms = dist.cumulative.searchsorted(us, side="right")
    np.minimum(arms, dist.num_arms - 1, out=arms)
    examples = _pcg64_integers(bit_gen, start, raws[~is_double], counts, arms)
    if examples is None:
        return None
    return Batch(arms=arms, examples=examples)
