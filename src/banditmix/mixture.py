"""Probability law and categorical sampling for mixture scheduling.

The sampling distribution over arms is a Boltzmann (softmax) distribution
over reward estimates, rescaled by a prior over arms and blended with a
uniform floor so no arm's probability can fall below ``gamma / K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .registry import ArmRegistry

__all__ = [
    "BanditConfig",
    "MixtureDistribution",
    "Batch",
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
        p = finite_vector("p", self.p)
        object.__setattr__(self, "p", p)
        if p.min() < -1e-12:
            raise ValueError("p entries must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"p must sum to 1, got {total!r}")

    @property
    def num_arms(self) -> int:
        return int(self.p.size)

    @cached_property
    def thresholds(self) -> np.ndarray:
        """The cumulative sums ``c`` of ``p`` in the domain of a uniform's 53-bit key.

        numpy's uniform double is ``key * 2**-53`` exactly, so ``u >= c``
        holds iff ``key >= ceil(max(c, 0) * 2**53)``: every comparison of
        a key with these thresholds agrees with the double's with ``c``.
        """
        return np.ceil(np.maximum(self.p.cumsum(), 0.0) * 2.0**53).astype(np.uint64)

    @cached_property
    def bucket_arms(self) -> np.ndarray | None:
        """Per bucket of a key's top ``_BUCKET_BITS`` bits, the arm of its keys.

        The arm is unclipped, and -1 where a threshold falls inside the
        bucket, so its keys' arms differ.  None when a negative entry of
        ``p`` leaves the thresholds unsorted: a binary search then need not
        return the count of thresholds at or below a key, which is what the
        table holds.
        """
        thresholds = self.thresholds
        if (thresholds[1:] < thresholds[:-1]).any():
            return None
        below_first = thresholds.searchsorted(_BUCKET_FIRST, side="right")
        below_last = thresholds.searchsorted(_BUCKET_LAST, side="right")
        below_first[below_first != below_last] = -1
        return below_first


@dataclass(frozen=True)
class Batch:
    """A sampled batch: parallel int64 arrays of arm indices and example indices.

    Each field must be integers, or empty: a float, bool or str array is
    refused, not truncated.
    """

    arms: np.ndarray
    examples: np.ndarray

    def __post_init__(self) -> None:
        for name in ("arms", "examples"):
            v = np.asarray(getattr(self, name))
            if v.size and v.dtype.kind not in "iu":
                raise ValueError(f"{name} must be integers, got {v.dtype}")
            object.__setattr__(self, name, v.astype(np.int64, copy=False))
        if self.arms.shape != self.examples.shape or self.arms.ndim != 1:
            raise ValueError("arms and examples must be 1-d arrays of equal length")

    def step_counts(self, steps: int, num_arms: int) -> np.ndarray:
        """The ``(steps, num_arms)`` int64 draws per arm of each of ``steps`` equal rows;
        the arms must lie in ``[0, num_arms)``."""
        # Each element's (step, arm) cell, built in place to hold one copy.
        cells = np.arange(0, steps * num_arms, num_arms).repeat(self.arms.size // steps)
        cells += self.arms
        return np.bincount(cells, minlength=steps * num_arms).reshape(steps, num_arms)


def finite_vector(name: str, v: np.ndarray) -> np.ndarray:
    """A float64 copy of ``v``, once it is a nonempty 1-d vector of finite entries."""
    v = np.array(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} entries must be finite")
    return v


def prior_scaled_probs(q: np.ndarray, prior: np.ndarray, beta: float) -> np.ndarray:
    """Boltzmann weights rescaled by a prior over arms and renormalized.

    Arms with zero prior mass get probability exactly zero.  The max logit is
    taken over positive-prior arms only, so the normalizer cannot underflow
    to zero.  When every prior entry is positive, as a registry's default
    prior is, the mask selects every entry, so the formula runs on the whole
    vectors without it.
    """
    q = finite_vector("q", q)
    prior = finite_vector("prior", prior)
    if prior.shape != q.shape:
        raise ValueError(f"q and prior must have equal length, got {q.size} and {prior.size}")
    # The entries are finite, so the smallest one decides the sign checks.
    lowest = prior.min()
    if lowest < 0:
        raise ValueError("prior entries must be nonnegative")
    if lowest == 0 and not (prior > 0).any():
        raise ValueError("prior must have at least one positive entry")
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    z = beta * q
    if lowest > 0:
        w = np.exp(z - z.max()) * prior
    else:
        # Exponentiate positive-prior entries only: a huge estimate on a
        # zero-prior arm would otherwise overflow into inf * 0.
        positive = prior > 0
        w = np.zeros_like(z)
        w[positive] = np.exp(z[positive] - z[positive].max()) * prior[positive]
    # The largest weight is its prior entry, so the normalizer is positive
    # unless ``beta * q`` overflowed and made it NaN.
    total = w.sum()
    if not total > 0.0:
        raise ValueError(f"beta * q overflows: beta {beta}, largest |q| {float(np.abs(q).max())}")
    return w / total


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
    the generator state equal ``steps`` one-step calls in sequence.  For
    numpy's ``PCG64`` the window is replayed from raw draws
    (``_pcg64_window``), with the constants that depend only on the counts
    or on the window's shape taken from bounded caches.
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
    # Every numpy bit generator's double is ``key * 2**-53``: the keys are exact.
    keys = (rng.random(batch_size) * 2.0**53).astype(np.uint64)
    arms = _key_arms(dist, keys)
    return arms, rng.integers(0, counts[arms])


_LOW32 = np.uint64(0xFFFFFFFF)

# A window's keys go through ``bucket_arms`` when there are this many; on
# fewer, building and reading the table costs more than it saves.
_TABLE_MIN_KEYS = 2048
_BUCKET_BITS = 8
_BUCKET_SHIFT = np.uint64(53 - _BUCKET_BITS)
# The first and the last key of each bucket.
_BUCKET_FIRST = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << _BUCKET_SHIFT
_BUCKET_LAST = _BUCKET_FIRST + np.uint64((1 << (53 - _BUCKET_BITS)) - 1)


def _key_arms(dist: MixtureDistribution, keys: np.ndarray) -> np.ndarray:
    """The arms of the uniforms ``keys * 2**-53``: every draw's one arm law.

    ``keys`` are 53-bit integers; a key's arm is the count of ``thresholds``
    at or below it, capped at the last arm.  A large window reads the arms
    of the keys in buckets that hold no threshold from ``bucket_arms`` in
    one gather, and searches only the keys of the others.
    """
    table = dist.bucket_arms if keys.size >= _TABLE_MIN_KEYS else None
    if table is None:
        arms = dist.thresholds.searchsorted(keys, side="right")
    else:
        # Bucket numbers fit in int64, which ``take`` indexes without a cast.
        arms = table.take((keys >> _BUCKET_SHIFT).view(np.int64))
        split = np.flatnonzero(arms < 0)
        if split.size:
            arms[split] = dist.thresholds.searchsorted(keys[split], side="right")
    np.minimum(arms, dist.num_arms - 1, out=arms)
    return arms


# Entries in each cache below.  A run uses one tuple of counts and a few
# window shapes; a shape after a rejected draw is used once.  A layout holds
# a one-byte mask over the window's raws, 1.5 per draw: 9.6 KB at the
# default tulu shape.
_CACHE_SIZE = 8


@lru_cache(maxsize=_CACHE_SIZE)
def _lemire_bounds(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """Per arm, the bound ``c`` of ``rng.integers(0, c)`` as a uint64 and the
    threshold ``(2**32 - c) mod c`` below which numpy's Lemire draw rejects.

    None unless every count lies in ``[2, 2**32]``, where ``_pcg64_window``
    can replay the draws: a count of 1 draws nothing, and a larger one draws
    64-bit values.
    """
    if min(counts) < 2 or max(counts) > 2**32:
        return None
    bound = np.array(counts, dtype=np.uint64)
    reject_below = (np.uint64(2**32) - bound) % bound
    bound.setflags(write=False)
    reject_below.setflags(write=False)
    return bound, reject_below


@lru_cache(maxsize=_CACHE_SIZE)
def _raw_layout(batch_size: int, steps: int, held: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Where ``steps`` calls of ``_draw_step`` take their raws from one ``random_raw`` call.

    Returns the raws spent on 32-bit draws by the end of each step, as a
    tuple, and the read-only mask of the raws the doubles take (the others
    go to 32-bit draws), with ``held`` (0 or 1) halves buffered at the
    start.  They depend on nothing else, so a run computes each layout once.
    """
    spent = np.arange(batch_size - held + 1, steps * batch_size - held + 2, batch_size) // 2
    # Each step draws batch_size raws for its doubles, then its share of
    # raws for 32-bit draws.
    sizes = np.full(2 * steps, batch_size)
    sizes[1::2] = spent
    sizes[3::2] -= spent[:-1]
    is_double = np.repeat(np.arange(2 * steps) % 2 == 0, sizes)
    is_double.setflags(write=False)
    return tuple(spent.tolist()), is_double


def _pcg64_window(
    dist: MixtureDistribution,
    counts: np.ndarray,
    batch_size: int,
    steps: int,
    rng: np.random.Generator,
) -> Batch | None:
    """``steps`` calls of ``_draw_step``, mostly from one ``random_raw`` call.

    Follows numpy's PCG64 ``Generator`` bit for bit, as the tests pin.  Each
    step draws ``batch_size`` raws for its doubles, a double being a raw's
    top 53 bits over 2**53, then the raws its example indices take.  Those
    are drawn 32 bits at a time: first the half the generator holds
    buffered, if any, then the low and high halves of each raw.  numpy's
    ``Generator.integers`` turns one such draw ``u`` into ``(u * c) >> 32``
    by Lemire's method, rejected iff ``(u * c) mod 2**32`` is below
    ``(2**32 - c) mod c``.  At a rejected draw the steps before its step are
    kept, the generator is set to their end, that step is drawn by
    ``_draw_step`` and the window goes on from the next one.  Returns None
    with ``rng`` unchanged unless ``rng`` is numpy's ``PCG64`` and every
    count lies in ``[2, 2**32]``.  The bounds per count (``_lemire_bounds``)
    and the raw layout per ``(batch_size, steps, held)`` (``_raw_layout``)
    are cached, as they depend on nothing else.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        return None
    lemire = _lemire_bounds(tuple(counts.tolist()))
    if lemire is None:
        return None
    bound, reject_below = lemire
    bit_gen = rng.bit_generator
    arm_parts, example_parts = [], []
    while steps:
        start = bit_gen.state
        held = start["has_uint32"]
        spent, is_double = _raw_layout(batch_size, steps, held)
        raws = bit_gen.random_raw(is_double.size)
        keys, words = raws[is_double], raws[~is_double]
        # Freed here, so the window's peak memory holds no second copy.
        del raws
        keys >>= np.uint64(11)
        arms = _key_arms(dist, keys)
        del keys
        halves = np.empty(held + 2 * words.size, dtype=np.uint64)
        if held:
            halves[0] = start["uinteger"]
        np.bitwise_and(words, _LOW32, out=halves[held::2])
        np.right_shift(words, np.uint64(32), out=halves[held + 1 :: 2])
        scaled = halves[: arms.size]
        scaled *= bound[arms]
        rejected = ((scaled & _LOW32) < reject_below[arms]).nonzero()[0]
        scaled >>= np.uint64(32)
        examples = scaled.view(np.int64)
        # Steps kept, and the raws they spent on 32-bit draws.
        kept = int(rejected[0]) // batch_size if rejected.size else steps
        used = spent[kept - 1] if kept else 0
        if kept < steps:
            bit_gen.state = start
            bit_gen.advance(kept * batch_size + used)
        end = bit_gen.state
        # numpy keeps a raw's high half buffered until a draw takes it.
        end["has_uint32"] = held + 2 * used - kept * batch_size
        # ``advance`` clears the buffer, so it is always set here.
        end["uinteger"] = int(words[used - 1] >> np.uint64(32)) if used else start["uinteger"]
        bit_gen.state = end
        arm_parts.append(arms[: kept * batch_size])
        example_parts.append(examples[: kept * batch_size])
        if kept == steps:
            break
        step_arms, step_examples = _draw_step(dist, counts, batch_size, rng)
        arm_parts.append(step_arms)
        example_parts.append(step_examples)
        steps -= kept + 1
    if len(arm_parts) == 1:
        return Batch(arms=arm_parts[0], examples=example_parts[0])
    return Batch(arms=np.concatenate(arm_parts), examples=np.concatenate(example_parts))
