"""Synthetic non-stationary training world.

Stands in for a real fine-tuning run at desk scale.  Each arm carries a
scalar loss that decays toward an irreducible floor as examples from it (and,
through transfer, from other arms) are trained on.  Early arms saturate,
diminishing returns set in, and the best arm to train on changes over time,
which is exactly the regime the adaptive scheduler is built for.

Training on one batch element from arm ``j`` at learning rate ``eta`` moves
every arm ``k``:

    loss_k <- max(floor_k, loss_k - eta * T_kj * (loss_k - floor_k) / B)

with ``B`` the batch length and ``T`` the transfer matrix (self-learning on
the diagonal, cross-arm spillover off it).  A whole batch applies the exact
order-independent product form of that per-element rule, then one zero-mean
noise draw of scale ``noise_scale * eta`` per arm, re-clamped to the floor.
A full batch from arm ``j`` shrinks arm ``k``'s gap by roughly
``exp(-eta * T_kj)``.

``SimWorld.train_steps`` is the only implementation of this law, and one
optimizer step is a window of one row.  ``SimWorld.probe`` computes a reward
round's steps, each on one arm's row, in closed form with the same
operations.  The clip to the floor runs per arm over the window's steps in
Python floats, which round each operation as numpy's float64 arrays do.

A measurement observes arm ``j``'s loss at example ``e`` as
``max(loss_j + noise_scale * u, 0)``, with ``u`` in ``[-0.5, 0.5)`` a hash
of the world's key, ``j`` and ``e``.  ``SimWorld.probe`` is the only code
of this observation and takes one path for every world: on a noiseless one
the jitter is +-0.0, which leaves a loss of +0.0 or more as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mixture import Batch, finite_vector
from .rewards import Learner

__all__ = ["LrSchedule", "WorldParams", "SimWorld", "build_world"]

# Predictive entropy is modeled as a fixed fraction of loss, so entropy-based
# rewards track loss-based ones up to scale.
ENTROPY_LOSS_RATIO = 0.5

# Off-diagonal transfer entries default to uniform draws from
# [0, 0.3 * own-learnability]: spillover exists but never rivals training on
# the arm itself.
TRANSFER_DRAW_CAP = 0.3

_MIX64_A = np.uint64(0x9E3779B97F4A7C15)
_MIX64_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX64_C = np.uint64(0x94D049BB133111EB)


def _jitter_uniform(key: int, arms: np.ndarray, examples: np.ndarray) -> np.ndarray:
    """Deterministic per-example noise in [-0.5, 0.5), splitmix64-style.

    A pure hash of (world seed, arm, example): repeated observations of the
    same example agree, and no generator state is consumed.  ``arms`` and
    ``examples`` are arrays: numpy's uint64 array arithmetic wraps without
    a warning, as the hash means it to.
    """
    x = np.uint64(key) ^ (arms.astype(np.uint64) * _MIX64_B)
    x = x + (examples.astype(np.uint64) + np.uint64(1)) * _MIX64_A
    x = (x ^ (x >> np.uint64(30))) * _MIX64_B
    x = (x ^ (x >> np.uint64(27))) * _MIX64_C
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53 - 0.5


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup to ``base_rate``, then linear decay to zero over a run's steps."""

    base_rate: float = 0.01
    warmup_fraction: float = 0.03

    def __post_init__(self) -> None:
        if self.base_rate < 0 or not np.isfinite(self.base_rate):
            raise ValueError(f"base_rate must be finite and >= 0, got {self.base_rate}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")

    def rates(self, lo: int, hi: int, total_steps: int) -> np.ndarray:
        """The rates of steps ``lo`` to ``hi - 1`` (0-based) of a ``total_steps``-step
        run, bit for bit those of ``rate_at`` in ``tests/test_simworld.py``, with
        its error for the first step out of range.  A range past the warm-up
        computes its decay rates alone, as the concatenation would give them."""
        if total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {total_steps}")
        if lo < hi and not (0 <= lo and hi <= total_steps):
            bad = total_steps if 0 <= lo < total_steps else lo
            raise ValueError(f"step {bad} outside [0, {total_steps})")
        # The warm-up steps; rounding must never consume the whole run.
        w = min(int(round(self.warmup_fraction * total_steps)), max(total_steps - 1, 0))
        if lo >= w:
            return self.base_rate * (total_steps - np.arange(lo, hi)) / (total_steps - w)
        split = min(max(w, lo), hi)
        warm, decay = np.arange(lo, split), np.arange(split, hi)
        return np.concatenate(
            (
                self.base_rate * (warm + 1) / w,
                self.base_rate * (total_steps - decay) / (total_steps - w),
            )
        )


@dataclass(frozen=True)
class WorldParams:
    """Shape of the synthetic world; scalars broadcast to every arm.

    ``transfer`` fixes a constant off-diagonal spillover; leaving it unset
    draws the off-diagonal entries once per world from the seeded init
    stream.  ``noise_scale`` drives both the per-step process noise and the
    amplitude of per-example observation jitter.
    """

    base_loss: tuple[float, ...] | float = 3.0
    floor: tuple[float, ...] | float = 0.5
    learnability: tuple[float, ...] | float = 1.0
    transfer: float | None = None
    noise_scale: float = 0.0
    init_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.transfer is not None and not 0.0 <= self.transfer <= 1.0:
            raise ValueError(f"transfer must lie in [0, 1], got {self.transfer}")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if not 0.0 <= self.init_spread < 1.0:
            raise ValueError(f"init_spread must lie in [0, 1), got {self.init_spread}")

    def per_arm(self, num_arms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``base_loss``, ``floor`` and ``learnability`` as checked per-arm vectors.

        Also checks the constant ``transfer`` against the learnabilities, so
        every value that needs the arm count is checked here.
        """
        base = _broadcast("base_loss", self.base_loss, num_arms)
        floor = _broadcast("floor", self.floor, num_arms)
        learn = _broadcast("learnability", self.learnability, num_arms)
        # Entries are finite here, so min and max decide each range check.
        if floor.min() < 0:
            raise ValueError("floor entries must be >= 0")
        if learn.min() < 0 or learn.max() > 1:
            raise ValueError("learnability entries must lie in [0, 1]")
        if (base < floor).any():
            raise ValueError("base_loss must be at or above floor for every arm")
        if self.transfer is not None and num_arms > 1 and self.transfer > learn.min():
            raise ValueError(
                f"constant transfer {self.transfer} exceeds the smallest "
                f"learnability {learn.min()}"
            )
        return base, floor, learn


def _broadcast(name: str, value: tuple[float, ...] | float, k: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape not in ((), (k,)):
        raise ValueError(f"{name} must be a scalar or have {k} entries, got shape {arr.shape}")
    return finite_vector(name, np.broadcast_to(arr, (k,)))


class SimWorld(Learner):
    """A trainable synthetic world; see the module docstring for dynamics."""

    def __init__(
        self,
        loss: np.ndarray,
        floor: np.ndarray,
        transfer: np.ndarray,
        noise_scale: float,
        rng: np.random.Generator,
        key: int,
    ) -> None:
        self._loss = finite_vector("loss", loss)
        self._floor = finite_vector("floor", floor)
        k = self._loss.size
        if self._floor.shape != (k,):
            raise ValueError(f"floor must have {k} entries, as loss has, got shape {self._floor.shape}")
        if np.any(self._floor < 0):
            raise ValueError("floor entries must be >= 0")
        if np.any(self._loss < self._floor):
            raise ValueError("initial loss must be at or above the floor")
        transfer = np.asarray(transfer, dtype=np.float64).copy()
        if transfer.shape != (k, k):
            raise ValueError(f"transfer must be a {k}x{k} matrix, got shape {transfer.shape}")
        if not ((transfer >= 0) & (transfer <= 1)).all():
            raise ValueError("transfer entries must lie in [0, 1]")
        diag = np.diag(transfer)
        if np.any(transfer > diag[np.newaxis, :] + 1e-12):
            raise ValueError("transfer diagonal must dominate its column (self-learning first)")
        if not 0.0 <= noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
        # The jitter hash takes the key as a uint64.
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or not 0 <= int(key) < 2**64:
            raise ValueError(f"key must be an integer in [0, 2**64), got {key!r}")
        self._transfer = transfer
        self._noise_scale = float(noise_scale)
        self._rng = rng
        self._key = int(key)
        self._floor.setflags(write=False)
        self._transfer.setflags(write=False)

    @property
    def loss_vector(self) -> np.ndarray:
        """Current noiseless per-arm losses (copy)."""
        return self._loss.copy()

    def train_steps(self, batch: Batch, learning_rates: Sequence[float]) -> None:
        """One step per rate on the batch's equal rows; the world's only update.

        The whole window is checked before any step is taken, so an invalid
        one raises and leaves the world untouched.  A zero-rate step is
        skipped: it neither moves the losses nor draws normals.  The factor
        matrices of the other steps are stacked and raised to their per-step
        counts at once, and their normals come from one call, which yields
        the same numbers as one draw per step.  Only the clip and the floor,
        which depend on the previous step, stay in a loop: per arm, over the
        live steps, in Python floats, as
        ``loss = floor + max((loss - floor) * shrink + noise, 0)``.  The rates
        are checked by their min and max, and the zero-rate rows are dropped
        only when the smallest rate is zero.
        """
        lr = np.asarray(learning_rates, dtype=np.float64)
        if lr.ndim != 1:
            raise ValueError(f"learning_rates must be a 1-d vector, got shape {lr.shape}")
        arms = batch.arms
        k, m = self._loss.size, lr.size
        if m < 1 or arms.size % m:
            raise ValueError(f"a batch of {arms.size} does not split into {m} equal steps")
        if arms.size == 0:
            raise ValueError("batch must be nonempty")
        # Checked before bincount, which would size its output by the arms.
        if arms.min() < 0 or arms.max() >= k:
            raise ValueError("batch refers to arms outside this world")
        # min and max pass only if every rate does; a NaN fails both.
        lowest = lr.min()
        if not (lowest >= 0.0 and lr.max() < math.inf):
            bad = lr[~((lr >= 0.0) & (lr < math.inf))]
            raise ValueError(f"learning_rate must be finite and >= 0, got {float(bad[0])}")
        width = arms.size // m
        n = batch.step_counts(m, k)
        if lowest == 0.0:
            live = lr.nonzero()[0]
            n, lr = n[live], lr[live]
        n = n.astype(np.float64)
        factors = np.maximum(1.0 - lr[:, np.newaxis, np.newaxis] * self._transfer / width, 0.0)
        shrink = (factors ** n[:, np.newaxis, :]).prod(axis=2)
        # Python floats round each operation as numpy does, and for the few
        # arms of a mixture, scalar steps cost less than K-wide numpy calls.
        shrink_by_arm = shrink.T.tolist()
        if self._noise_scale > 0:
            noise = (self._noise_scale * lr)[:, np.newaxis] * self._rng.standard_normal((lr.size, k))
            noise_by_arm = noise.T.tolist()
        else:
            # Without noise a gap is +0.0 or more, and adding 0.0 keeps it.
            noise_by_arm = [[0.0] * lr.size] * k
        losses = self._loss.tolist()
        for j, floor in enumerate(self._floor.tolist()):
            loss = losses[j]
            for a, z in zip(shrink_by_arm[j], noise_by_arm[j]):
                gap = (loss - floor) * a + z
                loss = floor + (gap if gap > 0.0 else 0.0)
            losses[j] = loss
        self._loss = np.array(losses)

    def probe(
        self, examples: np.ndarray, learning_rate: float, entropy: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """A whole reward round in one pass, without touching the world.

        ``examples`` must be an integer array of shape ``(K, B >= 1)``, row
        ``j`` for arm ``j``; anything else raises ``ValueError``.  Each probe
        starts from the current state with the generator rewound, so a step
        on arm ``j``'s row moves arm ``j`` to
        ``floor_j + max(gap_j * f_jj**B + noise * lr * z_j, 0)``, where ``f``
        is the clipped factor matrix of ``train_steps`` and ``z`` the
        normals it would draw.  Only arm ``j``'s loss is measured afterwards,
        and ``prod(f**onehot)`` equals the single factor exactly, so the
        results match the per-row loop of ``Learner.probe``'s contract bit
        for bit.  An invalid rate raises before the world is read.  Every
        world takes this one path, a noiseless one with jitter and noise of
        +-0.0; the jitter is hashed once and broadcast over the losses.
        """
        examples = np.asarray(examples)
        k = self._loss.size
        shape_ok = examples.ndim == 2 and examples.shape[0] == k and examples.shape[1] >= 1
        if not shape_ok or examples.dtype.kind not in "iu":
            got = f"{examples.dtype} of shape {examples.shape}"
            raise ValueError(f"probe examples must be integers of shape ({k}, B >= 1), got {got}")
        if not 0.0 <= learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")

        # Before and after the step, each probe observes the same examples.
        width = examples.shape[1]
        jitter = self._noise_scale * _jitter_uniform(self._key, np.arange(k)[:, np.newaxis], examples)
        pre = np.maximum(self._loss[:, np.newaxis] + jitter, 0.0)
        if learning_rate == 0.0:
            post = pre.copy()
        else:
            # Same operation order as train_steps; the exponent stays an
            # array so numpy's scalar-power shortcuts never apply.
            factor = np.maximum(1.0 - learning_rate * self._transfer.diagonal() / width, 0.0)
            gap = (self._loss - self._floor) * factor ** np.full(k, float(width))
            state = self._rng.bit_generator.state
            z = self._rng.standard_normal(k)
            self._rng.bit_generator.state = state
            moved = self._floor + np.maximum(gap + self._noise_scale * learning_rate * z, 0.0)
            post = np.maximum(moved[:, np.newaxis] + jitter, 0.0)
        if entropy:
            return ENTROPY_LOSS_RATIO * pre, ENTROPY_LOSS_RATIO * post
        return pre, post

    def state_dict(self) -> dict:
        """Full state as JSON-friendly plain types."""
        return {
            "key": self._key,
            "loss": self._loss.tolist(),
            "floor": self._floor.tolist(),
            "transfer": self._transfer.tolist(),
            "noise_scale": self._noise_scale,
            "rng_state": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "SimWorld":
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state["rng_state"]
        return cls(
            loss=np.asarray(state["loss"], dtype=np.float64),
            floor=np.asarray(state["floor"], dtype=np.float64),
            transfer=np.asarray(state["transfer"], dtype=np.float64),
            noise_scale=state["noise_scale"],
            rng=rng,
            key=state["key"],
        )


def build_world(
    params: WorldParams,
    num_arms: int,
    init_rng: np.random.Generator,
    sim_rng: np.random.Generator,
) -> SimWorld:
    """Instantiate a world from parameters.

    ``init_rng`` fixes the starting point (identity key, transfer draws,
    optional spread on the initial gaps) in that order; ``sim_rng`` drives
    process noise during training.  Two worlds built from identical init
    streams share a starting point but can diverge under noise.
    """
    if num_arms < 1:
        raise ValueError(f"num_arms must be >= 1, got {num_arms}")
    base, floor, learn = params.per_arm(num_arms)
    key = int(init_rng.integers(0, np.iinfo(np.int64).max))
    if params.transfer is None:
        # Column k scales with arm k's own learnability so the diagonal
        # always dominates.
        transfer = TRANSFER_DRAW_CAP * init_rng.random((num_arms, num_arms)) * learn[np.newaxis, :]
    else:
        transfer = np.full((num_arms, num_arms), float(params.transfer))
    np.fill_diagonal(transfer, learn)
    gap = base - floor
    if params.init_spread > 0:
        gap = gap * (1.0 + params.init_spread * (init_rng.random(num_arms) - 0.5))
    return SimWorld(
        loss=floor + gap,
        floor=floor,
        transfer=transfer,
        noise_scale=params.noise_scale,
        rng=sim_rng,
        key=key,
    )
