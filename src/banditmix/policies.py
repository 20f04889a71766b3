"""Mixture policies: the adaptive scheduler and its static baselines.

A policy maps the per-arm estimates ``q``, which the caller holds, to a
sampling distribution.  The run loop asks for it once at the start and again
after each reward round; adaptive variants build it from ``q``, static
variants from the registry (or from user-given proportions), the same every
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import BanditConfig, MixtureDistribution, mixture_probs
from .registry import ArmRegistry
from .rewards import RewardKind

__all__ = ["POLICY_VARIANTS", "PolicyKind"]

POLICY_VARIANTS = ("bandit", "bandit_no_prior", "proportional", "uniform", "static")

ADAPTIVE_VARIANTS = ("bandit", "bandit_no_prior")


@dataclass(frozen=True)
class PolicyKind:
    """Which policy to run and which reward signal feeds it.

    ``static_probs`` is required exactly when ``variant`` is ``"static"``.
    """

    variant: str = "bandit"
    reward_kind: RewardKind = "delta_loss"
    static_probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.variant not in POLICY_VARIANTS:
            raise ValueError(
                f"unknown policy variant {self.variant!r}; choose from {POLICY_VARIANTS}"
            )
        if self.reward_kind not in ("delta_loss", "delta_entropy"):
            raise ValueError(f"unknown reward kind {self.reward_kind!r}")
        if self.variant == "static":
            if self.static_probs is None:
                raise ValueError("static policy requires static_probs")
            object.__setattr__(self, "static_probs", tuple(float(x) for x in self.static_probs))
        elif self.static_probs is not None:
            raise ValueError(f"static_probs only applies to the static variant, not {self.variant!r}")

    @property
    def adaptive(self) -> bool:
        return self.variant in ADAPTIVE_VARIANTS

    def distribution(self, registry: ArmRegistry, cfg: BanditConfig, q: np.ndarray) -> MixtureDistribution:
        """The sampling distribution at the estimates ``q``, a float64 ``(K,)`` vector.

        Adaptive variants build it from ``q`` by ``mixture_probs``, which
        refuses a ``q`` or ``cfg`` of another arm count than the registry;
        the others ignore ``q``.
        """
        k = registry.num_arms
        if self.variant == "bandit":
            # Larger sources anchor more mass, scaled by instance counts.
            return mixture_probs(q, registry.prior, cfg)
        if self.variant == "bandit_no_prior":
            return mixture_probs(q, np.full(k, 1.0 / k), cfg)
        if self.variant == "proportional":
            counts = registry.counts.astype(np.float64)
            return MixtureDistribution(p=counts / counts.sum())
        if self.variant == "uniform":
            return MixtureDistribution(p=np.full(k, 1.0 / k))
        if len(self.static_probs) != k:
            raise ValueError(f"static_probs has {len(self.static_probs)} entries but registry has {k} arms")
        return MixtureDistribution(p=self.static_probs)
