"""Mixture policies: the adaptive scheduler and its static baselines.

A policy maps the current per-arm estimates to a sampling distribution.
Adaptive variants recompute the distribution after each reward round; static
variants fix it once from the registry (or from user-given proportions) and
never change it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixture import BanditConfig, MixtureDistribution, mixture_probs
from .registry import ArmRegistry
from .rewards import RewardKind

__all__ = ["POLICY_VARIANTS", "PolicyKind", "MixturePolicy"]

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


class MixturePolicy:
    """Owns the estimates ``q``, a float64 ``(K,)`` vector, and the sampling distribution."""

    def __init__(self, kind: PolicyKind, registry: ArmRegistry, cfg: BanditConfig) -> None:
        if cfg.num_arms != registry.num_arms:
            raise ValueError(
                f"config expects {cfg.num_arms} arms but registry has {registry.num_arms}"
            )
        self.kind = kind
        self.registry = registry
        self.cfg = cfg
        self.q = np.zeros(registry.num_arms)
        if kind.variant == "bandit":
            # Larger sources anchor more mass, scaled by instance counts.
            self._anchor = registry.prior
        elif kind.variant == "bandit_no_prior":
            self._anchor = np.full(registry.num_arms, 1.0 / registry.num_arms)
        else:
            self._anchor = None
        self._dist = self._compute()

    def _compute(self) -> MixtureDistribution:
        k = self.registry.num_arms
        v = self.kind.variant
        if v in ADAPTIVE_VARIANTS:
            return mixture_probs(self.q, self._anchor, self.cfg)
        if v == "proportional":
            counts = self.registry.counts.astype(np.float64)
            return MixtureDistribution(p=counts / counts.sum())
        if v == "uniform":
            return MixtureDistribution(p=np.full(k, 1.0 / k))
        probs = np.asarray(self.kind.static_probs, dtype=np.float64)
        if probs.size != k:
            raise ValueError(f"static_probs has {probs.size} entries but registry has {k} arms")
        return MixtureDistribution(p=probs)

    @property
    def adaptive(self) -> bool:
        return self.kind.adaptive

    def distribution(self) -> MixtureDistribution:
        """The current sampling distribution (cached between updates)."""
        return self._dist

    def apply_reward_round(self) -> None:
        """Recompute the cached distribution after a reward round.

        The round's estimate updates already live in ``self.q``.  Static
        variants ignore rewards entirely.
        """
        if self.adaptive:
            self._dist = self._compute()
