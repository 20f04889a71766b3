"""Arm registry: named data sources with instance counts and a prior.

An arm is one source dataset.  The registry fixes the arm order (which every
probability vector, trace column, and sampler index refers to), the instance
count per arm, and the prior used to rescale the Boltzmann weights.  By
default the prior is proportional to instance counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["ArmRegistry", "make_tulu_registry", "builtin_registry", "BUILTIN_REGISTRIES"]


@dataclass(frozen=True)
class ArmRegistry:
    """Arms in a fixed order: their unique names, instance counts and a prior.

    ``counts`` becomes a read-only int64 array and ``prior`` a read-only
    float64 array; a prior of None is the counts normalized by their total,
    so larger sources start with proportionally more mass.
    """

    names: tuple[str, ...]
    counts: np.ndarray
    prior: np.ndarray | None

    def __post_init__(self) -> None:
        names, counts = tuple(self.names), []
        if not names:
            raise ValueError("registry must contain at least one arm")
        for name, count in zip(names, self.counts, strict=True):
            if not (isinstance(name, str) and name):
                raise ValueError(f"arm name must be nonempty and a string, got {name!r}")
            count = _integer_count(name, count)
            # The registry holds its counts as int64.
            if not 1 <= count < 2**63:
                raise ValueError(f"arm {name!r}: count must be >= 1 and below 2**63, got {count}")
            counts.append(count)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate arm names: {dupes}")
        prior = np.array(counts if self.prior is None else self.prior, dtype=np.float64)
        if self.prior is None:
            prior /= prior.sum()
        if prior.shape != (len(names),):
            raise ValueError(f"prior has shape {prior.shape}, expected ({len(names)},)")
        if not np.all(np.isfinite(prior)) or np.any(prior < 0):
            raise ValueError("prior entries must be finite and nonnegative")
        total = float(np.sum(prior))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"prior must sum to 1, got {total!r}")
        counts = np.array(counts, dtype=np.int64)
        counts.setflags(write=False)
        prior.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "prior", prior)

    @classmethod
    def from_counts(
        cls,
        named_counts: dict[str, int] | list[tuple[str, int]],
        prior: np.ndarray | list[float] | None = None,
    ) -> "ArmRegistry":
        """Build a registry from ``name -> count`` pairs in the given order."""
        items = list(named_counts.items()) if isinstance(named_counts, dict) else list(named_counts)
        return cls(tuple(n for n, _ in items), [c for _, c in items], prior)

    @property
    def num_arms(self) -> int:
        return len(self.names)

    @property
    def total_count(self) -> int:
        """The exact sum of the counts, as a Python int."""
        return sum(self.counts.tolist())


def _integer_count(name: str, count: object) -> int:
    """``count`` as an int if it is an integer, numpy's included, as a config's
    counts are; a bool, a float or a string is refused, never truncated or parsed."""
    if not isinstance(count, bool):
        try:
            return operator.index(count)
        except TypeError:
            pass
    raise ValueError(f"arm {name!r}: count must be an integer, got {count!r}")


# Instruction-tuning mixture used as the default workload.  The science bundle
# ships as one 7000-instance collection built from six sub-tasks; the split
# below divides it evenly with the remainder on the first sub-task, so the
# six counts still total 7000.
_TULU_MAIN: list[tuple[str, int]] = [
    ("flan_v2", 50_000),
    ("cot", 50_000),
    ("oasst1", 7_000),
    ("sharegpt", 114_000),
    ("gpt4_alpaca", 20_000),
    ("code_alpaca", 20_000),
    ("lima", 1_000),
    ("wizardlm", 30_000),
    ("open_orca", 30_000),
    ("hardcoded", 140),
]

_SCIENCE_TASKS = [
    "science_evidence_inference",
    "science_qasper",
    "science_scierc_ner",
    "science_scierc_re",
    "science_scifact",
    "science_scitldr",
]
_SCIENCE_TOTAL = 7_000


def _science_split() -> list[tuple[str, int]]:
    # Even split, remainder assigned to the first sub-task.
    base, extra = divmod(_SCIENCE_TOTAL, len(_SCIENCE_TASKS))
    return [(name, base + (extra if i == 0 else 0)) for i, name in enumerate(_SCIENCE_TASKS)]


def make_tulu_registry(split_science: bool = True) -> ArmRegistry:
    """The default 16-arm instruction-tuning registry.

    With ``split_science=False`` the six science sub-tasks collapse into a
    single ``science`` arm, giving 11 arms with the same total count.
    """
    entries = list(_TULU_MAIN)
    if split_science:
        entries.extend(_science_split())
    else:
        entries.append(("science", _SCIENCE_TOTAL))
    return ArmRegistry.from_counts(entries)


BUILTIN_REGISTRIES = {
    "tulu_v2": lambda: make_tulu_registry(split_science=True),
    "tulu_v2_science_merged": lambda: make_tulu_registry(split_science=False),
}


def builtin_registry(name: str) -> ArmRegistry:
    """Look up a built-in registry by name."""
    try:
        factory = BUILTIN_REGISTRIES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_REGISTRIES))
        raise KeyError(f"unknown registry {name!r}; built-ins: {known}") from None
    return factory()
