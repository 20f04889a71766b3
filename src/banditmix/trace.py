"""Run traces: JSON-lines persistence, summaries, and plot-data export.

A trace file starts with a single header object naming the schema version,
the arm order, the seed, and the config hash; every following line is one
per-step record.  Floats are written with Python's shortest round-trip
representation, so reading a trace back reproduces the arrays bit for bit.
A run writes its trace one ``Window`` at a time, from the window's blocks of
its counts and learning-rate columns.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .registry import ArmRegistry

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_KIND",
    "EXPORT_KINDS",
    "TraceRecord",
    "TraceWriter",
    "Window",
    "iter_trace",
    "read_trace",
    "RunSummary",
    "summarize",
    "summarize_columns",
    "export_plot_data",
    "save_world_checkpoint",
]

SCHEMA_VERSION = 1
TRACE_KIND = "banditmix-trace"

EXPORT_KINDS = ("proportions_over_time", "instance_coverage", "q_over_time")
_NUMBERS, _INTS = frozenset((int, float)), frozenset((int,))


@dataclass(frozen=True)
class TraceRecord:
    """One training step: the distribution sampled from, estimates, counts.

    ``probabilities`` is the distribution in effect when the step's batch was
    drawn; ``q`` and ``rewards`` reflect any reward round that ran at this
    step.  ``wall_time_ms`` is always written as 0 so traces stay
    byte-reproducible.
    """

    step: int
    probabilities: tuple[float, ...]
    q: tuple[float, ...]
    learning_rate: float
    cumulative_counts: tuple[int, ...]
    rewards: tuple[float, ...] | None = None
    wall_time_ms: int = 0

    def to_json_obj(self) -> dict:
        # A trace line's keys in order; ``TraceWriter.write`` spells it out.
        obj = {
            "step": self.step,
            "probabilities": list(self.probabilities),
            "q": list(self.q),
            "learning_rate": self.learning_rate,
            "cumulative_counts": list(self.cumulative_counts),
            "wall_time_ms": self.wall_time_ms,
        }
        if self.rewards is not None:
            obj["rewards"] = list(self.rewards)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceRecord":
        rewards, step, wall = obj.get("rewards"), obj["step"], obj.get("wall_time_ms", 0)
        # JSON gives exact types: a float or boolean step is no step, a row not a
        # list would be read element by element, and true, "z" or null is no number.
        for key, value in (("step", step), ("wall_time_ms", wall)):
            if type(value) is not int:
                raise ValueError(f"{key} must be an integer, got {value!r}")
        probabilities, q, counts = obj["probabilities"], obj["q"], obj["cumulative_counts"]
        lr = obj["learning_rate"]
        if rewards is not None and type(rewards) is not list:
            raise ValueError(f"rewards must be a list or null, got {rewards!r}")
        for key, row, kinds in (
            ("probabilities", probabilities, _NUMBERS), ("q", q, _NUMBERS),
            ("cumulative_counts", counts, _INTS), ("rewards", rewards or [], _NUMBERS),
        ):
            if type(row) is not list:
                raise ValueError(f"{key} must be a list, got {row!r}")
            if not kinds.issuperset(map(type, row)):
                noun = "integers" if kinds is _INTS else "numbers"
                raise ValueError(f"{key} must hold only {noun}, got {row!r}")
        if type(lr) not in _NUMBERS:
            raise ValueError(f"learning_rate must be a number, got {lr!r}")
        return cls(
            step=step,
            probabilities=tuple(probabilities),
            q=tuple(q),
            learning_rate=float(lr),
            cumulative_counts=tuple(counts),
            rewards=None if rewards is None else tuple(rewards),
            wall_time_ms=wall,
        )


class Window(NamedTuple):
    """Steps ``first`` to ``last`` of a run, which share one distribution.

    Every step of the window samples from ``probabilities``.  The estimates
    are ``q`` until the reward round after step ``last``, if one runs, and
    ``q_after`` (the same row when none ran) from then on; ``rewards`` are
    that round's rewards, or None.
    """

    first: int
    last: int
    probabilities: tuple[float, ...]
    q: tuple[float, ...]
    q_after: tuple[float, ...]
    rewards: tuple[float, ...] | None


class TraceWriter:
    """Streams a run's records to a JSONL file, header first, a window at a time.

    Lines are buffered until ``flush`` or the writer closes; a window's lines
    are written whole or not at all, so a run that raises leaves a file of
    whole records.  Every line equals ``json.dumps(record.to_json_obj())`` of
    the matching record, with ``wall_time_ms`` 0.
    """

    def __init__(self, path: str | Path, arm_names: tuple[str, ...], seed: int, config_hash: str):
        self.path = Path(path)
        self.arm_names = tuple(arm_names)
        self._fh: io.TextIOBase | None = None
        self._last_step = -1
        self._header = {
            "schema_version": SCHEMA_VERSION,
            "kind": TRACE_KIND,
            "arm_names": list(self.arm_names),
            "seed": int(seed),
            "config_hash": config_hash,
        }

    def __enter__(self) -> "TraceWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8", newline="\n")
        self._fh.write(json.dumps(self._header) + "\n")
        self._fh.flush()
        return self

    def write(self, window: Window, counts: np.ndarray, rates: Sequence[float]) -> None:
        """Write the records of steps ``window.first`` to ``window.last``.

        ``counts`` is the window's ``(m, K)`` integer block of the cumulative
        draws per arm and ``rates`` its ``m`` learning rates.  The window is
        checked and all its lines built before the first is written, so a
        rejected window leaves no line.
        """
        if self._fh is None:
            raise ValueError("writer is not open")
        first, last, probabilities, q, q_after, rewards = window
        if first <= self._last_step:
            raise ValueError(f"steps must be strictly increasing; got {first} after {self._last_step}")
        if last < first:
            raise ValueError(f"window ends at step {last}, before its first step {first}")
        m, k = last - first + 1, len(self.arm_names)
        for name, row in zip(Window._fields[2:], window[2:]):
            if row is not None and len(row) != k:
                raise ValueError(f"window {name} must have {k} entries")
        counts = np.asarray(counts)
        if counts.dtype.kind not in "iu" or counts.shape != (m, k):
            raise ValueError(f"counts must be ({m}, {k}) integers, got {counts.dtype} {counts.shape}")
        rates = np.asarray(rates)
        if rates.dtype.kind != "f" or rates.shape != (m,):
            raise ValueError(f"rates must be {m} floats, got {rates.dtype} {rates.shape}")
        # Each row is encoded once, and the rates in one ``json.dumps``, which
        # writes a non-finite rate as ``NaN`` or ``Infinity``.
        probs_json, q_json = json.dumps(list(probabilities)), json.dumps(list(q))
        lrs = json.dumps(rates.tolist())[1:-1].split(", ")
        rows = counts.tolist()

        def line(step, q_json, lr, row, rest=""):
            return (
                f'{{"step": {step}, "probabilities": {probs_json}, "q": {q_json}, '
                f'"learning_rate": {lr}, "cumulative_counts": {row}, "wall_time_ms": 0{rest}}}\n'
            )

        lines = [line(step, q_json, lr, row) for step, lr, row in zip(range(first, last), lrs, rows)]
        rest = "" if rewards is None else f', "rewards": {json.dumps(list(rewards))}'
        lines.append(line(last, json.dumps(list(q_after)), lrs[-1], rows[-1], rest))
        self._fh.write("".join(lines))
        self._last_step = last

    def flush(self) -> None:
        """Push the lines written so far to the file."""
        if self._fh is not None:
            self._fh.flush()

    def __exit__(self, *exc_info) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def iter_trace(path: str | Path) -> tuple[dict, Iterator[TraceRecord]]:
    """Open a trace as ``(header, records)``, reading one line at a time.

    The header is checked before this returns.  ``records`` yields one
    ``TraceRecord`` per line and raises ``ValueError("<path>:<line>: ...")``
    at a line that is not a record, does not step past the one before, or
    lacks its newline: the writer ends every line with one, so such a last
    line is what a killed writer leaves, and it is reported as truncated,
    not parsed.  The file closes when ``records`` ends, raises or is dropped.
    """
    fh = Path(path).open("r", encoding="utf-8")
    try:
        header = _read_header(fh.readline(), path)
        records = _iter_records(fh, path)
        # Run the generator into its ``with``, so that closing it, or
        # dropping it unstarted, closes the file.
        next(records)
    except BaseException:
        fh.close()
        raise
    return header, records


def _read_header(line: str, path: str | Path) -> dict:
    if not line:
        raise ValueError(f"{path}: empty trace file")
    if not line.endswith("\n"):
        raise ValueError(f"{path}:1: truncated header")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:1: bad header: {_not_json(e)}") from None
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != TRACE_KIND:
        raise ValueError(f"{path}: not a trace file (kind={kind!r})")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema version {header.get('schema_version')!r}"
        )
    names = header.get("arm_names")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{path}:1: bad header: arm_names must be a list of strings")
    return header


def _iter_records(fh: io.TextIOBase, path: str | Path) -> Iterator[TraceRecord]:
    with fh:
        yield  # the priming stop ``iter_trace`` runs to
        last = -1
        for lineno, line in enumerate(fh, 2):
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: truncated record")
            if line.isspace():
                continue
            try:
                record = TraceRecord.from_json_obj(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad record: {_not_json(e)}") from None
            except KeyError as e:
                raise ValueError(f"{path}:{lineno}: bad record: missing key {e}") from None
            except (AttributeError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: bad record: {e}") from None
            if record.step <= last:
                raise ValueError(f"{path}:{lineno}: record steps must be strictly increasing")
            last = record.step
            yield record


def _not_json(e: json.JSONDecodeError) -> str:
    return f"not JSON ({e.msg} at char {e.pos})"


def read_trace(path: str | Path) -> tuple[dict, list[TraceRecord]]:
    """Read a trace file back as ``(header, records)``; see ``iter_trace``."""
    header, records = iter_trace(path)
    return header, list(records)


@dataclass(frozen=True)
class RunSummary:
    """End-of-run aggregates derived from the trace."""

    seed: int
    config_hash: str
    steps: int
    final_losses: tuple[float, ...] | None
    coverage_ratio: tuple[float, ...]
    mean_step_tv: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "steps": self.steps,
            "final_losses": None if self.final_losses is None else list(self.final_losses),
            "coverage_ratio": list(self.coverage_ratio),
            "mean_step_tv": self.mean_step_tv,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "RunSummary":
        fl = obj["final_losses"]
        return cls(
            seed=int(obj["seed"]),
            config_hash=obj["config_hash"],
            steps=int(obj["steps"]),
            final_losses=None if fl is None else tuple(fl),
            coverage_ratio=tuple(obj["coverage_ratio"]),
            mean_step_tv=float(obj["mean_step_tv"]),
        )


def summarize(
    records: list[TraceRecord],
    registry: ArmRegistry,
    *,
    seed: int,
    config_hash: str,
    final_losses: tuple[float, ...] | None = None,
) -> RunSummary:
    """Aggregate a trace into a summary.

    ``coverage_ratio[k]`` is draws of arm ``k`` divided by its instance
    count: how many passes over that source the run amounted to.  The
    schedule-churn measure is the mean total-variation distance between
    consecutive steps' distributions.  Runs of equal ``probabilities`` rows
    are passed to ``summarize_columns`` as one change each.
    """
    if not records:
        raise ValueError("cannot summarize an empty trace")
    changes: list[tuple[int, tuple[float, ...]]] = []
    for i, r in enumerate(records):
        row = r.probabilities
        if not changes or (row is not changes[-1][1] and row != changes[-1][1]):
            changes.append((i, row))
    return summarize_columns(
        records[-1].cumulative_counts,
        changes,
        len(records),
        registry,
        seed=seed,
        config_hash=config_hash,
        final_losses=final_losses,
    )


def summarize_columns(
    final_counts: Sequence[int] | np.ndarray,
    changes: list[tuple[int, tuple[float, ...]]],
    steps: int,
    registry: ArmRegistry,
    *,
    seed: int,
    config_hash: str,
    final_losses: tuple[float, ...] | None = None,
) -> RunSummary:
    """``summarize`` from a run's columns rather than its records.

    ``final_counts`` are the cumulative draws per arm after the last step,
    and ``changes`` the ``(index, probabilities)`` pairs at which the
    distribution of a run of ``steps`` steps changes, the first at index 0.
    The TV of each change is placed into a zero vector of ``steps - 1``
    step-to-step distances and the mean taken over that vector: the same
    numbers and the same reduction as over every consecutive pair of rows,
    since equal rows are 0 apart.
    """
    counts = np.asarray(final_counts, dtype=np.float64)
    coverage = counts / registry.counts.astype(np.float64)
    if steps >= 2:
        tv = np.zeros(steps - 1)
        if len(changes) >= 2:
            indices, rows = zip(*changes)
            probs = np.asarray(rows, dtype=np.float64)
            tv[np.asarray(indices[1:]) - 1] = 0.5 * np.sum(np.abs(np.diff(probs, axis=0)), axis=1)
        mean_tv = float(np.mean(tv))
    else:
        mean_tv = 0.0
    return RunSummary(
        seed=seed,
        config_hash=config_hash,
        steps=steps,
        final_losses=final_losses,
        coverage_ratio=tuple(coverage.tolist()),
        mean_step_tv=mean_tv,
    )


def export_plot_data(records: Iterable[TraceRecord], kind: str, arm_names: tuple[str, ...]) -> str:
    """Render one trace series as CSV: a step column plus one column per arm.

    ``records`` is consumed once, so it may be ``iter_trace``'s iterator;
    the text is returned only after the last record, so an error in any
    record leaves no partial output.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; choose from {EXPORT_KINDS}")
    field = {
        "proportions_over_time": "probabilities",
        "instance_coverage": "cumulative_counts",
        "q_over_time": "q",
    }[kind]
    # Lines keep their newlines and are joined once: the text is the largest
    # object an export holds, and ``+ "\n"`` on it would copy it.
    lines = ["step," + ",".join(arm_names) + "\n"]
    for r in records:
        values = getattr(r, field)
        if len(values) != len(arm_names):
            raise ValueError(f"record at step {r.step} has {len(values)} arms, expected {len(arm_names)}")
        lines.append(f"{r.step},{','.join(map(str, values))}\n")
    return "".join(lines)


def save_world_checkpoint(path: str | Path, state: dict) -> None:
    """Persist a world ``state_dict`` as JSON, atomically."""
    write_json_atomic(path, state)


def write_json_atomic(path: str | Path, obj) -> None:
    """Write ``obj`` as indented JSON to ``path``, whole or not at all.

    The text goes to a temp file in the same directory, which then replaces
    ``path``; if the write raises, the temp file is removed and ``path`` is
    left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
