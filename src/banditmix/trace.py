"""Run traces: JSON-lines persistence, summaries, and plot-data export.

A trace file starts with a single header object naming the schema version,
the arm order, the seed, and the config hash; every following line is one
per-step record.  Floats are written with Python's shortest round-trip
representation, so reading a trace back reproduces the arrays bit for bit.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .registry import ArmRegistry

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_KIND",
    "EXPORT_KINDS",
    "TraceRecord",
    "TraceWriter",
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
        return self._json_obj(list(self.probabilities), list(self.q))

    def _json_obj(self, probabilities, q) -> dict:
        # The one place that fixes a trace line's keys and their order.
        obj = {
            "step": self.step,
            "probabilities": probabilities,
            "q": q,
            "learning_rate": self.learning_rate,
            "cumulative_counts": list(self.cumulative_counts),
            "wall_time_ms": self.wall_time_ms,
        }
        if self.rewards is not None:
            obj["rewards"] = list(self.rewards)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TraceRecord":
        rewards, step = obj.get("rewards"), obj["step"]
        # JSON gives exact types: a float or a boolean step is no step, and a
        # row that is not a list would be read element by element.
        if type(step) is not int:
            raise ValueError(f"step must be an integer, got {step!r}")
        for key in ("probabilities", "q", "cumulative_counts"):
            if type(obj[key]) is not list:
                raise ValueError(f"{key} must be a list, got {obj[key]!r}")
        if rewards is not None and type(rewards) is not list:
            raise ValueError(f"rewards must be a list or null, got {rewards!r}")
        return cls(
            step=step,
            probabilities=tuple(obj["probabilities"]),
            q=tuple(obj["q"]),
            learning_rate=float(obj["learning_rate"]),
            cumulative_counts=tuple(int(c) for c in obj["cumulative_counts"]),
            rewards=None if rewards is None else tuple(rewards),
            wall_time_ms=int(obj.get("wall_time_ms", 0)),
        )


# Stand-ins for the two rows in ``TraceWriter.write``, spliced out again by
# ``str.replace``; encoded, each is a JSON string no number can contain.
_PROBS_MARK = "\x00probabilities"
_Q_MARK = "\x00q"
_PROBS_MARK_JSON = json.dumps(_PROBS_MARK)
_Q_MARK_JSON = json.dumps(_Q_MARK)


class TraceWriter:
    """Streams records to a JSONL file, header first.

    Lines are buffered until ``flush`` or the writer closes; each is written
    whole, so a run that raises leaves a file of whole records.

    ``probabilities`` and ``q`` change only at a reward round, and the run
    loop hands the same tuple to every record in between, so the JSON text of
    the last tuple of each is kept and reused while the same object comes
    back.  Every line equals ``json.dumps(record.to_json_obj())``.
    """

    def __init__(self, path: str | Path, arm_names: tuple[str, ...], seed: int, config_hash: str):
        self.path = Path(path)
        self.arm_names = tuple(arm_names)
        self._fh: io.TextIOBase | None = None
        self._last_step = -1
        # field -> (last row object, its JSON text); holding the row keeps
        # its id from being reused by a different tuple.
        self._rows: dict[str, tuple[object, str]] = {}
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

    def write(self, record: TraceRecord) -> None:
        if self._fh is None:
            raise ValueError("writer is not open")
        if record.step <= self._last_step:
            raise ValueError(
                f"records must have strictly increasing steps; "
                f"got {record.step} after {self._last_step}"
            )
        k = len(self.arm_names)
        for name in ("probabilities", "q", "cumulative_counts", "rewards"):
            row = getattr(record, name)
            if row is not None and len(row) != k:
                raise ValueError(f"record {name} must have {k} entries")
        # Replace q's stand-in first: only step and the probabilities
        # stand-in precede it, so the first match of each is the stand-in.
        line = (
            json.dumps(record._json_obj(_PROBS_MARK, _Q_MARK))
            .replace(_Q_MARK_JSON, self._row_json("q", record.q), 1)
            .replace(_PROBS_MARK_JSON, self._row_json("probabilities", record.probabilities), 1)
        )
        self._fh.write(line + "\n")
        self._last_step = record.step

    def flush(self) -> None:
        """Push the lines written so far to the file."""
        if self._fh is not None:
            self._fh.flush()

    def _row_json(self, name: str, row) -> str:
        cached = self._rows.get(name)
        if cached is None or cached[0] is not row:
            cached = (row, json.dumps(list(row)))
            self._rows[name] = cached
        return cached[1]

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
        cells = ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)
        lines.append(f"{r.step},{cells}\n")
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
