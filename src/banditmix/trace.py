"""Run traces: JSON-lines persistence, summaries, and plot-data export.

A trace file starts with a single header object naming the schema version,
the arm order, the seed, the config hash and the step count; every following
line is one step, less the rows the line before holds, with the step's
draws per arm.  Floats are written with Python's shortest round-trip
representation, so reading a trace back reproduces the arrays bit for bit.
The reader takes a plain line, one with no row as the writer writes it, by
one pattern, and every other line through ``json``, with the same checks.
A run writes its trace one ``Window`` at a time, from the window's blocks of
its draws and learning-rate columns.
"""

from __future__ import annotations

import io
import json
import os
import re
from dataclasses import dataclass
from itertools import islice
from operator import add
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

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
    "RunSummary",
    "summarize",
    "export_plot_data",
    "save_world_checkpoint",
]

SCHEMA_VERSION = 2
TRACE_KIND = "banditmix-trace"

EXPORT_KINDS = ("proportions_over_time", "instance_coverage", "q_over_time")
_BLOCK = 512  # trace lines per block of an export
_NUMBERS, _INTS = frozenset((int, float)), frozenset((int,))


class TraceRecord(NamedTuple):
    """One training step: the distribution sampled from, estimates, counts.

    ``probabilities`` is the distribution in effect when the step's batch was
    drawn; ``q`` and ``rewards`` reflect any reward round that ran at this
    step.  A record is a plain tuple of its fields, so it also equals that
    tuple.
    """

    step: int
    probabilities: tuple[float, ...]
    q: tuple[float, ...]
    learning_rate: float
    cumulative_counts: tuple[int, ...]
    rewards: tuple[float, ...] | None = None


def _read_line(obj: dict, previous: tuple | None, arms: int) -> tuple:
    """The fields of a parsed trace line: ``(step, probabilities, q, learning_rate, draws, rewards)``.

    A row the line leaves out is ``previous``'s tuple; each row it holds,
    and its draws, must have ``arms`` entries.
    """
    rewards, step = obj.get("rewards"), obj["step"]
    # JSON gives exact types: a float or boolean step is no step, a row not a
    # list would be read element by element, and true, "z" or null is no number.
    if type(step) is not int:
        raise ValueError(f"step must be an integer, got {step!r}")
    if previous is None:
        probabilities, q = obj["probabilities"], obj["q"]
    else:
        probabilities, q = obj.get("probabilities", previous[1]), obj.get("q", previous[2])
    draws, lr = obj["draws"], obj["learning_rate"]
    if rewards is not None and type(rewards) is not list:
        raise ValueError(f"rewards must be a list or null, got {rewards!r}")
    if previous is None or probabilities is not previous[1]:
        probabilities = _check_row("probabilities", probabilities, _NUMBERS, arms)
    if previous is None or q is not previous[2]:
        q = _check_row("q", q, _NUMBERS, arms)
    draws = _check_row("draws", draws, _INTS, arms)
    if rewards is not None:
        rewards = _check_row("rewards", rewards, _NUMBERS, arms)
    if type(lr) not in _NUMBERS:
        raise ValueError(f"learning_rate must be a number, got {lr!r}")
    return step, probabilities, q, float(lr), draws, rewards


def _check_row(key: str, row: list, kinds: frozenset, arms: int) -> tuple:
    """``row`` as a tuple, once it is a list of ``arms`` entries of ``kinds``."""
    if type(row) is not list:
        raise ValueError(f"{key} must be a list, got {row!r}")
    if not kinds.issuperset(map(type, row)):
        noun = "integers" if kinds is _INTS else "numbers"
        raise ValueError(f"{key} must hold only {noun}, got {row!r}")
    if len(row) != arms:
        raise ValueError(f"{key} must have {arms} entries, got {row!r}")
    return tuple(row)


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
    """Streams a run's steps to a JSONL file, header first, a window at a time.

    Lines are buffered until ``flush`` or the writer closes; a window's lines
    are written whole or not at all, so a run that raises leaves a file of
    whole lines.  A line is ``{"step", "probabilities", "q", "learning_rate",
    "draws", "rewards"}`` in that key order, less each row that is the same
    object as the line before's (``probabilities`` then appears only on the
    first line of a window whose distribution changed, ``q`` on the first
    line and after each reward round) and less ``rewards`` when no round ran.
    """

    def __init__(
        self, path: str | Path, arm_names: tuple[str, ...], seed: int, config_hash: str, total_steps: int
    ):
        self.path = Path(path)
        self.arm_names = tuple(arm_names)
        self.total_steps = int(total_steps)
        self._fh: io.TextIOBase | None = None
        self._last_step = 0
        self._probabilities = self._q = None  # the rows of the last line written
        self._header = {
            "schema_version": SCHEMA_VERSION,
            "kind": TRACE_KIND,
            "arm_names": list(self.arm_names),
            "seed": int(seed),
            "config_hash": config_hash,
            "total_steps": self.total_steps,
        }

    def __enter__(self) -> "TraceWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8", newline="\n")
        self._fh.write(json.dumps(self._header) + "\n")
        self._fh.flush()
        return self

    def write(self, window: Window, draws: np.ndarray, rates: Sequence[float]) -> None:
        """Write the lines of steps ``window.first`` to ``window.last``.

        ``draws`` is the window's ``(m, K)`` integer block of each step's
        draws per arm and ``rates`` its ``m`` learning rates.  The window is
        checked and all its lines built before the first is written, so a
        rejected window leaves no line.
        """
        if self._fh is None:
            raise ValueError("writer is not open")
        first, last, probabilities, q, q_after, rewards = window
        if last < first:
            raise ValueError(f"window ends at step {last}, before its first step {first}")
        # A line's draws add to the line before's, so no step may be missing.
        if first != self._last_step + 1 or last > self.total_steps:
            raise ValueError(
                f"steps must be strictly increasing, one at a time, to {self.total_steps}; "
                f"got {first} to {last} after {self._last_step}"
            )
        m, k = last - first + 1, len(self.arm_names)
        for name, row in zip(Window._fields[2:], window[2:]):
            if row is not None and len(row) != k:
                raise ValueError(f"window {name} must have {k} entries")
        draws = np.asarray(draws)
        if draws.dtype.kind not in "iu" or draws.shape != (m, k):
            raise ValueError(f"draw counts must be ({m}, {k}) integers, got {draws.dtype} {draws.shape}")
        rates = np.asarray(rates)
        if rates.dtype.kind != "f" or rates.shape != (m,):
            raise ValueError(f"rates must be {m} floats, got {rates.dtype} {rates.shape}")

        def field(key, row):
            return f', "{key}": {json.dumps(list(row))}'

        def line(i, head="", rest=""):
            return f'{{"step": {first + i}{head}, "learning_rate": {lrs[i]}, "draws": {rows[i]}{rest}}}\n'

        # A window's first line holds each row that is not the line before's,
        # and q can change again only on its last line, at the round.  The
        # rates go through one ``json.dumps``, which writes a non-finite rate
        # as ``NaN`` or ``Infinity``.
        first_q = q if m > 1 else q_after
        head = "" if probabilities is self._probabilities else field("probabilities", probabilities)
        if first_q is not self._q:
            head += field("q", first_q)
        tail = "" if q_after is first_q else field("q", q_after)
        rest = "" if rewards is None else field("rewards", rewards)
        lrs = json.dumps(rates.tolist())[1:-1].split(", ")
        rows = draws.tolist()
        if m == 1:
            lines = [line(0, head, rest)]
        else:
            lines = [line(0, head), *map(line, range(1, m - 1)), line(m - 1, tail, rest)]
        self._fh.write("".join(lines))
        self._last_step, self._probabilities, self._q = last, probabilities, q_after

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

    The header, of schema ``SCHEMA_VERSION`` only, is checked before this
    returns.  ``records`` yields one ``TraceRecord`` per line, parsed once,
    and raises ``ValueError("<path>:<line>: ...")`` at a line that is not a
    record, holds a row of another length than the header's ``arm_names``,
    does not step past the one before, or lacks its newline: the writer
    ends every line with one, so such a last line is what a killed writer
    leaves, and it is reported as truncated, not parsed.  The steps must run
    1, 2, ... to the header's ``total_steps``; one that stops short raises
    ``ValueError("<path>: truncated trace: N of M steps")`` after its last
    record.  The file closes when ``records`` ends, raises or is dropped.
    """
    header, lines = _open_lines(path)
    return header, _records(lines)


def _records(lines: Iterator[tuple]) -> Iterator[TraceRecord]:
    """The records of ``_iter_lines``'s lines, each with the running sums of the draws."""
    counts = None
    for step, plain, fields in lines:
        if plain is None:
            counts = fields[4] if counts is None else tuple(map(add, counts, fields[4]))
            yield tuple.__new__(TraceRecord, (step, fields[1], fields[2], fields[3], counts, fields[5]))
        else:
            counts = tuple(map(add, counts, map(int, plain[3].split(", "))))
            yield tuple.__new__(TraceRecord, (step, fields[1], fields[2], float(plain[2]), counts, None))


def _open_lines(path: str | Path) -> tuple[dict, Iterator[tuple]]:
    """The checked header of a trace and ``_iter_lines`` of the rest, open."""
    fh = Path(path).open("r", encoding="utf-8")
    try:
        header, total = _read_header(fh.readline(), path)
        lines = _iter_lines(fh, path, total, len(header["arm_names"]))
        # Run the generator into its ``with``, so that closing it, or
        # dropping it unstarted, closes the file.
        next(lines)
    except BaseException:
        fh.close()
        raise
    return header, lines


def _read_header(line: str, path: str | Path) -> tuple[dict, int]:
    """The checked header and its ``total_steps``."""
    if not line:
        raise ValueError(f"{path}: empty trace file")
    if not line.endswith("\n"):
        raise ValueError(f"{path}:1: truncated header")
    try:
        header = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:1: bad header: {_not_json(e)}") from None
    except ValueError as e:  # an integer past int's digit limit
        raise ValueError(f"{path}:1: bad header: {e}") from None
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != TRACE_KIND:
        raise ValueError(f"{path}: not a trace file (kind={kind!r})")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {version!r}")
    names = header.get("arm_names")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{path}:1: bad header: arm_names must be a list of strings")
    total = header.get("total_steps")
    if type(total) is not int or total < 0:
        raise ValueError(f"{path}:1: bad header: total_steps must be a nonnegative integer, got {total!r}")
    return header, total


# A plain line as the writer writes it, with no row: the step below 10**18,
# the rate in ``repr``'s float form and each draw below 10**9.  ``float`` of
# such a rate is what ``json`` reads, and ``int`` of such a step cannot pass
# int's digit limit; any other form (a longer step, an integer, signed or
# non-finite rate, a leading zero, other spacing or key order) goes to ``json``.
_STEP = r"[1-9][0-9]{0,17}"
_RATE = r"(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"
_DRAW = r"(?:0|[1-9][0-9]{0,8})"


def _plain_line(arms: int):
    """A ``fullmatch`` of the plain lines of an ``arms``-arm trace: groups step, rate, draws."""
    if not arms:
        return lambda line: None
    draws = ", ".join([_DRAW] * arms)
    return re.compile(rf'\{{"step": ({_STEP}), "learning_rate": ({_RATE}), "draws": \[({draws})\]\}}\n').fullmatch


def _iter_lines(fh: io.TextIOBase, path: str | Path, total: int, arms: int) -> Iterator[tuple]:
    """Check each line after the header and yield ``(step, plain, fields)`` per record.

    A plain line after the first record gives its match as ``plain``, and
    ``fields`` are the last other line's ``_read_line`` fields, whose rows
    it carries over; any other line is read by ``json``, gives ``plain``
    None and its own fields.
    """
    with fh:
        yield  # the priming stop ``_open_lines`` runs to
        fields, last = None, 0
        match = _plain_line(arms)
        decode = json.JSONDecoder().raw_decode
        for lineno, text in enumerate(fh, 2):
            plain = match(text) if fields else None
            if plain is not None:
                step = int(plain[1])
            else:
                if not text.endswith("\n"):
                    raise ValueError(f"{path}:{lineno}: truncated record")
                # The scanner alone reads a line that is one object ending at
                # its newline; any other line, or one holding an integer past
                # int's digit limit, goes to ``json.loads``, for its object or
                # its error.
                try:
                    obj, end = decode(text)
                except ValueError:
                    end = None
                try:
                    if end != len(text) - 1:
                        if text.isspace():
                            continue
                        obj = json.loads(text)
                    fields = _read_line(obj, fields, arms)
                except json.JSONDecodeError as e:
                    raise ValueError(f"{path}:{lineno}: bad record: {_not_json(e)}") from None
                except KeyError as e:
                    raise ValueError(f"{path}:{lineno}: bad record: missing key {e}") from None
                except (AttributeError, TypeError, ValueError, OverflowError) as e:
                    # OverflowError: an integer rate too large for a float.
                    raise ValueError(f"{path}:{lineno}: bad record: {e}") from None
                step = fields[0]
            if step <= last:
                raise ValueError(f"{path}:{lineno}: record steps must be strictly increasing")
            if step != last + 1 or step > total:
                raise ValueError(f"{path}:{lineno}: step {step} after step {last} of a {total}-step trace")
            last = step
            yield step, plain, fields
        if last < total:
            raise ValueError(f"{path}: truncated trace: {last} of {total} steps")


def _not_json(e: json.JSONDecodeError) -> str:
    return f"not JSON ({e.msg} at char {e.pos})"


@dataclass(frozen=True)
class RunSummary:
    """End-of-run aggregates of a run's columns; see ``summarize``."""

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


def summarize(
    final_counts: Sequence[int] | np.ndarray,
    changes: list[tuple[int, tuple[float, ...]]],
    steps: int,
    registry: ArmRegistry,
    *,
    seed: int,
    config_hash: str,
    final_losses: tuple[float, ...] | None = None,
) -> RunSummary:
    """Aggregate a run's columns into a summary.

    ``coverage_ratio[k]`` is draws of arm ``k`` divided by its instance
    count: how many passes over that source the run amounted to.  The
    schedule-churn measure is the mean total-variation distance between
    consecutive steps' distributions.

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


def export_plot_data(trace_path: str | Path, kind: str) -> str:
    """Render one series of a trace file as CSV: a step column plus one column per arm.

    The trace is read with ``iter_trace``'s checks and messages, in blocks
    of ``_BLOCK`` lines; the text is returned only after the last line, so
    an error in any line leaves no partial output.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; choose from {EXPORT_KINDS}")
    header, lines = _open_lines(trace_path)
    names = header["arm_names"]
    blocks = iter(lambda: list(islice(lines, _BLOCK)), [])
    if kind == "instance_coverage":
        body = _coverage_csv(blocks, len(names))
    else:
        body = _rows_csv(blocks, 1 if kind == "proportions_over_time" else 2)
    # Each block is one string: the text is the largest object an export
    # holds, and a string per line would hold it a second time over.
    return "".join(["step," + ",".join(names) + "\n", *body])


def _rows_csv(blocks: Iterator[list], field: int) -> Iterator[str]:
    """The CSV text of each block's ``probabilities`` (``field`` 1) or ``q`` (2) rows."""
    # The cells of a row the reader carried over, the same tuple, are reused;
    # not those of an equal row: ``1 == 1.0`` and ``0.0 == -0.0`` print
    # differently.
    values = cells = None
    for block in blocks:
        text = []
        for step, _, fields in block:
            row = fields[field]
            if row is not values:
                values, cells = row, ",".join(map(str, row))
            text.append(f"{step},{cells}\n")
        yield "".join(text)


def _coverage_csv(blocks: Iterator[list], arms: int) -> Iterator[str]:
    """The CSV text of each block's running sums of the draws."""
    row = "%d," + ",".join(["%d"] * arms) + "\n"
    counts = [0] * arms
    for block in blocks:
        draws = [fields[4] if plain is None else plain[3] for _, plain, fields in block]
        # A plain line's draws are below 10**9, so int64 sums over a block
        # are exact while the totals stay below 2**62 and every other line's
        # draws are small too; past that the sums are Python ints.  The
        # steps run one at a time.
        if arms and max(map(abs, counts)) < 2**62 and all(
            type(d) is str or max(map(abs, d)) < 2**31 for d in draws
        ):
            text = ", ".join(d if type(d) is str else ", ".join(map(str, d)) for d in draws)
            sums = np.fromstring(text, dtype=np.int64, sep=",").reshape(len(block), arms).cumsum(axis=0)
            sums += np.array(counts, dtype=np.int64)
            first = block[0][0]
            table = np.column_stack((np.arange(first, first + len(block)), sums))
            yield (row * len(block)) % tuple(table.ravel().tolist())
            counts = sums[-1].tolist()
        else:
            text = []
            for (step, _, _), d in zip(block, draws):
                counts = list(map(add, counts, map(int, d.split(", ")) if type(d) is str else d))
                text.append(row % (step, *counts))
            yield "".join(text)


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
