"""Run traces: JSON-lines persistence, summaries, and plot-data export.

A trace file starts with a single header object naming the schema version,
the arm order, the seed, the config hash and the step count; every following
line is one ``Window`` of steps with the window's learning rates and each
step's draws per arm, less the rows the window before holds.  Floats are
written with Python's shortest round-trip representation, so reading a trace
back reproduces the arrays bit for bit.  The reader parses each line with
one ``json.loads`` and gives back what the writer took.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from itertools import chain
from operator import add
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .registry import ArmRegistry

__all__ = [
    "SCHEMA_VERSION",
    "TRACE_KIND",
    "EXPORT_KINDS",
    "TraceWriter",
    "Window",
    "iter_trace",
    "RunSummary",
    "summarize",
    "export_plot_data",
    "save_world_checkpoint",
]

SCHEMA_VERSION = 3
TRACE_KIND = "banditmix-trace"

EXPORT_KINDS = ("proportions_over_time", "instance_coverage", "q_over_time")
_NUMBERS, _INTS, _LISTS = frozenset((int, float)), frozenset((int,)), frozenset((list,))


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
    """Streams a run's windows to a JSONL file, header first, one line per window.

    Each line is written whole or not at all and reaches the file before
    ``write`` returns, so a run that raises leaves a file of whole lines.
    A line is ``{"first", "last", "probabilities", "q", "q_after",
    "rewards", "learning_rate", "draws"}`` in that key order, less
    ``probabilities`` when it is the same object as the window before's,
    ``q`` when it is the window before's ``q_after`` (the first line holds
    it), ``q_after`` when it is ``q`` (no round changed it) and ``rewards``
    when no round ran.  The reader's checks, less its scan of the draws,
    check the header and each line, so ``iter_trace`` reads what is written.
    """

    def __init__(
        self, path: str | Path, arm_names: tuple[str, ...], seed: int, config_hash: str, total_steps: int
    ):
        self.path = Path(path)
        self._fh: io.TextIOBase | None = None
        self._previous: Window | None = None
        self._header = {
            "schema_version": SCHEMA_VERSION,
            "kind": TRACE_KIND,
            "arm_names": list(arm_names),
            "seed": seed,
            "config_hash": config_hash,
            "total_steps": total_steps,
        }
        _check_header(self._header, "")

    def __enter__(self) -> "TraceWriter":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8", newline="\n", buffering=1)
        self._fh.write(json.dumps(self._header) + "\n")
        return self

    def write(self, window: Window, draws: np.ndarray, rates: Sequence[float]) -> None:
        """Write the line of steps ``window.first`` to ``window.last``.

        ``draws`` is the window's ``(m, K)`` block of each step's draw counts
        per arm, integers >= 0, and ``rates`` its ``m`` learning rates.  The
        window is checked and its line built before it is written and
        flushed, so a rejected window leaves no line.
        """
        if self._fh is None:
            raise ValueError("writer is not open")
        first, last, probabilities, q, q_after, rewards = window
        previous = self._previous
        _check_steps(first, last)
        _check_tiling(first, last, previous.last if previous else 0, self._header["total_steps"], "")
        # ``json.dumps`` writes a non-finite float as ``NaN`` or ``Infinity``.
        obj = {"first": first, "last": last}
        if previous is None or probabilities is not previous.probabilities:
            obj["probabilities"] = probabilities
        if previous is None or q is not previous.q_after:
            obj["q"] = q
        if q_after is not q:
            obj["q_after"] = q_after
        if rewards is not None:
            obj["rewards"] = rewards
        m, k = last - first + 1, len(self._header["arm_names"])
        _check_rows(obj, previous, k)
        draws = np.asarray(draws)
        if draws.dtype.kind not in "iu" or draws.shape != (m, k):
            raise ValueError(f"draw counts must be ({m}, {k}) integers, got {draws.dtype} {draws.shape}")
        if draws.size and draws.min() < 0:
            raise ValueError(f"draws must be counts >= 0, got {draws.min()}")
        rates = np.asarray(rates)
        if rates.dtype.kind != "f" or rates.shape != (m,):
            raise ValueError(f"rates must be {m} floats, got {rates.dtype} {rates.shape}")
        obj["learning_rate"] = rates.tolist()
        obj["draws"] = draws.tolist()
        self._fh.write(json.dumps(obj) + "\n")
        self._previous = window

    def __exit__(self, *exc_info) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def iter_trace(path: str | Path) -> tuple[dict, Iterator[tuple[Window, list, list]]]:
    """Open a trace as ``(header, windows)``, reading one line at a time.

    The header, of schema ``SCHEMA_VERSION`` only, is checked before this
    returns.  ``windows`` yields what ``TraceWriter.write`` took, per line:
    ``(window, draws, rates)``, the ``Window`` with tuple rows (a row the
    line leaves out is the window before's tuple), the ``m`` lists of ``K``
    draw counts of 0 or more, and the ``m`` learning rates as floats.  It raises
    ``ValueError("<path>:<line>: ...")`` at a line that is not a window,
    holds a row or a block of another shape than the header's ``arm_names``
    and the window's steps give, does not start at the step after the
    window before's last, or lacks its newline: the writer ends every line
    with one, so such a last line is what a killed writer leaves, and it is
    reported as truncated, not parsed.  The windows must tile steps 1 to the
    header's ``total_steps``; a trace that stops short raises
    ``ValueError("<path>: truncated trace: N of M steps")`` after its last
    window.  The file closes when ``windows`` ends, raises or is dropped.
    """
    fh = Path(path).open("r", encoding="utf-8")
    try:
        header, total = _read_header(fh.readline(), path)
        windows = _windows(fh, path, total, len(header["arm_names"]))
        # Run the generator into its ``with``, so that closing it, or
        # dropping it unstarted, closes the file.
        next(windows)
    except BaseException:
        fh.close()
        raise
    return header, windows


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
    except (ValueError, RecursionError) as e:  # an integer past int's digit limit, or deep nesting
        raise ValueError(f"{path}:1: bad header: {e}") from None
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != TRACE_KIND:
        raise ValueError(f"{path}: not a trace file (kind={kind!r})")
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version {version!r}")
    _check_header(header, f"{path}:1: bad header: ")
    return header, header["total_steps"]


def _check_header(header: dict, where: str) -> None:
    """Check the fields a run gives the header; ``where`` prefixes the message."""
    names = header.get("arm_names")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"{where}arm_names must be a list of strings")
    for key in ("total_steps", "seed"):
        value = header.get(key)
        if type(value) is not int or value < 0:
            raise ValueError(f"{where}{key} must be a nonnegative integer, got {value!r}")
    if not isinstance(header.get("config_hash"), str):
        raise ValueError(f"{where}config_hash must be a string, got {header.get('config_hash')!r}")


def _windows(fh: io.TextIOBase, path: str | Path, total: int, arms: int) -> Iterator[tuple]:
    """Check each line after the header and yield its ``_read_window``."""
    with fh:
        yield  # the priming stop ``iter_trace`` runs to
        window, last = None, 0
        for lineno, text in enumerate(fh, 2):
            if not text.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: truncated record")
            try:
                window, draws, rates = _read_window(json.loads(text), window, arms, "-" in text)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{lineno}: bad record: {_not_json(e)}") from None
            except KeyError as e:
                raise ValueError(f"{path}:{lineno}: bad record: missing key {e}") from None
            except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as e:
                # ValueError: also an integer past int's digit limit;
                # OverflowError: an integer rate too large for a float;
                # RecursionError: a line nested too deep to parse.
                raise ValueError(f"{path}:{lineno}: bad record: {e}") from None
            _check_tiling(window.first, window.last, last, total, f"{path}:{lineno}: ")
            last = window.last
            yield window, draws, rates
        if last < total:
            raise ValueError(f"{path}: truncated trace: {last} of {total} steps")


def _read_window(obj: dict, previous: Window | None, arms: int, signed: bool) -> tuple[Window, list, list]:
    """The window of a parsed trace line, with its draws and rates: one entry per step each.
    ``signed`` is whether the line's text holds a minus sign, which a count below 0 needs."""
    first, last = obj["first"], obj["last"]
    _check_steps(first, last)
    rates, draws = obj["learning_rate"], obj["draws"]
    probabilities, q, q_after, rewards = _check_rows(obj, previous, arms)
    m = last - first + 1
    rates = list(map(float, _check_row("learning_rate", rates, _NUMBERS, m)))
    if type(draws) is not list:
        raise ValueError(f"draws must be a list, got {draws!r}")
    if len(draws) != m:
        raise ValueError(f"draws must have {m} rows, got {len(draws)}")
    # The block is checked whole; only a block that fails is searched for
    # the row to name.
    if not (
        _LISTS.issuperset(map(type, draws))
        and {arms}.issuperset(map(len, draws))
        and _INTS.issuperset(map(type, chain.from_iterable(draws)))
        and not (signed and min(chain.from_iterable(draws), default=0) < 0)
    ):
        for row in draws:
            _check_row("draws", row, _INTS, arms)
            if min(row, default=0) < 0:
                raise ValueError(f"draws must hold only counts >= 0, got {row!r}")
    return Window(first, last, probabilities, q, q_after, rewards), draws, rates


def _check_steps(first: int, last: int) -> None:
    """Check that a window's steps are integers, ``last`` not before ``first``."""
    # JSON gives exact types: a float or boolean step is no step, a row not a
    # list would be read element by element, and true, "z" or null is no number.
    for key, step in (("first", first), ("last", last)):
        if type(step) is not int:
            raise ValueError(f"{key} must be an integer, got {step!r}")
    if last < first:
        raise ValueError(f"window ends at step {last}, before its first step {first}")


def _check_tiling(first: int, last: int, after: int, total: int, where: str) -> None:
    """Check that steps ``first`` to ``last`` go on from step ``after``, none missing, to ``total``."""
    if first != after + 1 or last > total:
        raise ValueError(f"{where}steps {first} to {last} after step {after} of a {total}-step trace")


def _check_rows(obj: dict, previous: Window | None, arms: int) -> tuple:
    """A line's ``probabilities``, ``q``, ``q_after`` and ``rewards``, of ``arms`` entries each.

    A row the line leaves out is ``previous``'s (``q_after`` is then ``q``), not checked again.
    """
    if previous is None:
        probabilities, q = obj["probabilities"], obj["q"]
    else:
        probabilities, q = obj.get("probabilities", previous.probabilities), obj.get("q", previous.q_after)
    if previous is None or probabilities is not previous.probabilities:
        probabilities = _check_row("probabilities", probabilities, _NUMBERS, arms)
    if previous is None or q is not previous.q_after:
        q = _check_row("q", q, _NUMBERS, arms)
    q_after = _check_row("q_after", obj["q_after"], _NUMBERS, arms) if "q_after" in obj else q
    rewards = obj.get("rewards")
    if rewards is not None:
        if type(rewards) not in (list, tuple):
            raise ValueError(f"rewards must be a list or null, got {rewards!r}")
        rewards = _check_row("rewards", rewards, _NUMBERS, arms)
    return probabilities, q, q_after, rewards


def _check_row(key: str, row: list | tuple, kinds: frozenset, n: int) -> tuple:
    """``row`` as a tuple, once it is a list or tuple of ``n`` entries of ``kinds``."""
    if type(row) not in (list, tuple):
        raise ValueError(f"{key} must be a list, got {row!r}")
    if not kinds.issuperset(map(type, row)):
        noun = "integers" if kinds is _INTS else "numbers"
        raise ValueError(f"{key} must hold only {noun}, got {row!r}")
    if len(row) != n:
        raise ValueError(f"{key} must have {n} entries, got {row!r}")
    return tuple(row)


def _not_json(e: json.JSONDecodeError) -> str:
    return f"not JSON ({e.msg} at char {e.pos})"


@dataclass(frozen=True)
class RunSummary:
    """End-of-run aggregates of a run; see ``summarize``."""

    seed: int
    config_hash: str
    steps: int
    final_losses: tuple[float, ...]
    coverage_ratio: tuple[float, ...]
    mean_step_tv: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "steps": self.steps,
            "final_losses": list(self.final_losses),
            "coverage_ratio": list(self.coverage_ratio),
            "mean_step_tv": self.mean_step_tv,
        }


def summarize(
    final_counts: Sequence[int] | np.ndarray,
    windows: Sequence[Window],
    steps: int,
    registry: ArmRegistry,
    *,
    seed: int,
    config_hash: str,
    final_losses: tuple[float, ...],
) -> RunSummary:
    """Aggregate a run's final draws and its windows into a summary.

    ``coverage_ratio[k]`` is draws of arm ``k`` divided by its instance
    count: how many passes over that source the run amounted to.  The
    schedule-churn measure is the mean total-variation distance between
    consecutive steps' distributions.

    ``final_counts`` are the cumulative draws per arm after the last step,
    and ``windows`` the windows that tile a run of ``steps`` steps; only
    their ``first`` and ``probabilities`` are read.  The TV between each
    window's distribution and the one before is placed into a zero vector
    of ``steps - 1`` step-to-step distances and the mean taken over that
    vector: the same numbers and the same reduction as over every
    consecutive pair of steps, since steps of one window are 0 apart.
    """
    counts = np.asarray(final_counts, dtype=np.float64)
    coverage = counts / registry.counts.astype(np.float64)
    if steps >= 2:
        tv = np.zeros(steps - 1)
        if len(windows) >= 2:
            probs = np.asarray([w.probabilities for w in windows], dtype=np.float64)
            firsts = np.asarray([w.first for w in windows[1:]])
            tv[firsts - 2] = 0.5 * np.sum(np.abs(np.diff(probs, axis=0)), axis=1)
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

    The trace is read with ``iter_trace``, a window at a time; the text is
    returned only after the last window, so an error in any line leaves no
    partial output.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; choose from {EXPORT_KINDS}")
    header, windows = iter_trace(trace_path)
    names = header["arm_names"]
    if kind == "instance_coverage":
        body = _coverage_csv(windows, len(names))
    else:
        body = _rows_csv(windows, kind == "q_over_time")
    # Each window is one string: the text is the largest object an export
    # holds, and a string per line would hold it a second time over.
    return "".join(["step," + ",".join(names) + "\n", *body])


def _rows_csv(windows: Iterator[tuple], q: bool) -> Iterator[str]:
    """The CSV text of each window's ``probabilities`` rows, or with ``q`` its
    estimates: ``q`` before the window's last step and ``q_after`` at it."""
    # The cells of one row object are reused; not those of an equal row:
    # ``1 == 1.0`` and ``0.0 == -0.0`` print differently.
    values = cells = None
    for window, _, _ in windows:
        first, last = window.first, window.last
        rows = (window.q, window.q_after) if q else (window.probabilities,) * 2
        text = ""
        for row, steps in zip(rows, (range(first, last), range(last, last + 1))):
            if steps:
                if row is not values:
                    values, cells = row, ",".join(map(str, row))
                end = f",{cells}\n"
                text += end.join(map(str, steps)) + end
        yield text


def _coverage_csv(windows: Iterator[tuple], arms: int) -> Iterator[str]:
    """The CSV text of each window's running sums of the draws."""
    row = "%d," + ",".join(["%d"] * arms) + "\n"
    counts = [0] * arms
    for window, draws, _ in windows:
        steps = range(window.first, window.last + 1)
        try:
            block = np.array(draws, dtype=np.int64) if arms else None
        except OverflowError:
            block = None
        # int64 sums are exact while the totals stay below 2**62 and each
        # draw below 2**31, for any window of fewer than 2**31 steps; past
        # that the sums are Python ints.
        if block is not None and max(counts) < 2**62 and block.max() < 2**31:
            sums = block.cumsum(axis=0)
            sums += np.array(counts, dtype=np.int64)
            table = np.column_stack((np.arange(steps.start, steps.stop), sums))
            yield (row * len(steps)) % tuple(table.ravel().tolist())
            counts = sums[-1].tolist()
        else:
            text = []
            for step, d in zip(steps, draws):
                counts = list(map(add, counts, d))
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
