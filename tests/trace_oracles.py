"""Per-step references, for the tests of the run loop, the writer and the reader.

A run keeps its history as ``Window``s; ``TraceRecord`` is one step of it.
``recorded_run`` runs ``run_experiment`` and records what its loop hands
``SimWorld.train_steps``: the columns of each step's cumulative draws per arm
and learning rate, which the run itself does not keep.  ``run_records`` gives
the one record per step a recorded run's windows and columns stand for, and
``summarize_records`` the summary of a list of records, each a one-step
window for ``summarize``.  ``window_records`` gives the records of what
``iter_trace`` yields, and ``read_trace`` reads a whole trace into a list of
them.  ``window_lines`` gives the lines the writer must write for a recorded
run, each built as a dict for ``json.dumps``, with each step's draws taken
from the cumulative counts.  ``export_records`` renders records as CSV one
record at a time, the reference for ``export_plot_data``, and
``export_outcome`` gives what ``banditmix export`` must do with a trace.
"""

import json
import sys
from operator import add
from typing import NamedTuple

import numpy as np

from banditmix.runner import RunResult, run_experiment
from banditmix.simworld import SimWorld
from banditmix.trace import EXPORT_KINDS, Window, iter_trace, summarize


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


class RecordedRun(NamedTuple):
    """A run and the columns of what its loop handed ``SimWorld.train_steps``.

    ``counts`` is the ``(steps, K)`` int64 array of the cumulative draws per
    arm after each step, and ``learning_rates`` the ``(steps,)`` float64
    array of each step's rate.
    """

    result: RunResult
    counts: np.ndarray
    learning_rates: np.ndarray


def recorded_run(cfg, **kwargs):
    """``run_experiment(cfg, **kwargs)`` as a ``RecordedRun``.

    ``SimWorld.train_steps`` is wrapped for the call, so a world of any
    subclass hands over its batches and rates; only the calls the loop
    itself makes are recorded, not the steps a learner's probe may take.
    """
    arms, rates = [], []
    train_steps, loop = SimWorld.train_steps, run_experiment.__code__

    def recording(world, batch, learning_rates):
        if sys._getframe(1).f_code is loop:
            arms.append(batch.arms.reshape(len(learning_rates), -1))
            rates.extend(learning_rates)
        return train_steps(world, batch, learning_rates)

    SimWorld.train_steps = recording
    try:
        result = run_experiment(cfg, **kwargs)
    finally:
        SimWorld.train_steps = train_steps
    k = result.resolved.registry.num_arms
    per_step = [np.bincount(row, minlength=k) for block in arms for row in block]
    counts = np.cumsum(np.array(per_step, dtype=np.int64).reshape(-1, k), axis=0)
    return RecordedRun(result, counts, np.array(rates, dtype=np.float64))


def run_records(run):
    """One record per step of the ``RecordedRun`` ``run``, from its windows and columns.

    Every step of a window shares the window's row tuples, so the records
    carry rows over as the trace reader does.
    """
    counts, rates = run.counts.tolist(), run.learning_rates.tolist()
    records = []
    for first, last, probabilities, q, q_after, rewards in run.result.windows:
        records += [
            TraceRecord(step, probabilities, q, rates[step - 1], tuple(counts[step - 1]))
            for step in range(first, last)
        ]
        records.append(TraceRecord(last, probabilities, q_after, rates[last - 1], tuple(counts[last - 1]), rewards))
    return records


def window_records(windows):
    """One record per step of ``iter_trace``'s ``(window, draws, rates)``,
    the draws summed a step at a time; a generator, so an error in a later
    line comes after the records before it."""
    counts = None
    for (first, last, probabilities, q, q_after, rewards), draws, rates in windows:
        for step, d, rate in zip(range(first, last + 1), draws, rates):
            counts = tuple(d) if counts is None else tuple(map(add, counts, d))
            if step < last:
                yield TraceRecord(step, probabilities, q, rate, counts)
            else:
                yield TraceRecord(step, probabilities, q_after, rate, counts, rewards)


def read_trace(path):
    """A trace file as ``(header, records)``, the records in a list; see ``iter_trace``."""
    header, windows = iter_trace(path)
    return header, list(window_records(windows))


def summarize_records(records, registry, *, seed, config_hash, final_losses):
    """``summarize`` of a list of records: the last record's counts, and one
    window per record."""
    if not records:
        raise ValueError("cannot summarize an empty trace")
    windows = [Window(i, i, r.probabilities, r.q, r.q, r.rewards) for i, r in enumerate(records, 1)]
    return summarize(
        records[-1].cumulative_counts,
        windows,
        len(records),
        registry,
        seed=seed,
        config_hash=config_hash,
        final_losses=final_losses,
    )


def window_lines(run):
    """The lines of the ``RecordedRun`` ``run``'s trace after the header, without their newlines.

    A line holds ``probabilities`` where it is not the same object as the
    window before's, ``q`` on the first line and where it is not the window
    before's ``q_after``, ``q_after`` where it is not ``q``, ``rewards``
    where a round ran, and each step's draws: its cumulative counts less
    the step before's.
    """
    counts, rates = run.counts.tolist(), run.learning_rates.tolist()
    lines, before = [], None
    for w in run.result.windows:
        obj = {"first": w.first, "last": w.last}
        if before is None or w.probabilities is not before.probabilities:
            obj["probabilities"] = w.probabilities
        if before is None or w.q is not before.q_after:
            obj["q"] = w.q
        if w.q_after is not w.q:
            obj["q_after"] = w.q_after
        if w.rewards is not None:
            obj["rewards"] = w.rewards
        obj["learning_rate"] = rates[w.first - 1 : w.last]
        previous = counts[w.first - 2] if w.first > 1 else [0] * len(counts[0])
        obj["draws"] = []
        for row in counts[w.first - 1 : w.last]:
            obj["draws"].append([c - b for c, b in zip(row, previous)])
            previous = row
        lines.append(json.dumps(obj))
        before = w
    return lines


def export_records(records, kind, arm_names):
    """Render one series of ``records`` as CSV: a step column plus one column per arm.

    ``records`` is consumed once, so it may be a generator over
    ``iter_trace``; the text is returned only after the last record.  The
    cells of a row carried over from the record before, the same tuple,
    are reused; not those of an equal row: ``1 == 1.0`` and ``0.0 == -0.0``
    print differently.
    """
    if kind not in EXPORT_KINDS:
        raise ValueError(f"unknown export kind {kind!r}; choose from {EXPORT_KINDS}")
    field = TraceRecord._fields.index(
        {"proportions_over_time": "probabilities", "instance_coverage": "cumulative_counts", "q_over_time": "q"}[kind]
    )
    lines = ["step," + ",".join(arm_names) + "\n"]
    values = cells = None
    for r in records:
        row = r[field]
        if row is not values:
            if len(row) != len(arm_names):
                raise ValueError(f"record at step {r.step} has {len(row)} arms, expected {len(arm_names)}")
            values, cells = row, ",".join(map(str, row))
        lines.append(f"{r.step},{cells}\n")
    return "".join(lines)


def export_outcome(path, kind):
    """The exit code, stdout and stderr of ``banditmix export``, by
    ``export_records`` of the records of ``iter_trace``."""
    try:
        header, windows = iter_trace(path)
        return 0, export_records(window_records(windows), kind, tuple(header["arm_names"])), ""
    except Exception as e:
        return 3, "", f"error: {e}\n"
