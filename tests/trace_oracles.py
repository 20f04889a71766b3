"""Per-record references, for the tests of the run's columns, the writer and the reader.

A run keeps its history as columns and ``Window``s; ``run_records`` gives
the one ``TraceRecord`` per step they stand for, and ``summarize_records``
the summary of a list of records, through the columns' ``summarize``.
``read_trace`` reads a whole trace into a list.  ``v2_lines`` gives the
lines the writer must write for a run's records, worked out one record at a
time rather than one window at a time.  ``export_records`` renders records
as CSV one record at a time, the reference for ``export_plot_data``, and
``export_outcome`` gives what ``banditmix export`` must do with a trace
when ``json_reader`` reads every line.
"""

import contextlib
import json
from unittest import mock

from banditmix import trace
from banditmix.trace import EXPORT_KINDS, TraceRecord, iter_trace, summarize


def run_records(result):
    """One record per step of ``result``, from its windows and columns.

    Every step of a window shares the window's row tuples, so the records
    carry rows over as the trace reader does.
    """
    counts, rates = result.counts.tolist(), result.learning_rates.tolist()
    records = []
    for first, last, probabilities, q, q_after, rewards in result.windows:
        records += [
            TraceRecord(step, probabilities, q, rates[step - 1], tuple(counts[step - 1]))
            for step in range(first, last)
        ]
        records.append(TraceRecord(last, probabilities, q_after, rates[last - 1], tuple(counts[last - 1]), rewards))
    return records


def read_trace(path):
    """A trace file as ``(header, records)``, the records in a list; see ``iter_trace``."""
    header, records = iter_trace(path)
    return header, list(records)


def summarize_records(records, registry, *, seed, config_hash, final_losses=None):
    """``summarize`` of a list of records: the last record's counts, and one
    change per run of equal ``probabilities`` rows."""
    if not records:
        raise ValueError("cannot summarize an empty trace")
    changes = []
    for i, r in enumerate(records):
        row = r.probabilities
        if not changes or (row is not changes[-1][1] and row != changes[-1][1]):
            changes.append((i, row))
    return summarize(
        records[-1].cumulative_counts,
        changes,
        len(records),
        registry,
        seed=seed,
        config_hash=config_hash,
        final_losses=final_losses,
    )


def v2_lines(records):
    """The v2 lines of ``records``, without their newlines.

    A line holds each row that is not the same object as the record
    before's, and the step's draws: its cumulative counts less the record
    before's.
    """
    lines, before = [], None
    for r in records:
        obj = {"step": r.step}
        for key in ("probabilities", "q"):
            if before is None or getattr(r, key) is not getattr(before, key):
                obj[key] = getattr(r, key)
        counts_before = (0,) * len(r.cumulative_counts) if before is None else before.cumulative_counts
        obj["learning_rate"] = r.learning_rate
        obj["draws"] = [c - b for c, b in zip(r.cumulative_counts, counts_before)]
        if r.rewards is not None:
            obj["rewards"] = r.rewards
        lines.append(json.dumps(obj))
        before = r
    return lines


def export_records(records, kind, arm_names):
    """Render one series of ``records`` as CSV: a step column plus one column per arm.

    ``records`` is consumed once, so it may be ``iter_trace``'s iterator;
    the text is returned only after the last record.  The cells of a row
    carried over from the record before, the same tuple, are reused; not
    those of an equal row: ``1 == 1.0`` and ``0.0 == -0.0`` print
    differently.
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


@contextlib.contextmanager
def json_reader():
    """Read every trace line with ``json``, as the reader reads a line that is not plain."""
    with mock.patch.object(trace, "_plain_line", lambda arms: lambda text: None):
        yield


def export_outcome(path, kind):
    """The exit code, stdout and stderr of ``banditmix export``, by ``export_records``
    of ``iter_trace`` with every line read by ``json``."""
    with json_reader():
        try:
            header, records = iter_trace(path)
            return 0, export_records(records, kind, tuple(header["arm_names"])), ""
        except Exception as e:
            return 3, "", f"error: {e}\n"
