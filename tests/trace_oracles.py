"""Reference trace writers, for the tests of the v2 writer and reader.

``write_v1_trace`` writes what schema v1's writer wrote: the header without
``total_steps``, then ``json.dumps(record.to_json_obj())`` per record.
``v2_lines`` gives the lines the v2 writer must write for a run's records,
worked out one record at a time rather than one window at a time.
"""

import json


def write_v1_trace(path, header, records):
    """Write ``records`` as a schema v1 trace with ``header``'s arms, seed and hash."""
    v1 = {key: value for key, value in header.items() if key != "total_steps"}
    v1["schema_version"] = 1
    lines = [json.dumps(v1), *(json.dumps(r.to_json_obj()) for r in records)]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


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
