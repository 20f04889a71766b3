"""Run the steps of the tier-1 CI workflow on this machine.

Runs each ``run:`` step of ``.github/workflows/tier1.yml`` that comes after
the install step, in order, from the repository root, with the step's
``env`` and with ``RUNNER_TEMP`` set to a fresh temporary directory.  Each
step runs in ``bash -e``, as a workflow step does.  Prints each step's exit
code and time, and exits 1 if any step failed.

    python scripts/ci_local.py

``read_steps`` reads the ``steps:`` list as the workflow writes it (block
mappings, plain and quoted one-line scalars, ``|`` blocks and comments), so
the script needs no YAML package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _skip(line: str) -> bool:
    """A blank or comment line, outside a ``|`` block."""
    return not line.strip() or line.lstrip().startswith("#")


def _scalar(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] == '"':
        return json.loads(text)
    if len(text) >= 2 and text[0] == text[-1] == "'":
        return text[1:-1].replace("''", "'")
    return text


def _block(lines: list[str], i: int, parent: int) -> tuple[str, int]:
    """The ``|`` block from line ``i`` on, below a key at indent ``parent``,
    and the index of the line after it."""
    body = []
    while i < len(lines) and (not lines[i].strip() or _indent(lines[i]) > parent):
        body.append(lines[i])
        i += 1
    while body and not body[-1].strip():
        body.pop()
    width = min(_indent(line) for line in body if line.strip())
    return "\n".join(line[width:] for line in body) + "\n", i


def _mapping(lines: list[str], i: int, parent: int) -> tuple[dict[str, str], int]:
    """The ``key: value`` lines from line ``i`` on, below a key at indent
    ``parent``, and the index of the line after them."""
    mapping = {}
    while i < len(lines) and (_skip(lines[i]) or _indent(lines[i]) > parent):
        if not _skip(lines[i]):
            key, _, value = lines[i].strip().partition(":")
            mapping[key] = _scalar(value)
        i += 1
    return mapping, i


def read_steps(text: str) -> list[dict]:
    """The workflow's ``steps:`` list, each step a dict of its keys."""
    lines = text.splitlines()
    i = next(n for n, line in enumerate(lines) if line.strip() == "steps:")
    base = _indent(lines[i])
    steps: list[dict] = []
    key_indent = base
    i += 1
    while i < len(lines):
        line = lines[i]
        if _skip(line):
            i += 1
            continue
        if _indent(line) <= base:
            break
        entry = line.strip()
        if entry.startswith("- "):
            steps.append({})
            key_indent = _indent(line) + 2
            entry = entry[2:]
        key, _, value = entry.partition(":")
        value = value.strip()
        if value == "|":
            steps[-1][key], i = _block(lines, i + 1, key_indent)
        elif not value:
            steps[-1][key], i = _mapping(lines, i + 1, key_indent)
        else:
            steps[-1][key] = _scalar(value)
            i += 1
    return steps


def local_steps(steps: list[dict]) -> list[dict]:
    """The ``run:`` steps after the one that installs the dependencies."""
    install = next(n for n, step in enumerate(steps) if "pip install" in step.get("run", ""))
    return [step for step in steps[install + 1 :] if "run" in step]


def main() -> int:
    steps = local_steps(read_steps(WORKFLOW.read_text(encoding="utf-8")))
    results = []
    with tempfile.TemporaryDirectory() as runner_temp:
        for step in steps:
            name = step.get("name", step["run"].splitlines()[0])
            print(f"== {name}", flush=True)
            env = {**os.environ, **step.get("env", {}), "RUNNER_TEMP": runner_temp}
            start = time.perf_counter()
            code = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-c", step["run"]], cwd=ROOT, env=env).returncode
            results.append((name, code, time.perf_counter() - start))
    print()
    for name, code, seconds in results:
        print(f"exit {code:3d}  {seconds:7.1f} s  {name}")
    failed = sum(code != 0 for _, code, _ in results)
    print(f"{len(results) - failed} of {len(results)} steps passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
