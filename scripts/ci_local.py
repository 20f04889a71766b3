"""Run the steps of the tier-1 CI workflow on this machine.

Runs each ``run:`` step of ``.github/workflows/tier1.yml`` that comes after
the install step, in order, from the repository root, with the step's
``env`` and with ``RUNNER_TEMP`` set to a fresh temporary directory.  Each
step runs in ``bash -e``, as a workflow step does.  Prints each step's exit
code and time, and exits 1 if any step failed.

    python scripts/ci_local.py

The workflow is read with PyYAML, which the workflow's install step and
the package's ``test`` extra install.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def read_steps(text: str) -> list[dict]:
    """The workflow's ``steps:`` list, each step a dict of its keys."""
    (job,) = yaml.safe_load(text)["jobs"].values()
    return job["steps"]


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
            # YAML reads ``1`` or ``true`` as a number or a boolean; a process
            # environment holds strings.
            env = {**os.environ, **{k: str(v) for k, v in step.get("env", {}).items()}, "RUNNER_TEMP": runner_temp}
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
