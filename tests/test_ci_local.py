"""``scripts/ci_local.py`` runs the CI workflow's steps after the install step.

Runs no step.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ci_local.py"
spec = importlib.util.spec_from_file_location("ci_local", SCRIPT)
ci_local = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci_local)


def test_local_steps_are_the_run_steps_after_the_install_step():
    steps = ci_local.read_steps(ci_local.WORKFLOW.read_text(encoding="utf-8"))
    # Everything after the install step runs locally, in the workflow's order.
    local = ci_local.local_steps(steps)
    assert local == [s for s in steps[steps.index(local[0]) :] if "run" in s]
    assert all("pip install" not in s["run"] for s in local)
