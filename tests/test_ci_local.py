"""``scripts/ci_local.py`` reads the CI workflow's steps as YAML does.

Runs no step.
"""

import importlib.util
from pathlib import Path

import yaml

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ci_local.py"
spec = importlib.util.spec_from_file_location("ci_local", SCRIPT)
ci_local = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci_local)


def yaml_steps(text):
    (job,) = yaml.safe_load(text)["jobs"].values()
    return job["steps"]


def test_reader_matches_yaml_on_the_workflow():
    text = ci_local.WORKFLOW.read_text(encoding="utf-8")
    want, got = yaml_steps(text), ci_local.read_steps(text)
    assert [s.get("name") for s in got] == [s.get("name") for s in want]
    assert [s.get("env") for s in got] == [s.get("env") for s in want]
    assert [s.get("run") for s in got] == [s.get("run") for s in want]
    assert got == want
    # Everything after the install step runs locally, in the workflow's order.
    local = ci_local.local_steps(got)
    assert local == [s for s in want[want.index(local[0]) :] if "run" in s]
    assert all("pip install" not in s["run"] for s in local)


def test_reader_matches_yaml_on_block_edge_cases():
    text = """jobs:
  only:
    steps:
      - uses: actions/checkout@v4
        with:
          python-version: "3.11"
      - name: 'it''s quoted'
        # a comment between keys
        env:
          A: "x y"
          B: plain
        run: |
          first

            indented more
          # kept: a comment line inside the block

      - name: last
        run: echo 'one line'
"""
    assert ci_local.read_steps(text) == yaml_steps(text)
