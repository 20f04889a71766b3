"""What ships is what the product calls.

Runs every product path on short configs under ``sys.setprofile``: the five
CLI subcommands, every policy variant with both reward kinds, all three
exports, ``validate`` of each shipped config, and a tulu run long enough for
a window's draws to take the bucket table.  Every public function or method
defined in ``src/banditmix`` must be reached by one of them or stand on
``ALLOWED`` with its reason, so API that only tests call does not creep back
into the package.
"""

import ast
import json
import sys
from pathlib import Path

import banditmix
from banditmix import cli
from banditmix.policies import POLICY_VARIANTS
from banditmix.trace import EXPORT_KINDS

PACKAGE = Path(banditmix.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("deep_gap_world", "tulu_default", "volatile_world")

# Public defs no product path calls, each with why it ships.
ALLOWED = {
    "rewards.Learner.train_steps": "abstract; the loop calls a learner's own",
    "rewards.Learner.probe": "abstract; the loop calls a learner's own",
    "simworld.SimWorld.from_state_dict": "reads world.json back, for resuming a run (ROADMAP item 5)",
}


def public_defs():
    """``module.qualname`` of every def whose name parts have no leading underscore."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                found |= {
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
                }
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                found.add(f"{path.stem}.{node.name}")
    return found


def short_config(tmp_path, name, world="volatile_world", steps=20, interval=5, **policy):
    """A shipped config cut to ``steps`` steps with a round every ``interval``,
    as a config file."""
    obj = json.loads((CONFIGS / f"{world}.json").read_text(encoding="utf-8"))
    obj["bandit"].update(total_steps=steps, update_interval=interval)
    obj["policy"] = policy
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def product_calls(tmp_path):
    """Each CLI invocation of the product paths, as ``cli.main`` arguments."""
    calls = [["validate", "--config", str(CONFIGS / f"{name}.json")] for name in SHIPPED]
    tulu = short_config(tmp_path, "tulu", "tulu_default", steps=40, interval=20, variant="bandit")
    calls.append(["run", "--config", tulu, "--out", str(tmp_path / "tulu")])
    configs = []
    for variant in POLICY_VARIANTS:
        kinds = ("delta_loss", "delta_entropy") if variant.startswith("bandit") else ("delta_loss",)
        for kind in kinds:
            policy = {"variant": variant, "reward_kind": kind}
            if variant == "static":
                policy["static_probs"] = [0.4, 0.3, 0.2, 0.1]
            config = short_config(tmp_path, f"{variant}-{kind}", **policy)
            configs.append(config)
            out = tmp_path / f"run-{variant}-{kind}"
            calls += [["validate", "--config", config], ["run", "--config", config, "--out", str(out)]]
    trace = str(tmp_path / "run-bandit-delta_loss" / "trace.jsonl")
    calls += [["export", "--trace", trace, "--kind", kind] for kind in EXPORT_KINDS]
    calls.append(["compare", "--configs", *configs[:2], "--seed", "1"])
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"alpha": [0.5, 2.0], "beta": [1.0]}), encoding="utf-8")
    calls.append(["sweep", "--config", configs[0], "--grid", str(grid), "--seeds", "2"])
    return calls


def test_every_public_def_is_reached_by_a_product_path(tmp_path, capsys):
    calls = product_calls(tmp_path)
    reached = set()
    prefix = str(PACKAGE)

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            code = frame.f_code
            reached.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in calls]
    finally:
        sys.setprofile(None)
    err = capsys.readouterr().err
    assert codes == [0] * len(calls), err
    # The sweep's second alpha is refused and skipped, a path of its own.
    assert "skipped grid point" in err
    defs = public_defs()
    assert set(ALLOWED) <= defs
    assert sorted(defs - reached - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) & reached) == []
