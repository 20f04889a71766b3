"""How the smoothing factor steadies or destabilizes the schedule.

Sweeps the estimate-averaging factor on a noisy world and reports the
mean step-to-step total variation of the probability trace.  Slow
averaging (high alpha) damps reward noise; fast averaging chases it,
and the sampling distribution churns.

Usage: python scripts/smoothing_volatility.py [--seeds N]
"""

import argparse
from pathlib import Path

import numpy as np

from banditmix import load_config, sweep_experiments
from banditmix.config import load_json

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "volatile_world.json"
GRID = ROOT / "configs" / "alpha_grid.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    cfg = load_config(CONFIG)
    grid = load_json(GRID, "grid")
    result = sweep_experiments(cfg, grid, seeds=args.seeds)

    by_alpha: dict[float, list[float]] = {}
    for row in result.rows:
        alpha = dict(row.params)["alpha"]
        by_alpha.setdefault(alpha, []).append(row.mean_step_tv)

    print(f"mean step-to-step total variation over {args.seeds} seeds:")
    for alpha in sorted(by_alpha):
        values = by_alpha[alpha]
        print(f"  alpha={alpha:<5} {np.mean(values):.5f} +/- {np.std(values):.5f}")


if __name__ == "__main__":
    main()
