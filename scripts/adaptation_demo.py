"""Adaptation in a world with one deep, under-represented arm.

The "deep" arm has a large improvable gap but only a fifth of the
instances; the two "shallow" arms are close to saturated.  A static
policy spends most of its learning-rate budget where little remains to
learn.  The adaptive policy discovers the deep arm through look-ahead
probes and shifts sampling mass onto it while the gap lasts.

Usage: python scripts/adaptation_demo.py [--seeds N] [--trace]
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from banditmix import load_config, run_experiment

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "deep_gap_world.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument(
        "--trace", action="store_true", help="print the deep arm's probability over time"
    )
    args = parser.parse_args()

    base = load_config(CONFIG)
    variants = {
        "bandit": base,
        "uniform": dataclasses.replace(
            base, policy=dataclasses.replace(base.policy, variant="uniform")
        ),
        "proportional": dataclasses.replace(
            base, policy=dataclasses.replace(base.policy, variant="proportional")
        ),
    }

    losses = {
        name: [run_experiment(cfg, seed=s).final_mean_loss for s in range(args.seeds)]
        for name, cfg in variants.items()
    }
    print(f"final mean loss over {args.seeds} seeds:")
    for name, values in losses.items():
        print(f"  {name:<14} {np.mean(values):.4f} +/- {np.std(values):.4f}")
    beats_u = sum(b < u for b, u in zip(losses["bandit"], losses["uniform"]))
    beats_p = sum(b < p for b, p in zip(losses["bandit"], losses["proportional"]))
    print(f"bandit beats uniform in {beats_u}/{args.seeds}, proportional in {beats_p}/{args.seeds}")

    if args.trace:
        result = run_experiment(base, seed=0)
        print("\ndeep-arm probability by step (seed 0):")
        for window in result.windows:
            deep = window.probabilities[0]
            for step in range(window.first, window.last + 1):
                if step % 5 == 0 or step == 1:
                    print(f"  {step:>3} {deep:.3f} {'#' * int(40 * deep)}")


if __name__ == "__main__":
    main()
