"""Command-line experiment runner.

Subcommands: run, compare, sweep, export, validate.  Exit codes: 0 on
success, 2 for configuration errors (the diagnostic names the offending
key), 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config, load_json, resolve_output_dir
from .runner import (
    SUMMARY_FILENAME,
    TRACE_FILENAME,
    WORLD_FILENAME,
    compare_experiments,
    run_experiment,
    sweep_experiments,
)
from .trace import EXPORT_KINDS, export_plot_data

__all__ = ["main", "build_parser"]


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out = resolve_output_dir(args.out, cfg)
    result = run_experiment(cfg, seed=args.seed, out_dir=out)
    s = result.summary
    print(f"run complete: {s.steps} steps, seed {s.seed}, config {s.config_hash}")
    print(f"final mean loss:    {_fmt(result.final_mean_loss)}")
    coverage = sum(s.coverage_ratio) / len(s.coverage_ratio)
    print(f"mean coverage:      {_fmt(coverage)}")
    print(f"mean step tv:       {_fmt(s.mean_step_tv)}")
    print(f"wrote {out / TRACE_FILENAME}, {out / SUMMARY_FILENAME}, {out / WORLD_FILENAME}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    configs = [load_config(p) for p in args.configs]
    rows, _ = compare_experiments(configs, seed=args.seed)
    table = _format_table(
        ["config", "policy", "final_mean_loss", "coverage_variance", "mean_step_tv"],
        [
            [r.label, r.variant, _fmt(r.final_mean_loss), _fmt(r.coverage_variance), _fmt(r.mean_step_tv)]
            for r in rows
        ],
    )
    print(table)
    return 0


def _load_grid(path: str) -> dict:
    obj = load_json(path, "grid")
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: grid must be an object of parameter -> values")
    return obj


def _param_label(params: tuple[tuple[str, float], ...]) -> str:
    return " ".join(f"{k}={v}" for k, v in params)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = _load_grid(args.grid)
    result = sweep_experiments(cfg, grid, seeds=args.seeds)
    for params, reason in result.skipped:
        print(f"warning: skipped grid point ({_param_label(params)}): {reason}", file=sys.stderr)

    print(
        _format_table(
            ["point", "seed", "final_mean_loss", "coverage_variance", "mean_step_tv"],
            [
                [_param_label(r.params), str(r.seed), _fmt(r.final_mean_loss), _fmt(r.coverage_variance), _fmt(r.mean_step_tv)]
                for r in result.rows
            ],
        )
    )
    print()
    print(
        _format_table(
            ["point", "runs", "mean_final_loss", "std_final_loss"],
            [
                [_param_label(a.params), str(a.runs), _fmt(a.mean_final_loss), _fmt(a.std_final_loss)]
                for a in result.aggregates
            ],
        )
    )
    if result.skipped:
        print()
        print(
            _format_table(
                ["skipped_point", "reason"],
                [[_param_label(p), reason] for p, reason in result.skipped],
            )
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    print(export_plot_data(args.trace, args.kind), end="")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    resolved = cfg.resolve()
    print(
        f"ok: {resolved.registry.num_arms} arms, {resolved.bandit.total_steps} steps, "
        f"policy {cfg.policy.variant} ({cfg.policy.reward_kind}), "
        f"config {resolved.config_hash}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditmix",
        description="Adaptive data-mixture scheduling experiments on a synthetic trainer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment and write its trace")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several policies on one shared world")
    p_cmp.add_argument("--configs", required=True, nargs="+", help="config files to compare")
    p_cmp.add_argument("--seed", required=True, type=int, help="shared seed for every run")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="grid-sweep hyperparameters over several seeds")
    p_sweep.add_argument("--config", required=True, help="base experiment config (JSON)")
    p_sweep.add_argument("--grid", required=True, help="grid file (JSON object of lists)")
    p_sweep.add_argument("--seeds", required=True, type=int, help="number of consecutive seeds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_exp = sub.add_parser("export", help="render a trace series as CSV on stdout")
    p_exp.add_argument("--trace", required=True, help="trace file to read")
    p_exp.add_argument("--kind", required=True, choices=EXPORT_KINDS, help="series to export")
    p_exp.set_defaults(func=cmd_export)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True, help="experiment config (JSON)")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (export | head).  Exit quietly like cat
        # would; reopening stdout keeps the interpreter from complaining
        # about a failed flush at shutdown.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
