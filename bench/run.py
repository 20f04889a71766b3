"""banditmix benchmark: run one workload at one seed and print its metrics.

    python3 bench/run.py --workload tulu_bandit --seed 0 --seconds 30 --trace 0

Runs from any directory; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced pass.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, so a run uses one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("tulu_bandit", "tulu_uniform_io", "seed_sweep")

# Runs at this seed must reproduce the digests in reference.json.
REFERENCE_SEED = 0
# Largest share of a traced iteration's wall time spent outside every
# traced call, in the benchmark's own glue; more means a layer is untraced.
BENCH_SELF_SHARE_LIMIT = 0.01
# The traced pass writes every span here, under the root, at its end.
SPANS_DIR = ".benchmarks"


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "banditmix" / "__init__.py").is_file():
        die(f"no program to measure: {SRC / 'banditmix'} is missing")
    sys.path.insert(0, str(SRC))
    import banditmix

    if Path(banditmix.__file__).resolve().parent != (SRC / "banditmix").resolve():
        die(f"imported banditmix from {banditmix.__file__}, not from {SRC}")
    import numpy

    return banditmix, numpy


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(name: str) -> str:
    if "_s_p" in name:
        return "s"
    if name.endswith("steps_per_s"):
        return "steps/s"
    if name.endswith("runs_per_s"):
        return "runs/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_per_step"):
        return "B/step"
    if name.endswith((".calls", ".probes")):
        return "count"
    if name.endswith("us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def low(values: list[float]) -> float:
    """The 10th percentile: a fast sample that one lucky outlier cannot set."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def p90(values: list[float]) -> float | None:
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


class Bench:
    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, int] = {}

    def once(self, seed: int, tracer=None, run_id: int = -1, digest: str | None = None):
        """One checked iteration, or None if it raised.

        A failed check, or a digest other than ``digest`` when one is given,
        counts the iteration's runs as failed.
        """
        self.attempted += self.wl.runs_per_iteration
        try:
            if tracer is None:
                raw = self.wl.iterate(seed)
            else:
                tracer.run_id = run_id
                with tracer.patched(), tracer.span("bench.iteration"):
                    raw = self.wl.iterate(seed)
            outcome = self.wl.check(raw)
            # Keep only the timings: holding every run's records would grow
            # the heap, and the garbage collector's work, over the window.
            raw.results.clear()
            raw.export_text.clear()
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.runs_per_iteration
            self.problems.append(f"seed {seed}: iteration raised")
            return None
        problems = list(outcome.problems)
        if digest is not None and outcome.digest != digest:
            problems.append(f"digest {outcome.digest} != expected {digest}")
        if problems:
            self.failed += self.wl.runs_per_iteration
            self.problems += [f"seed {seed}: {p}" for p in problems]
        return raw, outcome

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def reference_check(self) -> str:
        """Warm-up iteration at the reference seed; its digest must match."""
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        done = self.once(REFERENCE_SEED, digest=reference.get(self.wl.name, "none recorded"))
        return done[1].digest if done else "none"

    def window(self, step) -> None:
        """Call ``step(i)`` for i = 0, 1, ... until the measuring time is spent."""
        t0 = perf_counter()
        i = 0
        while i == 0 or perf_counter() - t0 < self.seconds:
            step(i)
            i += 1

    def end_to_end(self) -> tuple[dict[str, float], dict[str, float]]:
        wl = self.wl
        done: list = []
        self.window(lambda i: done.append(self.once(self.seed + i * wl.seed_stride)))
        completed = [d for d in done if d is not None]
        if not completed:
            die("every iteration failed")

        # Peak memory in a pass of its own, which is also the repeat of the
        # first iteration: both must produce the same outcome.
        first = done[0]
        tracemalloc.start()
        try:
            repeat = self.once(self.seed, digest=first[1].digest if first else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.expect(
            first is not None
            and repeat is not None
            and repeat[1].artifact_bytes == first[1].artifact_bytes,
            f"seed {self.seed}: the repeat wrote other bytes",
        )

        run_s = [t for raw, _ in completed for t in raw.run_s]
        walls = [raw.wall_s for raw, _ in completed]
        # Set-up per run of each iteration; a sweep's set-ups differ by run.
        setups = [statistics.fmean(raw.setup_s) for raw, _ in completed]
        # Fast samples rather than medians: every run of a workload does the
        # same work, but co-tenants on a shared host slow the core in bursts
        # of seconds, so the fast samples track the program and the median
        # tracks the neighbours.
        metrics = {
            "steps_per_s": wl.steps_per_run / min(run_s),
            "runs_per_s": wl.runs_per_iteration / min(walls),
            "setup_s": low(setups),
            "peak_mem_mb": peak / 1e6,
        }
        self.samples = {"runs": len(run_s), "iterations": len(walls)}
        extras = {
            "run_s_p50": statistics.median(run_s),
            "setup_s_p50": statistics.median(setups),
            "fail_ratio": self.failed / self.attempted,
        }
        if p90(run_s) is not None:
            extras["run_s_p90"] = p90(run_s)
        if wl.name == "tulu_uniform_io":
            extras["export_s"] = statistics.median(raw.export_s for raw, _ in completed)
            extras["artifact_mb"] = completed[0][1].artifact_bytes / 1e6
        return metrics, extras

    def per_layer(self, spans_out: Path) -> tuple[dict[str, float], dict[str, float]]:
        from spans import Tracer, layer_metrics

        wl = self.wl
        tracer = Tracer()
        plain: list = []
        traced: list = []

        def step(i: int) -> None:
            # Each seed runs untraced, then traced: tracing must not change it.
            seed = self.seed + i * wl.seed_stride
            a = self.once(seed)
            plain.append(a)
            traced.append(self.once(seed, tracer, run_id=i, digest=a[1].digest if a else None))

        self.window(step)
        first = traced[0]
        repeat_id = len(traced)
        repeat = self.once(self.seed, tracer, run_id=repeat_id, digest=first[1].digest if first else None)
        self.expect(
            tracer.run_counts(repeat_id) == tracer.run_counts(0),
            f"seed {self.seed}: call counts differ between repeats",
        )
        self.expect(
            repeat is not None
            and first is not None
            and repeat[1].trace_bytes == first[1].trace_bytes
            and repeat[1].artifact_bytes == first[1].artifact_bytes,
            f"seed {self.seed}: bytes written differ between repeats",
        )
        self.problems += tracer.check_nesting()
        metrics = layer_metrics(tracer, wl.runs_per_iteration)
        self.expect(
            metrics["bench.self_share"] < BENCH_SELF_SHARE_LIMIT,
            f"{metrics['bench.self_share']:.3f} of the traced time lies outside every traced layer",
        )
        spans_out.parent.mkdir(exist_ok=True)
        tracer.write(spans_out)
        print(f"# spans: {len(tracer.start)} written to {spans_out.relative_to(ROOT)}")
        if tracer.missing:
            print(f"# not traced (absent): {', '.join(tracer.missing)}")

        plain_ok = [d for d in plain if d is not None]
        traced_ok = [d for d in traced if d is not None]
        if not plain_ok or not traced_ok or first is None:
            die("every iteration failed")
        plain_s = [t for raw, _ in plain_ok for t in raw.run_s]
        traced_s = [t for raw, _ in traced_ok for t in raw.run_s]
        untraced_sps = wl.steps_per_run / min(plain_s)
        traced_sps = wl.steps_per_run / min(traced_s)
        metrics.update(
            {
                "trace.bytes_per_step": first[1].trace_bytes / wl.steps_per_run,
                "bench.untraced_steps_per_s": untraced_sps,
                "bench.traced_steps_per_s": traced_sps,
                "bench.trace_overhead": untraced_sps / traced_sps - 1.0,
                "bench.run_s_p50": statistics.median(plain_s),
                "bench.run_s_p90": p90(plain_s) or 0.0,
                "bench.export_s": statistics.median(raw.export_s for raw, _ in plain_ok),
                "bench.artifact_mb": first[1].artifact_bytes / 1e6,
            }
        )
        self.samples = {"untraced runs": len(plain_s), "traced runs": len(traced_s)}
        return metrics, {"fail_ratio": self.failed / self.attempted}


def main() -> int:
    parser = argparse.ArgumentParser(description="banditmix benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    if args.seconds <= 0:
        die("--seconds must be > 0")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    banditmix, numpy = import_program()
    from workloads import WORKLOADS

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "banditmix": banditmix.__version__,
        "commit": git_commit(),
    }
    print("# env " + json.dumps(env))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload]()
        wl.prepare(workdir)
        bench = Bench(wl, args.seed, args.seconds)
        digest = bench.reference_check()
        if args.trace:
            metrics, extras = bench.per_layer(ROOT / SPANS_DIR / f"spans-{args.workload}-{args.seed}.tsv")
        else:
            metrics, extras = bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"# reference digest (seed {REFERENCE_SEED}): {digest}")
    print(f"# samples: {json.dumps(bench.samples)}")
    for name, value in {**metrics, **extras}.items():
        print(f"{name:40s} {value:>16.9g} {unit_of(name)}")
    for problem in bench.problems:
        print(f"# FAILED CHECK: {problem}")

    out = {}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in metrics:
            die(f"metric {m['name']} is declared but not measured")
        if unit_of(m["name"]) != m["unit"]:
            die(f"metric {m['name']} is declared in {m['unit']}, measured in {unit_of(m['name'])}")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
