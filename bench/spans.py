"""Span tracing from outside the package, for the benchmark's traced pass.

``Tracer.patched()`` swaps each entry of ``PATCHES`` for a wrapper that
records a span (name, start, end, parent, run id) around the call, and puts
every original back on exit.  Spans live in flat arrays until the benchmark
ends; ``layer_metrics`` derives self times and per-layer figures from them.
The program runs on one thread with no queue, so no layer ever waits and the
spans carry no wait times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.iteration"

# (module, attribute path, span name), looked up when the wrappers go in, so
# that a name the program no longer has is reported as not traced.
# Module-level functions are patched in the namespace that calls them, since
# ``runner`` and ``cli`` import them by name.
PATCHES = [
    ("banditmix.config", "load_config", "config.load_config"),
    ("banditmix.cli", "load_config", "config.load_config"),
    ("banditmix.config", "ExperimentConfig.resolve", "config.resolve"),
    ("banditmix.config", "RegistrySection.build", "registry.build"),
    ("banditmix.runner", "sample_batch", "mixture.sample_batch"),
    ("banditmix.policies", "mixture_probs", "mixture.mixture_probs"),
    ("banditmix.policies", "MixturePolicy.apply_reward_round", "policies.apply_reward_round"),
    ("banditmix.runner", "lookahead_round", "rewards.lookahead_round"),
    ("banditmix.runner", "build_world", "simworld.build_world"),
    ("banditmix.simworld", "SimWorld.train_step", "simworld.train_step"),
    ("banditmix.simworld", "SimWorld.virtual_step", "simworld.virtual_step"),
    ("banditmix.simworld", "SimWorld.loss", "simworld.loss"),
    ("banditmix.simworld", "SimWorld.entropy", "simworld.entropy"),
    ("banditmix.simworld", "SimWorld.snapshot", "simworld.snapshot"),
    ("banditmix.simworld", "SimWorld.restore", "simworld.restore"),
    ("banditmix.trace", "TraceWriter.__enter__", "trace.open"),
    ("banditmix.trace", "TraceWriter.write", "trace.write"),
    ("banditmix.runner", "summarize", "trace.summarize"),
    ("banditmix.runner", "save_world_checkpoint", "trace.checkpoint"),
    ("banditmix.cli", "read_trace", "trace.read_trace"),
    ("banditmix.cli", "export_plot_data", "trace.export_plot_data"),
    ("banditmix.runner", "run_experiment", "runner.run_experiment"),
    ("banditmix.cli", "run_experiment", "runner.run_experiment"),
    ("banditmix.runner", "sweep_experiments", "runner.sweep_experiments"),
    ("banditmix.cli", "main", "cli.main"),
]

MODULES = ("config", "registry", "mixture", "policies", "rewards", "simworld", "trace", "runner", "cli")

_ABSENT = object()


def lookup(module: str, path: str):
    """The owner of ``module``.``path`` and the function there, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.run_id = -1
        self.missing: list[str] = []

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _open(self, code: int) -> int:
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self.code(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, fn, name: str):
        code = self.code(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(code)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers; restore the originals on exit."""
        saved = []
        try:
            for module, path, name in PATCHES:
                found = lookup(module, path)
                if found is None:
                    if f"{module}.{path}" not in self.missing:
                        self.missing.append(f"{module}.{path}")
                    continue
                owner, attr, fn = found
                saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
                setattr(owner, attr, self._wrap(fn, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
        for owner, attr, original in saved:
            if original is not _ABSENT and vars(owner)[attr] is not original:
                raise RuntimeError(f"failed to restore {owner}.{attr}")

    def arrays(self):
        """Spans as numpy arrays: name code, parent, run, start, end, self time."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        run = np.array(self.run, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return name, parent, run, start, end, dur - child

    def check_nesting(self) -> list[str]:
        """Every span is closed and lies inside its parent's interval."""
        name, parent, _, start, end, _ = self.arrays()
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans left open")
        if np.any(end < start):
            problems.append("a span ends before it starts")
        has_parent = parent >= 0
        p = parent[has_parent]
        if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
            problems.append("a span lies outside its parent")
        if np.any(name[~has_parent] != self.code(ROOT_SPAN)):
            problems.append("a span outside any benchmark iteration")
        return problems

    def write(self, path) -> None:
        """Write every span as one tab-separated line: run, name, parent, start, end."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tname\tparent\tstart_s\tend_s\n")
            fh.writelines(
                f"{r}\t{names[n]}\t{p}\t{a!r}\t{b!r}\n"
                for r, n, p, a, b in zip(self.run, self.name, self.parent, self.start, self.end)
            )

    def run_counts(self, run_id: int) -> dict[str, int]:
        """Calls per span name within one traced iteration."""
        name, _, run, *_ = self.arrays()
        counts = np.bincount(name[run == run_id], minlength=len(self.names))
        return {self.names[c]: int(n) for c, n in enumerate(counts) if n}


def layer_metrics(tracer: Tracer, runs_per_iteration: int) -> dict[str, float]:
    """Per-layer figures over every traced iteration.

    Counts are per run; ``.us`` and ``.s`` are mean times per call (self time
    for ``self_`` names); shares are fractions of the traced iterations' wall
    time.  Self times of nested spans add up to the root span's duration by
    construction, so the ``<module>.self_share`` values sum to 1.
    """
    name, _, _, start, end, self_t = tracer.arrays()
    dur = end - start
    codes = len(tracer.names)
    calls = np.bincount(name, minlength=codes)
    total = np.bincount(name, weights=dur, minlength=codes)
    self_total = np.bincount(name, weights=self_t, minlength=codes)
    root = name == tracer.code(ROOT_SPAN)
    wall = float(dur[root].sum())
    runs = int(root.sum()) * runs_per_iteration

    def totals(span: str) -> tuple[int, float, float]:
        c = tracer._codes.get(span)
        return (0, 0.0, 0.0) if c is None else (int(calls[c]), float(total[c]), float(self_total[c]))

    def get(span: str, what: str) -> float:
        n, t, t_self = totals(span)
        if what.startswith("self_"):
            what, t = what[5:], t_self
        if what == "calls":
            return n / runs
        if what == "share":
            return t / wall
        if n == 0:
            return 0.0
        return t / n * (1e6 if what == "us" else 1.0)

    m: dict[str, float] = {}
    for span, whats in (
        ("rewards.lookahead_round", ("calls", "self_us", "share")),
        ("simworld.train_step", ("calls", "us", "share")),
        ("simworld.virtual_step", ("calls", "us")),
        ("simworld.loss", ("calls", "us")),
        ("simworld.build_world", ("s",)),
        ("mixture.sample_batch", ("calls", "us", "share")),
        ("mixture.mixture_probs", ("calls", "us")),
        ("policies.apply_reward_round", ("calls", "us")),
        ("config.load_config", ("s",)),
        ("config.resolve", ("s",)),
        ("registry.build", ("s",)),
        ("trace.write", ("calls", "us", "share")),
        ("trace.read_trace", ("s",)),
        ("trace.export_plot_data", ("s",)),
        ("trace.summarize", ("s",)),
        ("trace.checkpoint", ("s",)),
        ("runner.run_experiment", ("self_share",)),
        ("runner.sweep_experiments", ("self_s",)),
        ("cli.main", ("self_s",)),
    ):
        for what in whats:
            m[f"{span}.{what}"] = get(span, what)

    probes = get("simworld.virtual_step", "calls")
    train = get("simworld.train_step", "calls")
    m["rewards.probes"] = probes
    m["rewards.virtual_per_train"] = probes / train if train else 0.0
    snaps, t_snap, _ = totals("simworld.snapshot")
    _, t_restore, _ = totals("simworld.restore")
    m["simworld.snapshot_restore.us"] = (t_snap + t_restore) / snaps * 1e6 if snaps else 0.0
    layer_self = {mod: 0.0 for mod in (*MODULES, "bench")}
    for c, span in enumerate(tracer.names):
        layer_self[span.split(".")[0]] += float(self_total[c])
    for mod, t in layer_self.items():
        m[f"{mod}.self_share"] = t / wall
    return m
