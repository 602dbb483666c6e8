"""Span recorder for the traced run, installed from outside the package.

`install` wraps every public function of the six quandlekit modules in each
quandlekit namespace that binds it: `from .x import y` copies the binding, so
`profile`, for example, is reached through `structure`, `shq`, `search` and
`cli`, and each of those names must point at the same wrapper.  Functions
reached through a class (`validate_quandle` from `QuandleTable.__init__`) are
covered because the class looks them up in its module's globals.

A span is [name, start, end, parent index, op id].  Spans stay in memory
and are written once, after the run.  A layer's self time is its spans'
durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "core", "construct", "structure", "shq", "search")

# Self-time metrics: metric -> span names summed (a bare module name means
# every function of that module).
SELF_TIMES = {
    "core.validate_s": ("core.validate_quandle",),
    "core.parse_s": ("core.parse_qdl", "core.read_qdl"),
    "core.format_s": ("core.format_qdl", "core.write_qdl"),
    "core.translation_s": ("core.right_translation", "core.translations"),
    "core.self_s": ("core",),
    "construct.self_s": ("construct",),
    "structure.profile_s": ("structure.profile",),
    "structure.connectivity_s": ("structure.is_connected", "structure.orbits", "structure.is_latin"),
    "structure.enumerate_s": ("structure.enumerate_subquandles",),
    "structure.subtable_s": ("structure.subtable",),
    "structure.isomorphic_s": ("structure.are_isomorphic",),
    "structure.self_s": ("structure",),
    "shq.classify_s": ("shq.classify_shq",),
    "shq.relabel_s": ("shq.canonical_relabel",),
    "shq.verify_s": ("shq.verify_main_theorem",),
    "shq.fix_block_s": ("shq.fix_block_report", "shq.fix_blocks"),
    "shq.self_s": ("shq",),
    "search.self_s": ("search",),
    "cli.self_s": ("cli",),
}

CALLS = {
    "core.validate_calls": "core.validate_quandle",
    "core.translation_calls": "core.right_translation",
    "structure.profile_calls": "structure.profile",
    "structure.subtable_calls": "structure.subtable",
    "structure.isomorphic_calls": "structure.are_isomorphic",
}


def _count_validate(counts, args, result):
    counts["core.validate_cells"] += len(args[0]) ** 2


def _count_subsets(counts, args, result):
    counts["structure.subsets"] += len(result.entries)


def _count_match(counts, args, result):
    counts["structure.isomorphic_matches"] += result is not None


# Counts reported as they are: from the hooks below, and from the client
# (output bytes, and the search stats of each `--json` report).
COUNTS = (
    "core.validate_cells", "structure.subsets", "cli.out_bytes",
    "search.raw_candidates", "search.unary_survivors", "search.nodes", "search.hits",
)

COUNT_HOOKS = {
    "core.validate_quandle": _count_validate,
    "structure.enumerate_subquandles": _count_subsets,
    "structure.are_isomorphic": _count_match,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.counts: Counter = Counter()

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def op_span(self, op_id: str, kind: str):
        """Root span of one benchmark op; every span inside carries op_id."""
        self.op = op_id
        span = self._open(f"bench.{kind}")
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self.stack.pop()
            self.op = None

    def wrap(self, fn, name: str):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions; returns how many functions were wrapped."""
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"quandlekit.{short}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(obj, f"{short}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname == "quandlekit" or modname.startswith("quandlekit."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
        return len(wrappers)

    def layer_metrics(self) -> dict[str, float]:
        """Self times per SELF_TIMES entry, call counts and hook counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(
                t for name, t in self_s.items()
                if name in names or name.split(".")[0] in names
            )
        for metric, name in CALLS.items():
            out[metric] = calls[name]
        out.update((name, self.counts[name]) for name in COUNTS)
        iso = calls["structure.are_isomorphic"]
        out["structure.isomorphic_yield"] = (
            self.counts["structure.isomorphic_matches"] / iso if iso else 0.0
        )
        raw = self.counts["search.raw_candidates"]
        out["search.unary_yield"] = self.counts["search.unary_survivors"] / raw if raw else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
