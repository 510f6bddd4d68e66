"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public module-level functions of the linctx layer
modules, plus the private ones named in PRIVATE.  The time of an
unwrapped private helper counts as self time of the function that called
it, which is usually the public entry point of its layer.

`from .ctx import select` copies the function object into the importing
module, so wrapping `ctx.select` alone would miss the calls made from
`typecheck`, `translate`, `ctxspec` and `suites`.  Each wrapper is
therefore rebound in every linctx module namespace that holds the
original.  A call that reaches a function through a reference taken
before installation (a default argument, a closure, a list built earlier)
bypasses the wrapper; callers that hold such references map them through
`Tracer.wrapped`.

Self time comes from a span stack: every open call keeps the time its
children took, and its duration minus that is its self time.  The hot
primitives run millions of times, so calls are aggregated in memory per
function; only the spans opened with `Tracer.span` (one per check) are
kept as records.  `Tracer.dump` writes everything out once, at exit.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "linctx"
LAYERS = ("ctx", "terms", "typecheck", "translate", "ctxspec", "suites", "report")

# Private functions traced on their own: the relational typing checker,
# which the equivalence check calls directly, and the permutation table
# that only the core suite builds.
PRIVATE = frozenset({"typecheck._linear_types", "suites._perm_rel_fast_table"})

# Functions whose result is classified: the share of calls for which the
# predicate holds is a useful-work ratio of the layer.
OUTCOMES = {
    "ctxspec.align_mset": lambda result: result is not None,
    "ctxspec.check_list_pred": bool,
    "typecheck.ml_type": lambda result: result is not None,
}

# Functions whose result is a collection of generated instances.
SIZED = frozenset({"ctxspec.generate_list_instances", "ctxspec.generate_mset_instances"})


class FnStats:
    """Aggregate of every call of one wrapped function."""

    __slots__ = ("calls", "self_s", "hits", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0       # calls whose result satisfied the OUTCOMES predicate
        self.items = 0      # instances returned, for SIZED functions

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _counted(instances, stats: FnStats):
    for instance in instances:
        stats.items += 1
        yield instance


class Tracer:
    def __init__(self) -> None:
        self.stack = [0.0]  # child time of each open call; index 0 is the root
        self.stats: dict = {}
        self.spans: list = []  # [name, start, end]
        self._wrappers: dict = {}
        self._rebound: list = []
        self.skipped: list = []

    def wrapped(self, fn):
        """The installed wrapper of fn, or fn itself."""
        return self._wrappers.get(fn, fn)

    def _wrap(self, key: str, fn):
        stats = self.stats[key] = FnStats()
        stack = self.stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(key)
        sized = key in SIZED

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack[-2] += duration
                stats.calls += 1
                stats.self_s += duration - stack.pop()
            if outcome is not None and outcome(result):
                stats.hits += 1
            if sized:
                if hasattr(result, "__len__"):
                    stats.items += len(result)
                else:
                    result = _counted(result, stats)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                key = f"{layer}.{name}"
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and key not in PRIVATE:
                    continue
                if inspect.isgeneratorfunction(obj):
                    # Its body runs while the caller iterates, outside any span.
                    self.skipped.append(key)
                    continue
                self._wrappers[obj] = self._wrap(key, obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    setattr(module, attr, self._wrappers[obj])
                    self._rebound.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._rebound):
            setattr(module, attr, obj)
        self._rebound.clear()

    @contextmanager
    def span(self, name: str):
        """A recorded span around calls into the layers."""
        self.stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans.append([name, start, end])
            self.stack[-2] += end - start
            self.stack.pop()

    def summary(self) -> dict:
        return {key: stats.as_dict() for key, stats in self.stats.items()}

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        record = {
            "functions": self.summary(),
            "spans": [
                {"name": n, "start_s": s - origin, "end_s": e - origin}
                for n, s, e in self.spans
            ],
            "rebound": sorted(f"{m.__name__}.{a}" for m, a, _ in self._rebound),
            "skipped_generators": self.skipped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True))
