"""In-memory span tracing around the public functions of compsim's modules.

A ``Tracer`` replaces chosen module attributes with wrappers that record one
span per call: name, start, end, parent span and run id. compsim resolves
every hot call through a module attribute or module global at call time, so
replacing the attribute is enough to see it; nothing in ``src/`` is edited.
Spans stay in memory, in columns of plain integers so that holding hundreds
of thousands of them adds no work for the garbage collector, until the
benchmark ends.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

COLUMNS = ("name", "start_ns", "end_ns", "parent", "run")


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    errors: int = 0


def new_log() -> dict:
    """Empty span log: ``names`` plus one list per column; ``name`` indexes
    ``names`` and ``parent`` is a span index, -1 for a root span."""
    return {"names": [], **{c: [] for c in COLUMNS}}


class Tracer:
    """Wraps module attributes while installed; restores them on ``restore``."""

    def __init__(self, targets):
        # targets: iterable of (module, attribute name, observe-or-None)
        self.targets = list(targets)
        self.log = new_log()
        self.errors: Counter = Counter()  # span index -> raised exceptions
        self.observed: defaultdict = defaultdict(list)  # name -> [(run, observe())]
        self.run = 0
        self._stack: list[int] = []
        self._saved: list = []

    def install(self, run: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.run = run
        for module, attr, observe in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, original, observe))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, original, observe):
        names = self.log["names"]
        if name not in names:
            names.append(name)
        name_id = names.index(name)
        col_name, starts, ends, parents, runs = (self.log[c] for c in COLUMNS)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(starts)
            col_name.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            except Exception:
                self.errors[index] += 1
                raise
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                self.observed[name].append((self.run, observe(result)))
            return result

        return wrapper

    def stats(self, runs) -> dict[str, SpanStats]:
        """Per-name call counts, total and self time over the given run ids."""
        return self_times(self.log, set(runs), self.errors)


def self_times(log: dict, runs=None, errors=None) -> dict[str, SpanStats]:
    """Aggregate spans by name; self time is duration minus direct children.

    Calls on one thread nest strictly, so direct children never overlap and
    their durations can be summed.
    """
    names, starts, ends, parents, span_runs = (log[c] for c in ("names",) + COLUMNS[1:])
    child_ns = [0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            child_ns[parent] += ends[index] - starts[index]
    out: dict[str, SpanStats] = {}
    for index, name_id in enumerate(log["name"]):
        if runs is not None and span_runs[index] not in runs:
            continue
        entry = out.setdefault(names[name_id], SpanStats())
        duration = ends[index] - starts[index]
        entry.calls += 1
        entry.total_ns += duration
        entry.self_ns += duration - child_ns[index]
        if errors:
            entry.errors += errors.get(index, 0)
    return out
