"""In-memory span tracer that wraps functions of already-imported modules.

A span records its name, start, end, parent span and the run it belongs to.
Spans stay in memory until the run ends. Wrapping happens from outside the
program: `Tracer.wrap` replaces a module attribute with a timing wrapper and
`Tracer.restore` puts every original back. A wrap target that no longer
exists (after a rename, say) is recorded as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

# A span as written out: (name, start, end, parent index or None, run id).
Span = tuple[str, float, float, "int | None", str]

AfterHook = Callable[[dict[str, Any], Any], None]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.absent: list[str] = []
        self.errors: Counter[tuple[str, str]] = Counter()
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self._spans))
        self._spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module_name: str, attr: str, span_name: str, after: AfterHook | None = None) -> None:
        """Time every call of module.attr as span_name, or record span_name as absent.

        `after` receives the call's arguments by parameter name and its result,
        outside the timed interval.
        """
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(span_name)
            return
        signature = inspect.signature(original) if after is not None else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self.errors[(span_name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(rec)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans requested while a span is still open")
        return [tuple(s) for s in self._spans]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def subtree(spans: Sequence[Span], root: int) -> list[int]:
    """Indices of root and every span below it."""
    inside = {root}
    for i, span in enumerate(spans):
        if span[3] in inside:
            inside.add(i)
    return sorted(inside)
