"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of the fence: a declarative
table of ``(owner, attribute, span name)`` rows is applied by replacing
``owner.attribute`` with a ``*args, **kwargs`` wrapper, so ``repro`` itself
carries no instrumentation and a signature change cannot break the table.
``owner`` is the module or class *where the name is looked up at call time*
(``from x import f`` binds ``f`` in the importing module, so that module is
the owner), written ``"package.module"`` or ``"package.module:Class"``.

Spans nest.  A span's *self time* is its duration minus the time covered by
its direct children, so self times of a subtree sum to the subtree root's
duration by construction, and a recursive or re-entrant span is never
counted twice.  Spans named :data:`ROOT` mark the workload's timed region;
the account keeps what happened inside a root apart from what happened
outside (set-up, probes).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

#: Name of the span that brackets a workload's timed region.
ROOT = "root"


class SpanRow(NamedTuple):
    """One row of a span table.  ``ok`` optionally classifies the wrapped
    call's return value as a useful outcome (ratio metrics)."""

    owner: str
    attribute: str
    span: str
    ok: Optional[Callable[[object], bool]] = None


class LayerTotals:
    """What one span name added up to in one account scope."""

    __slots__ = ("self_s", "total_s", "calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        #: Inclusive time of the outermost spans of this name only (a span
        #: nested under one of the same name is already inside it).
        self.total_s = 0.0
        self.calls = 0


class Account(NamedTuple):
    """Per-name totals inside the root spans and outside them."""

    inside: Dict[str, LayerTotals]
    outside: Dict[str, LayerTotals]
    root_s: float
    root_self_s: float
    roots: int

    @property
    def residual_share(self) -> float:
        """Share of the timed region no child span accounts for."""
        return self.root_self_s / self.root_s if self.root_s > 0 else 0.0


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    return target


class SpanRecorder:
    """Records nested spans in memory; written out once, at the end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: ``(name, start, end, parent index or -1)`` per span, in start order.
        self.records: List[tuple] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._installed: set = set()
        #: span name -> [useful outcomes, classified calls]
        self.outcomes: Dict[str, List[int]] = {}
        #: Rows whose owner or attribute did not resolve.
        self.missing: List[SpanRow] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of benchmark code."""
        records, stack = self.records, self._stack
        index = len(records)
        records.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = self._clock()
        try:
            yield
        finally:
            records[index] = (name, start, self._clock(), parent)
            stack.pop()

    def wrap(
        self,
        function: Callable,
        name: str,
        ok: Optional[Callable[[object], bool]] = None,
    ) -> Callable:
        """A recorder around ``function`` that accepts any signature."""
        records, stack, clock = self.records, self._stack, self._clock

        # The body of :meth:`span`, repeated on purpose: sharing it through
        # helper calls costs 0.15 us on a 0.6 us span, and live-heal-100
        # records half a million spans in a five-second region.  A change
        # to the record format goes in both places.
        def recorded(*args, **kwargs):
            index = len(records)
            records.append(None)  # children need the index before the end
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                records[index] = (name, start, clock(), parent)
                stack.pop()

        if ok is None:
            return recorded
        tally = self.outcomes.setdefault(name, [0, 0])

        def classified(*args, **kwargs):
            result = recorded(*args, **kwargs)
            tally[1] += 1
            if ok(result):
                tally[0] += 1
            return result

        return classified

    def install(self, table: Sequence[SpanRow]) -> None:
        """Apply a span table.  A row that does not resolve is listed in
        :attr:`missing` and warned about; it never raises."""
        for row in table:
            try:
                owner = _resolve(row.owner)
                original = getattr(owner, row.attribute)
            except (ImportError, AttributeError) as error:
                self.missing.append(row)
                print(
                    f"warning: span {row.span!r} not recorded: {error}",
                    file=sys.stderr,
                )
                continue
            setattr(owner, row.attribute, self.wrap(original, row.span, row.ok))
            self._patched.append((owner, row.attribute, original))
            self._installed.add(row.span)

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def missing_spans(self) -> List[str]:
        """Span names that lost a row and that no surviving row produces:
        a metric read from such a span would be a silent zero."""
        return sorted({row.span for row in self.missing} - self._installed)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def account(self) -> Account:
        """Fold the recorded spans into per-name self/total times."""
        records = self.records
        child_s = [0.0] * len(records)
        in_root = [False] * len(records)
        inside: Dict[str, LayerTotals] = {}
        outside: Dict[str, LayerTotals] = {}
        root_s = root_self_s = 0.0
        roots = 0
        for index, (name, start, end, parent) in enumerate(records):
            if parent >= 0:
                child_s[parent] += end - start
                in_root[index] = in_root[parent] or records[parent][0] == ROOT
        for index, (name, start, end, parent) in enumerate(records):
            duration = end - start
            self_s = duration - child_s[index]
            if name == ROOT and not in_root[index]:
                root_s += duration
                root_self_s += self_s
                roots += 1
                continue
            scope = inside if in_root[index] else outside
            totals = scope.get(name)
            if totals is None:
                totals = scope[name] = LayerTotals()
            totals.self_s += self_s
            totals.calls += 1
            ancestor = parent
            while ancestor >= 0 and records[ancestor][0] != name:
                ancestor = records[ancestor][3]
            if ancestor < 0:
                totals.total_s += duration
        return Account(inside, outside, root_s, root_self_s, roots)

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, parent id, name, start and end (seconds
        on the recorder's clock)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.records):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent if parent >= 0 else None,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """The untraced run's recorder: ``span`` does nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield
