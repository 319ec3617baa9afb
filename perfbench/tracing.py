"""In-memory spans around the public calls into each zslp layer.

Nothing inside ``src/`` is instrumented. ``Tracer.installed()`` replaces
the names the CLI module looked up at import (and ``encode_slp`` in
``repair``, which ``compression_report`` calls) with timing wrappers and
restores the originals on exit. A span records its name, start, end, the
operation it belongs to and the span that caused it; its self time is its
busy time minus that of its children, so the self times of one operation
add up to the operation's traced latency.

Two calls are not one contiguous interval and get one aggregated span per
use: the ``ZslpReader`` rule iterator and ``iter_expand`` are busy only
while their ``next()`` runs, because the consumer's work (saturation,
output writes) is interleaved with theirs.

``run_count`` is split from outside through its documented contract that
``read_axiom`` is called only after the last rule: the time before that
call is ``engine.saturate`` (with the rule decoding as its child span) and
the time after it returns is ``engine.fold``.

Every time here, and every latency the harness reports, is CPU time of the
measuring process (``clock``): on a shared machine the time the process
spends descheduled would otherwise land in whichever call was running.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import process_time as clock


class Span:
    __slots__ = ("id", "op", "parent", "name", "start", "end", "busy", "child", "attrs")

    def __init__(self, span_id, op, parent, name, start, attrs):
        self.id = span_id
        self.op = op
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.busy = 0.0
        self.child = 0.0
        self.attrs = attrs

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def record(self) -> dict:
        return {
            "op": self.op,
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "busy": self.busy,
            "self": self.self_time,
            **self.attrs,
        }


class Tracer:
    """Spans of one process; a span opened with nothing open starts an operation."""

    def __init__(self, op_prefix: str = ""):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._prefix = op_prefix
        self._ops = 0
        self._phase: Span | None = None  # open engine.saturate / engine.fold

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._ops += 1
            op = f"{self._prefix}{self._ops}"
        else:
            op = parent.op
        span = Span(len(self.spans), op, parent, name, clock(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        now = clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = now
        span.busy = now - span.start
        if span.parent is not None:
            span.parent.child += span.busy

    @contextmanager
    def span(self, name: str, **attrs):
        opened = self.begin(name, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def timed_iter(self, name: str, iterator):
        """Yield from the iterator, charging only the time inside ``next()``."""
        span = None
        while True:
            start = clock()
            try:
                item = next(iterator)
                done = False
            except StopIteration:
                done = True
            stop = clock()
            if span is None:
                parent = self._stack[-1] if self._stack else None
                span = Span(len(self.spans), parent.op if parent else None, parent, name, start, {})
                self.spans.append(span)
            span.busy += stop - start
            span.end = stop
            if span.parent is not None:
                span.parent.child += stop - start
            if done:
                return
            yield item

    def wrap(self, name: str, fn, size_arg: bool = False):
        def traced(*args, **kwargs):
            attrs = {"bytes": len(args[0])} if size_arg else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def _traced_run_count(self, run_count):
        def traced(rule_pairs, read_axiom, fsa, **kwargs):
            self._phase = self.begin("engine.saturate")
            try:
                return run_count(rule_pairs, read_axiom, fsa, **kwargs)
            finally:
                if self._phase is not None and self._phase.end is None:
                    self.end(self._phase)
                self._phase = None

        return traced

    def _traced_reader(self, reader_class):
        tracer = self

        class TracedReader(reader_class):
            def __init__(self, stream):
                with tracer.span("slp.decode"):
                    super().__init__(stream)

            def iter_rules(self):
                return tracer.timed_iter("slp.decode", super().iter_rules())

            def read_axiom(self):
                saturate = tracer._phase
                splitting = saturate is not None and tracer._stack[-1] is saturate
                if splitting:
                    saturate.attrs["rules"] = self.rule_count
                    tracer.end(saturate)
                    tracer._phase = None
                with tracer.span("slp.decode"):
                    axiom = super().read_axiom()
                if splitting:
                    tracer._phase = tracer.begin("engine.fold", symbols=len(axiom))
                return axiom

        return TracedReader

    @contextmanager
    def installed(self):
        """Swap the traced wrappers into ``zslp.cli`` for the duration."""
        import zslp.cli as cli
        import zslp.repair as repair

        iter_expand = cli.iter_expand
        patches = [
            (cli, "compile_pattern", self.wrap("automaton.compile", cli.compile_pattern)),
            (cli, "run_count", self._traced_run_count(cli.run_count)),
            (cli, "report_matching_lines", self.wrap("reporter.report", cli.report_matching_lines)),
            (cli, "compress", self.wrap("repair.compress", cli.compress, size_arg=True)),
            (cli, "encode_slp", self.wrap("slp.encode", cli.encode_slp)),
            (repair, "encode_slp", self.wrap("slp.encode", repair.encode_slp)),
            (cli, "iter_expand", lambda slp: self.timed_iter("slp.expand", iter_expand(slp))),
            (cli, "ZslpReader", self._traced_reader(cli.ZslpReader)),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def records(self) -> list:
        return [span.record() for span in self.spans]
