"""Closed-loop measurement of one workload: set-up, checked operations, metrics.

One client runs operations back to back through ``zslp.cli.run_cli`` in
this process, with stdout captured: argument parsing, file open, ZSLP
decode, compile, count/report and output are timed; interpreter start-up is
not. Every operation's output is checked against the brute-force oracle
(computed once per pattern during set-up, outside the timed phase) or, for
``decompress``, against the original bytes.

Latencies are CPU time of this process (``tracing.clock``) and set-up is
the CPU time of the set-up child, so time spent descheduled on a shared
machine is not counted. Before each operation, and outside its timing, the
cyclic garbage collector runs, so no operation pays for garbage an earlier
one left. Right before and right after it ``quiet.reference_s`` measures how
fast the processor runs, and the end-to-end latencies are scaled to its full
speed (see ``quiet.py``). Untimed rounds warm up before the timed rounds.

Without tracing the run reports the end-to-end metrics. With tracing the
timed phase alternates an untraced and a traced round of the same
operations; the traced rounds give the per-layer metrics and the two give
the tracing overhead. A reference phase after the loop times the layer
calls the CLI does not make (``collect_stats``, ``contains_match``, the
unpruned reporter) and the decompress-then-scan baseline the paper argues
against.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from program import ROOT
from quiet import FULL_SPEED_S, full_speed, reference_s
from tracing import Tracer, clock
from workloads import WORKLOADS, pattern_rng

HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # one before the timed phase, the others spread through it
WARMUP_ROUNDS = 2
DECOMPRESS_PER_ROUND = 3
CHILD_TIMEOUT_S = 150
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "count_p50_ms": "ms",
    "count_p90_ms": "ms",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "queries_per_s": "1/s",
    "decompress_mb_per_s": "MB/s",
    "compression_ratio": "x",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "repair.compress_s": "s",
    "repair.s_per_mb": "s/MB",
    "repair.rss_bytes_per_input_byte": "B/B",
    "repair.rules": "count",
    "repair.axiom_len": "count",
    "slp.encode_ms": "ms",
    "slp.decode_ms": "ms",
    "slp.expand_ms": "ms",
    "slp.zslp_bytes": "bytes",
    "automaton.compile_ms": "ms",
    "automaton.states": "count",
    "automaton.cells": "count",
    "engine.saturate_ms": "ms",
    "engine.fold_ms": "ms",
    "engine.rules_per_s": "1/s",
    "engine.axiom_syms_per_s": "1/s",
    "engine.measured_ops": "count",
    "engine.contains_ms": "ms",
    "reporter.report_ms": "ms",
    "reporter.walk_ms": "ms",
    "reporter.unpruned_ms": "ms",
    "reporter.bytes_out": "bytes",
    "reporter.out_share": "ratio",
    "cli.other_ms": "ms",
    "oracle.scan_ms": "ms",
    "baseline.expand_re_ms": "ms",
    "baseline.count_speedup_vs_scan": "x",
    "trace.overhead_ratio": "ratio",
    "trace.e2e_ms": "ms",
    "trace.self_sum_ms": "ms",
}


@dataclass(frozen=True)
class CliResult:
    code: int
    out: bytes
    err: str
    seconds: float


def capture_cli(argv, tracer: Tracer | None = None) -> CliResult:
    """Run ``zslp.cli.run_cli(argv)`` in-process with stdout and stderr captured.

    With a tracer (already installed) the call is the root span
    ``cli.<command>`` and its busy time is the reported latency.
    """
    from zslp.cli import run_cli

    out = io.BytesIO()
    err = io.StringIO()
    text = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = text, err
    try:
        if tracer is None:
            start = clock()
            code = run_cli(argv)
            seconds = clock() - start
        else:
            with tracer.span("cli." + argv[0]) as root:
                code = run_cli(argv)
            seconds = root.busy
    finally:
        sys.stdout, sys.stderr = saved
        text.detach()  # keep ``out`` open when the wrapper is collected
    return CliResult(code, out.getvalue(), err.getvalue(), seconds)


@dataclass(frozen=True)
class Op:
    kind: str  # count | search | decompress
    item: int  # index of the pattern (count, search)
    argv: tuple
    expected: bytes  # stdout

    def check(self, result: CliResult) -> bool:
        """Exact output, and grep's exit codes: 1 only for zero matches."""
        if self.kind == "decompress":
            return result.code == 0 and result.out == self.expected
        matched = self.expected not in (b"0\n", b"")
        return result.out == self.expected and result.code == (0 if matched else 1)


@dataclass
class Sample:
    op: Op
    seconds: float | None  # None when the call raised
    ok: bool
    root_op: str | None = None  # tracer operation id of a traced call
    reference_s: float = 0.0  # the processor's reference time around the call


def _percentile(values, point):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[point - 1]


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_bytes() -> int:
    """High-water resident set size of this process.

    Linux keeps ``ru_maxrss`` across ``execve``, so a process started by a
    bigger one reports its parent's peak; ``VmHWM`` starts afresh with the
    new program image and is read instead where ``/proc`` has it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _split_lines(text: bytes) -> list:
    lines = text.split(b"\n")
    if text.endswith(b"\n"):
        lines.pop()
    return lines


class Bench:
    """One run of one workload; ``run()`` returns (result, report lines)."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = WORK_DIR / f"{workload}-{os.getpid()}"
        label = self.workload.corpus.label
        self.raw = self.workdir / f"{label}.txt"
        self.packed = self.workdir / f"{label}.zslp"
        self.patterns = self.workload.patterns(pattern_rng(workload, seed))
        self.text = b""
        self.setup_s: list[float] = []
        self.children: list[dict] = []
        self.scan_s: list[float] = []
        self.expected: list[bytes] = []
        self.counts: list[int] = []
        self.warmup: list[Sample] = []
        self.samples: list[Sample] = []
        self.untraced: list[Sample] = []
        self.rounds = 0
        self.timed_s = 0.0
        self.failure_notes: list[str] = []

    # -- set-up -----------------------------------------------------------

    def _set_up(self) -> None:
        """Generate, compress and write the corpus in a child process.

        The child keeps RePair's memory out of this process's peak RSS. Its
        CPU time (user + system) is the set-up time.
        """
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            self.workload.name,
            str(self.seed),
            str(self.workdir),
            "1" if self.tracer else "0",
        ]
        start = _children_cpu_s()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        self.setup_s.append(_children_cpu_s() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        self.children.append(json.loads(proc.stdout.splitlines()[-1]))

    def _oracle(self) -> None:
        from zslp.oracle import oracle_lines

        for pattern in self.patterns:
            start = clock()
            lines = oracle_lines(self.text, pattern)
            self.scan_s.append(clock() - start)
            self.expected.append(b"".join(line + b"\n" for line in lines))
            self.counts.append(len(lines))

    # -- operations -------------------------------------------------------

    def _round(self) -> list:
        """Round trips of the written .zslp (to stdout), then every pattern."""
        packed = str(self.packed)
        ops = [Op("decompress", 0, ("decompress", packed), self.text)] * DECOMPRESS_PER_ROUND
        for item, pattern in enumerate(self.patterns):
            ops.append(Op("count", item, ("count", "-e", pattern, packed), b"%d\n" % self.counts[item]))
            ops.append(Op("search", item, ("search", "-e", pattern, packed), self.expected[item]))
        return ops

    def _run_op(self, op: Op, traced: bool) -> Sample:
        tracer = self.tracer if traced else None
        gc.collect()
        before = reference_s()
        try:
            result = capture_cli(list(op.argv), tracer)
        except Exception:
            # A crash inside zslp is a failed operation, not a benchmark error.
            self.failure_notes.append(f"{op.kind} {op.argv}: {traceback.format_exc()}")
            return Sample(op, None, False)
        around = (before + reference_s()) / 2
        ok = op.check(result)
        if not ok:
            self.failure_notes.append(
                f"{op.kind} {op.argv}: exit {result.code}, {len(result.out)} bytes out, "
                f"stderr {result.err.strip()!r}"
            )
        root = tracer.spans[-1].op if tracer else None
        return Sample(op, result.seconds, ok, root, around)

    def _run_round(self, ops, traced: bool, into: list) -> None:
        if traced:
            with self.tracer.installed():
                into.extend(self._run_op(op, True) for op in ops)
        else:
            into.extend(self._run_op(op, False) for op in ops)

    def _loop(self, ops, seconds: float) -> None:
        """Whole rounds, so every pattern has as many samples.

        The loop stops after the round that ends nearest to ``seconds``.
        """
        start = perf_counter()
        rounds = 0
        while True:
            if not self.tracer:
                self._run_round(ops, False, self.samples)
            elif self.rounds % 2 == 0:  # untraced first, then traced first: drift cancels
                self._run_round(ops, False, self.untraced)
                self._run_round(ops, True, self.samples)
            else:
                self._run_round(ops, True, self.samples)
                self._run_round(ops, False, self.untraced)
            rounds += 1
            self.rounds += 1
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds >= seconds:
                break
        self.timed_s += perf_counter() - start

    def run(self):
        """Set up, warm up, then timed quarters with a set-up after each.

        Spreading the set-ups over the run lets ``setup_s`` and the compress
        time see the same machine as the timed queries.
        """
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        try:
            self._set_up()
            self.text = self.raw.read_bytes()
            self._oracle()
            ops = self._round()
            for _ in range(WARMUP_ROUNDS):
                self._run_round(ops, False, self.warmup)
            for _ in range(SETUP_REPEATS - 1):
                self._loop(ops, self.seconds / (SETUP_REPEATS - 1))
                self._set_up()
            if self.tracer:
                return self._layer_result()
            return self._end_to_end_result()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- end-to-end metrics ------------------------------------------------

    @staticmethod
    def _latencies(samples, kind, item=None):
        """Seconds of the samples of one kind (every kind for None) and item."""
        return [
            s.seconds
            for s in samples
            if s.seconds is not None and kind in (None, s.op.kind) and item in (None, s.op.item)
        ]

    def _full_speed(self, samples, kind):
        """Latencies of one kind scaled to the processor's full speed."""
        return [
            full_speed(s.seconds, s.reference_s)
            for s in samples
            if s.seconds is not None and s.op.kind == kind
        ]

    def _counters(self):
        samples = self.warmup + self.untraced + self.samples
        return len(samples), sum(not s.ok for s in samples)

    def _end_to_end_result(self):
        timed = self.samples
        count = self._full_speed(timed, "count")
        search = self._full_speed(timed, "search")
        decompress = self._full_speed(timed, "decompress")
        size = len(self.text)
        metrics = {
            "setup_s": median(self.setup_s),
            "count_p50_ms": median(count) * 1e3,
            "count_p90_ms": _percentile(count, 90) * 1e3,
            "search_p50_ms": median(search) * 1e3,
            "search_p90_ms": _percentile(search, 90) * 1e3,
            "queries_per_s": (len(count) + len(search)) / (sum(count) + sum(search)),
            "decompress_mb_per_s": size / median(decompress) / MB,
            "compression_ratio": size / self.packed.stat().st_size,
            "peak_rss_mb": peak_rss_bytes() / MB,
        }
        attempted, failed = self._counters()
        lines = self._header(attempted, failed)
        lines.append(
            f"samples: count {len(count)}, search {len(search)}, decompress {len(decompress)} "
            f"over {self.timed_s:.2f} s"
        )
        lines += [f"{name:28} {value:14.4f} {END_TO_END_UNITS[name]}" for name, value in metrics.items()]
        lines.append("unscaled medians (CPU time at the speed the processor ran):")
        lines += [
            f"  {kind:10} {median(self._latencies(timed, kind)) * 1e3:12.4f} ms"
            for kind in ("count", "search", "decompress")
        ]
        compress_s = median(c["compress_s"] for c in self.children)
        lines.append(
            f"compress: {size / compress_s / MB:.4f} MB/s (median CPU time {compress_s:.4f} s of "
            f"{len(self.children)} set-ups, unscaled; not an end-to-end metric, see README)"
        )
        return self._result(metrics, END_TO_END_UNITS, attempted, failed), lines

    def _header(self, attempted, failed):
        lines = [
            f"workload {self.workload.name} seed {self.seed}: 1 client, closed loop, "
            f"{self.rounds} whole rounds of {len(self.patterns)} patterns",
            f"{'failed_ops_ratio':28} {failed / attempted:14.4f} ratio "
            f"({failed} of {attempted} ops)",
            f"processor: reference {self._reference_ms()} around an op, "
            f"{FULL_SPEED_S * 1e3:.3f} ms at full speed",
        ]
        lines += [f"FAILED {note}" for note in self.failure_notes[:5]]
        return lines

    def _reference_ms(self):
        around = [s.reference_s for s in self.warmup + self.untraced + self.samples if s.reference_s]
        if not around:
            return "not measured"
        return f"fastest {min(around) * 1e3:.3f} ms, median {median(around) * 1e3:.3f} ms"

    @staticmethod
    def _result(metrics, units, attempted, failed):
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }

    # -- per-layer metrics (traced run) -----------------------------------

    def _reference(self) -> dict:
        """Layer calls outside the CLI, and the decompress-then-scan baseline."""
        from zslp import (
            collect_stats,
            compile_pattern,
            contains_match,
            decode_slp,
            expand,
            report_matching_lines,
        )

        tracer = self.tracer
        slp = decode_slp(self.packed.read_bytes())
        ref = defaultdict(list)
        for item, pattern in enumerate(self.patterns):
            fsa = compile_pattern(pattern)
            ref["states"].append(fsa.state_count)
            ref["cells"].append(sum(len(targets) for _, _, targets in fsa.iter_transitions()))
            with tracer.span("engine.stats", item=item):
                ref["measured_ops"].append(collect_stats(slp, fsa).measured_ops)
            with tracer.span("engine.contains", item=item) as span:
                found = contains_match(slp, fsa)
            ref["contains_s"].append(span.busy)
            sink = io.BytesIO()
            with tracer.span("reporter.unpruned", item=item) as span:
                report_matching_lines(slp, fsa, sink, prune=False)
            ref["unpruned_s"].append(span.busy)
            with tracer.span("baseline.expand_re", item=item) as span:
                regex = re.compile(pattern.encode("latin-1"))
                text = expand(decode_slp(self.packed.read_bytes()))
                scanned = sum(1 for line in _split_lines(text) if regex.search(line))
            ref["expand_re_s"].append(span.busy)
            if found != (self.counts[item] > 0) or sink.getvalue() != self.expected[item]:
                self.failure_notes.append(f"reference calls disagree with the oracle on {pattern!r}")
                ref["failed"].append(item)
            if scanned != self.counts[item]:
                raise RuntimeError(f"re baseline disagrees with the oracle on {pattern!r}")
        ref["rules"] = len(slp.rules)
        ref["axiom_len"] = len(slp.axiom)
        return ref

    def _layer_result(self):
        ref = self._reference()
        records = self.tracer.records()
        for child in self.children:
            records += child["spans"]
        by_op = defaultdict(list)
        for record in records:
            by_op[record["op"]].append(record)

        def total(op, name, field="busy"):
            return sum(r[field] for r in by_op[op] if r["name"] == name)

        def roots(kind):
            return [s for s in self.samples if s.op.kind == kind and s.root_op is not None]

        counts, searches, decompresses = roots("count"), roots("search"), roots("decompress")
        compress_spans = [r for r in records if r["name"] == "repair.compress"]
        encode_spans = [r for r in records if r["name"] == "slp.encode"]

        saturate = {s.root_op: total(s.root_op, "engine.saturate", "self") for s in counts}
        fold = {s.root_op: total(s.root_op, "engine.fold") for s in counts}
        rules = sum(r.get("rules", 0) for s in counts for r in by_op[s.root_op])
        symbols = sum(r.get("symbols", 0) for s in counts for r in by_op[s.root_op])
        walk, speedups = [], []
        for item in range(len(self.patterns)):
            report = [total(s.root_op, "reporter.report") for s in searches if s.op.item == item]
            item_saturate = [saturate[s.root_op] for s in counts if s.op.item == item]
            walk.append(median(report) - median(item_saturate))
            count_s = median(self._latencies(self.untraced, "count", item))
            speedups.append(ref["expand_re_s"][item] / count_s)
        rss = [
            (child["rss_after"] - child["rss_before"]) / child["input_bytes"]
            for child in self.children
        ]
        bytes_out = sum(len(expected) for expected in self.expected)

        self_by_layer = defaultdict(float)
        for op in {s.root_op for s in self.samples if s.root_op is not None}:
            for r in by_op[op]:
                layer = "cli.other" if r["parent"] is None else r["name"]
                self_by_layer[layer] += r["self"]
        traced_e2e = sum(self._latencies(self.samples, None))
        per_round = len(self.patterns) * 2 + DECOMPRESS_PER_ROUND
        overheads = []
        for start in range(0, len(self.samples), per_round):
            pair = slice(start, start + per_round)
            traced = self._latencies(self.samples[pair], None)
            overheads.append(sum(traced) / sum(self._latencies(self.untraced[pair], None)))
        ms = 1e3
        metrics = {
            "repair.compress_s": median([r["busy"] for r in compress_spans]),
            "repair.s_per_mb": sum(r["busy"] for r in compress_spans)
            / sum(r["bytes"] for r in compress_spans)
            * MB,
            "repair.rss_bytes_per_input_byte": median(rss),
            "repair.rules": ref["rules"],
            "repair.axiom_len": ref["axiom_len"],
            "slp.encode_ms": median([r["busy"] for r in encode_spans]) * ms,
            "slp.decode_ms": median([total(s.root_op, "slp.decode") for s in counts]) * ms,
            "slp.expand_ms": median([total(s.root_op, "slp.expand") for s in decompresses]) * ms,
            "slp.zslp_bytes": self.packed.stat().st_size,
            "automaton.compile_ms": median([total(s.root_op, "automaton.compile") for s in counts]) * ms,
            "automaton.states": sum(ref["states"]),
            "automaton.cells": sum(ref["cells"]),
            "engine.saturate_ms": median(list(saturate.values())) * ms,
            "engine.fold_ms": median(list(fold.values())) * ms,
            "engine.rules_per_s": rules / sum(saturate.values()),
            "engine.axiom_syms_per_s": symbols / sum(fold.values()),
            "engine.measured_ops": sum(ref["measured_ops"]),
            "engine.contains_ms": median(ref["contains_s"]) * ms,
            "reporter.report_ms": median([total(s.root_op, "reporter.report") for s in searches]) * ms,
            "reporter.walk_ms": median(walk) * ms,
            "reporter.unpruned_ms": median(ref["unpruned_s"]) * ms,
            "reporter.bytes_out": bytes_out,
            "reporter.out_share": bytes_out / (len(self.text) * len(self.patterns)),
            "cli.other_ms": median([total(s.root_op, "cli.count", "self") for s in counts]) * ms,
            "oracle.scan_ms": median(self.scan_s) * ms,
            "baseline.expand_re_ms": median(ref["expand_re_s"]) * ms,
            "baseline.count_speedup_vs_scan": _geomean(speedups),
            "trace.overhead_ratio": median(overheads),
            "trace.e2e_ms": traced_e2e * ms,
            "trace.self_sum_ms": sum(self_by_layer.values()) * ms,
        }
        attempted, failed = self._counters()
        failed += len(ref["failed"])
        lines = self._header(attempted, failed)
        lines += [f"{name:34} {value:16.4f} {PER_LAYER_UNITS[name]}" for name, value in metrics.items()]
        lines.append("self time by layer over the traced rounds:")
        lines += [
            f"  {layer:20} {seconds * ms:12.2f} ms {seconds / traced_e2e:7.1%}"
            for layer, seconds in sorted(self_by_layer.items(), key=lambda kv: -kv[1])
        ]
        ratio = len(self.text) / self.packed.stat().st_size
        lines += [
            f"count vs expand+re at ratio {ratio:.2f}: speedup {speedup:7.3f}  {pattern!r}"
            for speedup, pattern in zip(speedups, self.patterns)
        ]
        self._write_spans(records)
        return self._result(metrics, PER_LAYER_UNITS, attempted, failed), lines

    def _write_spans(self, records) -> None:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{self.workload.name}-seed{self.seed}.jsonl"
        with open(path, "w") as out:
            for record in records:
                out.write(json.dumps(record) + "\n")
