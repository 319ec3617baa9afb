"""Set-up child: generate one corpus, compress it with the CLI, report.

Usage: python3 child.py WORKLOAD SEED WORKDIR TRACE

Writes WORKDIR/<label>.txt and WORKDIR/<label>.zslp and prints one JSON
line: the compress call's CPU time, input and output sizes, the process's
peak RSS before and after compressing, and (with TRACE 1) the spans of the
call.
Compressing in a child keeps RePair's memory out of the measuring process.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from harness import capture_cli, peak_rss_bytes
from program import import_zslp
from tracing import Tracer
from workloads import WORKLOADS, corpus_rng


def main(argv) -> int:
    workload, seed, workdir, trace = argv
    import_zslp()
    corpus = WORKLOADS[workload].corpus
    raw = Path(workdir) / f"{corpus.label}.txt"
    packed = Path(workdir) / f"{corpus.label}.zslp"
    text = corpus.generate(corpus.size, corpus_rng(workload, int(seed)))
    raw.write_bytes(text)
    rss_before = peak_rss_bytes()
    argv = ["compress", str(raw), "-o", str(packed)]
    tracer = None
    if trace == "1":
        tracer = Tracer(op_prefix=f"setup-{os.getpid()}-")
        with tracer.installed():
            result = capture_cli(argv, tracer)
    else:
        result = capture_cli(argv)
    if result.code != 0:
        print(f"zslp compress exited with {result.code}: {result.err}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "compress_s": result.seconds,
                "input_bytes": len(text),
                "zslp_bytes": packed.stat().st_size,
                "rss_before": rss_before,
                "rss_after": peak_rss_bytes(),
                "spans": tracer.records() if tracer else [],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
