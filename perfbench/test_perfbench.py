"""Self-checks of the benchmark: determinism, output checking, trace accounting.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import random
import sys

import pytest

from program import ROOT, import_zslp

import_zslp()

import corpora  # noqa: E402
import run  # noqa: E402
import zslp.cli  # noqa: E402
from harness import Bench  # noqa: E402
from workloads import WORKLOADS, corpus_rng  # noqa: E402

STRUCTURAL = (
    "repair.rules",
    "repair.axiom_len",
    "slp.zslp_bytes",
    "automaton.states",
    "automaton.cells",
    "engine.measured_ops",
    "reporter.bytes_out",
)


def _traced(workload, seed):
    result, _ = Bench(workload, seed, seconds=0.01, trace=True).run()
    assert result["correct"], result
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_same_seed_repeats_structural_counts():
    first = _traced("regex-heavy", 7)
    second = _traced("regex-heavy", 7)
    assert {k: first[k] for k in STRUCTURAL} == {k: second[k] for k in STRUCTURAL}
    # the layer self times account for the whole traced latency
    for metrics in (first, second):
        assert metrics["trace.self_sum_ms"] == pytest.approx(metrics["trace.e2e_ms"], rel=1e-9)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corpora_depend_on_the_seed_only(workload):
    corpus = WORKLOADS[workload].corpus
    make = lambda seed: corpus.generate(65536, corpus_rng(workload, seed))  # noqa: E731
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_generators_follow_the_acceptance_corpora():
    sys.path.insert(0, str(ROOT / "tests"))
    acceptance = pytest.importorskip("test_acceptance")

    class Offset0:
        def randrange(self, _):
            return 0

    assert corpora.log_like(200_000, Offset0()) == acceptance._log_like(200_000)
    assert corpora.english_like(200_000, random.Random(5)) == acceptance._english_like(
        200_000, random.Random(5)
    )


def test_wrong_answer_fails_the_command(monkeypatch, capsys):
    real_run_count = zslp.cli.run_count
    monkeypatch.setattr(zslp.cli, "run_count", lambda *a, **k: real_run_count(*a, **k) + 1)
    code = run.main(["--workload", "regex-heavy", "--seed", "1", "--seconds", "0.01"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in last


def test_decompress_that_writes_nothing_fails(monkeypatch, capsys):
    real_run_cli = zslp.cli.run_cli
    monkeypatch.setattr(
        zslp.cli, "run_cli", lambda argv: 0 if argv[0] == "decompress" else real_run_cli(argv)
    )
    code = run.main(["--workload", "regex-heavy", "--seed", "1", "--seconds", "0.01"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert '"correct": false' in last
