"""Tests of the benchmark itself, not of abjadnum.

    python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout.  The last tests run the benchmark end to
end with short runs and take about a minute.
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from abjadnum import chronology  # noqa: E402
from reference import Raised, Reference  # noqa: E402

REF = Reference(ROOT / "src" / "abjadnum" / "data")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    assert workloads.build(workload, 7, REF) == workloads.build(workload, 7, REF)
    assert workloads.build(workload, 7, REF) != workloads.build(workload, 8, REF)


def test_inputs_do_not_depend_on_string_hashing():
    code = ("import sys, hashlib; sys.path.insert(0, 'bench'); import workloads; "
            "from pathlib import Path; from reference import Reference; "
            "ref = Reference(Path('src/abjadnum/data')); "
            "print(hashlib.sha256(repr([workloads.build(w, 5, ref) "
            "for w in workloads.WORKLOADS]).encode()).hexdigest())")
    digests = {
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                       check=True, env={"PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    }
    expected = hashlib.sha256(repr([workloads.build(w, 5, REF)
                                    for w in workloads.WORKLOADS]).encode()).hexdigest()
    assert digests == {expected + "\n"}


@pytest.mark.parametrize("workload", ["manuscript", "numbers"])
def test_references_agree_with_library(workload):
    ops = workloads.build(workload, 3, REF)
    _, _, outputs = worker.run_pass(worker.prepare(ops), worker._direct)
    mismatches = [(op, out) for op, out in zip(ops, outputs) if not worker.matches(op.expected, out)]
    assert mismatches == []
    assert any(isinstance(op.expected, Raised) for op in ops)


def test_lookup_replays_agree_with_library():
    for workload in ("manuscript", "numbers"):
        ops = workloads.build(workload, 3, REF)
        checker = worker.Checker()
        replay = worker.lookup_replay(workload, ops, REF)
        worker.replay_lookups(tracing.Tracer(), checker, *replay)
        assert checker.attempted == len(replay[2]) * worker.TRACE_PASSES > 0
        assert checker.failed == 0, checker.failures


def test_traced_lookups_count_every_pass():
    letters = {cp for table in REF.value_of.values() for cp in table}
    ops = workloads.build("manuscript", 3, REF)
    result, checker = worker.run_inprocess("manuscript", ops, REF, 0.2, 1)
    layers = result["layers"]
    per_pass = sum(ch in letters for op in ops for ch in op.args[0])
    assert layers["alphabets.letter_for_codepoint.calls"] == per_pass * worker.TRACE_PASSES
    gematria_ops = sum(op.kind == "gematria" for op in ops)
    assert layers["codec.gematria.calls"] == gematria_ops * worker.TRACE_PASSES
    assert checker.failed == 0, checker.failures
    shares = result["traced"]["time_share"]
    assert set(shares) == {"gematria", "decode_lax", "decode_strict"}
    assert sum(shares.values()) == pytest.approx(1)


def test_hijri_reference_agrees_over_the_workload_ranges():
    assert all(REF.hijri_to_ce(h) == chronology.hijri_to_gregorian_year(h)
               for h in range(1, 1501))
    assert all(REF.ce_to_hijri(g) == chronology.gregorian_to_hijri_year(g)
               for g in range(622, 2101))


def test_references_agree_with_the_cli(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    ops = workloads.build("cli", 3, REF)
    # one record of each subcommand, and every expected error
    sample = ops[:len(workloads.CLI_COMMANDS)] + [op for op in ops if isinstance(op.expected, Raised)]
    assert any(isinstance(op.expected, Raised) for op in sample)
    checker = worker.Checker()
    for op in sample:
        code, stdout, stderr = worker.run_process(*op.args)
        assert worker.cli_ok(op.expected, code, stdout, stderr), (op, code, stdout, stderr)
        worker.cli_in_process(tracing.Tracer(), checker, op)
    assert checker.failed == 0, checker.failures


def test_per_layer_declarations_are_the_traced_metrics():
    assert DECLARED["per_layer"] == tracing.per_layer_declarations()


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_are_declared(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {d["name"] for d in declared}
    for d in declared:
        assert NAME.match(d["name"])
        metric = result["metrics"][d["name"]]
        assert metric["unit"] == d["unit"]
        assert isinstance(metric["value"], (int, float))
        if trace == "0":
            assert metric["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "numbers", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
