"""Run one workload in this process and print its measurements as one JSON line.

    PYTHONPATH=src python3 bench/worker.py --workload numbers --seed 1 --seconds 10 --trace 0

Started by run.py from the root of a checkout, through a bare launcher so
that the peak RSS it reports is its own (see run.py).  Load is a closed loop
with one caller: each operation starts when the previous one has returned.  The
in-process workloads (manuscript, numbers) time passes over their whole
record list; the cli workload runs one ``python -m abjadnum`` process per
record, cycling through its list.  Every output is checked against the
independent reference after its pass, outside the timed region.

A reference loop runs between passes (calibration.py); the end-to-end
figures are scaled by it to one reference machine speed, and the raw
figures are reported next to them.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from abjadnum import Alphabet, DigitScript, chronology, cli, codec, digits, reading
from abjadnum.alphabets import letter_by_value, letter_for_codepoint

import workloads
from calibration import loop_calibration, process_calibration
from reference import Raised, Reference
from tracing import Tracer, aggregate, iqr_share

ns = time.perf_counter_ns

WARMUP_S = 0.5
# Fixed work for the traced phase, so its counts repeat exactly.
TRACE_PASSES = 5
CLI_WARMUP_OPS = 2
CLI_PASS_OPS = 10
CLI_TIMEOUT_S = 30
LOOKUP_CHUNK = 64
FAILURES_KEPT = 5


def _direct(name, fn, *args):
    return fn(*args)


# -- operations: each returns what is compared with Op.expected -------------


def _gematria(call, phrase, alphabet, ignore):
    result = call("codec.gematria", codec.gematria, phrase, alphabet, ignore)
    return result.total, result.per_word


def _decode_lax(call, word, alphabet):
    return call("codec.decode_lax", codec.decode, word, alphabet)


def _decode_strict(call, word, alphabet):
    return call("codec.decode_strict", codec.decode, word, alphabet, True)


def _encode(call, n, alphabet):
    numeral = call("codec.encode", codec.encode, n, alphabet)
    return numeral.text, numeral.value


def _digits_round_trip(call, n, script):
    text = call("digits.render_digits", digits.render_digits, n, script)
    return text, call("digits.parse_digits", digits.parse_digits, text, script)


def _transliterate(call, text, src, dst):
    return call("digits.transliterate", digits.transliterate, text, src, dst)


def _reading(call, n, direction, figure_exact):
    decomposed = call("reading.decompose", reading.decompose, n)
    return call("reading.format_reading", reading.format_reading, decomposed, direction,
                reading.DEFAULT_LABELS, figure_exact)


def _hijri_to_ce(call, h):
    return call("chronology.hijri_to_gregorian_year", chronology.hijri_to_gregorian_year, h)


def _ce_to_hijri(call, g):
    return call("chronology.gregorian_to_hijri_year", chronology.gregorian_to_hijri_year, g)


# kind -> (operation, conversion of the record's plain args to library types)
KINDS = {
    "gematria": (_gematria, lambda p, a, i: (p, Alphabet(a), i)),
    "decode_lax": (_decode_lax, lambda w, a: (w, Alphabet(a))),
    "decode_strict": (_decode_strict, lambda w, a: (w, Alphabet(a))),
    "encode": (_encode, lambda n, a: (n, Alphabet(a))),
    "digits_round_trip": (_digits_round_trip, lambda n, s: (n, DigitScript(s))),
    "transliterate": (_transliterate, lambda t, s, d: (t, DigitScript(s), DigitScript(d))),
    "reading": (_reading, lambda n, d, f: (n, d, f)),
    "hijri_to_ce": (_hijri_to_ce, lambda h: (h,)),
    "ce_to_hijri": (_ce_to_hijri, lambda g: (g,)),
}


def prepare(ops):
    return [(KINDS[op.kind][0], KINDS[op.kind][1](*op.args)) for op in ops]


def matches(expected, got) -> bool:
    return isinstance(expected, Raised) == isinstance(got, Raised) and expected == got


class Checker:
    """Counts checked outcomes and keeps the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what, expected, got):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_KEPT:
                self.failures.append(repr((what, expected, got))[:300])


# -- in-process workloads -----------------------------------------------------


def run_pass(prepared, call, tracer=None):
    """One closed-loop walk over the records: (wall ns, latencies ns, outputs)."""
    latencies = [0] * len(prepared)
    outputs = [None] * len(prepared)
    start = ns()
    for i, (fn, args) in enumerate(prepared):
        if tracer is not None:
            tracer.op = i
        t0 = ns()
        try:
            out = fn(call, *args)
        except Exception as exc:  # checked against the expected error below
            out = Raised(type(exc).__name__)
        latencies[i] = ns() - t0
        outputs[i] = out
    return ns() - start, latencies, outputs


def busy_by_kind(kinds, latencies) -> Counter:
    """Summed latency of each op kind."""
    busy = Counter()
    for kind, latency in zip(kinds, latencies):
        busy[kind] += latency
    return busy


def time_shares(busy: Counter) -> dict:
    """Each op kind's share of the summed op time, largest first."""
    total = sum(busy.values())
    return {kind: t / total for kind, t in busy.most_common()}


def _pass_summary(wall, latencies, kinds):
    deciles = statistics.quantiles(latencies, n=10)
    return {"ops": len(latencies), "wall_ns": wall, "busy_ns": sum(latencies),
            "p50_ns": statistics.median(latencies), "p90_ns": deciles[8],
            "by_kind": busy_by_kind(kinds, latencies)}


def timed_passes(ops, prepared, call, checker, cal, *, seconds=None, count=None, tracer=None):
    """Passes until `seconds` have gone by, or exactly `count` passes."""
    passes = []
    kinds = [op.kind for op in ops]
    deadline = ns() + int((seconds or 0) * 1e9)
    while (len(passes) < count) if count is not None else (ns() < deadline or not passes):
        wall, latencies, outputs = run_pass(prepared, call, tracer)
        for op, out in zip(ops, outputs):
            checker.check(matches(op.expected, out), op.args, op.expected, out)
        passes.append(dict(_pass_summary(wall, latencies, kinds), scale=cal.scale()))
    return passes


def warm_up(prepared):
    deadline = ns() + int(WARMUP_S * 1e9)
    run_pass(prepared, _direct)
    while ns() < deadline:
        run_pass(prepared, _direct)


def _medians(rates, p50s_ns, p90s_ns):
    return {"ops_per_s": statistics.median(rates),
            "op_us_p50": statistics.median(p50s_ns) / 1000,
            "op_us_p90": statistics.median(p90s_ns) / 1000}


def inprocess_summary(passes):
    """Medians across passes of the rate and the per-pass percentiles.

    Top-level figures are at the reference speed; "raw" ones as measured.
    """
    def figures(scale):
        return ([p["ops"] / (p["wall_ns"] * scale(p)) * 1e9 for p in passes],
                [p["p50_ns"] * scale(p) for p in passes],
                [p["p90_ns"] * scale(p) for p in passes])

    scaled = figures(lambda p: p["scale"])
    return {
        **_medians(*scaled),
        "raw": _medians(*figures(lambda p: 1)),
        "scale": statistics.median(p["scale"] for p in passes),
        "passes": len(passes),
        "samples": sum(p["ops"] for p in passes),
        "percentile_samples": passes[0]["ops"],
        "pass_spread": dict(zip(("ops_per_s", "op_us_p50", "op_us_p90"), map(iqr_share, scaled))),
        "time_share": time_shares(sum((p["by_kind"] for p in passes), Counter())),
    }


def replay_lookups(tracer, checker, name, fn, calls, expected, passes=TRACE_PASSES):
    """Time `fn(*args)` over `calls` in chunks, `passes` times; one span per chunk.

    The replay walks the inputs as often as the traced phase walks the
    records, so that its calls and share add up like those of the traced ops.
    """
    tracer.op = None
    for _ in range(passes):
        for i in range(0, len(calls), LOOKUP_CHUNK):
            chunk = calls[i:i + LOOKUP_CHUNK]
            start = ns()
            out = [fn(*args) for args in chunk]
            tracer.record(name, start, ns(), calls=len(chunk))
            for args, letter, want in zip(chunk, out, expected[i:i + LOOKUP_CHUNK]):
                got = (letter.codepoint, letter.value)
                checker.check(got == want, (name, args), want, got)


def lookup_replay(workload, ops, ref):
    """The alphabets calls behind a workload's inputs, with expected letters.

    manuscript: every letter codepoint of its phrases and words through
    letter_for_codepoint.  numbers: every nonzero rank value of its valid
    encode inputs through letter_by_value.
    """
    calls, expected = [], []
    if workload == "manuscript":
        letters = {cp: (letter.codepoint, letter.value) for table in ref.letters.values()
                   for letter in table for cp in (letter.codepoint, *letter.variants)}
        for op in ops:
            for ch in op.args[0]:
                if ch in letters:
                    calls.append((ch,))
                    expected.append(letters[ch])
        return "alphabets.letter_for_codepoint", letter_for_codepoint, calls, expected
    for op in ops:
        if op.kind == "encode" and not isinstance(op.expected, Raised):
            n, alphabet = op.args
            for letter in ref.encode_letters(n, alphabet):
                calls.append((Alphabet(alphabet), letter.value))
                expected.append((letter.codepoint, letter.value))
    return "alphabets.letter_by_value", letter_by_value, calls, expected


def input_sizes(ops, passes):
    """Characters or digits handed to the normalised functions over `passes`."""
    sizes = {"codec.gematria": 0, "digits.render_digits": 0, "digits.transliterate": 0}
    for op in ops:
        if op.kind == "gematria":
            sizes["codec.gematria"] += len(op.args[0])
        elif op.kind == "digits_round_trip":
            sizes["digits.render_digits"] += len(str(op.args[0]))
        elif op.kind == "transliterate":
            sizes["digits.transliterate"] += len(op.args[0])
    return {fn: size * passes for fn, size in sizes.items()}


def run_inprocess(workload, ops, ref, seconds, trace):
    prepared = prepare(ops)
    checker = Checker()
    gc.collect()
    warm_up(prepared)
    cal = loop_calibration(ref)
    if not trace:
        passes = timed_passes(ops, prepared, _direct, checker, cal, seconds=seconds)
        result = inprocess_summary(passes)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result, checker
    untraced = inprocess_summary(timed_passes(ops, prepared, _direct, checker, cal,
                                              seconds=seconds / 2))
    tracer = Tracer()
    traced_passes = timed_passes(ops, prepared, tracer.call, checker, cal, count=TRACE_PASSES,
                                 tracer=tracer)
    traced = inprocess_summary(traced_passes)
    op_time = sum(p["busy_ns"] for p in traced_passes)
    replay_lookups(tracer, checker, *lookup_replay(workload, ops, ref))
    layers = aggregate(tracer.spans, op_time, input_sizes(ops, TRACE_PASSES))
    layers["tracing.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    return {"layers": layers, "untraced": untraced, "traced": traced}, checker


# -- cli workload -------------------------------------------------------------


def cli_ok(expected, code, stdout, stderr) -> bool:
    if isinstance(expected, Raised):
        return code == 1 and stdout == "" and stderr.startswith(f"ERROR {expected.code}:")
    text, payload = expected
    if code != 0:
        return False
    if payload is None:
        return stdout == text + "\n"
    try:
        return json.loads(stdout) == payload
    except ValueError:
        return False


def run_process(argv, stdin):
    """(exit code, stdout, stderr) of one ``python -m abjadnum`` process."""
    try:
        proc = subprocess.run([sys.executable, "-m", "abjadnum", *argv], input=stdin or b"",
                              capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # killed and reaped by run(); checked as a failure
        return None, "", f"no exit within {CLI_TIMEOUT_S} s"
    return (proc.returncode, proc.stdout.decode("utf-8", "replace"),
            proc.stderr.decode("utf-8", "replace"))


def cli_ops(ops, checker, cal, *, seconds=None, count=None, start=0, tracer=None):
    """Processes until `seconds` have gone by, or exactly `count` of them.

    Returns the latency of each process in ns, the speed scale measured
    around each, its subcommand, and the index to go on from.
    """
    latencies, scales, commands = [], [], []
    deadline = ns() + int((seconds or 0) * 1e9)
    i = start
    while (len(latencies) < count) if count is not None else (ns() < deadline or not latencies):
        op = ops[i % len(ops)]
        argv, stdin = op.args
        t0 = ns()
        code, stdout, stderr = run_process(argv, stdin)
        latencies.append(ns() - t0)
        scales.append(cal.scale())
        commands.append(argv[0])
        checker.check(cli_ok(op.expected, code, stdout, stderr), argv, op.expected,
                      (code, stdout[:80], stderr[:80]))
        if tracer is not None:
            cli_in_process(tracer, checker, op)
        i += 1
    return latencies, scales, commands, i


def cli_in_process(tracer, checker, op):
    """The same argv through build_parser, parse_args and main, in this process."""
    argv, stdin = op.args
    tracer.op = argv
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin or b""), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            parser = tracer.call("cli.build_parser", cli.build_parser)
            tracer.call("cli.parse_args", parser.parse_args, list(argv))
            start = ns()
            code = cli.main(list(argv))
            tracer.record("cli.main", start, ns(), error=code != 0)
    except (Exception, SystemExit) as exc:  # argparse exits; either is a failed check
        code = repr(exc)
    finally:
        sys.stdin = saved_stdin
    checker.check(cli_ok(op.expected, code, out.getvalue(), err.getvalue()),
                  ("in-process", argv), op.expected, (code, out.getvalue()[:80]))
    if argv[0] == "provenance":
        script = argv[argv.index("--script") + 1]
        digit = int(stdin if stdin is not None else argv[-1])
        entry = tracer.call("digits.digit_provenance", digits.digit_provenance, digit,
                            DigitScript(script))
        got = f"{entry.alphabet.value} {entry.letter.name} {entry.letter.codepoint}: {entry.note}"
        checker.check(got == op.expected[0], argv, op.expected[0], got)


# Starts the given abjadnum processes and prints the largest peak RSS among
# them.  A child's peak counts the memory of the process that forked it, so
# the processes start from this bare interpreter, smaller than any of them,
# and not from the worker.
_RSS_LAUNCHER = """
import json, resource, subprocess, sys
for argv, stdin in json.load(sys.stdin):
    subprocess.run([sys.executable, "-m", "abjadnum", *argv], input=stdin.encode(),
                   capture_output=True, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def cli_peak_rss_kb(ops) -> int:
    """Peak RSS of the largest abjadnum process over one record per subcommand."""
    sample = {op.args[0][0]: op for op in ops if not isinstance(op.expected, Raised)}
    records = [(argv, (stdin or b"").decode("utf-8")) for argv, stdin in
               (op.args for op in sample.values())]
    proc = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER], input=json.dumps(records),
                          capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S)
    return int(proc.stdout)


def _cli_figures(latencies):
    """Rates over passes of CLI_PASS_OPS processes; percentiles over all of them."""
    passes = [latencies[i:i + CLI_PASS_OPS] for i in range(0, len(latencies), CLI_PASS_OPS)]
    rates = [len(p) / sum(p) * 1e9 for p in passes if len(p) == CLI_PASS_OPS] \
        or [len(latencies) / sum(latencies) * 1e9]
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else [latencies[0]] * 9
    return rates, [statistics.median(latencies)], [deciles[8]]


def cli_summary(latencies, scales, commands):
    """Top-level figures at the reference speed; "raw" ones as measured."""
    rates, p50, p90 = _cli_figures([t * s for t, s in zip(latencies, scales)])
    return {
        **_medians(rates, p50, p90),
        "raw": _medians(*_cli_figures(latencies)),
        "scale": statistics.median(scales),
        "passes": len(rates),
        "samples": len(latencies),
        "percentile_samples": len(latencies),
        "pass_spread": {"ops_per_s": iqr_share(rates)},
        "time_share": time_shares(busy_by_kind(commands, latencies)),
    }


def run_cli(ops, seconds, trace):
    checker = Checker()
    cal = process_calibration()
    *_, i = cli_ops(ops, checker, cal, count=CLI_WARMUP_OPS)
    if not trace:
        result = cli_summary(*cli_ops(ops, checker, cal, seconds=seconds, start=i)[:3])
        result["peak_rss_kb"] = cli_peak_rss_kb(ops)
        return result, checker
    untraced = cli_summary(*cli_ops(ops, checker, cal, seconds=seconds / 2, start=i)[:3])
    tracer = Tracer()
    traced_latencies, traced_scales, traced_commands, _ = cli_ops(ops, checker, cal,
                                                                  count=len(ops), tracer=tracer)
    traced = cli_summary(traced_latencies, traced_scales, traced_commands)
    layers = aggregate(tracer.spans, sum(traced_latencies), {})
    layers["tracing.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    return {"layers": layers, "untraced": untraced, "traced": traced}, checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ref = Reference(Path("src/abjadnum/data"))
    ops = workloads.build(args.workload, args.seed, ref)
    if args.workload == "cli":
        result, checker = run_cli(ops, args.seconds, args.trace)
    else:
        result, checker = run_inprocess(args.workload, ops, ref, args.seconds, args.trace)
    result.update(attempted=checker.attempted, failed=checker.failed, failures=checker.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
