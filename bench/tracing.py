"""Spans around the benchmark's calls into abjadnum, and the per-layer metrics.

A span is ``(op, name, start_ns, end_ns, calls, error)``: ``op`` identifies
the operation that caused it (None for replayed lookups, which belong to no
operation), ``calls`` is how many calls of ``name`` the span timed (a chunk
of lookups is one span), and ``error`` is true when the call ended in an
expected domain error.  Spans stay in memory and are aggregated once, when
the traced phase ends; no tracing goes inside the library.
"""

import statistics
import time

ns = time.perf_counter_ns

# Each traced function, the workload whose work it does, and the end-to-end
# metric that a change to it should move there.
LAYERS = {
    "alphabets.letter_for_codepoint": ("manuscript", "ops_per_s, op_us_p90"),
    "codec.decode_lax": ("manuscript", "ops_per_s, op_us_p90"),
    "codec.decode_strict": ("manuscript", "ops_per_s, op_us_p90"),
    "codec.gematria": ("manuscript", "ops_per_s, op_us_p90"),
    "alphabets.letter_by_value": ("numbers", "ops_per_s"),
    "codec.encode": ("numbers", "ops_per_s"),
    "digits.render_digits": ("numbers", "ops_per_s"),
    "digits.parse_digits": ("numbers", "ops_per_s"),
    "digits.transliterate": ("numbers", "ops_per_s"),
    "reading.decompose": ("numbers", "ops_per_s"),
    "reading.format_reading": ("numbers", "ops_per_s"),
    # under 1 us a call: the prediction is no visible end-to-end change
    "chronology.hijri_to_gregorian_year": ("numbers", "ops_per_s"),
    "chronology.gregorian_to_hijri_year": ("numbers", "ops_per_s"),
    "digits.digit_provenance": ("cli", "op_us_p50"),
    "cli.build_parser": ("cli", "op_us_p50"),
    "cli.parse_args": ("cli", "op_us_p50"),
    "cli.main": ("cli", "op_us_p50"),
}

SUFFIXES = {
    "calls": "count",
    "busy_us": "us",
    "ns_per_call_p50": "ns",
    "errors": "count",
    "share": "ratio",
}

# Normalised cost -> the function whose busy time is divided by the characters
# or digits it was handed.
NORMALISED = {
    "codec.gematria.ns_per_char": "codec.gematria",
    "digits.render_digits.ns_per_digit": "digits.render_digits",
    "digits.transliterate.ns_per_char": "digits.transliterate",
}

# -X importtime figures: metric -> (module, column).  Self time is a
# module's own body (for alphabets and digits, the TSV load); a package's
# self time leaves out its submodules, so the cumulative time of abjadnum
# and of the two stdlib packages it pulls in is reported as well.
IMPORTS = {
    "import.abjadnum_us": ("abjadnum", "self"),
    "import.abjadnum.alphabets_us": ("abjadnum.alphabets", "self"),
    "import.abjadnum.codec_us": ("abjadnum.codec", "self"),
    "import.abjadnum.digits_us": ("abjadnum.digits", "self"),
    "import.abjadnum.reading_us": ("abjadnum.reading", "self"),
    "import.abjadnum.chronology_us": ("abjadnum.chronology", "self"),
    "import.abjadnum.cli_us": ("abjadnum.cli", "self"),
    "import.importlib.resources_us": ("importlib.resources", "self"),
    "import.argparse_us": ("argparse", "self"),
    "import.abjadnum.cumulative_us": ("abjadnum", "cumulative"),
    "import.importlib.resources.cumulative_us": ("importlib.resources", "cumulative"),
    "import.argparse.cumulative_us": ("argparse", "cumulative"),
}

OTHER = {
    "import.heap_kb": ("KiB", "lower"),
    "process.interpreter_ms": ("ms", "lower"),
    "tracing.overhead_ratio": ("ratio", "higher"),
}


def per_layer_declarations() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in order."""
    out = [{"name": f"{fn}.{suffix}", "unit": unit, "better": "lower"}
           for fn in LAYERS for suffix, unit in SUFFIXES.items()]
    out += [{"name": name, "unit": "ns", "better": "lower"} for name in NORMALISED]
    out += [{"name": name, "unit": "us", "better": "lower"} for name in IMPORTS]
    out += [{"name": name, "unit": unit, "better": better}
            for name, (unit, better) in OTHER.items()]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None

    def record(self, name, start, end, calls=1, error=False):
        self.spans.append((self.op, name, start, end, calls, error))

    def call(self, name, fn, *args):
        """fn(*args) inside a span; a raised error marks the span and propagates."""
        start = ns()
        try:
            out = fn(*args)
        except Exception:
            self.record(name, start, ns(), error=True)
            raise
        self.record(name, start, ns())
        return out


def iqr_share(values) -> float:
    """Distance between the quartiles as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def aggregate(spans, op_time_ns: int, input_sizes: dict) -> dict:
    """Per-function metrics over `spans`.

    ``share`` is busy time over `op_time_ns`, the summed duration of the
    traced operations.  `input_sizes` maps a function to the characters or
    digits it was handed over the whole traced phase, for NORMALISED.
    Functions with no span report zeros: their layer did no work.
    """
    per_call = {fn: [] for fn in LAYERS}
    metrics = {}
    for fn in LAYERS:
        for suffix in SUFFIXES:
            metrics[f"{fn}.{suffix}"] = 0
    for _, name, start, end, calls, error in spans:
        busy = end - start
        per_call[name].append(busy / calls)
        metrics[f"{name}.calls"] += calls
        metrics[f"{name}.busy_us"] += busy / 1000
        metrics[f"{name}.errors"] += int(error)
    for fn, samples in per_call.items():
        if samples:
            metrics[f"{fn}.ns_per_call_p50"] = statistics.median(samples)
            metrics[f"{fn}.share"] = metrics[f"{fn}.busy_us"] * 1000 / op_time_ns
    for name, fn in NORMALISED.items():
        size = input_sizes.get(fn, 0)
        metrics[name] = metrics[f"{fn}.busy_us"] * 1000 / size if size else 0
    return metrics
