"""The machine's speed, measured next to every timed piece of work.

On a shared two-vCPU VM the same pass took anywhere from 30 to 64 ms from
one minute to the next, as other tenants loaded the cores, and runs of
10 s stayed in one state or the other.  A fixed task timed before and after
each piece of timed work slows down in step with it, so the end-to-end
times are scaled to one reference speed, the speed at which that task
takes its reference time.  The raw times are reported next to them.

- In-process passes: a pure-Python loop over the benchmark's own
  references (reference.py, no abjadnum) on fixed inputs, 5 ms at the
  reference speed, about the fastest state of that VM.  Over five minutes
  the ratio of pass time to loop time stayed within about 5 % while the
  pass time itself moved by 1.8x.
- ``python -m abjadnum`` processes and set-up interpreters: a bare
  ``python -c pass``, 50 ms at the reference speed.  Whole processes slowed
  in episodes that the loop did not see.  Over 150 s, the run-to-run spread
  of a 20 s run's p90 process time was 15 % scaled by the run's median
  interpreter, and 5 % with each process scaled by the interpreters just
  before and after it.  Ten medians of 15 set-up probes spread by 3.6 %
  scaled this way and by 5.8 % scaled by the loop.

No change to abjadnum can move either task.
"""

import subprocess
import sys
import time

import workloads
from reference import Reference

REFERENCE_LOOP_NS = 5_000_000
REFERENCE_INTERPRETER_NS = 50_000_000
_SEED = 0


class Calibration:
    """Scale factors to the reference speed from a task timed around the work."""

    def __init__(self, task, reference_ns: int):
        self.task = task
        self.reference_ns = reference_ns
        self._time()  # warm-up
        self.last_ns = self._time()

    def _time(self) -> int:
        start = time.perf_counter_ns()
        self.task()
        return time.perf_counter_ns() - start

    def scale(self) -> float:
        """Factor from time measured since the last call to reference-speed time.

        Uses the task's run before the timed work and one run now, after it.
        """
        before, self.last_ns = self.last_ns, self._time()
        return 2 * self.reference_ns / (before + self.last_ns)


def loop_calibration(ref: Reference) -> Calibration:
    inputs = (workloads.build("manuscript", _SEED, ref)[:300]
              + workloads.build("numbers", _SEED, ref)[:600])

    def loop():
        for op in inputs:
            kind, args = op.kind, op.args
            if kind == "gematria":
                ref.gematria(*args)
            elif kind == "decode_lax":
                ref.decode(*args)
            elif kind == "decode_strict":
                ref.decode(*args, True)
            elif kind == "encode":
                ref.encode(*args)
            elif kind == "digits_round_trip":
                ref.parse(ref.render(*args), args[1])
            elif kind == "transliterate":
                ref.transliterate(*args)
            elif kind == "reading":
                ref.reading(*args)
            elif kind == "hijri_to_ce":
                ref.hijri_to_ce(*args)
            else:
                ref.ce_to_hijri(*args)

    return Calibration(loop, REFERENCE_LOOP_NS)


def process_calibration() -> Calibration:
    return Calibration(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True),
                       REFERENCE_INTERPRETER_NS)
