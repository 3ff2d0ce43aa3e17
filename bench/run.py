"""The abjadnum benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload manuscript --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; abjadnum is loaded from its ``src``.  With
``--trace 0`` it measures the end-to-end metrics: set-up in fresh
interpreters, then the workload in a child process (worker.py).  Their
times are scaled to one reference machine speed (calibration.py); the raw
times are printed above the last line.  With
``--trace 1`` it measures the per-layer metrics instead: import times from
``-X importtime``, a bare interpreter, and the worker's traced phase.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines above it report every metric with
its spread, sample count and the environment.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import process_calibration  # noqa: E402
from tracing import IMPORTS, LAYERS, iqr_share, per_layer_declarations  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 15
IMPORT_RUNS = 7
HEAP_RUNS = 3
INTERPRETER_RUNS = 7
CHILD_TIMEOUT_S = 30


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Children load abjadnum from cached bytecode, as an installed package
    # does, whatever the caller's setting; the first child writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# Runs the command in its arguments and exits with its code, killing it
# after the given seconds.  Linux keeps a process's peak RSS across exec, and
# a child of run.py would start from run.py's peak; started from this bare
# interpreter, the worker's peak RSS is its own.
_LAUNCHER = ("import subprocess, sys; "
             "sys.exit(subprocess.run(sys.argv[2:], timeout=float(sys.argv[1])).returncode)")


def run_child(args, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(), "commit": commit,
            "nproc": os.cpu_count(), "seed": seed}


# -- end to end -----------------------------------------------------------


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds of import plus first calls in fresh interpreters: (scaled, raw).

    Each probe is scaled by the bare interpreters started just before and
    after it, as the cli processes are: set-up is a fresh process's work.
    """
    probe = [str(BENCH / "probe.py"), workload]
    cal = process_calibration()
    run_child(probe)  # warm-up: writes the bytecode caches
    cal.scale()
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        seconds = float(run_child(probe).stdout)
        raw.append(seconds)
        scaled.append(seconds * cal.scale())
    return scaled, raw


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    timeout = 2 * seconds + 90
    proc = run_child(["-c", _LAUNCHER, str(timeout), sys.executable, str(BENCH / "worker.py"),
                      "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)],
                     timeout=timeout + 10)
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float):
    setup, setup_raw = measure_setup(workload)
    result = run_worker(workload, seed, seconds, 0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (result["ops_per_s"], "1/s"),
        "op_us_p50": (result["op_us_p50"], "us"),
        "op_us_p90": (result["op_us_p90"], "us"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    spread = dict(result["pass_spread"], setup_s=iqr_share(setup))
    detail = {
        "samples": {"setup_s": len(setup), "ops": result["samples"], "passes": result["passes"],
                    "per_percentile": result["percentile_samples"]},
        "spread_within_run": spread,
        "raw": dict(result["raw"], setup_s=statistics.median(setup_raw)),
        "speed_scale": result["scale"],
        "time_share": result["time_share"],
    }
    return metrics, result, detail


# -- traced ---------------------------------------------------------------


def import_times(workload: str) -> dict:
    """Median -X importtime figures (us) of the workload's top-level import."""
    module = "abjadnum.cli" if workload == "cli" else "abjadnum"
    run_child(["-c", f"import {module}"])  # warm-up: writes the bytecode caches
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = run_child(["-X", "importtime", "-c", f"import {module}"])
        table = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                table[fields[2].strip()] = (int(fields[0]), int(fields[1]))
        runs.append(table)
    out = {}
    for name, (module_name, column) in IMPORTS.items():
        index = 0 if column == "self" else 1
        # a module this workload never imports costs it nothing
        out[name] = statistics.median(run.get(module_name, (0, 0))[index] for run in runs)
    return out


def import_heap_kb(workload: str) -> float:
    """KiB that the workload's import and first calls leave allocated (probe.py --heap)."""
    probe = [str(BENCH / "probe.py"), workload, "--heap"]
    return statistics.median(float(run_child(probe).stdout) for _ in range(HEAP_RUNS))


def interpreter_ms() -> float:
    times = []
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        run_child(["-c", "pass"])
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def traced(workload: str, seed: int, seconds: float):
    imports = import_times(workload)
    heap = import_heap_kb(workload)
    interpreter = interpreter_ms()
    result = run_worker(workload, seed, seconds, 1)
    units = {d["name"]: d["unit"] for d in per_layer_declarations()}
    values = dict(result["layers"], **imports)
    values["import.heap_kb"] = heap
    values["process.interpreter_ms"] = interpreter
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    detail = {
        "samples": {"untraced_ops": result["untraced"]["samples"],
                    "traced_ops": result["traced"]["samples"],
                    "import_runs": IMPORT_RUNS, "interpreter_runs": INTERPRETER_RUNS},
        "ops_per_s": {"untraced": result["untraced"]["ops_per_s"],
                      "traced": result["traced"]["ops_per_s"]},
        "time_share": result["traced"]["time_share"],
    }
    return metrics, result, detail


# -- report ---------------------------------------------------------------


def report(workload, trace, metrics, result, detail, env):
    print(f"abjadnum benchmark: workload={workload} trace={trace} seed={env['seed']} "
          f"python={env['python']} commit={env['commit'][:12]} nproc={env['nproc']}")
    spread = detail.get("spread_within_run", {})
    for name, (value, unit) in metrics.items():
        note = ""
        if name in spread:
            note = f"  (IQR {spread[name]:.1%} of median across passes/probes)"
        fn = name.rsplit(".", 1)[0]
        if trace and fn in LAYERS and name.endswith(".busy_us"):
            where, moves = LAYERS[fn]
            note = f"  -> {moves} on {where}"
        print(f"  {name:<48} {value:>14.4f} {unit}{note}")
    print("  share of op time: " + ", ".join(
        f"{kind} {share:.1%}" for kind, share in detail["time_share"].items()))
    print(f"  fail_ratio = failed/attempted = {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"  mismatch: {failure}")
    print(json.dumps({"environment": env, **detail}))


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    measure = traced if trace else end_to_end
    metrics, result, detail = measure(workload, seed, seconds)
    env = environment(seed)
    report(workload, trace, metrics, result, detail, env)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "abjadnum" / "__init__.py").is_file():
        print(f"no abjadnum sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in selected:
        print(json.dumps(run_one(workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
