"""The repository benchmark: one command, three workloads, traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-bil --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``trials_per_s``,
``setup_s``, ``peak_rss_mb``) with tracing off; ``--trace 1`` runs a
fixed amount of work twice — untraced, then with every layer entry point
wrapped — and reports the per-layer metrics plus ``trace_overhead``.
Every number is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The work runs in fresh child processes (``--child``), serial executor,
with every ``REPRO_*`` knob unset.  ``setup_s`` is the median over five
fresh processes of imports plus the first (warm-up) result, and the
warm-up rows must hash identically in all five.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

#: Every run must finish well inside the contract's 180 s.
DEADLINE_S = 170.0

#: The workloads of BENCHMARK.json (defined in bench_workloads.py).
WORKLOAD_NAMES = ("sweep-bil", "crash-gauntlet", "hunt-evolve")

#: Fresh processes sampled for ``setup_s`` (the measuring one included).
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--child", choices=("measure", "setup", "trace"), help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------- children


def _environment():
    import numpy

    from repro import config

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "REPRO_VEC_THREADS": config.vec_threads(),
        "REPRO_VEC_MAX_STREAMS": config.vec_max_streams(),
        "REPRO_VEC_CRASH_MIN_STREAMS": config.crash_min_streams(),
        "REPRO_SHA256_LANES": config.sha256_lanes(),
    }


def _failed(problems):
    """Failing trials (or replays) named by a list of gate problems."""
    for problem in problems[:5]:
        print(f"gate: {problem}", file=sys.stderr)
    return len({problem.split(":")[0] for problem in problems})


def _warm_up(workload_name, seed):
    """Imports plus the first result, timed from a fresh process."""
    started = time.perf_counter()
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    warm = workload.warm_up()
    return workload, warm, time.perf_counter() - started


def child_setup(args):
    _, warm, setup_s = _warm_up(args.workload, args.seed)
    return {"setup_s": setup_s, "warm_digest": warm.rows_digest()}


def child_measure(args):
    workload, warm, setup_s = _warm_up(args.workload, args.seed)
    failed = _failed(workload.gate(warm))
    attempted = len(warm.trials)
    timed_s, timed_trials, k = 0.0, 0, 0
    while timed_s < args.seconds:
        k += 1
        started = time.perf_counter()
        unit = workload.attempt(k)
        timed_s += time.perf_counter() - started
        attempted += workload.unit_trials
        if unit is None:
            failed += workload.unit_trials
            continue
        timed_trials += len(unit.trials)
        failed += _failed(workload.gate(unit))
    return {
        "setup_s": setup_s,
        "warm_digest": warm.rows_digest(),
        "trials_per_s": timed_trials / timed_s,
        "timed_s": timed_s,
        "units": k,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": _environment(),
    }


def child_trace(args):
    from bench_tracer import Tracer, layer_metrics

    workload, _, _ = _warm_up(args.workload, args.seed)
    units = max(1, round(args.seconds / 2 / workload.unit_seconds))
    untraced_s, digests = 0.0, []
    for k in range(1, units + 1):
        started = time.perf_counter()
        unit = workload.attempt(k)
        untraced_s += time.perf_counter() - started
        digests.append(unit and unit.rows_digest())
    traced, traced_s = [], 0.0
    with Tracer() as tracer:
        for k in range(1, units + 1):
            started = time.perf_counter()
            traced.append(workload.attempt(k))
            traced_s += time.perf_counter() - started
    # Outside the tracer: gates and digests are not traced work.
    failed = 0
    for unit, digest in zip(traced, digests):
        if unit is None or digest is None:
            failed += workload.unit_trials
            continue
        problems = workload.gate(unit)
        if unit.rows_digest() != digest:
            problems.append("rows: traced and untraced results differ")
        failed += _failed(problems)
    traced = [unit for unit in traced if unit is not None]
    metrics = layer_metrics(tracer, traced, traced_s)
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")
    return {
        "attempted": 2 * units * workload.unit_trials,
        "failed": failed,
        "metrics": metrics,
        "env": _environment(),
    }


CHILDREN = {"measure": child_measure, "setup": child_setup, "trace": child_trace}


# ------------------------------------------------------------ parent process


def _spawn(args, role, deadline):
    """Run one child to completion; its last stdout line is JSON."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    command = [
        sys.executable,
        os.path.join(here, "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--child", role,
    ]
    done = subprocess.run(
        command,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
        text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def drive(args):
    deadline = time.monotonic() + DEADLINE_S
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        child = _spawn(args, "trace", deadline)
        metrics = child["metrics"]
    else:
        child = _spawn(args, "measure", deadline)
        samples = [child] + [
            _spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)
        ]
        if len({s["warm_digest"] for s in samples}) != 1:
            print("gate: warm-up rows differ between processes", file=sys.stderr)
            child["failed"] += 1
        metrics = {
            "trials_per_s": (child["trials_per_s"], "1/s"),
            "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
        print(f"timed: {child['units']} units in {child['timed_s']:.3f} s; "
              f"setup samples: "
              + ", ".join(f"{s['setup_s']:.3f}" for s in samples))
    print("env: " + " ".join(f"{k}={v}" for k, v in child["env"].items()))
    attempted, failed = child["attempted"], child["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    print(f"{'error_rate':<28} {failed / attempted:>14.6g} ratio "
          f"({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        print(json.dumps(CHILDREN[args.child](args)))
        return 0
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    try:
        result = drive(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
