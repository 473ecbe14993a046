"""vardim benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own child process
under an address-space cap, with BLAS/OpenMP threads pinned to 1 and a
wall-clock timeout.  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer metrics.  A
table of every metric with its unit comes first; the last line of stdout
is one JSON object.  ``--workload all`` runs every workload both ways and
prints every metric.  Timings are scaled to a nominal host speed by a
reference loop run beside them (``hostspeed.py``); the table also prints
them as measured, under ``wall.``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set before numpy loads, so that it holds here and in every child.
os.environ.update({name: "1" for name in THREAD_ENV})

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = ".perfbench_work"

# Address-space cap of every workload process, far below machine memory:
# an oversized compound matrix raises MemoryError instead of paging.
MEMORY_CAP = 1536 << 20
# Wall-clock limit of one workload process beyond the requested seconds:
# the first pass and a traced pass run whole, and a pass can take far
# longer than the requested time when calls run into the per-call deadline.
WORKER_MARGIN_S = 120.0
# Fresh-interpreter set-ups per run, split around the measured run so that
# their median spans it.
SETUP_RUNS = (3, 4)

# Metrics printed beside the BENCHMARK.json ones: the shares whose
# complements are gated (those stay away from zero), the timings as
# measured before scaling to the nominal host speed, and the reference
# loop's median time, which shows how fast the host ran.
EXTRA_UNITS = {"failed_share": "ratio", "unsound_share": "ratio",
               "wall.setup_s": "s", "wall.checks_per_s": "1/s",
               "wall.call_ms.p50": "ms", "wall.call_ms.tail": "ms",
               "host.reference_ms": "ms"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # One hash layout for every process, so that runs differ only by seed.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_worker(workload, seed, seconds, mode, timeout):
    """Start one worker; return (its JSON result, monotonic start time).
    The worker's scratch directory is made and removed here, so that it
    goes away even when the worker is killed."""
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-",
                               dir=os.path.join(ROOT, WORK_DIR))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--workdir", workdir]
    started = time.monotonic()
    # Its own session, so that a timeout also ends the vardim processes a
    # cli-mix worker has started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT,
                            preexec_fn=_cap_memory, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} run exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, WORK_DIR))
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited "
                         f"{proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1]), started


def setup_samples(workload, seed, runs, samples):
    """Fresh-interpreter set-ups: (seconds from spawn to first call ready,
    scaled to the nominal host speed; the same as measured; milliseconds
    `import vardim` took inside it), appended to samples."""
    for _ in range(runs):
        before = hostspeed.reference_ns()
        res, started = run_worker(workload, seed, 0, "setup", 60)
        after = hostspeed.reference_ns()
        took = res["ready"] - started
        samples.append((hostspeed.scaled(took, before, after), took,
                        res["import_ms"]))
    return samples


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure_run(workload, seed, seconds, spec):
    """End-to-end metrics, from an untraced run."""
    setups = setup_samples(workload, seed, SETUP_RUNS[0], [])
    res, _ = run_worker(workload, seed, seconds, "measure",
                        seconds + WORKER_MARGIN_S)
    setup_samples(workload, seed, SETUP_RUNS[1], setups)
    metrics = dict(res["metrics"],
                   setup_s=statistics.median(s[0] for s in setups))
    metrics["wall.setup_s"] = statistics.median(s[1] for s in setups)
    metrics["sound_share"] = 1.0 - metrics["unsound_share"]
    metrics["completed_share"] = 1.0 - metrics["failed_share"]
    notes = {"call_ms.tail": f"p{res['tail_percentile']:.1f} of "
                             f"{res['tail_calls']} calls",
             "checks_per_s": f"{res['tail_calls']} calls, "
                             f"{res['passes']} passes"}
    counts = res["counts"]
    correct = counts["malformed"] == 0 and not counts["unstable"]
    return (spec["end_to_end"], EXTRA_UNITS, metrics, notes, counts,
            correct)


def trace_run(workload, seed, seconds, spec):
    """Per-layer metrics, from a traced run."""
    setups = setup_samples(workload, seed, SETUP_RUNS[0], [])
    res, _ = run_worker(workload, seed, seconds, "trace",
                        seconds + WORKER_MARGIN_S)
    metrics = dict(res["layers"])
    metrics["cli.import_ms"] = statistics.median(s[2] for s in setups)
    notes = {"trace.overhead": f"{res['spans']} spans, passes untraced/"
                               f"traced {res['passes'][0]}/"
                               f"{res['passes'][1]}"}
    counts = res["counts"]
    correct = (counts["malformed"] == 0 and not counts["unstable"]
               and res["self_ok"])
    return spec["per_layer"], {}, metrics, notes, counts, correct


def report(title, listed, extra_units, metrics, notes, counts, correct):
    """Print every metric with its unit; return the result object.  A
    layer the run never entered reads 0."""
    units = {m["name"]: m["unit"] for m in listed}
    units.update(extra_units)
    print(f"== {title}")
    for name in sorted(units):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {metrics.get(name, 0.0):>14.6g} "
              f"{units[name]}{note}")
    if counts["unstable"]:
        print(f"  outcomes changed between passes: {counts['unstable']}")
    return {"correct": bool(correct), "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0)),
                                    "unit": m["unit"]} for m in listed}}


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "vardim", "__init__.py")):
        sys.stderr.write(f"error: no vardim sources under {ROOT}/src\n")
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    hostspeed.pin_to_one_cpu()
    if args.workload == "all":
        runs = [(f"{name} ({kind})", name, run) for name in names
                for kind, run in (("end to end", measure_run),
                                  ("traced", trace_run))]
    else:
        runs = [(args.workload, args.workload,
                 trace_run if args.trace else measure_run)]
    results = {}
    try:
        for title, name, run in runs:
            results[title] = report(title, *run(name, args.seed,
                                                 args.seconds, spec))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps(results if len(runs) > 1 else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
