"""Workload process: builds one workload's call set and runs it.

Started by ``run.py`` with the memory cap and thread pins in place; prints
one JSON object on stdout.  Modes:

* ``setup``   import vardim, build the inputs, report when ready;
* ``measure`` untraced passes over the call set for ``--seconds``;
* ``trace``   untraced passes for half of ``--seconds``, then one traced
  pass.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

_t0 = time.perf_counter()
import vardim  # noqa: E402,F401
IMPORT_MS = (time.perf_counter() - _t0) * 1e3

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

OUT_DIR = ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--workdir", required=True,
                   help="scratch directory, owned by the caller")
    return p.parse_args(argv)


class Workload:
    """A built call set; ``cli-mix`` also writes its system files to the
    scratch directory and switches its launcher when traced."""

    def __init__(self, name, seed, workdir):
        self.traced = False
        self.workdir = None
        if name == "cli-mix":
            self.workdir = workdir
            self.calls = wl.cli_mix(seed, self.workdir, ROOT, self.launcher)
        else:
            build = {"hankel-grid": wl.hankel_grid,
                     "toeplitz-ladder": wl.toeplitz_ladder,
                     "oracle-lattice": wl.oracle_lattice}[name]
            self.calls = build(seed)

    @property
    def spans_file(self):
        return os.path.join(self.workdir, "spans.npz")

    def launcher(self, argv):
        if not self.traced:
            return [sys.executable, "-m", "vardim.cli"] + argv
        return [sys.executable, os.path.join(HERE, "cli_traced.py"),
                self.spans_file] + argv

    def run_call(self, i, call):
        return wl.classify(call)


class Passes:
    """Per-call latencies in ns, scaled to the nominal host speed
    (``lat``) and as measured (``wall``), outcomes per executed call, the
    reference loop's times and the number of passes begun."""

    def __init__(self, calls):
        self.lat = [[] for _ in calls]
        self.wall = [[] for _ in calls]
        self.outs = [[] for _ in calls]
        self.refs = [hostspeed.reference_ns()]
        self.passes = 0


def run_passes(load, seconds, run_call, stopped):
    """Passes over the call set until ``seconds`` have elapsed.  The first
    pass always runs whole; a later pass ends where the time runs out, so
    a run lasts ``seconds`` plus at most one call rather than one pass.

    Each call is followed by the host-speed reference loop, so that it
    sits between two of them.  A call stopped at the deadline is charged
    the deadline as measured, since its time is the deadline's and not
    vardim's, and it is not run again: later passes repeat its outcome
    without a latency sample."""
    calls = load.calls
    run = Passes(calls)
    end = time.perf_counter() + seconds
    while run.passes == 0 or time.perf_counter() < end:
        for i, call in enumerate(calls):
            if run.passes and time.perf_counter() >= end:
                break
            if i in stopped:
                run.outs[i].append(wl.STOPPED)
                continue
            t0 = time.perf_counter_ns()
            outcome = run_call(i, call)
            took = time.perf_counter_ns() - t0
            run.refs.append(hostspeed.reference_ns())
            run.wall[i].append(took)
            run.lat[i].append(took if outcome == wl.STOPPED else
                              hostspeed.scaled(took, *run.refs[-2:]))
            run.outs[i].append(outcome)
            if outcome == wl.STOPPED:
                stopped.add(i)
        run.passes += 1
    return run


def tail(values):
    """Highest percentile with at least ten calls beyond it (nearest rank):
    (value, percentile, number of calls)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def throughput(lat, outs):
    """Completed calls per second of time spent in calls: each call counts
    once, at its median latency.  A failed call adds its time but no
    completion, so a call that slows past the deadline lowers the figure."""
    done = sum(o[-1][0] != wl.FAILED for o in outs)
    spent = sum(statistics.median(v) for v in lat if v)
    return done / (spent / 1e9)


def tally(calls, outs):
    """Counts over the passes every call took part in, so that a pass cut
    short by the time limit cannot tilt the shares, plus the label-free
    correctness checks over every executed call: well-formed outcomes
    that repeat across passes."""
    counts = dict.fromkeys(("attempted", "failed", "decided", "labelled",
                            "unsound", "malformed"), 0)
    unstable = []
    whole = min(len(history) for history in outs)
    for call, history in zip(calls, outs):
        if len({o for o in history if o[0] != wl.FAILED}) > 1:
            unstable.append(call.name)
        counts["malformed"] += sum(o[0] == wl.MALFORMED for o in history)
        for status, *_ in history[:whole]:
            counts["attempted"] += 1
            counts["failed"] += status == wl.FAILED
            counts["decided"] += status in wl.DECIDED
            if call.label is not None:
                counts["labelled"] += 1
                against = wl.AGAINST_TRUE if call.label else wl.AGAINST_FALSE
                counts["unsound"] += status in against
    counts["unstable"] = unstable
    return counts


def peak_rss_mb(load):
    """The workload process, or for cli-mix its largest vardim process."""
    who = resource.RUSAGE_CHILDREN if load.workdir else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timing(lat, outs, prefix=""):
    """Throughput, median and tail of per-call median latencies."""
    per_call_ms = [statistics.median(v) / 1e6 for v in lat]
    t_value, t_pct, t_n = tail(per_call_ms)
    return per_call_ms, (t_pct, t_n), {
        f"{prefix}checks_per_s": throughput(lat, outs),
        f"{prefix}call_ms.p50": statistics.median(per_call_ms),
        f"{prefix}call_ms.tail": t_value}


def measure(load, seconds):
    run = run_passes(load, seconds, load.run_call, set())
    per_call_ms, (t_pct, t_n), metrics = timing(run.lat, run.outs)
    metrics.update(timing(run.wall, run.outs, "wall.")[2])
    counts = tally(load.calls, run.outs)
    metrics.update({
        "peak_rss_mb": peak_rss_mb(load),
        "failed_share": counts["failed"] / counts["attempted"],
        "unsound_share": (counts["unsound"] / counts["labelled"]
                          if counts["labelled"] else 0.0),
        "decided_share": counts["decided"] / counts["attempted"],
        "host.reference_ms": statistics.median(run.refs) / 1e6,
    })
    return {"metrics": metrics, "tail_percentile": t_pct, "tail_calls": t_n,
            "passes": run.passes, "counts": counts,
            "calls": [{"name": c.name, "label": c.label, "ms": ms,
                       "outcome": list(o[-1])}
                      for c, ms, o in zip(load.calls, per_call_ms,
                                          run.outs)]}


def trace(load, seconds, workload):
    stopped = set()
    untraced_run = run_passes(load, seconds / 2, load.run_call, stopped)
    tracer = tr.Tracer()
    children = []

    def traced_call(i, call):
        idx = len(tracer)
        outcome = tracer.span("bench.call", load.run_call, i, call)
        if load.workdir and os.path.exists(load.spans_file):
            part = tr.load(load.spans_file)
            os.remove(load.spans_file)
            children.append((idx, part))
            for key, value in part["counts"].items():
                tracer.count(key, value)
        return outcome

    tracer.install()
    load.traced = True
    t0 = time.perf_counter_ns()
    try:
        traced_run = run_passes(load, 0, traced_call, set(stopped))
    finally:
        wall_ns = time.perf_counter_ns() - t0
        load.traced = False
        tracer.uninstall()

    spans = tr.merge([tracer.spans()] + [part for _, part in children])
    # A vardim process's root spans belong under the call that started it.
    offset = len(tracer)
    for idx, part in children:
        roots = np.nonzero(part["parent"] < 0)[0] + offset
        spans["parent"][roots] = idx
        offset += len(part["start"])

    selfs = tr.self_times(spans)
    layers = {}
    for name, (calls, self_ns) in tr.summarize(spans).items():
        layers[f"{name}.calls"] = calls
        layers[f"{name}.self_ms"] = self_ns / 1e6
    layers.update(tracer.counts)
    # Overhead compares the calls that ran in both: the traced pass skips
    # those stopped at the deadline.
    ran = [i for i in range(len(load.calls)) if i not in stopped]
    untraced, traced = (throughput([r.lat[i] for i in ran],
                                   [r.outs[i] for i in ran])
                        for r in (untraced_run, traced_run))
    layers["trace.untraced_checks_per_s"] = untraced
    layers["trace.traced_checks_per_s"] = traced
    layers["trace.overhead"] = untraced / traced

    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tr.save(os.path.join(out_dir, f"spans-{workload}.npz"), spans,
            tracer.counts)
    return {"layers": layers,
            "counts": tally(load.calls,
                            [u + t for u, t in zip(untraced_run.outs,
                                                   traced_run.outs)]),
            "passes": [untraced_run.passes, 1], "spans": len(selfs),
            "self_ok": bool((spans["end"] >= spans["start"]).all()
                            and (selfs >= 0).all()
                            and selfs.sum() <= wall_ns)}


def main(argv=None):
    args = parse_args(argv)
    load = Workload(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    if args.mode == "setup":
        result = {"ready": ready, "import_ms": IMPORT_MS}
    elif args.mode == "measure":
        result = measure(load, args.seconds)
    else:
        result = trace(load, args.seconds, args.workload)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
