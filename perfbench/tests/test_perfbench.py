"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

import vardim  # noqa: E402

IN_PROCESS = (wl.hankel_grid, wl.toeplitz_ladder, wl.oracle_lattice)


def _systems(calls):
    out = []
    for call in calls:
        s = call.case.system
        if isinstance(s, vardim.PartialFractionSystem):
            out.append(("pfs", s.terms))
        elif isinstance(s, vardim.RationalTransferFunction):
            out.append(("rtf", s.num, s.den))
        else:
            out.append(("ss", s.A.tolist(), s.b.tolist(), s.c.tolist()))
    return out


@pytest.mark.parametrize("build", IN_PROCESS)
def test_generator_is_deterministic_per_seed(build):
    a, b, c = build(7), build(7), build(8)
    assert [x.name for x in a] == [x.name for x in b]
    assert [x.label for x in a] == [x.label for x in b]
    assert _systems(a) == _systems(b)
    assert _systems(a) != _systems(c)
    # Another seed moves magnitudes, never the questions or their labels.
    assert [(x.name, x.label) for x in a] == [(x.name, x.label) for x in c]


def test_cli_mix_is_a_seeded_order_of_fixed_processes(tmp_path):
    texts, orders = [], []
    for run, seed in (("a", 3), ("b", 3), ("c", 4)):
        workdir = tmp_path / run
        workdir.mkdir()
        calls = wl.cli_mix(seed, str(workdir), ROOT, list)
        texts.append({p.name: p.read_text() for p in workdir.iterdir()})
        orders.append([c.name for c in calls])
    assert texts[0] == texts[1] == texts[2] and len(texts[0]) == 9
    assert orders[0] == orders[1] and orders[0] != orders[2]
    assert sorted(orders[0]) == sorted(orders[2]) and len(orders[0]) == 27
    assert {c.name.split()[1] for c in calls} == {"pfs", "rtf", "ss"}


def _assert_construction(case):
    poles = np.asarray(case.poles)
    assert np.all(poles > 0) and np.all(np.diff(poles) < 0)
    if case.kind == "positive-bank":
        assert all(r > 0 for r in case.residues)
        assert case.system.terms == tuple(zip(case.residues, case.poles))
    elif case.kind == "serial-cascade":
        assert case.gain > 0 and all(z <= 0 for z in case.zeros)
        res = gen.cascade_residues(case.poles, case.zeros, case.gain)
        assert np.allclose(res, case.residues)
        # Serial-lag residues alternate in dominance order.
        assert all((r > 0) == (i % 2 == 0) for i, r in enumerate(res))
        s = case.system
        if isinstance(s, vardim.RationalTransferFunction):
            num = case.gain * np.atleast_1d(np.poly(case.zeros))
            assert np.allclose(s.num, num) and np.allclose(s.den,
                                                           np.poly(poles))
        else:
            assert np.allclose([r for r, _ in s.terms], res)
    else:
        pytest.fail(f"{case.kind} is labelled true without a construction")


@pytest.mark.parametrize("build", IN_PROCESS)
def test_true_labels_satisfy_their_construction(build):
    calls = build(11)
    trues = [c for c in calls if c.label is True]
    assert trues
    for call in trues:
        _assert_construction(call.case)


def test_false_labels_break_the_necessary_pattern():
    rng = gen.rng_for("test", 0)
    for n, k in gen.grid():
        neg = gen.negated_bank(n, k, rng)
        assert neg.residues[k - 1] < 0 and neg.label("hankel", k) is False
        alt = gen.broken_alternating_bank(n, k, rng)
        signs = [r > 0 for r in alt.residues[:k]]
        assert signs != [i % 2 == 0 for i in range(k)]
        assert alt.label("toeplitz", k) is False
        flip = gen.serial_cascade(n, rng, sign=-1.0)
        assert flip.gain < 0 and flip.label("toeplitz", k) is False


def test_self_times_are_nonnegative_and_within_wall_time():
    calls = wl.hankel_grid(1)[:9] + wl.toeplitz_ladder(1)[:6]
    tracer = tr.Tracer()
    tracer.install()
    try:
        import time
        t0 = time.perf_counter_ns()
        for call in calls:
            tracer.span("bench.call", wl.classify, call)
        wall = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    selfs = tr.self_times(spans)
    assert len(selfs) > len(calls)
    assert (selfs >= 0).all()
    assert selfs.sum() <= wall
    summary = tr.summarize(spans)
    assert summary["bench.call"][0] == len(calls)
    assert summary["positivity.check_hankel_k"][0] == 9
    # Uninstall restores every binding.
    assert vardim.positivity.impulse_response is vardim.lti.impulse_response
    assert not hasattr(vardim.check_hankel_k, "__wrapped__")


def test_self_time_of_nested_spans():
    spans = {"names": ["a", "b"], "name": np.array([0, 1, 1, 0]),
             "parent": np.array([-1, 0, 0, -1]),
             "start": np.array([0, 10, 40, 100]),
             "end": np.array([100, 30, 50, 120])}
    assert tr.self_times(spans).tolist() == [70, 20, 10, 20]
    assert tr.summarize(spans) == {"a": (2, 90.0), "b": (2, 30.0)}


def test_scaling_cancels_a_change_of_host_speed():
    nominal = hostspeed.scaled(5e6, 2e6, 4e6)
    assert nominal == pytest.approx(5e6 * hostspeed.NOMINAL_NS / 3e6)
    assert hostspeed.scaled(2 * 5e6, 2 * 2e6, 2 * 4e6) == pytest.approx(
        nominal)


def test_passes_stop_when_the_time_runs_out():
    import time

    class Load:
        calls = [None] * 4

    def run_call(i, call):
        time.sleep(0.05)
        return ("ok",)

    run = worker.run_passes(Load(), 0.35, run_call, set())
    done = [len(v) for v in run.outs]
    # The first pass is whole; the second ends after a call or two.
    assert run.passes == 2 and min(done) == 1 and 5 <= sum(done) < 8
    assert [len(v) for v in run.lat] == done == [len(v) for v in run.wall]
    assert len(run.refs) == sum(done) + 1


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_command_prints_every_metric_with_its_unit(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    proc = _run(["--workload", "oracle-lattice", "--seed", "1",
                 "--seconds", "0", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    table = {line.split()[0]: line.split()[2] for line in lines[1:-1]
             if line.startswith("  ") and len(line.split()) >= 3}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]] == m["unit"]
    if trace == "0":
        for name in ("unsound_share", "failed_share"):
            assert name in table


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "hankel-grid", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
