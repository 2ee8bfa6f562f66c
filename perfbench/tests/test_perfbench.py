"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, mutatees as mt, workloads as wl
from perfbench.hostspeed import HostMeter
from perfbench.oracle import stdout_matches
from perfbench.run import check_history
from perfbench.spans import NullTracer, Tracer, self_times
from perfbench.stats import Tally, highest_supported, tail

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


# -- the tail-percentile rule ----------------------------------------------

def test_tail_leaves_ten_samples_beyond():
    values = list(range(100))
    value, pct, n = tail(values)
    assert (value, pct, n) == (89, 90.0, 100)
    assert sum(v > value for v in values) == 10
    assert highest_supported(list(reversed(range(1000)))) == (989, 99.0)


def test_tail_smallest_sample_count():
    value, pct, _ = tail([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert value == 1 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_tail_is_the_median_over_chunks():
    # 3 chunks of 100 in completion order; one chunk holds a stall
    chunks = [list(range(100)), list(range(100, 200)), list(range(200, 300))]
    chunks[1][50] = 10_000
    value, pct, n = tail([v for c in chunks for v in c])
    assert n == 300 and pct == 90.0
    assert value == 190   # chunk tails 89, 190, 289: the median
    # 150 or 199 sessions: one whole chunk, the rest left out, still p90
    for n in (150, 199):
        assert tail(list(range(n))) == (89, 90.0, n)
    # fewer than a chunk: 11th slowest, nearest-rank p80 of 50
    assert tail(list(range(50))) == (39, 80.0, 50)
    # a smaller chunk: 50 or 79 sessions are one chunk of 40, p75
    for n in (50, 79):
        assert tail(list(range(n)), chunk=40) == (29, 75.0, n)


# -- self time --------------------------------------------------------------

def _span(idx, name, start, end, parent=None, sid=0):
    return [sid, name, start, end, parent, idx]


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, "sim.run", 0.0, 10.0),
        _span(1, "sim.jit", 1.0, 3.0, parent=0),
        _span(2, "sim.jit", 2.0, 5.0, parent=0),   # overlaps span 1
        _span(3, "inner", 1.5, 2.5, parent=1),
        _span(4, "patch.commit", 10.0, 12.0),
    ]
    st = self_times(spans)
    assert st["sim.run"] == pytest.approx(10.0 - 4.0)
    assert st["sim.jit"] == pytest.approx((2.0 - 1.0) + 3.0)
    assert st["inner"] == pytest.approx(1.0)
    assert st["patch.commit"] == pytest.approx(2.0)


def test_tracer_self_times_add_up_to_outer_span():
    tr = Tracer()
    with tr.session(7):
        with tr.span("outer"):
            with tr.span("a"):
                with tr.span("b"):
                    sum(range(1000))
            with tr.span("c"):
                sum(range(1000))
    outer = tr.spans[0]
    assert {s[0] for s in tr.spans} == {7}
    assert [s[4] for s in tr.spans] == [None, 0, 1, 0]
    total = sum(self_times(tr.spans).values())
    assert total == pytest.approx(outer[3] - outer[2])


# -- host-speed scaling -----------------------------------------------------

def test_host_scale_is_the_median_around_a_bracket():
    meter = HostMeter(1000)
    slow = 2 * meter.nominal
    # a host at half speed, with one momentary fast sample at index 3
    meter.samples = [slow, slow, slow, meter.nominal / 4, slow, slow, slow]
    assert meter.scale(2, 3) == pytest.approx(0.5)
    assert meter.scale(0, 1) == pytest.approx(0.5)
    assert meter.median_scale() == pytest.approx(0.5)
    idx = meter.sample()
    assert idx == 7 and meter.samples[idx] > 0


# -- failure accounting -----------------------------------------------------

def test_tally_counts_every_kind_of_failure():
    t = Tally()
    for failure in (None, None, "raised ServiceError: Overloaded",
                    "counter of main differs from the oracle", None):
        t.record(failure)
    assert (t.attempted, t.failed) == (5, 2)
    assert t.failed_frac == pytest.approx(0.4)


@pytest.fixture(scope="module")
def tiny_prep():
    return wl.prepare(mt.tiny_mix(3)[0])


def test_oracle_mismatch_counts_as_failure(tiny_prep):
    prep = tiny_prep
    edit = wl.session_cold(prep, NullTracer())
    counters = {}
    m, ev, _ = wl.instrument_and_run(edit, prep, NullTracer(),
                                          counters)
    assert wl.check_run(prep, m, ev, counters, edit) is None
    fn, (var, pcs) = next(iter(counters.items()))
    m.mem.write_int(var.address, edit.read_variable(m, var) + 1, 8)
    failure = wl.check_run(prep, m, ev, counters, edit)
    assert failure == f"counter of {fn} differs from the oracle"
    tally = Tally()
    tally.record(None)
    tally.record(failure)
    assert tally.failed_frac == 0.5


def test_stdout_clock_lines_may_only_grow(tiny_prep):
    exp = tiny_prep.expected
    assert stdout_matches(exp, exp.stdout)
    clocked = type(exp)(b"100\n7\n", 0, {}, 0, 0.0)
    assert stdout_matches(clocked, b"120\n7\n", clock_lines=(0,))
    assert not stdout_matches(clocked, b"90\n7\n", clock_lines=(0,))
    assert not stdout_matches(clocked, b"120\n8\n", clock_lines=(0,))


def test_inputs_repeat_for_a_seed():
    assert [m.source for m in mt.cold_mix(5)] == \
        [m.source for m in mt.cold_mix(5)]
    assert mt.matmul(5).source == mt.matmul(5).source
    assert len({mt.matmul(s).source for s in range(5)}) > 1


# -- run records ------------------------------------------------------------

def test_history_flags_counter_drift(tmp_path):
    rec = {"code": "c", "workload": "cold_mix", "seed": 1, "tiny": False,
           "deterministic": {"bb_overhead_pct": 12.5, "patch.points": 9}}
    hist = tmp_path / "h.jsonl"
    assert check_history(hist, rec) == []
    hist.write_text(json.dumps(rec) + "\n")
    assert check_history(hist, rec) == []
    drifted = dict(rec, deterministic={"bb_overhead_pct": 12.6,
                                       "patch.points": 9})
    assert check_history(hist, drifted) == [
        "bb_overhead_pct: 12.5 earlier, 12.6 now"]
    other_seed = dict(drifted, seed=2)
    assert check_history(hist, other_seed) == []


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


# -- smoke runs at tiny sizes ----------------------------------------------

def _run(tmp_path, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--seconds", "0.3", "--tiny",
         "--history", str(tmp_path / "h.jsonl"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_smoke_each_workload(tmp_path, workload):
    proc = _run(tmp_path, "--workload", workload, "--seed", "4")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= wl.MIN_SESSIONS
    got = res["metrics"]
    assert list(got) == [n for n, _, _ in metrics.END_TO_END]
    assert all(v["value"] > 0 for v in got.values()), got


def test_smoke_traced_run_partitions_the_session(tmp_path):
    proc = _run(tmp_path, "--workload", "cold_mix", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    got = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(got) == [n for n, _, _ in metrics.PER_LAYER]
    part = sum(got[n] for n in wl.PARTITION["cold_mix"])
    assert part == pytest.approx(got["session_ms"])
    assert got["sim.execute_ms"] == pytest.approx(
        got["sim.run_ms"] - got["sim.jit_ms"])
    assert got["patch.points"] > 0 and got["sim.instructions_retired"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "history.jsonl"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matmul_bb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
