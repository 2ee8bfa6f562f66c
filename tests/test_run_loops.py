"""The simulator's run paths against each other.

However execution is sliced — one unbounded ``run()``, ``run(k)``
slices, a ``step()`` loop, or a budgeted ``run(max_instructions=...)``
— a program must end in the same architectural state with the same
work counts, and an attached observer must see the same event stream:
an event trace is a property of the program, not of how its execution
was cut up.
"""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.minicc import compile_source
from repro.minicc.workloads import fib_source, matmul_source, nbody_source
from repro.riscv import assemble
from repro.sim import Machine, P550, StopReason
from repro.sim.machine import InstructionBudgetExceeded
from repro.telemetry.events import BLOCK, FAULT, EventStream

from strategies import examples

PROGRAMS = {
    "fib": compile_source(fib_source(8)),
    "matmul": compile_source(matmul_source(6, 2)),
    "nbody": compile_source(nbody_source(3, 4)),  # doubles, div, compares
}

#: large enough that no stream below drops an event
CAPACITY = 1 << 20


def _state(m, ev):
    return (ev.reason, ev.pc, ev.exit_code, m.pc, tuple(m.x), tuple(m.f),
            m.instret, m.ucycles, bytes(m.stdout), m.exit_code)


def _machine(prog, granularity=None, **kw):
    m = Machine(P550, **kw)
    m.load_program(prog)
    es = None
    if granularity is not None:
        es = m.attach_observer(EventStream(capacity=CAPACITY,
                                           granularity=granularity))
    return m, es


def _run_whole(m):
    return m.run()


def _run_sliced(sizes):
    def go(m):
        i = 0
        while True:
            ev = m.run(sizes[i % len(sizes)])
            i += 1
            if ev.reason is not StopReason.STEPS_EXHAUSTED:
                return ev
    return go


def _run_stepped(m):
    while True:
        ev = m.step()
        if ev is not None:
            return ev


def _run_budgeted(m):
    return m.run(max_instructions=10_000_000)


WAYS = {
    "slices-1": _run_sliced([1]),
    "slices-7": _run_sliced([7]),
    "slices-1000": _run_sliced([1000]),
    "steps": _run_stepped,
    "budget": _run_budgeted,
}


def _outcome(prog, way, granularity=None, **kw):
    m, es = _machine(prog, granularity, **kw)
    ev = way(m)
    assert ev.reason is StopReason.EXITED
    events = None
    if es is not None:
        assert es.dropped == 0
        events = list(es)
    return _state(m, ev), events


@pytest.mark.parametrize("way", sorted(WAYS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestSlicingIsInvisible:
    def test_state_and_counts(self, name, way):
        prog = PROGRAMS[name]
        want, _ = _outcome(prog, _run_whole)
        assert _outcome(prog, WAYS[way])[0] == want
        untraced, _ = _outcome(prog, WAYS[way], trace_compile=False)
        assert untraced == want

    def test_instruction_events(self, name, way):
        prog = PROGRAMS[name]
        want = _outcome(prog, _run_whole, "instruction")
        got = _outcome(prog, WAYS[way], "instruction")
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert want[1][0][0] == BLOCK

    def test_block_events_untraced(self, name, way):
        prog = PROGRAMS[name]
        want = _outcome(prog, _run_whole, "block", trace_compile=False)
        got = _outcome(prog, WAYS[way], "block", trace_compile=False)
        assert got == want
        assert {e[0] for e in want[1]} == {BLOCK}


@settings(max_examples=examples(10), deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=8),
       granularity=st.sampled_from(["instruction", "block"]))
def test_random_slices_match_one_run(sizes, granularity):
    prog = PROGRAMS["fib"]
    want = _outcome(prog, _run_whole, granularity, trace_compile=False)
    got = _outcome(prog, _run_sliced(sizes), granularity,
                   trace_compile=False)
    assert got == want


FAULTING = assemble("""
_start:
  li t0, 16
  addi t0, t0, 8
  ld t1, 0(t0)
  li a7, 93
  ecall
""")


@pytest.mark.parametrize("granularity", ["instruction", "block"])
def test_faulting_step_emits_fault(granularity):
    m, es = _machine(FAULTING, granularity)
    ev = _run_stepped(m)
    assert ev.reason is StopReason.FAULT
    events = list(es)
    assert events[-1][0] == FAULT and events[-1][1] == ev.pc == m.pc
    ref, ref_es = _machine(FAULTING, granularity)
    ref_ev = ref.run()
    assert (ev, m.instret, m.ucycles) == (ref_ev, ref.instret, ref.ucycles)
    assert events == list(ref_es)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_slices_then_one_run_match_one_run(name):
    """Bounded slices followed by an unbounded (traced) run emit the
    instruction-granularity stream of one run()."""
    prog = PROGRAMS[name]

    def mixed(m):
        for _ in range(3):
            m.run(7)
        m.step()
        return m.run()

    want = _outcome(prog, _run_whole, "instruction")
    assert _outcome(prog, mixed, "instruction") == want


BREAK_MID_BLOCK = assemble("""
_start:
  li a0, 1
  addi a0, a0, 1
  ebreak
  addi a0, a0, 1
  addi a0, a0, 1
  li a7, 93
  ecall
""")


def _resume_events(resume):
    """Block events a traced, block-observed machine emits after a
    breakpoint stop, resumed past the ebreak by *resume*."""
    m, es = _machine(BREAK_MID_BLOCK, "block")
    m.run(1)  # a bounded slice ends mid-block
    ev = m.run()
    assert ev.reason is StopReason.BREAKPOINT
    low = m.read_mem(ev.pc, 1)[0]
    m.pc = ev.pc + (4 if low & 3 == 3 else 2)
    before = len(list(es))
    assert resume(m).reason is StopReason.EXITED
    return list(es)[before:]


def test_traced_block_stream_resumes_the_same_way_sliced():
    """A traced block stream emits BLOCK at every trace entry; after a
    traced run, a bounded run starts a block too, so resuming in slices
    emits what resuming with run() does."""
    want = _resume_events(_run_whole)
    assert want and want[0][0] == BLOCK
    assert _resume_events(_run_sliced([1])) == want
    assert _resume_events(_run_stepped) == want


def test_bounded_run_report_names_exhausted_bound():
    m, _ = _machine(PROGRAMS["fib"])
    buf = io.StringIO()
    ev = m.run(5, report=buf)
    assert ev.reason is StopReason.STEPS_EXHAUSTED and ev.pc == m.pc
    assert m.instret == 5
    assert buf.getvalue().startswith("sim.run: steps-exhausted at pc=")


@pytest.mark.parametrize("granularity", [None, "instruction"])
def test_budget_with_report_raises_after_reporting(granularity):
    m, es = _machine(PROGRAMS["fib"], granularity)
    buf = io.StringIO()
    with pytest.raises(InstructionBudgetExceeded) as exc:
        m.run(max_instructions=50, report=buf)
    assert exc.value.retired == m.instret == 50
    assert "steps-exhausted" in buf.getvalue()
    if es is not None:
        assert list(es)[-1][0] == FAULT
