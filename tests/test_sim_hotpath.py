"""The simulator's store/FP hot path and the process-wide trace-code memo.

* FP bit-exactness: megatraces keep doubles as Python floats, load them
  with ``unpack_from`` straight from page buffers and store them with
  ``pack_into``; every bit pattern (signalling and quiet NaN payloads,
  signed zeros, subnormals, infinities) must still match the closure
  interpreter, including at a fault inside the trace.
* Page-granular write watch: only stores to a page holding a registered
  code range leave the compiled fast path; the watched page set is
  updated in place, so traces compiled before ``add_exec_range`` see it.
* Code memo: identical trace sources compile once per process.
"""

import re
import sys

import pytest

from repro.api import open_binary
from repro.codegen import IncrementVar
from repro.minicc import compile_source, matmul_source
from repro.patch import PointType
from repro.riscv import assemble
from repro.riscv.encoder import encode
from repro.sim import Machine, Memory, P550, StopReason, trace
from repro.sim.trace import HOT_THRESHOLD

#: double bit patterns the FP path must carry through unchanged
SPECIALS = [
    0x7FF4_0000_DEAD_BEEF,  # sNaN with payload
    0xFFF0_0000_0000_1234,  # negative sNaN with payload
    0x7FF8_0000_CAFE_F00D,  # qNaN with payload
    0xFFF8_0000_0000_0042,  # negative qNaN with payload
    0x0000_0000_0000_0000,  # +0.0
    0x8000_0000_0000_0000,  # -0.0
    0x0000_0000_0000_0001,  # smallest subnormal
    0x800F_FFFF_FFFF_FFFF,  # largest negative subnormal
    0x7FF0_0000_0000_0000,  # +inf
    0xFFF0_0000_0000_0000,  # -inf
]

ITERS = 4 * HOT_THRESHOLD

FP_REGS = [f"f{i}" for i in range(len(SPECIALS))]


#: ``jalr x0, 0(ra)``
RET = encode("jalr", rd=0, rs1=1, imm=0)


def _addi_a0(imm: int) -> int:
    return encode("addi", rd=10, rs1=10, imm=imm)


def _code(*words: int) -> bytes:
    return b"".join(w.to_bytes(4, "little") for w in words)


def _dwords(vals) -> str:
    return ", ".join(f"{v:#x}" for v in vals)


def _state(m, ev):
    return (ev.reason, m.pc, m.instret, m.ucycles, list(m.x), list(m.f),
            m.exit_code)


def _run(prog, trace_compile, setup=None):
    m = Machine(P550, trace_compile=trace_compile)
    m.load_program(prog)
    if setup is not None:
        setup(m)
    return m, m.run()


def _assert_hot(m):
    assert m.traces.mega_compiles >= 1


def _spy_write_int(monkeypatch):
    """Record ``(calling function, address)`` of every
    ``Memory.write_int`` call.  Traces bind the method when they are
    compiled, so install the spy before the run."""
    calls = []
    real = Memory.write_int

    def spy(self, addr, size, value):
        calls.append((sys._getframe(1).f_code.co_name, addr))
        return real(self, addr, size, value)

    monkeypatch.setattr(Memory, "write_int", spy)
    return calls


class TestFPBitExactness:
    # constant-address loads and stores, a dynamic-address pair, and a
    # store-then-reload through the same slot (float forwarding)
    SRC = f"""
_start:
  la s0, vals
  la s1, out
  li s2, 0
  li s3, {ITERS}
loop:
""" + "".join(f"  fld {r}, {8 * i}(s0)\n" for i, r in enumerate(FP_REGS)) \
        + "".join(f"  fsd {r}, {8 * i}(s1)\n"
                  for i, r in enumerate(FP_REGS)) + f"""
  fld fa0, 0(s1)
  fsd fa0, 80(s1)
  andi t0, s2, 7
  slli t0, t0, 3
  add t1, s0, t0
  fld fa1, 0(t1)
  add t2, s1, t0
  fsd fa1, 88(t2)
  fld fa2, 88(t2)
  fsd fa2, 152(s1)
  addi s2, s2, 1
  blt s2, s3, loop
  li a0, 0
  li a7, 93
  ecall
.data
vals: .dword {_dwords(SPECIALS)}
out: .zero 160
"""

    def test_registers_and_memory_match_interpreter(self):
        prog = assemble(self.SRC)
        out = prog.symbol("out").address
        runs = []
        for tc in (True, False):
            m, ev = _run(prog, tc)
            assert ev.reason is StopReason.EXITED
            runs.append((_state(m, ev), m.read_mem(out, 160)))
            if tc:
                _assert_hot(m)
        assert runs[0] == runs[1]
        state, mem = runs[0]
        fregs = state[5]
        assert fregs[:10] == SPECIALS
        assert [int.from_bytes(mem[i:i + 8], "little")
                for i in range(0, 80, 8)] == SPECIALS

    def test_fp_fallback_body_keeps_integer_registers_cached(self):
        """``fsgnj.d`` runs through an executor body that touches no
        integer register: the megatrace neither spills the cached
        registers around it nor reloads x5, so the ``add`` after it
        folds to a constant."""
        prog = assemble(f"""
_start:
  li t1, -3
  fcvt.d.l f5, t1
  li s2, 0
  li s3, {ITERS}
loop:
  li x5, 7
  fsgnj.d f5, f5, f5
  add x6, x5, x5
  addi s2, s2, 1
  blt s2, s3, loop
  li a0, 0
  li a7, 93
  ecall
""")
        trace.clear_code_memo()
        states = []
        for kw in ({"trace_compile": False}, {"megatraces": False}, {}):
            m = Machine(P550, **kw)
            m.load_program(prog)
            states.append(_state(m, m.run()))
        _assert_hot(m)
        assert states[0] == states[1] == states[2]
        assert states[0][0] is StopReason.EXITED
        assert states[0][4][6] == 14
        (mega,) = [src for name, src in trace._code_memo
                   if name.startswith("<mega@")]
        assert mega.count("r5 = x[5]") == 1  # the prologue's load only
        assert "r5 + r5" not in mega
        assert "r6 = 0xe" in mega
        assert not re.search(r"x\[\d+\] = \w+\n\s*b1\(\)", mega)

    @pytest.mark.parametrize("op", [
        "fcvt.w.d t2, f5", "fmv.x.d t2, f5", "feq.d t2, f5, f6",
        "fclass.d t2, f5", "fmv.d.x f7, t0", "fcvt.d.w f5, t2",
        "fsqrt.d f7, f6", "fmv.w.x f7, t0", "fmv.x.w t0, f7"])
    def test_fp_fallback_bodies_match_interpreter(self, op):
        """FP ops outside the table that read an integer register (which
        the megatrace holds as a constant) or write one."""
        prog = assemble(f"""
_start:
  li t1, -3
  fcvt.d.l f5, t1
  li t1, 9
  fcvt.d.l f6, t1
  li s2, 0
  li s3, {ITERS}
loop:
  li t0, 7
  {op}
  add t3, t0, t2
  fadd.d f5, f5, f6
  addi s2, s2, 1
  blt s2, s3, loop
  li a0, 0
  li a7, 93
  ecall
""")
        states = []
        for kw in ({"trace_compile": False}, {"megatraces": False}, {}):
            m = Machine(P550, **kw)
            m.load_program(prog)
            states.append(_state(m, m.run()))
        _assert_hot(m)
        assert states[0] == states[1] == states[2]

    def test_fld_fault_on_unmapped_page_is_precise(self):
        """After the loop is hot, the fld base moves to an unmapped page:
        the megatrace faults mid-body with dirty float registers and
        must leave pc, counters, x[] and fr[] exactly as the
        interpreter does."""
        src = f"""
_start:
  la s0, vals
  la s1, out
  li s3, 0
loop:
  fld ft0, 0(s0)
  fld ft2, 48(s0)
  fadd.d ft1, ft1, ft2
  fsd ft1, 0(s1)
  fld ft3, 8(s0)
  addi s3, s3, 1
  slti t0, s3, {ITERS}
  xori t0, t0, 1
  slli t0, t0, 40
  la s0, vals
  add s0, s0, t0
  j loop
.data
vals: .dword {_dwords(SPECIALS)}
out: .zero 8
"""
        prog = assemble(src)
        runs = []
        for tc in (True, False):
            m, ev = _run(prog, tc)
            assert ev.reason is StopReason.FAULT
            runs.append((_state(m, ev), m.read_mem(
                prog.symbol("out").address, 8)))
            if tc:
                _assert_hot(m)
        assert runs[0] == runs[1]
        fregs = runs[0][0][5]
        assert fregs[0] == SPECIALS[0] and fregs[3] == SPECIALS[1]


class TestPageWriteWatch:
    def test_memory_notifies_only_for_watched_ranges(self):
        mem = Memory()
        mem.map_region(0x10000, 0x3000)
        seen = []
        mem.set_write_watch([(0x10100, 0x10110)],
                            lambda a, n: seen.append((a, n)))
        assert mem._watch_pages == {0x10}
        mem.write_int(0x10800, 8, 1)       # watched page, outside range
        mem.write_int(0x11000, 8, 1)       # unwatched page
        mem.write_bytes(0x11ff8, bytes(16))
        assert seen == []
        mem.write_int(0x1010c, 8, 1)
        mem.write_bytes(0x100f8, bytes(9))
        assert seen == [(0x1010c, 8), (0x100f8, 9)]
        mem.set_write_watch([], None)
        assert mem._watch_pages == set()

    def test_matmul_counter_and_data_stores_stay_compiled(self,
                                                          monkeypatch):
        """(a) Instrumented matmul: megatrace stores to the counter page
        and to .data/.bss never reach ``Memory.write_int``."""
        program = compile_source(matmul_source(n=6, reps=3))
        binary = open_binary(program)
        counter = binary.allocate_variable("blocks")
        binary.insert(binary.points(binary.function("multiply"),
                                    PointType.BLOCK_ENTRY),
                      IncrementVar(counter))
        calls = _spy_write_int(monkeypatch)
        m, ev = binary.run_instrumented()
        slow_pages = {a >> 12 for fn, a in calls if fn == "__mega__"}
        assert ev.reason is StopReason.EXITED
        _assert_hot(m)
        assert binary.read_variable(m, counter) > 0
        data_pages = set(range(
            program.data_base >> 12,
            ((program.bss_base + program.bss_size) >> 12) + 1))
        assert counter.address >> 12 not in slow_pages
        assert not data_pages & slow_pages

    def test_store_to_watched_page_outside_ranges_keeps_traces(self):
        """(b) The text page's tail is watched but is not code: a hot
        store there invalidates nothing and never deopts."""
        src = f"""
_start:
  la s1, _start
  addi s1, s1, 2047
  addi s1, s1, 1
  li t2, 0
  li t3, {ITERS}
loop:
  sd t2, 0(s1)
  addi t2, t2, 1
  blt t2, t3, loop
  ld a0, 0(s1)
  li a7, 93
  ecall
"""
        prog = assemble(src)
        assert len(prog.text) < 0x800
        m, ev = _run(prog, True)
        assert ev.exit_code == ITERS - 1
        _assert_hot(m)
        assert m.traces.invalidations == 0
        assert m.traces.deopt_count[0] == 0

    # a "trampoline" outside .text: addi a0, a0, <imm>; ret
    TRAMP = 0x50000

    @classmethod
    def _install_tramp(cls, m):
        m.add_exec_range(cls.TRAMP, cls.TRAMP + 8)
        m.write_mem(cls.TRAMP, _code(_addi_a0(1), RET))

    def test_fast_path_store_into_trampoline_invalidates(self,
                                                         monkeypatch):
        """(c) A megatrace store whose address moves onto trampoline
        bytes mid-loop goes through the write watch: the inlined
        trampoline is dropped, the trace deopts, and later iterations
        run the new instruction."""
        new = _addi_a0(10)
        src = f"""
_start:
  li a0, 0
  li s3, 0
  li s4, {2 * ITERS}
  li t1, {new:#x}
loop:
  li t6, {self.TRAMP:#x}
  jalr ra, 0(t6)
  addi s3, s3, 1
  la s1, scratch
  li t5, {self.TRAMP:#x}
  sub t5, t5, s1
  addi t0, s3, -{ITERS}
  seqz t0, t0
  mul t0, t0, t5
  add s1, s1, t0
  sw t1, 0(s1)
  blt s3, s4, loop
  li a7, 93
  ecall
.data
scratch: .zero 8
"""
        prog = assemble(src)
        runs = []
        for tc in (True, False):
            calls = _spy_write_int(monkeypatch)
            m, ev = _run(prog, tc, setup=self._install_tramp)
            assert ev.reason is StopReason.EXITED
            runs.append(_state(m, ev))
            if tc:
                _assert_hot(m)
                assert ("__mega__", self.TRAMP) in calls
                assert m.traces.deopt_count[0] == 1
                assert m.traces.invalidations >= 1
            monkeypatch.undo()
        assert runs[0] == runs[1]
        assert runs[0][4][10] == ITERS + 10 * ITERS

    def test_add_exec_range_reaches_compiled_traces(self, monkeypatch):
        """(d) The hot store loop is compiled while its target is plain
        data; the target then becomes code.  The already-compiled
        megatrace must route its next stores through the watch, or the
        second call would run the stale ``addi a0, a0, 1``."""
        new = _addi_a0(100)
        src = f"""
_start:
  la s1, slot
  li a0, 0
  li t1, {new:#x}
again:
  li t2, 0
  li t3, {ITERS}
  j loop
loop:
  sw t1, 0(s1)
  addi t2, t2, 1
  blt t2, t3, loop
  ebreak
call:
  jalr ra, 0(s1)
  j again
.data
slot: .zero 8
"""
        prog = assemble(src)
        slot = prog.symbol("slot").address
        call = prog.symbol("call").address
        results = []
        for tc in (True, False):
            m = Machine(P550, trace_compile=tc)
            m.load_program(prog)
            calls = _spy_write_int(monkeypatch)
            assert m.run().reason is StopReason.BREAKPOINT
            megas = m.traces.mega_compiles
            # the slot becomes code: addi a0, a0, 1; ret
            m.add_exec_range(slot, slot + 8)
            m.write_mem(slot, _code(_addi_a0(1), RET))
            del calls[:]
            m.pc = call
            assert m.run().reason is StopReason.BREAKPOINT  # a0 = 1
            m.pc = call
            ev = m.run()  # runs the rewritten slot: a0 = 101
            assert ev.reason is StopReason.BREAKPOINT
            results.append((m.x[10], m.instret, m.ucycles))
            if tc:
                _assert_hot(m)
                assert m.traces.mega_compiles == megas
                assert ("__mega__", slot) in calls
                assert m.traces.deopt_count[0] >= 1
            monkeypatch.undo()
        assert results[0] == results[1]
        assert results[0][0] == 101


class TestCodeMemo:
    SRC = matmul_source(n=4, reps=2)

    def _machine(self):
        m = Machine(P550)
        m.load_program(compile_source(self.SRC))
        return m

    def test_machines_share_code_objects(self):
        trace.clear_code_memo()
        machines = []
        for _ in range(2):
            m = self._machine()
            ev = m.run()
            assert ev.reason is StopReason.EXITED
            machines.append((m, ev))
        (a, ea), (b, eb) = machines
        assert _state(a, ea) == _state(b, eb)
        assert bytes(a.stdout) == bytes(b.stdout)
        assert a.traces.compiles == b.traces.compiles
        assert a.traces.mega_compiles == b.traces.mega_compiles >= 1
        for pc, tr in a.traces._traces.items():
            other = b.traces._traces.get(pc)
            if tr.fn and other is not None and other.fn:
                # same code, separate functions (own namespaces)
                assert tr.fn is not other.fn
                assert tr.fn.__code__ is other.fn.__code__

    def test_patch_recompiles_new_source(self, monkeypatch):
        """A store that rewrites the hot loop mid-run yields new trace
        source, compiled fresh; a second machine running the same
        program then compiles nothing and ends in the same state."""
        src = f"""
_start:
  li a0, 0
  li t2, 0
  la t0, target
  li t1, {_addi_a0(10):#x}
loop:
target:
  addi a0, a0, 1
  addi t2, t2, 1
  li t4, {ITERS}
  bne t2, t4, skip
  sw t1, 0(t0)
skip:
  li t3, {2 * ITERS}
  blt t2, t3, loop
  li a7, 93
  ecall
"""
        prog = assemble(src)
        compiles = []
        real = compile

        def counting(*args):
            compiles.append(args[1])
            return real(*args)

        monkeypatch.setattr(trace, "compile", counting, raising=False)
        trace.clear_code_memo()
        a, ea = _run(prog, True)
        assert a.x[10] == ITERS + 10 * ITERS
        assert a.traces.invalidations >= 1
        assert len(compiles) == len(trace._code_memo)
        names = [name for name, _ in trace._code_memo]
        assert any(names.count(n) > 1 for n in names), \
            "no trace was recompiled from rewritten code"
        del compiles[:]
        b, eb = _run(prog, True)
        assert compiles == []
        assert _state(a, ea) == _state(b, eb)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(trace, "CODE_MEMO_SIZE", 3)
        trace.clear_code_memo()
        codes = [trace.compile_trace(f"x = {i}\n", f"<t{i}>")
                 for i in range(10)]
        assert len(trace._code_memo) == 3
        # the most recently used entries survive, and a hit refreshes
        assert trace.compile_trace("x = 9\n", "<t9>") is codes[9]
        assert trace.compile_trace("x = 0\n", "<t0>") is not codes[0]
        assert len(trace._code_memo) == 3
        # a real run under a tiny bound evicts constantly, stays within
        # it, and computes the same result
        ref = self._machine()
        ev_ref = ref.run()
        monkeypatch.setattr(trace, "CODE_MEMO_SIZE", 5)
        m = self._machine()
        ev = m.run()
        assert len(trace._code_memo) <= 5
        assert _state(m, ev) == _state(ref, ev_ref)
        trace.clear_code_memo()
