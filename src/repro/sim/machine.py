"""The simulated RV64GC machine (the SiFive P550 stand-in, §4.2).

:class:`Machine` bundles hart state, memory, a timing model, and a
Linux-ish syscall layer, and exposes the debug port ProcControlAPI talks
to (read/write registers and memory, step, run-until-event).

Execution has one path without observers and one with them, and both
end in the same stop translation (:meth:`Machine._execute`, the one
place that turns an exit, breakpoint or fault into a
:class:`StopEvent`):

* the **dispatch loop** (:meth:`Machine._dispatch`) runs unobserved
  code on one of three tiers.  Unbounded ``run()`` looks each pc up in
  the trace cache (:class:`repro.sim.trace.TraceCache`): superblocks
  execute a straight-line block as one Python function with batched
  timing and direct chaining to successor blocks, and megatraces
  compile a hot loop into one looping function with registers cached
  in locals and constants folded.  Pcs the trace compiler rejects, and
  every pc of a bounded or budgeted run, ``step()`` or a
  ``trace_compile=False`` machine, run the per-pc closure
  (``_icache``), one instruction per iteration;
* the **event loop** (:meth:`Machine._run_events`) is the closure loop
  that emits control-flow events while observers are attached.  Only
  block-granularity observers of an unbounded traced run stay on the
  dispatch loop: their traces carry a compiled-in block-enter emit.

All three tiers take the ALU, shift, branch-condition and FP add/mul/FMA
semantics from one per-mnemonic expression table
(:data:`repro.sim.executor.TABLE`): the interpreter runs each row
compiled to a function, the trace tiers paste it into their source.

Every tier is **patch-safe**: every write overlapping a registered
executable range — self-modifying stores, ``write_mem`` from the
patcher/ProcControl, breakpoint insertion — flows through the
:class:`Memory` write watch into :meth:`_code_written`, which drops the
overlapping closures and traces.  See docs/INTERNALS.md ("Trace cache &
invalidation rules").
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass
from itertools import repeat

from .. import telemetry
from ..errors import ReproError
from ..telemetry.events import (
    BLOCK, BRANCH, CALL, EventStream, FAULT, JUMP, LINK_REGS, PATCH, RET,
)
from ..riscv.assembler import Program
from ..riscv.decoder import DecodeError
from .executor import BreakpointHit, ExitTrap, SimFault, build_closure, fetch
from .memory import Memory, MemoryFault
from .timing import P550, TimingModel, UCYCLE
from .trace import TraceCache

#: Default stack placement: 8 MiB ending just below 2 GiB.
STACK_TOP = 0x7FFF_F000
STACK_SIZE = 8 << 20


class StopReason(enum.Enum):
    """Why :meth:`Machine.run` returned."""

    EXITED = "exited"
    BREAKPOINT = "breakpoint"
    STEPS_EXHAUSTED = "steps-exhausted"
    FAULT = "fault"


@dataclass
class StopEvent:
    """Run-loop outcome."""

    reason: StopReason
    pc: int
    exit_code: int | None = None
    fault: str | None = None


class InstructionBudgetExceeded(ReproError, RuntimeError):
    """``Machine.run(max_instructions=...)`` retired its whole budget
    without the mutatee exiting.

    Unlike the cooperative ``max_steps`` bound (which *returns* a
    ``STEPS_EXHAUSTED`` stop event), the budget is a guard rail against
    runaway or instrumentation-corrupted mutatees, so exceeding it is an
    **error** — catchable as :class:`~repro.errors.ReproError`.  Any
    attached event streams receive a final FAULT event before the raise
    (live :class:`~repro.api.tracesession.TraceSession` streams are
    flushed, not lost; the API layer attaches the partial session as
    ``exc.session``).
    """

    def __init__(self, pc: int, retired: int, budget: int):
        super().__init__(
            f"instruction budget exhausted after {retired} retired "
            f"instructions (budget {budget}) at pc={pc:#x}")
        self.pc = pc
        self.retired = retired
        self.budget = budget


# Linux riscv64 syscall numbers (asm-generic).
SYS_WRITE = 64
SYS_EXIT = 93
SYS_EXIT_GROUP = 94
SYS_CLOCK_GETTIME = 113


def _traces_default() -> bool:
    return os.environ.get("REPRO_SIM_TRACES", "1") != "0"


class Machine:
    """One simulated RV64GC hart plus memory.

    Parameters
    ----------
    timing:
        The :class:`TimingModel` charged per instruction; determines
        what ``clock_gettime``/``rdcycle`` report.
    trace_compile:
        Enable the trace compiler (superblocks, and megatraces if
        *megatraces*) for unbounded ``run()``.  Defaults to on; set
        ``REPRO_SIM_TRACES=0`` (or pass ``False``) to force the per-pc
        closure interpreter everywhere — results are architecturally
        identical either way, since every tier is generated from the
        same expression table.
    megatraces:
        Enable tier-2 megatrace promotion (hot loops compiled into
        single looping functions with register caching — see
        docs/INTERNALS.md, "JIT tiers").  Defaults to on; pass
        ``False`` to cap the JIT at superblocks.  Architecturally
        identical either way.
    """

    def __init__(self, timing: TimingModel = P550,
                 trace_compile: bool | None = None,
                 megatraces: bool = True):
        self.timing = timing
        self.mem = Memory()
        self.x: list[int] = [0] * 32
        self.f: list[int] = [0] * 32
        self.pc = 0
        self.ucycles = 0
        self.instret = 0
        self.csrs: dict[int, int] = {}
        self.reservation: int | None = None
        self.stdout = bytearray()
        self.exit_code: int | None = None
        self._icache: dict[int, object] = {}
        #: [lo, hi) ranges treated as code: writes into them invalidate
        #: compiled closures/traces (self-modifying code / patching).
        self.exec_ranges: list[tuple[int, int]] = []
        #: trap-springboard map: ebreak pc -> redirect pc.  The paper's
        #: worst-case 2-byte trap springboards (§3.1.2) divert through
        #: here instead of stopping the hart (one "system" cycle charge).
        self.trap_redirects: dict[int, int] = {}
        self.trace_compile = (_traces_default() if trace_compile is None
                              else trace_compile)
        self.megatraces = megatraces
        self.traces = TraceCache(self, mega=self.megatraces)
        #: set by the trace cache when an invalidation drops any trace;
        #: a running trace checks it after each store and exits early
        #: (state fully synced) so rewritten code is re-fetched.
        self.code_dirty = False
        # -- execution-event observers (repro.telemetry.events) --------
        #: attached EventStreams; empty on the unobserved fast path
        #: (one ``_emit`` check per run()/step() call, zero per
        #: instruction — see docs/INTERNALS.md, "Execution event
        #: streams")
        self._observers: list[EventStream] = []
        #: bound emit callable (fans out to every observer); None when
        #: unobserved
        self._emit = None
        #: True while an instruction-granularity observer is attached:
        #: every observed run then takes the event loop
        self._full_events = False
        #: does the next instruction start a basic block?  Machine state
        #: rather than a loop local, so slicing a run into run(k) calls
        #: or steps leaves the event stream unchanged; set by
        #: load_image, observer attach and trap-springboard redirects
        self._block_start = True
        #: per-pc control-flow classification cache for the event
        #: loop; invalidated alongside the icache
        self._evmeta: dict[int, tuple] = {}
        #: True while a block-granularity observer is attached: the
        #: trace compiler embeds a block-enter emit in every new trace
        self._trace_events = False

    # -- program loading --------------------------------------------------

    def load_program(self, program: Program) -> None:
        """Map a laid-out :class:`Program` and reset the hart to its entry."""
        self.load_image(
            segments=[
                (program.text_base, program.text),
                (program.data_base, program.data),
            ],
            bss=(program.bss_base, program.bss_size),
            entry=program.entry,
            exec_range=(program.text_base,
                        program.text_base + len(program.text)),
        )

    def load_image(self, segments: list[tuple[int, bytes]],
                   entry: int, bss: tuple[int, int] | None = None,
                   exec_range: tuple[int, int] | None = None) -> None:
        """Map raw (vaddr, bytes) segments and reset the hart."""
        for base, blob in segments:
            if blob:
                self.mem.map_region(base, len(blob))
                self.mem.write_bytes(base, bytes(blob))
        if bss is not None and bss[1] > 0:
            self.mem.map_region(bss[0], bss[1])
        self.mem.map_region(STACK_TOP - STACK_SIZE, STACK_SIZE)
        self.x = [0] * 32
        self.f = [0] * 32
        self.x[2] = STACK_TOP - 64  # sp, with a little headroom
        self.pc = entry
        self.ucycles = 0
        self.instret = 0
        self.exit_code = None
        self.stdout = bytearray()
        self._block_start = True
        # full flush: compiled code binds the (re-created) register lists
        self._icache.clear()
        self._evmeta.clear()
        self.traces.clear()
        if exec_range is not None:
            self.exec_ranges = [exec_range]
        self.mem.set_write_watch(self.exec_ranges, self._code_written)

    def add_exec_range(self, lo: int, hi: int) -> None:
        """Register an additional code range (e.g. a patch area)."""
        self.exec_ranges.append((lo, hi))
        self.mem.map_region(lo, hi - lo)
        self.mem.set_write_watch(self.exec_ranges, self._code_written)

    # -- execution-event observers ----------------------------------------

    @property
    def observed(self) -> bool:
        """Is at least one event observer attached?"""
        return bool(self._observers)

    def attach_observer(self, stream: EventStream) -> EventStream:
        """Attach *stream* as an execution-event observer.

        Effective at the next :meth:`run`/:meth:`step` dispatch (the
        simulator is single-threaded, so mid-run attachment happens at
        debugger stops).  Attaching a block-granularity stream flushes
        the trace cache so superblocks recompile with an embedded
        block-enter emit; attaching an instruction-granularity stream
        leaves compiled traces intact — they are simply not dispatched
        while the observer wants per-instruction events.  The next
        instruction executed starts a block, so the stream opens with
        a BLOCK event.
        """
        if stream in self._observers:
            return stream
        self._observers.append(stream)
        self._rebuild_emit()
        self._block_start = True
        return stream

    def detach_observer(self, stream: EventStream) -> None:
        """Detach *stream*; with no observers left the hot loops return
        to their unobserved zero-overhead paths."""
        if stream in self._observers:
            self._observers.remove(stream)
            self._rebuild_emit()

    def _rebuild_emit(self) -> None:
        obs = self._observers
        if not obs:
            emit = None
        elif len(obs) == 1:
            emit = obs[0].push
        else:
            pushes = [s.push for s in obs]

            def emit(event, _pushes=tuple(pushes)):
                for p in _pushes:
                    p(event)
        self._emit = emit
        self._full_events = any(s.granularity == "instruction" for s in obs)
        # block-granularity observation compiles emits *into* traces;
        # flush whenever that mode toggles or its fan-out changes so no
        # trace carries a stale (or missing) emit binding.
        want_trace_events = any(s.granularity == "block" for s in obs)
        if want_trace_events or self._trace_events:
            self.traces.clear()
        self._trace_events = want_trace_events

    def _event_meta(self, pc: int) -> tuple:
        """(event kind | None, length) of the instruction at *pc*, for
        the event loop; cached per pc."""
        instr = fetch(self.mem, pc)
        mn = instr.mnemonic
        kind = None
        f = instr.fields
        if mn == "jal":
            kind = CALL if f["rd"] in LINK_REGS else JUMP
        elif mn == "jalr":
            if f["rd"] in LINK_REGS:
                kind = CALL
            elif f["rd"] == 0 and f["rs1"] in LINK_REGS:
                kind = RET
            else:
                kind = JUMP
        elif mn in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            kind = BRANCH
        meta = (kind, instr.length)
        self._evmeta[pc] = meta
        return meta

    # -- debug port (ProcControlAPI) ---------------------------------------

    def read_mem(self, addr: int, n: int) -> bytes:
        return self.mem.read_bytes(addr, n)

    def write_mem(self, addr: int, data: bytes) -> None:
        """Write memory; the write watch invalidates compiled code."""
        self.mem.write_bytes(addr, data)

    def store_int(self, addr: int, size: int, value: int) -> None:
        """Store from executing code (invalidation rides on the watch)."""
        self.mem.write_int(addr, size, value)

    def _code_written(self, addr: int, size: int) -> None:
        """Memory write-watch callback: a write overlapped a code range.
        Drop per-pc closures and traces covering the written bytes."""
        pop = self._icache.pop
        mpop = self._evmeta.pop
        # a patched instruction may start up to 3 bytes before addr
        for a in range(addr - 3, addr + size):
            pop(a, None)
            mpop(a, None)
        self.traces.invalidate_range(addr, size)

    def invalidate_code_range(self, addr: int, size: int) -> None:
        """Explicitly drop compiled code overlapping [addr, addr+size).

        The write watch already catches writes through this machine's
        memory; patch/unpatch paths call this as well so invalidation
        never depends on *how* the bytes got there.
        """
        self._code_written(addr, size)

    def flush_icache(self) -> None:
        self._icache.clear()
        self._evmeta.clear()
        self.traces.clear()

    def get_reg(self, n: int) -> int:
        return self.x[n]

    def set_reg(self, n: int, value: int) -> None:
        if n != 0:
            self.x[n] = value & 0xFFFF_FFFF_FFFF_FFFF

    def get_freg(self, n: int) -> int:
        return self.f[n]

    def set_freg(self, n: int, value: int) -> None:
        self.f[n] = value & 0xFFFF_FFFF_FFFF_FFFF

    # -- CSRs ---------------------------------------------------------------

    def read_csr(self, csr: int) -> int:
        if csr == 0xC00:  # cycle
            return self.ucycles // UCYCLE
        if csr == 0xC01:  # time (report cycles; mtime ~ cycle here)
            return self.ucycles // UCYCLE
        if csr == 0xC02:  # instret
            return self.instret
        return self.csrs.get(csr, 0)

    def write_csr(self, csr: int, value: int) -> None:
        self.csrs[csr] = value & 0xFFFF_FFFF_FFFF_FFFF

    # -- time ----------------------------------------------------------------

    def simulated_ns(self) -> int:
        return self.timing.nanoseconds(self.ucycles)

    def simulated_seconds(self) -> float:
        return self.timing.seconds(self.ucycles)

    # -- syscalls --------------------------------------------------------------

    def syscall(self) -> None:
        num = self.x[17]  # a7
        a0, a1, a2 = self.x[10], self.x[11], self.x[12]
        if num in (SYS_EXIT, SYS_EXIT_GROUP):
            raise ExitTrap(a0 & 0xFF)
        if num == SYS_WRITE:
            data = self.mem.read_bytes(a1, a2)
            if a0 in (1, 2):
                self.stdout += data
            self.x[10] = a2
            return
        if num == SYS_CLOCK_GETTIME:
            ns = self.simulated_ns()
            self.mem.write_int(a1, 8, ns // 1_000_000_000)
            self.mem.write_int(a1 + 8, 8, ns % 1_000_000_000)
            self.x[10] = 0
            return
        raise SimFault(f"unsupported syscall {num}", self.pc)

    # -- execution ---------------------------------------------------------------

    def _closure_at(self, pc: int):
        cl = self._icache.get(pc)
        if cl is None:
            cl = build_closure(self, pc, fetch(self.mem, pc))
            self._icache[pc] = cl
        return cl

    def _redirect(self, pc: int) -> bool:
        """Apply a trap-springboard redirect at *pc* if one exists."""
        target = self.trap_redirects.get(pc)
        if target is None:
            return False
        self.pc = target
        self.ucycles += self.timing.ucycles("system")
        self._block_start = True
        emit = self._emit
        if emit is not None:
            emit((PATCH, pc, target, self.instret, self.ucycles))
        return True

    def step(self) -> StopEvent | None:
        """Execute one instruction on the path ``run(1)`` takes (minus
        its telemetry accounting).  Returns a StopEvent on
        exit/breakpoint/fault, else None."""
        return self._execute(1)

    def run(self, max_steps: int | None = None, *,
            report=None, trace: EventStream | None = None,
            max_instructions: int | None = None) -> StopEvent:
        """Run until exit, breakpoint, fault, or *max_steps* retired
        instructions.

        Unbounded runs use the trace compiler (when enabled); bounded
        runs count instructions and stay on the closure interpreter.

        *max_instructions* is a **hard budget**, not a cooperative
        bound: retiring that many instructions without stopping raises
        :class:`InstructionBudgetExceeded` (a catchable
        :class:`~repro.errors.ReproError`) after emitting a final FAULT
        event to any attached streams.  Use it to bound runaway
        mutatees; use *max_steps* to single-step or slice execution.
        Budgeted runs are bounded runs, so they stay on the closure
        interpreter.

        *trace* attaches an :class:`~repro.telemetry.events.EventStream`
        observer for the duration of this run only (equivalent to
        :meth:`attach_observer` / :meth:`detach_observer` around the
        call).  While any observer is attached the run follows the
        observer-overhead rule (docs/INTERNALS.md): instruction-
        granularity streams deoptimise the run to the event loop;
        block-granularity streams keep the trace compiler engaged with
        one embedded block-enter emit per superblock.  Slicing a run
        into ``run(k)`` calls or :meth:`step` calls leaves an
        instruction-granularity stream, and the block stream of an
        untraced machine, unchanged; a traced block stream emits BLOCK
        at every trace entry, so also where each unbounded run resumes.
        With no observer attached, event support costs one check per
        ``run()`` call — nothing per instruction.

        *report* asks for a per-run summary (instructions retired,
        simulated vs. host time, MIPS, trace-cache activity): ``True``
        prints it, a file-like object receives ``write(text)``.  When
        the process telemetry recorder is active (see
        :mod:`repro.telemetry`), every run additionally flushes
        ``sim.*`` counters, the ``sim.run`` span and the ``sim.mips``
        gauge — with telemetry disabled and no report requested, this
        method costs one attribute check over the raw hot loop.
        """
        if trace is not None:
            self.attach_observer(trace)
            try:
                return self.run(max_steps, report=report,
                                max_instructions=max_instructions)
            finally:
                self.detach_observer(trace)
        budget = max_instructions
        if budget is not None:
            if budget <= 0:
                raise InstructionBudgetExceeded(self.pc, 0, budget)
            if max_steps is not None and max_steps < budget:
                budget = None  # the cooperative bound stops first
            else:
                max_steps = budget
        rec = telemetry.current()
        instret0, ucycles0 = self.instret, self.ucycles
        if not rec.enabled and not report:
            ev = self._execute(max_steps)
        else:
            base = self._trace_counts()
            t0 = time.perf_counter()
            ev = self._execute(max_steps, count_hits=True)
            elapsed = time.perf_counter() - t0
        exhausted = ev is None
        if exhausted:
            ev = StopEvent(StopReason.STEPS_EXHAUSTED, self.pc)
        if rec.enabled or report:
            retired = self.instret - instret0
            mips = retired / elapsed / 1e6 if elapsed > 0 else 0.0
            deltas = {k: n - base[k]
                      for k, n in self._trace_counts().items()}
            if rec.enabled:
                rec.record_span("sim.run", elapsed)
                rec.count("sim.runs")
                rec.count("sim.instructions_retired", retired)
                rec.count("sim.ucycles", self.ucycles - ucycles0)
                for name, n in deltas.items():
                    rec.count(f"sim.trace.{name}", n)
                rec.gauge("sim.mips", mips)
            if report:
                text = self._run_report(ev, retired, ucycles0, elapsed,
                                        mips, deltas)
                if report is True:
                    print(text, end="")
                else:
                    report.write(text)
        if exhausted and budget is not None:
            if self._emit is not None:
                self._emit((FAULT, self.pc, 0, self.instret, self.ucycles))
            if rec.enabled:
                rec.count("sim.budget_exceeded")
            raise InstructionBudgetExceeded(
                self.pc, self.instret - instret0, budget)
        return ev

    def _trace_counts(self) -> dict:
        """Trace-cache statistics, by telemetry counter name."""
        t = self.traces
        return {
            "compiles": t.compiles,
            "invalidations": t.invalidations,
            "links": t.links,
            "hits": t.hits,
            "megatraces_compiled": t.mega_compiles,
            "jalr_guard_hits": t.jalr_hits[0],
            "jalr_guard_misses": t.jalr_misses[0],
            "deopts": t.deopt_count[0],
        }

    def _run_report(self, ev: StopEvent, retired: int, ucycles0: int,
                    elapsed: float, mips: float, deltas: dict) -> str:
        lines = [
            f"sim.run: {ev.reason.value} at pc={ev.pc:#x}"
            + (f" exit={ev.exit_code}" if ev.exit_code is not None else "")
            + (f" fault={ev.fault}" if ev.fault else ""),
            f"  instructions retired   {retired:>14,}",
            f"  simulated cycles       "
            f"{(self.ucycles - ucycles0) // UCYCLE:>14,}",
            f"  host seconds           {elapsed:>14.3f}",
            f"  throughput (MIPS)      {mips:>14.2f}",
            f"  trace cache            "
            f"hits={deltas['hits']} compiles={deltas['compiles']} "
            f"links={deltas['links']} "
            f"invalidations={deltas['invalidations']}",
            f"  trace tiers            "
            f"megatraces={deltas['megatraces_compiled']} "
            f"jalr_guard_hits={deltas['jalr_guard_hits']} "
            f"jalr_guard_misses={deltas['jalr_guard_misses']} "
            f"deopts={deltas['deopts']}",
        ]
        return "\n".join(lines) + "\n"

    def _execute(self, max_steps: int | None,
                 count_hits: bool = False) -> StopEvent | None:
        """Run until a stop, or until *max_steps* more instructions have
        retired (then return None), and translate how execution stopped
        into a :class:`StopEvent` — the one place that does, for every
        run path and :meth:`step`.  A trap-springboard redirect is not
        a stop: execution resumes at its target, under the same bound.

        Observed runs take the event loop, others the dispatch loop; a
        one-instruction unobserved run (every :meth:`step`) runs the
        pc's closure directly, which is what one dispatch-loop
        iteration on closures does."""
        if max_steps is None:
            traced = self.trace_compile
            end = None
        else:
            traced = False
            end = self.instret + max_steps
        events = self._emit is not None and (self._full_events
                                             or not traced)
        if traced:
            self.code_dirty = False
            if self._emit is not None and not events:
                # block observers of a traced run: every trace entry
                # emits BLOCK, so afterwards the next instruction
                # starts a block
                self._block_start = True
        # a bounded loop retires one instruction per item of its step
        # iterator, so the count left is end - instret
        left = max_steps
        while True:
            try:
                if left == 1 and not events:
                    self._closure_at(self.pc)()
                else:
                    steps = repeat(None) if left is None else repeat(
                        None, left)
                    if events:
                        self._run_events(steps)
                    else:
                        self._dispatch(steps, traced, count_hits)
                return None
            except ExitTrap as e:
                self.exit_code = e.code
                return StopEvent(StopReason.EXITED, self.pc,
                                 exit_code=e.code)
            except BreakpointHit as e:
                if not self._redirect(e.pc):
                    return StopEvent(StopReason.BREAKPOINT, e.pc)
                if end is not None:
                    left = end - self.instret
            except (SimFault, MemoryFault, DecodeError) as e:
                emit = self._emit
                if emit is not None:
                    emit((FAULT, self.pc, 0, self.instret, self.ucycles))
                return StopEvent(StopReason.FAULT, self.pc, fault=str(e))

    def _dispatch(self, steps, traced: bool, count_hits: bool) -> None:
        """The run loop without observers: look the pc up, run what is
        there, once per item of *steps* or until a stop raises.

        With *traced*, the lookup is the trace cache: a hit runs the
        compiled trace and its chained successors without re-entering
        this loop, a miss compiles, and a pc the trace compiler rejects
        runs one closure.  Otherwise the lookup is the closure cache:
        a closure is a one-instruction trace that never chains, so each
        iteration retires one instruction.  *count_hits*
        (telemetry-observed runs only) binds a wrapper that counts
        trace-cache hits."""
        if not traced:
            fns_get, compile_at = self._icache.get, self._closure_at
        else:
            traces = self.traces
            fns_get, compile_at = traces.fns.get, traces.compile_at
            if count_hits:
                raw_get = fns_get

                def fns_get(pc):
                    fn = raw_get(pc)
                    if fn:
                        traces.hits += 1
                    return fn
        for _ in steps:
            fn = fns_get(self.pc)
            if fn is None:
                fn = compile_at(self.pc)
            if fn is False:
                # negative trace entry (ecall/ebreak/csr/amo/...): the
                # closure runs instead
                fn = self._closure_at(self.pc)
            while fn is not None:
                fn = fn()

    def _run_events(self, steps) -> None:
        """The event-emitting closure loop: the deopt path the
        observer-overhead rule routes observed runs through, one
        instruction per item of *steps*.

        Instruction-granularity observers get every control-flow event:
        call/return/jump, taken branches and block entries (faults and
        patch-site hits are emitted by :meth:`_execute` and
        :meth:`_redirect`).  Block-granularity observers, on a bounded
        or untraced run, get only block entries.  Every control-flow
        instruction, taken or not, ends a basic block, matching the
        compiled traces' block-enter emits."""
        emit = self._emit
        full = self._full_events
        icache = self._icache
        closure_at = self._closure_at
        evmeta = self._evmeta
        event_meta = self._event_meta
        block = self._block_start
        try:
            for _ in steps:
                pc = self.pc
                if block:
                    emit((BLOCK, pc, 0, self.instret, self.ucycles))
                    block = False
                meta = evmeta.get(pc)
                if meta is None:
                    meta = event_meta(pc)
                cl = icache.get(pc)
                if cl is None:
                    cl = closure_at(pc)
                cl()
                kind = meta[0]
                if kind is not None:
                    block = True
                    if full:
                        npc = self.pc
                        if kind != BRANCH:
                            emit((kind, pc, npc, self.instret,
                                  self.ucycles))
                        elif npc != pc + meta[1]:  # taken only
                            emit((BRANCH, pc, npc, self.instret,
                                  self.ucycles))
        finally:
            self._block_start = block

    # -- EvalState protocol (semantics cross-check) --------------------------

    def read_xreg(self, n: int) -> int:
        return self.x[n]

    def read_freg(self, n: int) -> int:
        return self.f[n]

    def read_mem_int(self, addr: int, size: int) -> int:
        return self.mem.read_int(addr, size)


def run_program(program: Program, timing: TimingModel = P550,
                max_steps: int | None = None) -> tuple[Machine, StopEvent]:
    """Convenience: load and run a program to completion."""
    m = Machine(timing)
    m.load_program(program)
    ev = m.run(max_steps)
    return m, ev
