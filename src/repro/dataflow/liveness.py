"""Register liveness analysis (DataflowAPI, paper §2.1 and §4.3).

The instrumentation payoff: liveness finds *dead* registers — registers
whose current value is never read again — which CodeGenAPI can use as
scratch space without saving/restoring, the "allocation optimization"
the paper credits for RISC-V's lower instrumentation overhead (§4.3).

Standard backward may-liveness at block granularity with
per-instruction refinement.  Conservative boundary conditions:

* at function exits (RET/TAILCALL), return-value and callee-saved
  registers are live-out;
* call sites are assumed to read all argument registers and ra/sp, and
  to clobber the caller-saved set (callee-saved values flow through);
* unresolved indirect flow makes everything live (fail-safe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import telemetry
from ..instruction.insn import Insn
from ..parse.cfg import Block, EdgeType, Function
from ..riscv.registers import (
    ARG_REGS, CALLEE_SAVED, CALLER_SAVED, FP_ARG_REGS, FP_REGS, GP,
    INT_REGS, RA, Register, SP, TP,
)
from ..semantics.registry import operand_pairs

#: Registers assumed live at a function exit: returned values plus
#: everything the caller expects preserved.
EXIT_LIVE: frozenset[Register] = frozenset(
    {INT_REGS[10], INT_REGS[11], FP_REGS[10], FP_REGS[11], RA, GP, TP}
) | CALLEE_SAVED

#: Registers a call is assumed to consume.
CALL_USES: frozenset[Register] = frozenset(ARG_REGS) | frozenset(
    FP_ARG_REGS) | {SP, GP, TP}

#: Registers whose values do not survive a call.
CALL_KILLS: frozenset[Register] = frozenset(
    r for r in CALLER_SAVED if not r.is_zero
) | frozenset(FP_REGS[0:10]) | frozenset(FP_REGS[16:18]) | frozenset(
    FP_REGS[28:32])

ALL_REGS: frozenset[Register] = frozenset(
    r for r in INT_REGS if not r.is_zero) | frozenset(FP_REGS)

# -- int bitmask register sets -------------------------------------------
#
# The fixpoint (and the hot per-instruction refinement) runs on plain
# ints: x0..x31 map to bits 0..31, f0..f31 to bits 32..63.  Set
# union/difference become single-word |, &~ — the dead-register ablation
# spends most of its time here.  The public API stays frozenset-based
# (LivenessResult, insn_uses_defs), plus one mask query,
# :meth:`LivenessResult.live_mask_before`, for the scratch allocator.

REG_BIT: dict[Register, int] = {
    **{r: 1 << i for i, r in enumerate(INT_REGS)},
    **{r: 1 << (32 + i) for i, r in enumerate(FP_REGS)},
}
_BIT_REG: tuple[Register, ...] = tuple(INT_REGS) + tuple(FP_REGS)


def mask_of(regs) -> int:
    """Fold an iterable of Registers into a 64-bit liveness mask."""
    m = 0
    for r in regs:
        m |= REG_BIT[r]
    return m


def regs_of(mask: int) -> frozenset[Register]:
    """Expand a liveness mask back into a Register frozenset."""
    out = []
    while mask:
        low = mask & -mask
        out.append(_BIT_REG[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


EXIT_LIVE_MASK = mask_of(EXIT_LIVE)
CALL_USES_MASK = mask_of(CALL_USES)
CALL_KILLS_MASK = mask_of(CALL_KILLS)
ALL_REGS_MASK = mask_of(ALL_REGS)


def _bind_mask(pairs, fields: dict[str, int]) -> int:
    """(regfile, operand) pairs bound to an instruction's fields, as a
    mask; x0 is dropped, exactly as in the semantics registry."""
    m = 0
    for rf, op in pairs:
        n = fields.get(op)
        if n is not None and (n or rf != "x"):
            m |= 1 << (n if rf == "x" else 32 + n)
    return m


def _insn_masks(insn: Insn, block: Block | None = None) -> tuple[int, int]:
    """Per-instruction (uses, defs) as masks, with call augmentation —
    the bitmask twin of :func:`insn_uses_defs`, read straight from the
    per-mnemonic operand table (no Register objects)."""
    raw = insn.raw
    use_pairs, def_pairs = operand_pairs()[raw.spec.mnemonic]
    uses = _bind_mask(use_pairs, raw.fields)
    defs = _bind_mask(def_pairs, raw.fields)
    if block is not None and insn is block.last:
        kinds = {e.kind for e in block.out_edges}
        if EdgeType.CALL in kinds:
            uses |= CALL_USES_MASK
            defs |= CALL_KILLS_MASK
        if EdgeType.TAILCALL in kinds:
            uses |= CALL_USES_MASK
    return uses, defs


def _block_flow(block: Block) -> tuple[int, int]:
    """(use, def) mask summary of a block for backward liveness."""
    use = 0
    defs = 0
    for insn in block.insns:
        u, d = _insn_masks(insn, block)
        use |= u & ~defs
        defs |= d
    return use, defs


def insn_uses_defs(insn: Insn, block: Block | None = None
                   ) -> tuple[set[Register], set[Register]]:
    """Per-instruction (uses, defs), with call-site augmentation when the
    instruction terminates a call block."""
    uses = insn.read_set()
    defs = insn.write_set()
    if block is not None and insn is block.last:
        kinds = {e.kind for e in block.out_edges}
        if EdgeType.CALL in kinds:
            uses |= CALL_USES
            defs |= CALL_KILLS
        if EdgeType.TAILCALL in kinds:
            uses |= CALL_USES
    return uses, defs


@dataclass
class LivenessResult:
    """Fixpoint solution: live-in/live-out per block, with
    per-instruction queries.

    The constructor keeps its frozenset-based signature (interprocedural
    analysis and external callers build these directly).  Results from
    :func:`analyze_liveness` and revived snapshots also carry live-out
    masks (``_out_masks``) and answer from masks: the first query in a
    block walks it once and memoizes every instruction's live-before
    mask.  The memo is derived from the frozen CFG and never
    serialized, so sessions and threads may share one result; a race
    only builds the same table twice.
    """

    function: Function
    live_in: dict[int, frozenset[Register]]
    live_out: dict[int, frozenset[Register]]
    #: instruction address -> live-before mask (mask path only)
    _before_masks: dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    #: block start -> live-out mask (absent on hand-built /
    #: interprocedural results, which take the reference set path)
    _out_masks = None

    def _block(self, addr: int) -> Block:
        block = self.function.block_at(addr)
        if block is None:
            raise KeyError(f"{addr:#x} is not in function "
                           f"{self.function.name!r}")
        return block

    def _uses_defs(self, insn: Insn, block: Block):
        """Set-path per-instruction (uses, defs); subclasses sharpen
        the call effects."""
        return insn_uses_defs(insn, block)

    def live_mask_before(self, addr: int) -> int:
        """Mask (see :data:`REG_BIT`) of the registers live immediately
        before the instruction at *addr*."""
        live = self._before_masks.get(addr)
        if live is not None:
            return live
        if self._out_masks is None:
            return mask_of(self.live_before(addr))
        block = self._block(addr)
        live = self._out_masks.get(block.start, ALL_REGS_MASK)
        table = {}
        for insn in reversed(block.insns):
            u, d = _insn_masks(insn, block)
            live = (live & ~d) | u
            table[insn.address] = live
        # publish the finished table in one update: every entry a
        # concurrent reader can see is already final
        self._before_masks.update(table)
        if addr not in table:
            raise KeyError(f"{addr:#x} not at an instruction boundary")
        return table[addr]

    def live_before(self, addr: int) -> frozenset[Register]:
        """Registers live immediately before the instruction at *addr*."""
        if self._out_masks is not None:
            return regs_of(self.live_mask_before(addr))
        block = self._block(addr)
        live = set(self.live_out.get(block.start, ALL_REGS))
        for insn in reversed(block.insns):
            u, d = self._uses_defs(insn, block)
            live -= d
            live |= u
            if insn.address == addr:
                return frozenset(live)
        raise KeyError(f"{addr:#x} not at an instruction boundary")

    def dead_before(self, addr: int,
                    candidates: tuple[Register, ...] | None = None
                    ) -> list[Register]:
        """Registers (from *candidates*, default: caller-saved ints) that
        are dead at *addr* — free scratch for instrumentation."""
        from ..riscv.registers import SCRATCH_CANDIDATES

        live = self.live_mask_before(addr)
        pool = candidates if candidates is not None else SCRATCH_CANDIDATES
        return [r for r in pool if not live & REG_BIT[r]]


# -- snapshots ------------------------------------------------------------
#
# Liveness results serialize as their bitmask tables — the exact
# internal representation the fixpoint computes — so revival performs
# zero dataflow work: masks are copied in and the frozenset views are
# expanded once.  Consumed by the content-addressed artifact store.

def liveness_to_snapshot(result: LivenessResult) -> dict:
    """Serialize one function's fixpoint solution (JSON-ready)."""
    masks = result._out_masks
    if masks is not None:
        out = {a: masks[a] for a in result.live_out}
    else:
        out = {a: mask_of(s) for a, s in result.live_out.items()}
    return {
        "in": [[a, mask_of(s)] for a, s in sorted(result.live_in.items())],
        "out": [[a, out[a]] for a in sorted(out)],
    }


def liveness_from_snapshot(fn: Function, data: dict) -> LivenessResult:
    """Revive a :class:`LivenessResult` for *fn* without re-solving."""
    in_masks = {a: m for a, m in data["in"]}
    out_masks = {a: m for a, m in data["out"]}
    result = LivenessResult(
        fn,
        {a: regs_of(m) for a, m in in_masks.items()},
        {a: regs_of(m) for a, m in out_masks.items()},
    )
    result._out_masks = out_masks
    return result


def analyze_liveness(fn: Function) -> LivenessResult:
    """Solve backward may-liveness over the function's blocks.

    The fixpoint iterates on int bitmasks; the result exposes the usual
    frozenset dicts (plus the mask tables for fast queries).
    """
    rec = telemetry.current()
    t0 = time.perf_counter() if rec.enabled else 0.0
    blocks = fn.blocks
    summaries = {a: _block_flow(b) for a, b in blocks.items()}

    # successor map (intraprocedural) + exit seeding
    succs: dict[int, list[int]] = {}
    seed: dict[int, int] = {}
    for addr, block in blocks.items():
        succs[addr] = fn.intraproc_successors(block)
        s = 0
        for e in block.out_edges:
            if e.kind in (EdgeType.RET, EdgeType.TAILCALL):
                s |= EXIT_LIVE_MASK
            elif not e.resolved or (
                    e.kind is EdgeType.INDIRECT and e.target is None):
                s |= ALL_REGS_MASK  # unresolved flow: fail safe
            elif e.kind is EdgeType.CALL and e.target is None:
                s |= ALL_REGS_MASK
        if not block.out_edges:
            s |= EXIT_LIVE_MASK  # fell off the parse: conservative
        seed[addr] = s

    in_masks: dict[int, int] = {a: 0 for a in blocks}
    out_masks: dict[int, int] = {a: 0 for a in blocks}

    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for addr in blocks:
            out = seed[addr]
            for s in succs[addr]:
                out |= in_masks[s]
            use, defs = summaries[addr]
            inn = use | (out & ~defs)
            if out != out_masks[addr] or inn != in_masks[addr]:
                out_masks[addr] = out
                in_masks[addr] = inn
                changed = True

    live_in = {a: regs_of(v) for a, v in in_masks.items()}
    live_out = {a: regs_of(v) for a, v in out_masks.items()}
    result = LivenessResult(fn, live_in, live_out)
    result._out_masks = out_masks
    if rec.enabled:
        rec.record_span("liveness.analyze", time.perf_counter() - t0)
        rec.count("liveness.functions")
        rec.count("liveness.fixpoint_iterations", iterations)
        rec.observe("liveness.blocks_per_function", len(blocks))
    return result
