"""Interprocedural register liveness via callee summaries.

The intraprocedural analysis (:mod:`repro.dataflow.liveness`) must
assume every call reads all argument registers and clobbers the whole
caller-saved set.  Real Dyninst sharpens call sites with *function
summaries*: what a callee may actually read before writing, and what it
may actually write.  This module computes those summaries over the call
graph to a fixpoint and re-runs liveness with precise call effects —
yielding more dead registers exactly where instrumentation wants them
(call-adjacent points).

Soundness: summaries start optimistic (empty) and ascend to the least
fixpoint of monotone equations; unresolved calls and tail calls fall
back to the conservative sets.  The adversarial clobber suite
(tests/test_liveness_soundness.py) validates the result behaviourally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..parse.cfg import EdgeType, Function
from ..riscv.registers import Register

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from ..parse.parser import CodeObject
from .liveness import (
    ALL_REGS, CALL_KILLS, CALL_USES, EXIT_LIVE, LivenessResult,
)


@dataclass(frozen=True)
class FunctionSummary:
    """May-read-before-write / may-write sets of one function."""

    uses: frozenset[Register]
    kills: frozenset[Register]


#: the most conservative summary (used for unknown callees)
CONSERVATIVE = FunctionSummary(frozenset(CALL_USES), frozenset(CALL_KILLS))


class InterproceduralLiveness:
    """Whole-program liveness with callee-summary call effects."""

    def __init__(self, code_object: "CodeObject", max_rounds: int = 50):
        self.code_object = code_object
        self.summaries: dict[int, FunctionSummary] = {}
        self._results: dict[int, LivenessResult] = {}
        #: per-function pass-through registers some caller holds live
        #: across a call (joins the exit seed)
        self._exit_extra: dict[int, frozenset] = {}
        self._solve(max_rounds)
        self._solve_demand(max_rounds)

    # -- public ------------------------------------------------------------

    def result_for(self, fn: Function) -> LivenessResult:
        """The (summary-sharpened) liveness result of one function.

        Exit seeding is the dual of the call-site sharpening: a
        caller-saved register this function does *not* kill is
        pass-through — a summary-aware caller may keep a value live in
        it across the call.  The demand fixpoint (:meth:`_solve_demand`)
        computes, per function, which pass-through registers some caller
        actually holds live across a call, and those join the exit-live
        seed.
        """
        if fn.entry not in self._results:
            extra = self._exit_extra.get(fn.entry, frozenset())
            self._results[fn.entry] = self._analyze(
                fn, seed_exit=frozenset(EXIT_LIVE | extra))
        return self._results[fn.entry]

    def summary_for(self, fn: Function) -> FunctionSummary:
        return self.summaries.get(fn.entry, CONSERVATIVE)

    # -- fixpoint ------------------------------------------------------------

    def _solve(self, max_rounds: int) -> None:
        fns = list(self.code_object.functions.values())
        # optimistic start: reads nothing, writes nothing
        for fn in fns:
            self.summaries[fn.entry] = FunctionSummary(
                frozenset(), frozenset())
        for _ in range(max_rounds):
            changed = False
            for fn in fns:
                new = self._summarize(fn)
                if new != self.summaries[fn.entry]:
                    self.summaries[fn.entry] = new
                    changed = True
            if not changed:
                break
        else:  # no convergence: fall back to conservative everywhere
            for fn in fns:
                self.summaries[fn.entry] = CONSERVATIVE
        self._results.clear()

    def _solve_demand(self, max_rounds: int) -> None:
        """Ascending fixpoint of caller-demanded pass-through liveness:
        for every call site, registers live after the call that the
        callee does not kill must be live at the callee's exits."""
        fns = list(self.code_object.functions.values())
        self._exit_extra = {fn.entry: frozenset() for fn in fns}
        for _ in range(max_rounds):
            changed = False
            for caller in fns:
                res = self._analyze(
                    caller,
                    seed_exit=frozenset(
                        EXIT_LIVE | self._exit_extra[caller.entry]))
                for block in caller.blocks.values():
                    for e in block.out_edges:
                        if e.kind not in (EdgeType.CALL,
                                          EdgeType.TAILCALL):
                            continue
                        callee = (self.code_object.functions.get(e.target)
                                  if e.target is not None else None)
                        if callee is None:
                            continue
                        s = self.summaries.get(callee.entry, CONSERVATIVE)
                        pass_through = CALL_KILLS - s.kills
                        if e.kind is EdgeType.CALL:
                            live_after = res.live_out.get(
                                block.start, ALL_REGS)
                        else:  # tail call: the callee exits for us
                            live_after = (EXIT_LIVE
                                          | self._exit_extra[caller.entry])
                        demand = frozenset(live_after & pass_through)
                        if not demand <= self._exit_extra[callee.entry]:
                            self._exit_extra[callee.entry] = frozenset(
                                self._exit_extra[callee.entry] | demand)
                            changed = True
            if not changed:
                break
        else:  # no convergence: conservative pass-through everywhere
            for fn in fns:
                s = self.summaries.get(fn.entry, CONSERVATIVE)
                self._exit_extra[fn.entry] = frozenset(
                    CALL_KILLS - s.kills)
        self._results.clear()

    def _call_effects(self, block) -> tuple[set, set]:
        """(uses, kills) of the call/tailcall terminating *block* under
        current summaries."""
        uses: set[Register] = set()
        kills: set[Register] = set()
        for e in block.out_edges:
            if e.kind not in (EdgeType.CALL, EdgeType.TAILCALL):
                continue
            if e.target is None:
                return set(CALL_USES), set(CALL_KILLS)
            callee = self.code_object.functions.get(e.target)
            if callee is None:
                return set(CALL_USES), set(CALL_KILLS)
            s = self.summaries.get(callee.entry, CONSERVATIVE)
            uses |= s.uses
            kills |= s.kills
        # a call can only be assumed to kill caller-saved registers;
        # callee-saved writes are restored by the callee's epilogue
        kills &= CALL_KILLS
        return uses, kills

    def _insn_uses_defs(self, insn, block):
        uses = insn.read_set()
        defs = insn.write_set()
        if block is not None and insn is block.last:
            kinds = {e.kind for e in block.out_edges}
            if EdgeType.CALL in kinds or EdgeType.TAILCALL in kinds:
                cu, ck = self._call_effects(block)
                if EdgeType.CALL in kinds:
                    # the callee's read of the link register is satisfied
                    # by the call instruction's own write, not the caller
                    uses |= (cu - insn.write_set())
                    defs |= ck
                else:
                    uses |= cu
        return uses, defs

    def _summarize(self, fn: Function) -> FunctionSummary:
        """Recompute fn's summary under the current callee summaries."""
        res = self._analyze(fn, seed_exit=frozenset())
        entry_live = res.live_in.get(fn.entry, frozenset())
        kills: set[Register] = set()
        for block in fn.blocks.values():
            for insn in block.insns:
                _, d = self._insn_uses_defs(insn, block)
                kills |= d
        # only caller-visible effects matter
        return FunctionSummary(
            frozenset(entry_live & (CALL_USES | CALL_KILLS)),
            frozenset(kills & CALL_KILLS))

    # -- sharpened intraprocedural solve ------------------------------------

    def _analyze(self, fn: Function,
                 seed_exit: frozenset | None = None) -> LivenessResult:
        exit_live = EXIT_LIVE if seed_exit is None else seed_exit
        blocks = fn.blocks

        def block_flow(block):
            use: set[Register] = set()
            defs: set[Register] = set()
            for insn in block.insns:
                u, d = self._insn_uses_defs(insn, block)
                use |= (u - defs)
                defs |= d
            return frozenset(use), frozenset(defs)

        summaries = {a: block_flow(b) for a, b in blocks.items()}
        succs: dict[int, list[int]] = {}
        seed: dict[int, set[Register]] = {}
        for addr, block in blocks.items():
            succs[addr] = fn.intraproc_successors(block)
            s: set[Register] = set()
            for e in block.out_edges:
                if e.kind in (EdgeType.RET, EdgeType.TAILCALL):
                    s |= exit_live
                elif not e.resolved or (
                        e.kind is EdgeType.INDIRECT and e.target is None):
                    s |= ALL_REGS
                elif e.kind is EdgeType.CALL and e.target is None:
                    s |= ALL_REGS
            if not block.out_edges:
                s |= exit_live
            seed[addr] = s

        live_in = {a: frozenset() for a in blocks}
        live_out = {a: frozenset() for a in blocks}
        changed = True
        while changed:
            changed = False
            for addr in blocks:
                out = set(seed[addr])
                for sx in succs[addr]:
                    out |= live_in[sx]
                use, defs = summaries[addr]
                inn = frozenset(use | (out - defs))
                if frozenset(out) != live_out[addr] or inn != live_in[addr]:
                    live_out[addr] = frozenset(out)
                    live_in[addr] = inn
                    changed = True
        return _SharpLivenessResult(self, fn, live_in, live_out)


class _SharpLivenessResult(LivenessResult):
    """LivenessResult whose per-instruction refinement uses summary-based
    call effects."""

    def __init__(self, owner: InterproceduralLiveness, fn, live_in,
                 live_out):
        super().__init__(fn, live_in, live_out)
        self._owner = owner

    def _uses_defs(self, insn, block):
        return self._owner._insn_uses_defs(insn, block)


def analyze_interprocedural(code_object: "CodeObject",
                            ) -> InterproceduralLiveness:
    """Compute whole-program summary-based liveness."""
    return InterproceduralLiveness(code_object)


# -- snapshots ------------------------------------------------------------

def interproc_to_snapshot(ip: InterproceduralLiveness) -> dict:
    """Serialize the whole-program solution: per-function summaries,
    demanded pass-through sets, and every function's live-in/out masks
    (JSON-ready; consumed by the artifact store)."""
    from .liveness import mask_of

    for fn in ip.code_object.functions.values():
        ip.result_for(fn)  # materialize every result before serializing
    results = []
    for entry, res in sorted(ip._results.items()):
        results.append([
            entry,
            [[a, mask_of(s)] for a, s in sorted(res.live_in.items())],
            [[a, mask_of(s)] for a, s in sorted(res.live_out.items())],
        ])
    return {
        "summaries": [[e, mask_of(s.uses), mask_of(s.kills)]
                      for e, s in sorted(ip.summaries.items())],
        "exit_extra": [[e, mask_of(s)]
                       for e, s in sorted(ip._exit_extra.items())],
        "results": results,
    }


def interproc_from_snapshot(code_object: "CodeObject",
                            data: dict) -> InterproceduralLiveness:
    """Revive the whole-program solution without running either
    fixpoint.  Per-instruction refinement still works: the revived
    summaries drive :meth:`InterproceduralLiveness._call_effects`
    exactly as the solver's own would."""
    from .liveness import regs_of

    ip = object.__new__(InterproceduralLiveness)
    ip.code_object = code_object
    ip.summaries = {
        e: FunctionSummary(regs_of(u), regs_of(k))
        for e, u, k in data["summaries"]
    }
    ip._exit_extra = {e: regs_of(m) for e, m in data["exit_extra"]}
    ip._results = {}
    for entry, live_in, live_out in data["results"]:
        fn = code_object.functions.get(entry)
        if fn is None:
            continue
        ip._results[entry] = _SharpLivenessResult(
            ip, fn,
            {a: regs_of(m) for a, m in live_in},
            {a: regs_of(m) for a, m in live_out})
    return ip
