"""Table-driven liveness queries against their set-based references.

The per-mnemonic def/use table, the mask path of liveness queries and
the mask-driven scratch allocator must answer exactly as the IR walk,
the ``insn_uses_defs`` set path and the old list-based allocator do.
The per-block live-before memo must be invisible: repeated sessions on
one shared :class:`~repro.api.Analysis` (cold or revived from the
artifact store) commit byte-identical rewrites, serialize identically,
and walk no IR or block after the first session.
"""

import sys
import threading

import pytest

from repro.api import BinaryEdit, analyze
from repro.artifacts import ArtifactStore
from repro.codegen import allocate_scratch
from repro.codegen.snippets import IncrementVar
from repro.dataflow import liveness as lvmod
from repro.dataflow.liveness import (
    LivenessResult, _block_flow, analyze_liveness, insn_uses_defs, mask_of,
)
from repro.elf.writer import write_program
from repro.minicc import Options, compile_source, workloads as wl
from repro.parse import parse_binary
from repro.patch.points import PointType
from repro.riscv.opcodes import all_specs
from repro.riscv.registers import SCRATCH_CANDIDATES
from repro.semantics import ir, sail_semantics
from repro.semantics.registry import (
    _fallback_defs, _fallback_uses, operand_pairs,
)
from repro.symtab import Symtab

SOURCES = {
    "matmul": wl.matmul_source(4, 1),
    "fib": wl.fib_source(8),
    "switch": wl.switch_source(5),
    "qsort": wl.qsort_source(16),
    "nbody": wl.nbody_source(2, 2),
    "crc": wl.crc_source(16, 1),
    "linked_list": wl.linked_list_source(8),
    "tailcall": wl.tailcall_source(10),
}


def _program(name, compress):
    return compile_source(SOURCES[name], Options(compress=compress))


def test_operand_table_matches_fresh_semantics_walk():
    table = operand_pairs()
    sail = sail_semantics()
    specs = list(all_specs())
    assert set(table) == {s.mnemonic for s in specs}
    for spec in specs:
        sem = sail.get(spec.mnemonic)
        if sem is not None:
            uses, defs = sem.register_uses(), sem.register_defs()
        else:
            uses, defs = _fallback_uses(spec), _fallback_defs(spec)
        assert table[spec.mnemonic] == (tuple(sorted(uses)),
                                        tuple(sorted(defs))), spec.mnemonic


def _reference_plan(needed, ref, point):
    """The list-based allocator the mask-driven one replaced."""
    dead = ref.dead_before(point, SCRATCH_CANDIDATES)
    chosen = dead[:needed]
    spilled = []
    for r in SCRATCH_CANDIDATES:
        if len(chosen) >= needed:
            break
        if r not in chosen:
            chosen.append(r)
            spilled.append(r)
    return tuple(chosen), tuple(spilled)


@pytest.mark.parametrize("compress", [False, True],
                         ids=["rv64g", "rv64gc"])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_mask_path_matches_set_path(name, compress):
    co = parse_binary(Symtab.from_program(_program(name, compress)))
    n_insns = 0
    for fn in co.functions.values():
        res = analyze_liveness(fn)
        ref = LivenessResult(fn, res.live_in, res.live_out)
        assert ref._out_masks is None  # hand-built: the set path
        for block in fn.blocks.values():
            use, defs = set(), set()
            for insn in block.insns:
                u, d = insn_uses_defs(insn, block)
                use |= u - defs
                defs |= d
            assert _block_flow(block) == (mask_of(use), mask_of(defs))
            for insn in block.insns:
                a = insn.address
                n_insns += 1
                live = ref.live_before(a)
                assert res.live_before(a) == live
                assert res.live_mask_before(a) == mask_of(live)
                assert res.dead_before(a) == ref.dead_before(a)
                for needed in (1, 2, 4):
                    plan = allocate_scratch(needed, res, a)
                    assert (plan.regs, plan.spilled) == \
                        _reference_plan(needed, ref, a)
    assert n_insns > 20
    if compress:
        assert any(i.is_compressed for fn in co.functions.values()
                   for i in fn.instructions())


def _session(analysis):
    edit = BinaryEdit(analysis)
    var = edit.allocate_variable("blocks")
    for fn in edit.functions():
        if fn.name:
            edit.insert(edit.points(fn.name, PointType.BLOCK_ENTRY),
                        IncrementVar(var))
    stats = edit.commit().stats
    return edit.rewrite(), repr(stats)


@pytest.mark.parametrize("name", ["qsort", "tailcall"])
def test_shared_analysis_sessions_identical(name, tmp_path, monkeypatch):
    elf = write_program(_program(name, True))
    reference = _session(analyze(elf, store=False))
    store = ArtifactStore(tmp_path / "store")
    analyze(elf, store=store)
    revived = analyze(elf, store=store)
    assert revived.revived
    cold = analyze(elf, store=False)

    walks = {"ir": 0, "insn": 0}
    ir_walk = ir.Semantics.register_uses
    insn_masks = lvmod._insn_masks

    def counting_ir(self):
        walks["ir"] += 1
        return ir_walk(self)

    def counting_insn(*args):
        walks["insn"] += 1
        return insn_masks(*args)

    monkeypatch.setattr(ir.Semantics, "register_uses", counting_ir)
    monkeypatch.setattr(lvmod, "_insn_masks", counting_insn)
    operand_pairs.cache_clear()
    for analysis in (cold, revived):
        payload = analysis.to_payload()
        for i in range(3):
            walks.update(ir=0, insn=0)
            assert _session(analysis) == reference
            if i:
                assert walks == {"ir": 0, "insn": 0}
            else:
                assert walks["insn"] > 0
        assert analysis.to_payload() == payload


def test_memo_shared_across_threads():
    """Threads racing to fill one result's memo all see the reference
    masks (a race may only build the same block table twice)."""
    co = parse_binary(Symtab.from_program(_program("qsort", True)))
    cases = []
    for fn in co.functions.values():
        res = analyze_liveness(fn)
        ref = LivenessResult(fn, res.live_in, res.live_out)
        cases += [(res, i.address, mask_of(ref.live_before(i.address)))
                  for i in fn.instructions()]
    failures = []

    def worker(k):
        for res, addr, want in cases[k::2] + cases:
            if res.live_mask_before(addr) != want:
                failures.append(addr)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k % 2,))
                   for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
