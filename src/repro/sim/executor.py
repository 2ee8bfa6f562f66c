"""Instruction execution engine: decoded instruction -> Python closure.

The hot path of the simulator.  Each instruction at a given pc is decoded
once and compiled into a small closure that mutates the machine state;
closures are cached per-pc (the machine invalidates entries when code is
patched — which is precisely what dynamic instrumentation does).

The integer ALU, shift, Zba/Zbb, branch-condition and FP add/mul/FMA
semantics live once, in the expression :data:`TABLE`, which the trace
JIT (:mod:`repro.sim.trace`) renders into its generated source; the
rest (loads/stores, CSR, atomics, FP moves, conversions, compares,
sign injection, classify, square root) are hand-written bodies here.

Per the HPC guides: the interpreter optimises the *hot loop* only —
closure dispatch, locals-bound state, no per-step allocation.  Everything
else favours clarity.
"""

from __future__ import annotations

import math
import re
import string
from typing import Callable, NamedTuple, TYPE_CHECKING

from ..errors import ReproError
from ..riscv.encoding import sign_extend, to_unsigned
from ..riscv.instr import Instruction
from . import fp
from .timing import category_of

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

M64 = (1 << 64) - 1
M32 = (1 << 32) - 1

Closure = Callable[[], None]


class SimFault(ReproError):
    """Architectural fault (illegal instruction, bad fetch...)."""

    def __init__(self, message: str, pc: int | None = None):
        super().__init__(message if pc is None else f"{message} at pc={pc:#x}")
        self.pc = pc


class BreakpointHit(Exception):
    """ebreak executed; machine stopped with pc at the ebreak."""

    def __init__(self, pc: int):
        super().__init__(f"breakpoint at {pc:#x}")
        self.pc = pc


class ExitTrap(Exception):
    """Program requested exit via the exit syscall."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


def _sx(v: int) -> int:
    return v - (1 << 64) if v >> 63 else v


def _sx32(v: int) -> int:
    v &= M32
    return v - (1 << 32) if v >> 31 else v


# -- the expression table ---------------------------------------------
#
# One Python expression per mnemonic is the single source of these
# instructions' semantics.  Operands are named: ``{a}``/``{b}``/``{c}``
# read rs1/rs2/rs3 (integer rows: unsigned 64-bit; FP rows: Python
# floats of the row's format), ``{sa}``/``{sb}`` are the signed forms,
# ``{i}`` is the signed immediate (shamt for shifts) and ``{u}`` the
# immediate as unsigned 64-bit.  ``M64``/``M32`` are the masks and
# capitalised calls are :data:`HELPERS`.  Each row is compiled once,
# below, into the callable the closure interpreter and the megatrace
# constant folder run; the trace JIT pastes it into generated source
# through :func:`render`.

def _div_s(a, b):
    if b == 0:
        return M64
    sa, sb = _sx(a), _sx(b)
    if sa == -(1 << 63) and sb == -1:
        return a
    q = abs(sa) // abs(sb)
    return to_unsigned(-q if (sa < 0) != (sb < 0) else q, 64)


def _rem_s(a, b):
    if b == 0:
        return a
    sa, sb = _sx(a), _sx(b)
    if sa == -(1 << 63) and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return to_unsigned(-r if sa < 0 else r, 64)


def _div_s32(a, b):
    sa, sb = _sx32(a), _sx32(b)
    if sb == 0:
        return M64
    if sa == -(1 << 31) and sb == -1:
        return to_unsigned(sa, 64)
    q = abs(sa) // abs(sb)
    return to_unsigned(sign_extend(to_unsigned(
        -q if (sa < 0) != (sb < 0) else q, 32), 32), 64)


def _rem_s32(a, b):
    sa, sb = _sx32(a), _sx32(b)
    if sb == 0:
        return to_unsigned(sa, 64)
    if sa == -(1 << 31) and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return to_unsigned(-r if sa < 0 else r, 64)


#: functions rows may call, bound by name wherever a row is evaluated
HELPERS = {
    "sx": _sx, "DIV": _div_s, "REM": _rem_s, "DIVW": _div_s32,
    "REMW": _rem_s32, "FDIV": fp.fp_div, "FMIN": fp.fp_min,
    "FMAX": fp.fp_max, "FMA32": fp.fma32, "FMA64": fp.fma64,
}


def _s32(e: str) -> str:
    """Template text: the low 32 bits of *e*, as a signed value."""
    return f"((({e}) & M32 ^ 0x80000000) - 0x80000000)"


def _w(e: str) -> str:
    """Template text: the low 32 bits of *e*, sign-extended to 64."""
    return f"{_s32(e)} & M64"


#: rd = f(rs1, rs2)
_RR = {
    "add": "({a} + {b}) & M64",
    "sub": "({a} - {b}) & M64",
    "sll": "({a} << ({b} & 63)) & M64",
    "slt": "1 if {sa} < {sb} else 0",
    "sltu": "1 if {a} < {b} else 0",
    "xor": "{a} ^ {b}",
    "srl": "{a} >> ({b} & 63)",
    "sra": "({sa} >> ({b} & 63)) & M64",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
    "addw": _w("{a} + {b}"),
    "subw": _w("{a} - {b}"),
    "sllw": _w("{a} << ({b} & 31)"),
    "srlw": _w("({a} & M32) >> ({b} & 31)"),
    "sraw": f"({_s32('{a}')} >> ({{b}} & 31)) & M64",
    "mul": "({a} * {b}) & M64",
    "mulh": "(({sa} * {sb}) >> 64) & M64",
    "mulhu": "({a} * {b}) >> 64",
    "mulhsu": "(({sa} * {b}) >> 64) & M64",
    "div": "DIV({a}, {b})",
    "divu": "M64 if {b} == 0 else {a} // {b}",
    "rem": "REM({a}, {b})",
    "remu": "{a} if {b} == 0 else {a} % {b}",
    "mulw": _w("{a} * {b}"),
    "divw": "DIVW({a}, {b})",
    "divuw": "M64 if {b} & M32 == 0 else "
             + _w("({a} & M32) // ({b} & M32)"),
    "remw": "REMW({a}, {b})",
    "remuw": _w("{a} if {b} & M32 == 0 else ({a} & M32) % ({b} & M32)"),
    "czero.eqz": "0 if {b} == 0 else {a}",
    "czero.nez": "{a} if {b} == 0 else 0",
    # Zba
    "add.uw": "({b} + ({a} & M32)) & M64",
    "sh1add": "({b} + ({a} << 1)) & M64",
    "sh2add": "({b} + ({a} << 2)) & M64",
    "sh3add": "({b} + ({a} << 3)) & M64",
    # Zbb (RVA23 sample)
    "andn": "{a} & ({b} ^ M64)",
    "orn": "{a} | ({b} ^ M64)",
    "xnor": "{a} ^ {b} ^ M64",
    "min": "{a} if {sa} <= {sb} else {b}",
    "minu": "{a} if {a} <= {b} else {b}",
    "max": "{a} if {sa} >= {sb} else {b}",
    "maxu": "{a} if {a} >= {b} else {b}",
    "rol": "(({a} << ({b} & 63)) | ({a} >> (-{b} & 63))) & M64",
    "ror": "(({a} >> ({b} & 63)) | ({a} << (-{b} & 63))) & M64",
}

#: rd = f(rs1, imm)
_RI = {
    "addi": "({a} + {i}) & M64",
    "slti": "1 if {sa} < {i} else 0",
    "sltiu": "1 if {a} < {u} else 0",
    "xori": "{a} ^ {u}",
    "ori": "{a} | {u}",
    "andi": "{a} & {u}",
    "addiw": _w("{a} + {i}"),
}

#: rd = f(rs1, shamt)
_SHIFT = {
    "slli": "({a} << {i}) & M64",
    "srli": "{a} >> {i}",
    "srai": "({sa} >> {i}) & M64",
    "slliw": _w("{a} << {i}"),
    "srliw": _w("({a} & M32) >> {i}"),
    "sraiw": f"({_s32('{a}')} >> {{i}}) & M64",
    "rori": "(({a} >> {i}) | ({a} << (-{i} & 63))) & M64",
}

#: rd = f(rs1), Zbb
_UNARY = {
    "clz": "64 - ({a}).bit_length()",
    "ctz": "64 if {a} == 0 else ({a} & -{a}).bit_length() - 1",
    "cpop": "({a}).bit_count()",
    "sext.b": "(({a} & 0xFF ^ 0x80) - 0x80) & M64",
    "sext.h": "(({a} & 0xFFFF ^ 0x8000) - 0x8000) & M64",
    "zext.h": "{a} & 0xFFFF",
}

#: branch taken = f(rs1, rs2)
_BRANCH = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "{sa} < {sb}",
    "bge": "{sa} >= {sb}",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}

#: fd = f(fs1, fs2[, fs3]) on floats; the FMA signs are (product, addend)
_FP = {}
for _fmt, _bits in (("s", 32), ("d", 64)):
    _FP.update({
        "fadd." + _fmt: "{a} + {b}",
        "fsub." + _fmt: "{a} - {b}",
        "fmul." + _fmt: "{a} * {b}",
        "fdiv." + _fmt: "FDIV({a}, {b})",
        "fmin." + _fmt: "FMIN({a}, {b})",
        "fmax." + _fmt: "FMAX({a}, {b})",
        "fmadd." + _fmt: f"FMA{_bits}({{a}}, {{b}}, {{c}}, 1, 1)",
        "fmsub." + _fmt: f"FMA{_bits}({{a}}, {{b}}, {{c}}, 1, -1)",
        "fnmsub." + _fmt: f"FMA{_bits}({{a}}, {{b}}, {{c}}, -1, 1)",
        "fnmadd." + _fmt: f"FMA{_bits}({{a}}, {{b}}, {{c}}, -1, -1)",
    })

#: placeholder -> instruction field it reads
_FIELD = {"a": "rs1", "b": "rs2", "c": "rs3", "sa": "rs1", "sb": "rs2"}

#: lambda parameter per instruction field
_PARAM = {"rs1": "a", "rs2": "b", "rs3": "c", "imm": "i", "shamt": "i"}

#: how the compiled callables read each placeholder
_LAMBDA_OPS = {"a": "a", "b": "b", "c": "c", "sa": "sx(a)", "sb": "sx(b)",
               "i": "i", "u": "(i & 0xFFFFFFFFFFFFFFFF)"}

#: how the compiled renderers spell each placeholder (``I`` is the
#: immediate field's name)
_RENDER_OPS = {"a": "{reg(f['rs1'])}", "b": "{reg(f['rs2'])}",
               "c": "{reg(f['rs3'])}", "sa": "{reg_sx(f['rs1'])}",
               "sb": "{reg_sx(f['rs2'])}", "i": "{f[I]}",
               "u": "{f[I] & 0xFFFFFFFFFFFFFFFF:#x}"}


_HELPER_NS = dict(HELPERS)


class Row(NamedTuple):
    """One expression-table entry."""

    #: "int" (rd = ...), "branch" (taken?) or "fp" (fd = ...)
    kind: str
    #: instruction fields the row reads, in ``fn``'s argument order
    args: tuple[str, ...]
    #: :data:`HELPERS` names the expression calls (``sx`` for signed
    #: operands included)
    helpers: tuple[str, ...]
    #: the row compiled to a function of ``args`` (interpreter, folding)
    fn: Callable
    #: the row compiled to its renderer, ``render(fields, reg, reg_sx)``:
    #: the source of the row for an instruction with *fields*, register
    #: operand *n* read as ``reg(n)`` (signed: ``reg_sx(n)``), called in
    #: the template's left-to-right order, immediates as literals
    render: Callable


def _row(kind: str, imm: str | None, mn: str, template: str) -> Row:
    expr = (template.replace("M64", "0xFFFFFFFFFFFFFFFF")
            .replace("M32", "0xFFFFFFFF"))
    operands = {name for _, name, _, _ in string.Formatter().parse(expr)
                if name}
    args = tuple(sorted({_FIELD[p] for p in operands if p in _FIELD}))
    if imm is not None:
        args += (imm,)
    body = expr.format_map(_LAMBDA_OPS)
    fn = eval(f"lambda {', '.join(_PARAM[k] for k in args)}: {body}",
              _HELPER_NS)
    source = f"f{expr.format_map(_RENDER_OPS)!r}"
    if mn == "addi":  # addi rd, rs, 0 is the mv idiom: a plain copy
        source = f"reg(f['rs1']) if f[I] == 0 else {source}"
    render = eval(f"lambda f, reg, reg_sx, I={imm!r}: {source}")
    helpers = tuple(h for h in dict.fromkeys(re.findall(r"\b(\w+)\(", body))
                    if h in HELPERS)
    return Row(kind, args, helpers, fn, render)


#: mnemonic -> :class:`Row`
TABLE: dict[str, Row] = {
    mn: _row(kind, imm, mn, t)
    for kind, imm, rows in (
        ("int", None, _RR), ("int", "imm", _RI), ("int", "shamt", _SHIFT),
        ("int", None, _UNARY), ("branch", None, _BRANCH),
        ("fp", None, _FP))
    for mn, t in rows.items()
}

#: conditional-branch mnemonics
BRANCHES = frozenset(mn for mn, r in TABLE.items() if r.kind == "branch")


def upper_immediate(pc: int, instr: Instruction) -> int | None:
    """The constant ``lui``/``auipc`` at *pc* writes, else None."""
    mn = instr.mnemonic
    if mn != "lui" and mn != "auipc":
        return None
    val = sign_extend(instr.fields["imm"], 20) << 12
    return to_unsigned(val + pc if mn == "auipc" else val, 64)


LOADS = {  # mnemonic -> (size, signed)
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
}

STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

AMO_OPS = {
    "amoswap": lambda old, src, sx: src,
    "amoadd": lambda old, src, sx: old + src,
    "amoxor": lambda old, src, sx: old ^ src,
    "amoand": lambda old, src, sx: old & src,
    "amoor": lambda old, src, sx: old | src,
    "amomin": lambda old, src, sx: old if sx(old) <= sx(src) else src,
    "amomax": lambda old, src, sx: old if sx(old) >= sx(src) else src,
    "amominu": lambda old, src, sx: min(old, src),
    "amomaxu": lambda old, src, sx: max(old, src),
}

FP_CMP = {
    "feq": lambda a, b: int(a == b),
    "flt": lambda a, b: int(a < b),
    "fle": lambda a, b: int(a <= b),
}


def build_body(m: "Machine", pc: int, instr: Instruction
               ) -> Closure | None:
    """Compile the *state update* of one straight-line instruction.

    Returns a bookkeeping-free callable that mutates registers/memory
    only (no pc/ucycles/instret updates) — the unit the superblock trace
    compiler (:mod:`repro.sim.trace`) stitches into block functions.

    Returns ``None`` for instructions that transfer control, trap, or
    must observe exact per-instruction machine state (branches, jumps,
    ecall/ebreak, fences, CSR accesses, atomics): those always run
    through the full closure path.
    """
    mn = instr.mnemonic
    f = instr.fields
    x = m.x
    mem = m.mem

    # ---- the expression table -----------------------------------------
    row = TABLE.get(mn)
    if row is not None and row.kind != "branch":
        return _build_row(m, mn, row, f)

    val = upper_immediate(pc, instr)
    if val is not None:
        rd = f["rd"]
        if rd == 0:
            return lambda: None
        def body():
            x[rd] = val
        return body

    # ---- loads / stores -------------------------------------------------
    if mn in LOADS:
        size, signed = LOADS[mn]
        rd, rs1, imm = f["rd"], f["rs1"], f["imm"]
        read_int = mem.read_int
        if signed:
            bitw = size * 8
            def body():
                v = read_int((x[rs1] + imm) & M64, size)
                x[rd] = to_unsigned(sign_extend(v, bitw), 64)
        else:
            def body():
                x[rd] = read_int((x[rs1] + imm) & M64, size)
        if rd == 0:
            def body():  # noqa: F811 - load to x0 still accesses memory
                read_int((x[rs1] + imm) & M64, size)
        return body

    if mn in STORES:
        size = STORES[mn]
        rs1, rs2, imm = f["rs1"], f["rs2"], f["imm"]
        write_int = mem.write_int
        def body():
            # code-range invalidation rides on Memory's write watch
            write_int((x[rs1] + imm) & M64, size, x[rs2])
        return body

    # ---- F/D (loads, stores, arithmetic, moves, conversions) ----------
    return _build_fp(m, mn, f, pc)


def build_closure(m: "Machine", pc: int, instr: Instruction) -> Closure:
    """Compile one decoded instruction into an executable closure.

    The closure updates registers/memory/pc and charges cycle cost.
    """
    mn = instr.mnemonic
    f = instr.fields
    length = instr.length
    next_pc = pc + length
    cost = m.timing.ucycles(category_of(mn, instr.spec.match & 0x7F))
    x = m.x

    def _finish_simple(body: Callable[[], None]) -> Closure:
        def run() -> None:
            body()
            m.pc = next_pc
            m.ucycles += cost
            m.instret += 1
        return run

    # ---- straight-line instructions (shared with the trace compiler) --
    simple = build_body(m, pc, instr)
    if simple is not None:
        return _finish_simple(simple)

    # ---- control transfer ----------------------------------------------
    if mn in BRANCHES:
        cond = TABLE[mn].fn
        rs1, rs2 = f["rs1"], f["rs2"]
        target = pc + f["imm"]
        def run() -> None:
            m.pc = target if cond(x[rs1], x[rs2]) else next_pc
            m.ucycles += cost
            m.instret += 1
        return run

    if mn == "jal":
        rd = f["rd"]
        target = to_unsigned(pc + f["imm"], 64)
        def run() -> None:
            if rd:
                x[rd] = next_pc
            m.pc = target
            m.ucycles += cost
            m.instret += 1
        return run

    if mn == "jalr":
        rd, rs1, imm = f["rd"], f["rs1"], f["imm"]
        def run() -> None:
            target = (x[rs1] + imm) & ~1 & M64
            if rd:
                x[rd] = next_pc
            m.pc = target
            m.ucycles += cost
            m.instret += 1
        return run

    # ---- environment ----------------------------------------------------
    if mn == "ecall":
        def run() -> None:
            m.ucycles += cost
            m.instret += 1
            m.syscall()          # may raise ExitTrap
            m.pc = next_pc
        return run

    if mn == "ebreak":
        def run() -> None:
            raise BreakpointHit(pc)
        return run

    if mn in ("fence", "fence.i"):
        if mn == "fence.i":
            def body():
                m.flush_icache()
        else:
            def body():
                pass
        return _finish_simple(body)

    # ---- Zicsr -----------------------------------------------------------
    if mn.startswith("csrr"):
        return _build_csr(m, mn, f, _finish_simple)

    # ---- A extension ------------------------------------------------------
    if mn.startswith(("lr.", "sc.", "amo")):
        return _build_amo(m, mn, f, _finish_simple)

    raise SimFault(f"no handler for instruction {mn!r}", pc)


def _build_row(m, mn, row, f):
    op = row.fn
    rd = f["rd"]
    if row.kind == "fp":
        fr = m.f
        single = mn.endswith(".s")
        get = fp.f32_from_bits if single else fp.f64_from_bits
        put = fp.bits_from_f32 if single else fp.bits_from_f64
        rs1, rs2 = f["rs1"], f["rs2"]
        if len(row.args) == 3:
            rs3 = f["rs3"]
            def body():
                fr[rd] = put(op(get(fr[rs1]), get(fr[rs2]), get(fr[rs3])))
        else:
            def body():
                fr[rd] = put(op(get(fr[rs1]), get(fr[rs2])))
        return body
    if rd == 0:
        return lambda: None
    x = m.x
    rs1 = f["rs1"]
    if len(row.args) == 1:
        def body():
            x[rd] = op(x[rs1])
    elif row.args[1] == "rs2":
        rs2 = f["rs2"]
        def body():
            x[rd] = op(x[rs1], x[rs2])
    else:
        imm = f[row.args[1]]
        def body():
            x[rd] = op(x[rs1], imm)
    return body


def _build_csr(m, mn, f, finish):
    rd = f["rd"]
    csr = f["csr"]
    write_kind = mn.rstrip("i")[-1]  # w / s / c
    if mn.endswith("i"):
        src_val = f["zimm"]
        def src():
            return src_val
    else:
        rs1 = f["rs1"]
        x = m.x
        def src():
            return x[rs1]
    x = m.x

    def body():
        old = m.read_csr(csr)
        v = src()
        if write_kind == "w":
            m.write_csr(csr, v)
        elif write_kind == "s":
            if v:
                m.write_csr(csr, old | v)
        else:
            if v:
                m.write_csr(csr, old & ~v & M64)
        if rd:
            x[rd] = old
    return finish(body)


def _build_amo(m, mn, f, finish):
    x = m.x
    rd = f["rd"]
    rs1 = f["rs1"]
    size = 4 if mn.endswith(".w") else 8
    bitw = size * 8
    mem = m.mem

    if mn.startswith("lr."):
        def body():
            addr = x[rs1]
            m.reservation = addr
            v = mem.read_int(addr, size)
            if rd:
                x[rd] = to_unsigned(sign_extend(v, bitw), 64)
        return finish(body)

    rs2 = f["rs2"]
    if mn.startswith("sc."):
        def body():
            addr = x[rs1]
            if m.reservation == addr:
                m.store_int(addr, size, x[rs2])
                ok = 0
            else:
                ok = 1
            m.reservation = None
            if rd:
                x[rd] = ok
        return finish(body)

    root = mn.split(".")[0]
    op = AMO_OPS[root]
    mask = (1 << bitw) - 1
    sx = _sx32 if size == 4 else _sx

    def body():
        addr = x[rs1]
        old = mem.read_int(addr, size)
        new = op(old, x[rs2] & mask, sx) & mask
        m.store_int(addr, size, new)
        if rd:
            x[rd] = to_unsigned(sign_extend(old, bitw), 64)
    return finish(body)


def _build_fp(m, mn, f, pc):
    x = m.x
    fr = m.f
    mem = m.mem

    if mn in ("flw", "fld"):
        size = 4 if mn == "flw" else 8
        rd, rs1, imm = f["rd"], f["rs1"], f["imm"]
        if size == 4:
            def body():
                fr[rd] = fp.NAN_BOX | mem.read_int((x[rs1] + imm) & M64, 4)
        else:
            def body():
                fr[rd] = mem.read_int((x[rs1] + imm) & M64, 8)
        return body

    if mn in ("fsw", "fsd"):
        size = 4 if mn == "fsw" else 8
        rs1, rs2, imm = f["rs1"], f["rs2"], f["imm"]
        def run_body():
            m.store_int((x[rs1] + imm) & M64, size, fr[rs2])
        return run_body

    parts = mn.split(".")
    root = parts[0]

    if root in FP_CMP:
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        op = FP_CMP[root]
        rd, rs1, rs2 = f["rd"], f["rs1"], f["rs2"]
        def body():
            if rd:
                a, b = get(fr[rs1]), get(fr[rs2])
                x[rd] = 0 if (math.isnan(a) or math.isnan(b)) else op(a, b)
        return body

    if root == "fsqrt":
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        put = fp.bits_from_f32 if single else fp.bits_from_f64
        rd, rs1 = f["rd"], f["rs1"]
        def body():
            fr[rd] = put(fp.fp_sqrt(get(fr[rs1])))
        return body

    if root in ("fsgnj", "fsgnjn", "fsgnjx"):
        single = parts[1] == "s"
        sbit = 31 if single else 63
        rd, rs1, rs2 = f["rd"], f["rs1"], f["rs2"]
        mode = root[5:]
        def body():
            a, b = fr[rs1], fr[rs2]
            if single:
                a &= 0xFFFF_FFFF
                b_sign = (b >> sbit) & 1
            else:
                b_sign = (b >> sbit) & 1
            if mode == "n":
                b_sign ^= 1
            elif mode == "x":
                b_sign ^= (a >> sbit) & 1
            res = (a & ~(1 << sbit)) | (b_sign << sbit)
            fr[rd] = (fp.NAN_BOX | res) if single else res
        return body

    if root == "fclass":
        single = parts[1] == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        rd, rs1 = f["rd"], f["rs1"]
        def body():
            if rd:
                bits = fr[rs1] & (0xFFFF_FFFF if single else M64)
                x[rd] = fp.classify(get(fr[rs1]), bits, single)
        return body

    if root == "fmv":
        rd, rs1 = f["rd"], f["rs1"]
        if mn == "fmv.x.w":
            def body():
                if rd:
                    x[rd] = to_unsigned(
                        sign_extend(fr[rs1] & 0xFFFF_FFFF, 32), 64)
        elif mn == "fmv.w.x":
            def body():
                fr[rd] = fp.NAN_BOX | (x[rs1] & 0xFFFF_FFFF)
        elif mn == "fmv.x.d":
            def body():
                if rd:
                    x[rd] = fr[rs1]
        else:  # fmv.d.x
            def body():
                fr[rd] = x[rs1]
        return body

    if root == "fcvt":
        return _build_fcvt(m, mn, parts, f)

    return None


def _build_fcvt(m, mn, parts, f):
    x = m.x
    fr = m.f
    rd, rs1 = f["rd"], f["rs1"]
    dst, src = parts[1], parts[2]

    int_widths = {"w": (32, True), "wu": (32, False),
                  "l": (64, True), "lu": (64, False)}

    if dst in int_widths:  # fp -> int
        width, signed = int_widths[dst]
        single = src == "s"
        get = fp.f32_from_bits if single else fp.f64_from_bits
        rm = f.get("rm", 0)
        if rm == 7:
            rm = 0  # dynamic: frm defaults to RNE in this simulator
        def body():
            if rd:
                v = fp.cvt_to_int(get(fr[rs1]), width, signed, rm)
                x[rd] = to_unsigned(
                    sign_extend(to_unsigned(v, width), width)
                    if width == 32 else v, 64)
        return body

    if src in int_widths:  # int -> fp
        width, signed = int_widths[src]
        single = dst == "s"
        put = fp.bits_from_f32 if single else fp.bits_from_f64
        def body():
            raw = x[rs1] & ((1 << width) - 1)
            v = sign_extend(raw, width) if signed else raw
            fr[rd] = put(float(v))
        return body

    if dst == "s" and src == "d":
        def body():
            fr[rd] = fp.bits_from_f32(fp.f64_from_bits(fr[rs1]))
        return body

    if dst == "d" and src == "s":
        def body():
            fr[rd] = fp.bits_from_f64(fp.f32_from_bits(fr[rs1]))
        return body

    return None
