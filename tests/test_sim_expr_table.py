"""Every row of the simulator's expression table on every tier.

``repro.sim.executor.TABLE`` is the one source of the ALU, shift, Zbb,
branch-condition and FP add/mul/FMA semantics.  The closure interpreter
runs each row compiled to a function, superblocks paste it into their
source over ``x[r]``, and megatraces paste it over register locals or
fold it to a constant.  PROPERTY: for every row, a loop run past
``HOT_THRESHOLD`` leaves bit-identical ``x``, ``f``, ``pc``, ``instret``,
``ucycles`` and result memory on the interpreter
(``trace_compile=False``), superblocks (``megatraces=False``) and
megatraces, with register operands, constant-folded operands (an ``li``
inside the loop), a mix of both, ``rd = x0`` and ``rd == rs1``.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv import assemble
from repro.riscv.extensions import RVA23_SUBSET
from repro.sim import Machine, P550, StopReason
from repro.sim.executor import TABLE
from repro.sim.trace import HOT_THRESHOLD
from strategies import examples

M64 = (1 << 64) - 1

#: loop trips: past the megatrace threshold with steady-state iterations
ITERS = HOT_THRESHOLD + 4

EDGE = [0, 1, M64, 1 << 63, 0x7FFFFFFF, 0x80000000, 31, 63]
IMMS = [0, 1, -1, 31, 63, 2047, -2048]

#: operands set before the loop / by ``li`` inside it (constant-folded)
REG = [f"x{n}" for n in range(14, 22)]
KON = [f"x{n}" for n in range(5, 13)]

TIERS = {
    "interp": {"trace_compile": False},
    "super": {"megatraces": False},
    "mega": {},
}

INT_ROWS = sorted(mn for mn, r in TABLE.items() if r.kind == "int")
BRANCH_ROWS = sorted(mn for mn, r in TABLE.items() if r.kind == "branch")
FP_ROWS = sorted(mn for mn, r in TABLE.items() if r.kind == "fp")

#: binary64 operands: signed zeros, a subnormal, the largest finite,
#: infinities, and quiet/signalling NaNs with payloads
F64_VALS = [0x0, 0x8000_0000_0000_0000, 0x3FF0_0000_0000_0000,
            0xBFF8_0000_0000_0000, 0x1, 0x7FEF_FFFF_FFFF_FFFF,
            0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
            0x7FF8_0000_CAFE_F00D, 0x7FF4_0000_DEAD_BEEF]
F32_VALS = [0x0, 0x8000_0000, 0x3F80_0000, 0xBFC0_0000, 0x1, 0x7F7F_FFFF,
            0x7F80_0000, 0xFF80_0000, 0x7FC0_1234, 0x7FA0_0001]


def _imms(mn):
    """Immediates to try for an immediate row (shamt range per form)."""
    if TABLE[mn].args[-1] == "imm":
        return IMMS
    return [0, 1, 31] if mn.endswith("w") else [0, 1, 31, 63]


def _li(regs, vals):
    return "".join(f"  li {r}, {v}\n" for r, v in zip(regs, vals))


def _program(body, pre="", stride=8, data=""):
    """A loop of ITERS trips over *body*; x30 walks an output buffer
    *stride* bytes per trip, so every trip's stores stay visible."""
    return f"""
_start:
  la x30, out
  li x31, {ITERS}
{pre}
loop:
{body}
  addi x30, x30, {stride}
  addi x31, x31, -1
  bnez x31, loop
  li a0, 0
  li a7, 93
  ecall
.data
{data}
.align 3
out: .zero {ITERS * stride}
"""


def _run_tiers(src, out_size=None):
    """Run *src* on every tier; assert all states are bit-identical."""
    prog = assemble(src, arch=RVA23_SUBSET)
    out = prog.symbol("out").address
    states = {}
    for tier, kw in TIERS.items():
        m = Machine(P550, **kw)
        m.load_program(prog)
        ev = m.run()
        assert ev.reason is StopReason.EXITED, (tier, ev)
        if tier == "mega":
            assert m.traces.mega_compiles >= 1
        elif tier == "super":
            assert m.traces.compiles >= 1 and m.traces.mega_compiles == 0
        states[tier] = (m.pc, m.instret, m.ucycles, list(m.x), list(m.f),
                        m.read_mem(out, out_size or ITERS * 8))
    assert states["super"] == states["interp"]
    assert states["mega"] == states["interp"]
    return states["interp"]


def _emit(mn, rd, srcs, imm, k, lines):
    """One row instruction plus the store of its result to slot *k*."""
    ops = ", ".join([rd, *srcs] + ([str(imm)] if imm is not None else []))
    lines.append(f"  {mn} {ops}")
    lines.append(f"  sd {rd}, {8 * k}(x30)")


def _int_cases(mn, mode):
    """(sources, imm) per instruction for *mode* on integer row *mn*."""
    row = TABLE[mn]
    n = len(EDGE)
    if len(row.args) == 1:
        pairs = [((i,), None) for i in range(n)]
    elif row.args[1] == "rs2":
        pairs = [((i, j), None) for i in range(n) for j in range(n)]
    else:
        pairs = [((i,), imm) for i in range(n) for imm in _imms(mn)]
    out = []
    for idx, imm in pairs:
        if mode == "reg":
            banks = [REG] * len(idx)
        elif mode == "const":
            banks = [KON] * len(idx)
        else:  # mixed: alternate which operand is the constant
            banks = [KON, REG] if sum(idx) % 2 else [REG, KON]
            banks = banks[:len(idx)]
        out.append(([b[i] for b, i in zip(banks, idx)], imm))
    return out


@pytest.mark.parametrize("mode", ["reg", "const", "mixed"])
@pytest.mark.parametrize("mn", INT_ROWS)
def test_int_row_all_tiers(mn, mode):
    cases = _int_cases(mn, mode)
    lines = [] if mode == "reg" else [_li(KON, EDGE)]
    for k, (srcs, imm) in enumerate(cases):
        _emit(mn, "x13", srcs, imm, k, lines)
    if mode == "reg":
        # rd = x0 must leave x0 alone on every tier
        lines.append(f"  {mn} " + ", ".join(
            ["x0", *cases[-1][0]]
            + ([str(cases[-1][1])] if cases[-1][1] is not None else [])))
    stride = 8 * len(cases)
    _run_tiers(_program("\n".join(lines), pre=_li(REG, EDGE), stride=stride),
               ITERS * stride)


@pytest.mark.parametrize("mn", INT_ROWS)
def test_int_row_rd_is_rs1(mn):
    lines = []
    for k, (srcs, imm) in enumerate(_int_cases(mn, "reg")):
        lines.append(f"  addi x22, {srcs[0]}, 0")
        _emit(mn, "x22", ["x22", *srcs[1:]], imm, k, lines)
    stride = 8 * len(_int_cases(mn, "reg"))
    _run_tiers(_program("\n".join(lines), pre=_li(REG, EDGE), stride=stride),
               ITERS * stride)


def _ladder(mn, pairs, const=None):
    """Branch row *mn* as the loop's own back edge: trip *t* tests
    ``pairs[t % len(pairs)]`` (loaded from a table, so not constant)
    and records 1 if taken, 0 if not.  Both outcomes stay inside the
    megatrace, and the last ``len(pairs)`` trips, all past promotion,
    cover every pair.  *const* = (side, value) makes that operand an
    ``li`` constant instead.  Returns (source, output bytes)."""
    trips = 2 * HOT_THRESHOLD + len(pairs)
    table = [pairs[t % len(pairs)] for t in range(trips)]
    a, b = "x14", "x15"
    load = "  ld x14, 0(x29)\n  ld x15, 8(x29)\n"
    if const is not None:
        side, val = const
        if side == 0:
            a, load = "x5", f"  ld x15, 8(x29)\n  li x5, {val}\n"
        else:
            b, load = "x5", f"  ld x14, 0(x29)\n  li x5, {val}\n"
    dwords = ", ".join(f"{v:#x}" for p in table for v in p)
    return f"""
_start:
  la x30, out
  la x29, vals
  li x31, {trips}
loop:
  beqz x31, done
{load}  addi x29, x29, 16
  addi x31, x31, -1
  addi x13, x0, 1
  sd x13, 0(x30)
  addi x30, x30, 8
  {mn} {a}, {b}, loop
  sd x0, -8(x30)
  j loop
done:
  li a0, 0
  li a7, 93
  ecall
.data
.align 3
vals: .dword {dwords}
out: .zero {trips * 8}
""", trips * 8


def _branch_pairs():
    return [(a, b) for a in EDGE for b in EDGE]


#: register-side operands for the mixed ladders: one per edge value
EDGE_PAIRS_SAMPLE = [(v, v) for v in EDGE]


@pytest.mark.parametrize("mn", BRANCH_ROWS)
def test_branch_row_register_operands(mn):
    _run_tiers(*_ladder(mn, _branch_pairs()))


@pytest.mark.parametrize("mn", BRANCH_ROWS)
def test_branch_row_mixed_operands(mn):
    for side in (0, 1):
        for val in (0, M64, 1 << 63, 0x80000000):
            _run_tiers(*_ladder(mn, EDGE_PAIRS_SAMPLE, (side, val)))


@pytest.mark.parametrize("mn", BRANCH_ROWS)
def test_branch_row_constant_folded(mn):
    """Both operands ``li`` constants: megatraces fold each branch and
    follow one path; every outcome is recorded."""
    pairs = _branch_pairs()
    for start in range(0, len(pairs), 16):
        lines = []
        for k, (a, b) in enumerate(pairs[start:start + 16]):
            lines += [f"  li x5, {a}", f"  li x6, {b}",
                      f"  {mn} x5, x6, t{k}",
                      f"  sd x0, {8 * k}(x30)", f"  j j{k}",
                      f"t{k}:", f"  addi x13, x0, 1",
                      f"  sd x13, {8 * k}(x30)", f"j{k}:"]
        _run_tiers(_program("\n".join(lines), stride=8 * 16), ITERS * 8 * 16)


#: indices of the NaNs in F64_VALS / F32_VALS
NANS = {8, 9}


def _fp_cases(mn):
    """Operand index tuples with at most one NaN: with two NaNs of
    different payloads the host picks one by the operand order of the
    machine code CPython happens to run, which its specializing
    interpreter changes mid-run (the RISC-V canonical NaN is not
    modelled), so no tier can reproduce another bit for bit."""
    n = len(F64_VALS)
    if len(TABLE[mn].args) == 2:
        cases = [(i, j) for i in range(n) for j in range(n)][::2]
    else:
        cases = [(i, j, k) for i in range(n) for j in (2, 3, 6, 9)
                 for k in (1, 2)]
    return [c for c in cases if len(NANS.intersection(c)) < 2]


@pytest.mark.parametrize("mode", ["reg", "load", "self"])
@pytest.mark.parametrize("mn", FP_ROWS)
def test_fp_row_all_tiers(mn, mode):
    single = mn.endswith(".s")
    vals = F32_VALS if single else F64_VALS
    width, ld, st_ = (4, "flw", "fsw") if single else (8, "fld", "fsd")
    load = "".join(f"  {ld} f{i}, {width * i}(x29)\n"
                   for i in range(len(vals)))
    lines = [load] if mode == "load" else []
    for k, idx in enumerate(_fp_cases(mn)):
        srcs = [f"f{i}" for i in idx]
        rd = "f20"
        if mode == "self":
            rd = srcs[0] = "f21"
            lines.append(f"  {ld} f21, {width * idx[0]}(x29)")
        lines.append(f"  {mn} {rd}, {', '.join(srcs)}")
        lines.append(f"  {st_} {rd}, {8 * k}(x30)")
    stride = 8 * len(_fp_cases(mn))
    data = (f"vals: .{'word' if single else 'dword'} "
            + ", ".join(f"{v:#x}" for v in vals))
    pre = "  la x29, vals\n" + ("" if mode == "load" else load)
    _run_tiers(_program("\n".join(lines), pre=pre, stride=stride,
                        data=data), ITERS * stride)


def _fma_result(mn, a, b, c):
    """fd of one FMA on all three tiers (asserted identical)."""
    single = mn.endswith(".s")
    ld, st_, fmt = ("flw", "fsw", "<f") if single else ("fld", "fsd", "<d")
    words = [int.from_bytes(struct.pack(fmt, v), "little") for v in (a, b, c)]
    src = _program(
        f"  {ld} f1, 0(x29)\n  {ld} f2, 8(x29)\n  {ld} f3, 16(x29)\n"
        f"  {mn} f4, f1, f2, f3\n  {st_} f4, 0(x30)",
        pre="  la x29, vals",
        data="vals: .dword " + ", ".join(f"{w:#x}" for w in words))
    state = _run_tiers(src)
    bits = state[4][4]
    if single:
        assert bits >> 32 == 0xFFFF_FFFF  # NaN-boxed
        return struct.unpack("<f", (bits & 0xFFFF_FFFF).to_bytes(4,
                                                                 "little"))[0]
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def test_fma_double_rounds_once():
    """(1+2^-30)^2 - (1+2^-29) is exactly 2^-60; rounding the product
    first loses it and returns 0."""
    a = 1 + 2.0 ** -30
    assert _fma_result("fmadd.d", a, a, -(1 + 2.0 ** -29)) == 2.0 ** -60
    assert _fma_result("fnmadd.d", a, a, -(1 + 2.0 ** -29)) == -2.0 ** -60
    assert _fma_result("fmsub.d", a, a, 1 + 2.0 ** -29) == 2.0 ** -60
    assert _fma_result("fnmsub.d", a, a, 1 + 2.0 ** -29) == -2.0 ** -60


def test_fma_single_rounds_straight_to_binary32():
    """(1+2^-12)^2 + 2^-70 lies just above the binary32 midpoint
    1+2^-11+2^-24; through binary64 it lands on the midpoint and ties
    down to 1+2^-11."""
    a = 1 + 2.0 ** -12
    want = 1 + 2.0 ** -11 + 2.0 ** -23
    assert _fma_result("fmadd.s", a, a, 2.0 ** -70) == want
    assert _fma_result("fmsub.s", a, a, -(2.0 ** -70)) == want


def test_fma_exact_zero_sign():
    """An exact zero result: +0 from cancelling terms, and IEEE's
    signed-zero sum when the product itself is zero."""
    def sign(v):
        return struct.pack("<d", v)[7] >> 7
    assert sign(_fma_result("fmadd.d", 1.5, 2.0, -3.0)) == 0
    assert sign(_fma_result("fmadd.d", -0.0, 1.0, -0.0)) == 1
    assert sign(_fma_result("fmadd.d", 0.0, 1.0, -0.0)) == 0


@settings(max_examples=examples(15), deadline=None)
@given(data=st.data())
def test_random_operands_all_tiers(data):
    mn = data.draw(st.sampled_from(INT_ROWS + BRANCH_ROWS))
    a, b = (data.draw(st.one_of(st.sampled_from(EDGE),
                                st.integers(0, M64))) for _ in range(2))
    row = TABLE[mn]
    if row.kind == "branch":
        _run_tiers(*_ladder(mn, [(a, b)]))
        _run_tiers(*_ladder(mn, [(a, b)], (1, b)))
        return
    imm = None
    if len(row.args) == 2 and row.args[1] != "rs2":
        imm = data.draw(st.integers(-2048, 2047) if row.args[1] == "imm"
                        else st.integers(0, max(_imms(mn))))
    # register, constant and mixed operands, then rd == rs1
    srcs = [["x14", "x15"], ["x5", "x6"], ["x5", "x15"], ["x14", "x6"]]
    nsrc = len(row.args) - (imm is not None)
    lines = [_li(["x5", "x6"], [a, b])]
    for k, pair in enumerate(srcs):
        _emit(mn, "x13", pair[:nsrc], imm, k, lines)
    lines.append("  addi x22, x14, 0")
    _emit(mn, "x22", ["x22", "x15"][:nsrc], imm, len(srcs), lines)
    stride = 8 * (len(srcs) + 1)
    _run_tiers(_program("\n".join(lines), pre=_li(["x14", "x15"], [a, b]),
                        stride=stride), ITERS * stride)
