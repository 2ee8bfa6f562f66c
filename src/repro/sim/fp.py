"""IEEE-754 helpers for the simulator's F/D implementation.

FP registers hold raw 64-bit patterns; single-precision values are
NaN-boxed (upper 32 bits all-ones) per the RISC-V F-on-RV64 convention.
Arithmetic is performed in Python doubles; single-precision results are
re-rounded through a 32-bit pack.  That is exact for add, subtract,
multiply, divide and square root of singles (binary64 carries more than
twice their precision), but not for fused multiply-add, whose unrounded
result can need any number of bits: :func:`fma64` and :func:`fma32`
round it once, straight to the destination format.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

NAN_BOX = 0xFFFF_FFFF_0000_0000
#: Canonical quiet NaNs.
QNAN64 = 0x7FF8_0000_0000_0000
QNAN32 = 0x7FC0_0000


def f64_from_bits(bits: int) -> float:
    return struct.unpack("<d", (bits & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little"))[0]


def bits_from_f64(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


def f32_from_bits(bits: int) -> float:
    """Unbox and read a single.  Improperly boxed values are NaN per spec."""
    if bits & NAN_BOX != NAN_BOX:
        return math.nan
    return struct.unpack("<f", (bits & 0xFFFF_FFFF).to_bytes(4, "little"))[0]


def bits_from_f32(value: float) -> int:
    """Round to single precision and NaN-box."""
    try:
        raw = struct.pack("<f", value)
    except OverflowError:
        raw = struct.pack("<f", math.copysign(math.inf, value))
    return NAN_BOX | int.from_bytes(raw, "little")


def classify(value: float, bits: int, single: bool) -> int:
    """The fclass.{s,d} 10-bit result mask."""
    if math.isnan(value):
        # Distinguish signalling vs quiet via the MSB of the mantissa.
        if single:
            quiet = (bits >> 22) & 1
        else:
            quiet = (bits >> 51) & 1
        return 1 << 9 if quiet else 1 << 8
    sign = math.copysign(1.0, value) < 0
    if math.isinf(value):
        return 1 << 0 if sign else 1 << 7
    if value == 0.0:
        return 1 << 3 if sign else 1 << 4
    tiny = abs(value) < (2 ** -126 if single else 2 ** -1022)
    if tiny:
        return 1 << 2 if sign else 1 << 5
    return 1 << 1 if sign else 1 << 6


def fp_min(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def fp_max(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def fp_div(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if b == 0.0:
        if a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    try:
        return a / b
    except OverflowError:  # pragma: no cover - inf/inf handled above
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def fp_sqrt(a: float) -> float:
    if math.isnan(a) or a < 0.0:
        return math.nan
    return math.sqrt(a)


def cvt_to_int(value: float, width: int, signed: bool, rm: int = 0) -> int:
    """fcvt.{w,wu,l,lu}.* : round per *rm* then clamp, with the
    architectural NaN/overflow results.

    rm: 0=RNE (nearest-even), 1=RTZ (toward zero), 2=RDN, 3=RUP,
    7=dynamic (treated as RNE here — the simulator does not model frm).
    """
    if signed:
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        lo, hi = 0, (1 << width) - 1
    if math.isnan(value):
        return hi
    if value <= lo:
        return lo
    if value >= hi:
        return hi
    if rm == 1:
        r = math.trunc(value)
    elif rm == 2:
        r = math.floor(value)
    elif rm == 3:
        r = math.ceil(value)
    else:
        # Banker's rounding (RNE) is Python round()'s behaviour.
        r = round(value)
    return min(max(r, lo), hi)


def _round(q: Fraction, mant: int, emin: int, emax: int) -> float:
    """Round the nonzero rational *q* to the nearest binary float with
    a *mant*-bit significand and exponent range [*emin*, *emax*], ties
    to even; overflow gives a signed infinity."""
    n, d = abs(q.numerator), q.denominator
    e = n.bit_length() - d.bit_length()
    if (n << max(-e, 0)) < (d << max(e, 0)):
        e -= 1  # now 2**e <= |q| < 2**(e + 1)
    shift = max(e, emin) - (mant - 1)  # exponent of one unit in the last place
    num, den = (n, d << shift) if shift >= 0 else (n << -shift, d)
    m, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and m & 1):
        m += 1
    if m.bit_length() + shift > emax + 1:
        return math.inf if q > 0 else -math.inf
    v = math.ldexp(m, shift)
    return v if q > 0 else -v  # an underflow to zero keeps its sign


def _fma(a: float, b: float, c: float, ps: int, qs: int,
         mant: int, emin: int, emax: int) -> float:
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        return ps * (a * b) + qs * c
    exact = ps * Fraction(a) * Fraction(b) + qs * Fraction(c)
    if exact:
        return _round(exact, mant, emin, emax)
    if a == 0.0 or b == 0.0:
        return ps * (a * b) + qs * c  # a sum of signed zeros: IEEE's sign
    return 0.0  # nonzero terms cancelling exactly give +0 (round to nearest)


def fma64(a: float, b: float, c: float, ps: int, qs: int) -> float:
    """``ps * a * b + qs * c`` rounded once to binary64 (the signs
    select fmadd/fmsub/fnmsub/fnmadd)."""
    return _fma(a, b, c, ps, qs, 53, -1022, 1023)


def fma32(a: float, b: float, c: float, ps: int, qs: int) -> float:
    """:func:`fma64` for singles: rounded once, straight to binary32."""
    return _fma(a, b, c, ps, qs, 24, -126, 127)
