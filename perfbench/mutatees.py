"""Seeded mutatee inputs for the three workloads.

The program under test only ever sees what this module generates: MiniC
sources built from ``repro.minicc.workloads``, with sizes drawn from the
benchmark seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.minicc import Options, workloads as wl

#: matmul_bb: the paper's §4.1 mutatee.  N=16 as in the paper's scaled
#: reproduction; 6 calls (~1.2M instructions) keep a session near 0.4 s,
#: so one run holds enough sessions for the tail rule while simulated
#: execution stays about 80% of the session.
MATMUL_N = 16
MATMUL_REPS = 6


@dataclass(frozen=True)
class Mutatee:
    """One generated mutatee: its source and how a session instruments it."""

    name: str
    source: str
    options: Options | None = None
    #: functions whose block entries get counters; ``None`` = every function
    functions: tuple[str, ...] | None = None
    #: stdout line indices that print the mutatee's own clock reading,
    #: which instrumentation legitimately slows
    clock_lines: tuple[int, ...] = field(default=())


def matmul(seed: int, n: int = MATMUL_N, reps: int = MATMUL_REPS) -> Mutatee:
    """The §4.1 matmul with seed-chosen matrix constants.

    The constants change the values (and so the checksum the oracle
    compares), never the instruction stream or the simulated time.
    """
    rng = random.Random(seed)
    src = wl.matmul_source(n, reps)
    for old, new in ((" / 7.0;", f" / {rng.randint(3, 13)}.0;"),
                     (" * 0.5;", f" * 0.{rng.randint(2, 9)};")):
        if src.count(old) != 1:
            raise ValueError(f"matmul_source no longer contains {old!r}")
        src = src.replace(old, new)
    return Mutatee(f"matmul{n}x{reps}", src, functions=("multiply",),
                   clock_lines=(0,))


#: cold_mix kinds: (name, size draw, source function, codegen options).
#: Ranges keep one session within about 70-250 ms on the reference box.
_KINDS = (
    ("qsort", lambda r: (r.randint(112, 128), r.randint(1, 99999)),
     lambda a: wl.qsort_source(a[0], a[1]), None),
    ("nbody", lambda r: (4, r.randint(18, 22)),
     lambda a: wl.nbody_source(*a), None),
    ("crc", lambda r: (r.randint(224, 256), 4),
     lambda a: wl.crc_source(*a), None),
    ("switch", lambda r: (r.randint(180, 220),),
     lambda a: wl.switch_source(*a), None),
    ("linked_list", lambda r: (r.randint(54, 66),),
     lambda a: wl.linked_list_source(*a), None),
    ("tailcall", lambda r: (r.randint(180, 220),),
     lambda a: wl.tailcall_source(*a), Options(tail_calls=True)),
    ("fib", lambda r: (14,),
     lambda a: wl.fib_source(*a), None),
)


def cold_mix(seed: int, per_kind: int = 2) -> list[Mutatee]:
    """A stratified seeded draw: *per_kind* sizes of every kind, the
    second and later ones compiled with compressed instructions.

    Every kind appears equally often for every seed, so the session-time
    distribution moves with the seed only through the sizes.
    """
    rng = random.Random(seed)
    out = []
    for i in range(per_kind):
        for name, draw, build, opts in _KINDS:
            args = draw(rng)
            if i:
                opts = Options(tail_calls=bool(opts and opts.tail_calls),
                               compress=True)
            label = f"{name}{'_c' if i else ''}" + "".join(
                f"-{a}" for a in args)
            out.append(Mutatee(label, build(args), opts))
    return out


def tiny_mix(seed: int) -> list[Mutatee]:
    """Smallest sizes of every cold_mix kind (smoke tests)."""
    n = random.Random(seed).randint(8, 12)
    return [
        Mutatee(f"qsort-{n}", wl.qsort_source(n, seed + 1)),
        Mutatee("nbody-2x2", wl.nbody_source(2, 2)),
        Mutatee("crc-16x1", wl.crc_source(16, 1)),
        Mutatee("switch-8", wl.switch_source(8)),
        Mutatee("linked_list-4", wl.linked_list_source(4)),
        Mutatee("tailcall-8", wl.tailcall_source(8),
                Options(tail_calls=True, compress=True)),
        Mutatee("fib-5", wl.fib_source(5)),
    ]
