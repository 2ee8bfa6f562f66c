"""The independent output oracle.

Each distinct mutatee runs once, uninstrumented, on the closure
interpreter (``Machine(trace_compile=False)``): no patcher, no trace
compiler.  The oracle records stdout, the exit code and how many times
each instrumentation point's address retired.  A block-entry counter
placed at those points must read exactly that sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Machine, P550, StopReason


class OracleError(RuntimeError):
    """The uninstrumented reference run itself did not exit cleanly."""


@dataclass(frozen=True)
class Expected:
    stdout: bytes
    exit_code: int | None
    #: point address -> times the instruction there retired
    counts: dict
    instret: int
    sim_seconds: float

    def counter(self, pcs) -> int:
        """Expected value of one counter incremented at every pc in *pcs*."""
        return sum(self.counts[pc] for pc in pcs)


def run_oracle(symtab, pcs) -> Expected:
    """Run *symtab*'s program uninstrumented and count retirements at *pcs*.

    Counting wraps the interpreter's per-pc closures for just those
    addresses; every other instruction runs untouched.
    """
    m = Machine(P550, trace_compile=False)
    symtab.load_into(m)
    counts = dict.fromkeys(pcs, 0)
    icache = m._icache
    for pc in counts:
        inner = m._closure_at(pc)

        def counted(inner=inner, pc=pc):
            counts[pc] += 1
            inner()

        icache[pc] = counted
    ev = m.run()
    if ev.reason is not StopReason.EXITED:
        raise OracleError(f"reference run stopped with {ev}")
    return Expected(bytes(m.stdout), m.exit_code, counts, m.instret,
                    m.simulated_seconds())


def stdout_matches(expected: Expected, got: bytes,
                   clock_lines=()) -> bool:
    """Compare stdout line by line.  Lines in *clock_lines* carry the
    mutatee's own clock reading: instrumentation may only make them
    larger."""
    want = expected.stdout.split(b"\n")
    have = got.split(b"\n")
    if len(want) != len(have):
        return False
    for i, (w, h) in enumerate(zip(want, have)):
        if i in clock_lines:
            try:
                if int(h) < int(w):
                    return False
            except ValueError:
                return False
        elif w != h:
            return False
    return True
