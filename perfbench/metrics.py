"""The metric catalogue: names, units and which direction is better.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
keeps the two in step.
"""

from __future__ import annotations

#: (name, unit, better) reported with ``--trace 0``
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sessions_per_s", "1/s", "higher"),
    ("session_p50_ms", "ms", "lower"),
    ("session_tail_ms", "ms", "lower"),
    ("sim_mips", "MIPS", "higher"),
    ("bb_overhead_pct", "%", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) reported with ``--trace 1``; times are mean
#: milliseconds per traced session
PER_LAYER = (
    ("session_ms", "ms", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("minicc.compile_ms", "ms", "lower"),
    ("elf.write_ms", "ms", "lower"),
    ("analyze.open_ms", "ms", "lower"),
    ("patch.insert_ms", "ms", "lower"),
    ("patch.commit_ms", "ms", "lower"),
    ("patch.apply_ms", "ms", "lower"),
    ("elf.rewrite_ms", "ms", "lower"),
    ("sim.load_ms", "ms", "lower"),
    ("sim.run_ms", "ms", "lower"),
    ("sim.jit_ms", "ms", "lower"),
    ("sim.execute_ms", "ms", "lower"),
    ("sim.jit_share", "ratio", "lower"),
    ("service.open_ms", "ms", "lower"),
    ("service.insert_ms", "ms", "lower"),
    ("service.rewrite_ms", "ms", "lower"),
    ("service.close_ms", "ms", "lower"),
    ("service.server_ms", "ms", "lower"),
    ("service.dispatch_ms", "ms", "lower"),
    ("service.transport_ms", "ms", "lower"),
    ("sim.instructions_retired", "count", "lower"),
    ("sim.trace.compiles", "count", "lower"),
    ("sim.trace.megatraces_compiled", "count", "higher"),
    ("sim.trace.deopts", "count", "lower"),
    ("sim.trace.jalr_guard_hit_ratio", "ratio", "higher"),
    ("sim.trace.jalr_guard_checks", "count", "lower"),
    ("patch.points", "count", "higher"),
    ("patch.trampoline_bytes", "count", "lower"),
    ("patch.scratch.spilled_regs", "count", "lower"),
    ("commit.journal_bytes", "count", "lower"),
    ("springboard.trap_fallbacks", "count", "lower"),
    ("service.errors", "count", "lower"),
    ("service.client_retries", "count", "lower"),
)

#: per-layer metrics that must repeat exactly for the same seed and code
DETERMINISTIC = tuple(
    name for name, unit, _ in PER_LAYER
    if unit == "count" or name == "sim.trace.jalr_guard_hit_ratio")
