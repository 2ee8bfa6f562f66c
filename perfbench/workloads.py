"""The three workloads: set-up, the timed closed loop, and the traced run.

Every workload follows the same plan:

1. set up (inputs, oracle, and for the service a server with a warm
   store) :data:`SETUP_REPS` times; the median is ``setup_s``;
2. run closed-loop sessions for the requested seconds, timing each one
   end to end and checking each against the oracle outside its timing;
3. in the traced run, split the seconds between an untraced and a traced
   half (their median difference is the tracing overhead), then run one
   session per distinct mutatee with telemetry on to read the counters.

Every time is scaled to the nominal host of :mod:`perfbench.hostspeed`
by kernel samples taken around it, outside its timing: between
in-process sessions, around each set-up, and between the service loop's
batches.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import telemetry
from repro.api import BinaryEdit, analyze, load_rewritten, open_binary
from repro.api import bpatch
from repro.artifacts import ArtifactStore
from repro.codegen.snippets import IncrementVar
from repro.elf.writer import write_program
from repro.minicc import compile_source
from repro.patch.points import PointType
from repro.service import ServiceClient, SessionServer
from repro.service import server as service_server
from repro.sim import Machine, P550, StopReason, TraceCache
from repro.telemetry import aggregate

from . import mutatees as mt
from .hostspeed import HostMeter
from .oracle import Expected, run_oracle, stdout_matches
from .spans import (
    CallCounter, NullTracer, TelemetrySink, Tracer, inclusive_times,
    self_times, wrapped,
)
from .stats import TAIL_CHUNK, Tally, tail

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 5

#: a run never ends with fewer sessions than this (the tail rule needs 11)
MIN_SESSIONS = 11

#: service_rewrite: seconds of extra post-loop runs of the rewritten
#: binaries that ``sim_mips`` averages over
MIPS_SECONDS = 14.0

#: service_rewrite: seconds the client runs between two host samples
BATCH_SECONDS = 0.1

BLOCK = PointType.BLOCK_ENTRY

#: trace-compiler entry points timed as ``sim.jit`` in the traced run
JIT_HOOKS = ((TraceCache, "compile_at", "sim.jit"),
             (TraceCache, "_promote", "sim.jit"))

#: calls a service worker makes on a session's behalf, timed in the
#: worker's telemetry recorder during the traced run
WORKER_HOOKS = ((BinaryEdit, "insert", "bench.patch.insert"),
                (BinaryEdit, "commit", "bench.patch.commit"),
                (bpatch, "rewrite", "bench.elf.rewrite"),
                (service_server, "analyze", "bench.analyze.open"))

#: client calls counted in the traced run: attempts beyond requests are
#: the client's automatic retries
CLIENT_HOOKS = ((ServiceClient, "request", "request"),
                (ServiceClient, "_call", "attempt"))

#: telemetry counters reported per distinct mutatee (summed)
COUNTERS = ("sim.instructions_retired", "sim.trace.compiles",
            "sim.trace.megatraces_compiled", "sim.trace.deopts",
            "sim.trace.jalr_guard_hits", "sim.trace.jalr_guard_misses",
            "patch.points", "patch.trampoline_bytes",
            "patch.scratch.spilled_regs", "commit.journal_bytes",
            "springboard.trap_fallbacks", "service.errors")

#: in-process span name -> per-layer metric (self time)
INPROC_LAYERS = {
    "minicc.compile": "minicc.compile_ms",
    "elf.write": "elf.write_ms",
    "analyze.open": "analyze.open_ms",
    "patch.insert": "patch.insert_ms",
    "patch.commit": "patch.commit_ms",
    "sim.load": "sim.load_ms",
    "patch.apply": "patch.apply_ms",
    "sim.jit": "sim.jit_ms",
    "sim.run": "sim.execute_ms",
}

#: service worker span -> per-layer metric (self time)
WORKER_LAYERS = {
    "bench.analyze.open": "analyze.open_ms",
    "bench.patch.insert": "patch.insert_ms",
    "bench.patch.commit": "patch.commit_ms",
    "bench.elf.rewrite": "elf.rewrite_ms",
}

#: client-side service ops (each a span and a server histogram)
SERVICE_OPS = ("open", "allocate", "insert", "rewrite", "close")


@dataclass
class Prepared:
    """One mutatee ready for sessions: its ELF, a shared analysis, the
    block-entry points per function, and the oracle's expectations."""

    mutatee: mt.Mutatee
    elf: bytes
    analysis: object
    points: dict
    expected: Expected

    @property
    def all_points(self) -> tuple:
        return tuple(pc for pcs in self.points.values() for pc in pcs)


def prepare(mutatee: mt.Mutatee, store=False) -> Prepared:
    elf = write_program(compile_source(mutatee.source, mutatee.options))
    analysis = analyze(elf, store=store)
    edit = BinaryEdit(analysis)
    names = mutatee.functions or [f.name for f in edit.functions() if f.name]
    points = {fn: tuple(p.address for p in edit.points(fn, BLOCK))
              for fn in names}
    expected = run_oracle(analysis.symtab,
                          [pc for pcs in points.values() for pc in pcs])
    return Prepared(mutatee, elf, analysis, points, expected)


@dataclass
class Outcome:
    """One timed session."""

    mutatee: int
    wall: float
    failure: str | None = None
    instret: int = 0
    run_s: float = 0.0
    sim_seconds: float = 0.0
    points: int = 0
    digest: str | None = None
    #: host samples taken before and after the session, and the factor
    #: they give (see :mod:`perfbench.hostspeed`)
    ref: tuple = (0, 0)
    scale: float = 1.0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale


@dataclass
class Phase:
    """The sessions of one timed loop."""

    outcomes: list
    wall: float
    tracer: object = None
    #: merged service-worker telemetry of the loop (traced service only)
    fleet: dict = field(default_factory=dict)
    retries: int = 0

    @property
    def ok(self) -> list:
        return [o for o in self.outcomes if o.failure is None]


def _failure(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"[:200]


# -- in-process sessions ---------------------------------------------------

def instrument_and_run(edit: BinaryEdit, prep: Prepared, tracer, counters):
    """Block counters in every function of *prep*, commit, load, apply,
    run.  Returns ``(machine, stop event, run seconds)``; fills
    *counters* with ``fn -> (variable, point addresses)``."""
    with tracer.span("patch.insert"):
        for fn in prep.points:
            var = edit.allocate_variable(f"blocks${fn}")
            pts = edit.points(fn, BLOCK)
            edit.insert(pts, IncrementVar(var))
            counters[fn] = (var, tuple(p.address for p in pts))
    with tracer.span("patch.commit"):
        result = edit.commit()
    with tracer.span("sim.load"):
        m = Machine(P550)
        edit.symtab.load_into(m)
    with tracer.span("patch.apply"):
        result.apply_to_machine(m)
    with tracer.span("sim.run"):
        t0 = time.perf_counter()
        ev = m.run()
        run_s = time.perf_counter() - t0
    return m, ev, run_s


def check_run(prep: Prepared, m: Machine, ev, counters, edit) -> str | None:
    """Compare one instrumented run with the oracle."""
    exp = prep.expected
    if ev.reason is not StopReason.EXITED:
        return f"stopped: {ev.reason.name}"
    if m.exit_code != exp.exit_code:
        return "exit code differs from the oracle"
    if not stdout_matches(exp, bytes(m.stdout), prep.mutatee.clock_lines):
        return "stdout differs from the oracle"
    for fn, (var, pcs) in counters.items():
        if pcs != prep.points[fn]:
            return f"points of {fn} differ from the oracle's"
        if edit.read_variable(m, var) != exp.counter(pcs):
            return f"counter of {fn} differs from the oracle"
    return None


def session_borrowed(prep: Prepared, tracer):
    """matmul_bb: a session on the shared analysis built at set-up."""
    with tracer.span("patch.insert"):
        edit = BinaryEdit(prep.analysis)
    return edit


def session_cold(prep: Prepared, tracer):
    """cold_mix: compile, write the ELF, analyze cold (no store)."""
    mut = prep.mutatee
    with tracer.span("minicc.compile"):
        program = compile_source(mut.source, mut.options)
    with tracer.span("elf.write"):
        elf = write_program(program)
    with tracer.span("analyze.open"):
        edit = open_binary(elf, store=False)
    return edit


def inproc_loop(preps, order, opener, seconds: float, tracer,
                meter: HostMeter) -> Phase:
    """Closed loop with one caller: sessions back to back for *seconds*.

    Between sessions, outside their timing, *meter* takes a host sample
    and the cyclic garbage of the previous sessions is collected, with
    the set-up's objects frozen out of the scan: a session then pays
    only for its own garbage, as it would alone in a process, and peak
    memory does not depend on how many sessions fit in the run.
    """
    outcomes = []
    min_n = max(MIN_SESSIONS, len(preps))
    gc.collect()
    gc.freeze()
    before = meter.sample()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_n or time.perf_counter() < deadline:
        k = order[i % len(order)]
        prep = preps[k]
        counters = {}
        out = Outcome(k, 0.0)
        gc.collect()
        with tracer.session(i):
            t0 = time.perf_counter()
            try:
                edit = opener(prep, tracer)
                m, ev, run_s = instrument_and_run(edit, prep, tracer,
                                                  counters)
            except Exception as exc:  # noqa: BLE001 — counted, run goes on
                out.wall = time.perf_counter() - t0
                out.failure = _failure(exc)
                traceback.print_exc(file=sys.stderr)
            else:
                out.wall = time.perf_counter() - t0
        after = meter.sample()
        out.ref, before = (before, after), after
        if out.failure is None:
            out.failure = check_run(prep, m, ev, counters, edit)
            out.instret, out.run_s = m.instret, run_s
            out.sim_seconds = m.simulated_seconds()
            out.points = sum(len(p) for _, p in counters.values())
        outcomes.append(out)
        i += 1
    wall = time.perf_counter() - start
    gc.unfreeze()
    for out in outcomes:
        out.scale = meter.scale(*out.ref)
    return Phase(outcomes, wall, tracer)


def counter_pass(preps, opener) -> dict:
    """One session per distinct mutatee with telemetry on; the summed
    counter deltas repeat exactly for the same seed and code."""
    tracer = NullTracer()
    with telemetry.enabled() as rec:
        for prep in preps:
            edit = opener(prep, tracer)
            instrument_and_run(edit, prep, tracer, {})
        got = rec.counters()
    return {name: got.get(name, 0) for name in COUNTERS}


# -- service sessions ------------------------------------------------------

class ServiceRig:
    """A session server over a warm store."""

    def __init__(self, workdir: str, workers: int, tag: str,
                 metrics: bool = False):
        self.sock = os.path.join(workdir, f"{tag}.sock")
        self.metrics_dir = (os.path.join(workdir, f"{tag}.metrics")
                            if metrics else None)
        self.server = SessionServer(
            self.sock, store=ArtifactStore(os.path.join(workdir, "store")),
            workers=workers, metrics_dir=self.metrics_dir,
            flush_interval=3600.0)
        self.server.start()

    def worker_rss_mb(self) -> float:
        """Peak resident memory of the live workers (VmHWM)."""
        total = 0.0
        for proc in multiprocessing.active_children():
            try:
                with open(f"/proc/{proc.pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def close(self) -> dict:
        """Stop the server; with metrics armed, return the merged
        snapshot the draining workers flushed."""
        self.server.close()
        if not self.metrics_dir:
            return {}
        records = aggregate.read_worker_snapshots(self.metrics_dir)
        return aggregate.merge_snapshots([r["snapshot"] for r in records])


def service_session(client: ServiceClient, prep: Prepared, tracer):
    """Open, allocate one counter, block counters one function per
    request, rewrite, close.  Returns ``(ELF, counter address)``."""
    with tracer.span("service.open"):
        s = client.open(prep.elf)
    try:
        with tracer.span("service.allocate"):
            addr = s.allocate("blocks")
        for fn in s.functions:
            with tracer.span("service.insert"):
                s.insert(fn, "BLOCK_ENTRY",
                         {"kind": "increment", "var": "blocks"})
        with tracer.span("service.rewrite"):
            blob = s.rewrite()
    finally:
        with tracer.span("service.close"):
            s.close()
    return blob, addr


def service_loop(rig: ServiceRig, preps, order, seconds: float, tracer,
                 references: dict, meter: HostMeter) -> Phase:
    """Closed loop with one client on one connection: sessions back to
    back, in batches of :data:`BATCH_SECONDS`.

    Between batches, outside the sessions' timing, the batch's garbage
    is collected, with the set-up's objects frozen out of the scan as
    in-process, and a host sample is taken; each session is scaled by
    the samples around its batch.  The first rewrite of each mutatee
    becomes its reference; later ones are compared by digest.
    """
    outcomes = []
    min_n = max(MIN_SESSIONS, len(preps))
    gc.collect()
    gc.freeze()
    try:
        with ServiceClient(rig.sock, timeout=60.0) as client:
            before = meter.sample()
            start = time.perf_counter()
            deadline = start + seconds
            while len(outcomes) < min_n or time.perf_counter() < deadline:
                first = len(outcomes)
                batch_end = time.perf_counter() + BATCH_SECONDS
                while time.perf_counter() < batch_end:
                    i = len(outcomes)
                    k = order[i % len(order)]
                    out = Outcome(k, 0.0)
                    with tracer.session(i):
                        t0 = time.perf_counter()
                        try:
                            blob, addr = service_session(client, preps[k],
                                                         tracer)
                        except Exception as exc:  # noqa: BLE001 — counted
                            out.failure = _failure(exc)
                            blob = None
                        out.wall = time.perf_counter() - t0
                    if blob is not None:
                        out.digest = hashlib.sha256(blob).hexdigest()
                        references.setdefault(k, (out.digest, blob, addr))
                    outcomes.append(out)
                gc.collect()
                after = meter.sample()
                for out in outcomes[first:]:
                    out.ref = (before, after)
                before = after
            wall = time.perf_counter() - start
    finally:
        gc.unfreeze()
    for out in outcomes:
        out.scale = meter.scale(*out.ref)
    return Phase(outcomes, wall, tracer)


def verify_rewrites(preps, references: dict) -> dict:
    """Load each mutatee's reference rewrite and run it against the
    oracle.  Returns ``k -> (failure or None, instret, sim s)``."""
    out = {}
    for k, (_, blob, addr) in sorted(references.items()):
        prep = preps[k]
        exp = prep.expected
        m = Machine(P550)
        load_rewritten(m, blob)
        ev = m.run()
        failure = None
        if ev.reason is not StopReason.EXITED:
            failure = f"rewritten binary stopped: {ev.reason.name}"
        elif m.exit_code != exp.exit_code:
            failure = "rewritten binary: exit code differs from the oracle"
        elif not stdout_matches(exp, bytes(m.stdout),
                                prep.mutatee.clock_lines):
            failure = "rewritten binary: stdout differs from the oracle"
        elif m.mem.read_int(addr, 8) != exp.counter(prep.all_points):
            failure = "rewritten binary: counter differs from the oracle"
        out[k] = (failure, m.instret, m.simulated_seconds())
    return out


def judge_rewrites(phase: Phase, references: dict, verified: dict,
                   tally: Tally) -> None:
    """Post-loop checks: a session passes only if its rewrite is
    byte-identical to its mutatee's verified reference."""
    for o in phase.outcomes:
        if o.failure is not None:
            continue
        ref_failure = verified[o.mutatee][0]
        if ref_failure is not None:
            o.failure = ref_failure
        elif o.digest != references[o.mutatee][0]:
            o.failure = "rewrite differs from the first rewrite"
    for o in phase.outcomes:
        tally.record(o.failure)


# -- the workload runner ---------------------------------------------------

def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """One workload's set-up, loop and metric assembly."""

    name = ""
    #: kernel iterations per host sample: a few percent of a session
    #: (of a batch, for the service)
    ref_iterations = 10_000
    #: sessions per tail chunk: every run on a slow host still fills one
    tail_chunk = TAIL_CHUNK

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.meter = HostMeter(self.ref_iterations)
        self.preps: list[Prepared] = []
        self.order: list[int] = []
        #: artifact store the set-up analyses go through (none in-process)
        self.store = False
        #: peak resident memory of processes serving the loop, in MB
        self.worker_rss = 0.0

    def mutatees(self) -> list:
        raise NotImplementedError

    def setup_once(self, rep: int) -> None:
        self.preps = [prepare(m, store=self.store) for m in self.mutatees()]
        order = list(range(len(self.preps)))
        random.Random(self.seed).shuffle(order)
        self.order = order

    def setup(self) -> list[tuple[float, float]]:
        """Set up :data:`SETUP_REPS` times; ``(raw, scaled)`` seconds
        of each."""
        times = []
        before = self.meter.sample()
        for rep in range(SETUP_REPS):
            self.teardown()
            self.preps = []
            gc.collect()
            t0 = time.perf_counter()
            self.setup_once(rep)
            times.append((time.perf_counter() - t0, (before,
                                                    self.meter.sample())))
            before = times[-1][1][1]
        return [(raw, raw * self.meter.scale(*ref)) for raw, ref in times]

    def teardown(self) -> None:
        pass


class InProcess(Workload):
    opener = None

    def warm_up(self) -> None:
        prep = self.preps[self.order[0]]
        instrument_and_run(type(self).opener(prep, NullTracer()), prep,
                           NullTracer(), {})

    def loop(self, seconds, tracer) -> Phase:
        return inproc_loop(self.preps, self.order, type(self).opener,
                           seconds, tracer, self.meter)

    def traced_loop(self, seconds) -> Phase:
        tracer = Tracer()
        with wrapped(JIT_HOOKS, tracer):
            return self.loop(seconds, tracer)

    def judge(self, phases: list, tally: Tally) -> dict:
        """Tally every phase; metrics come from the first."""
        first = {}
        for phase in phases:
            for o in phase.outcomes:
                if o.failure is None:
                    ref = first.setdefault(o.mutatee, o)
                    if o.sim_seconds != ref.sim_seconds:
                        o.failure = ("simulated time differs between "
                                     "sessions of one mutatee")
                tally.record(o.failure)
        ok = phases[0].ok
        run_s = sum(o.run_s * o.scale for o in ok)
        base = sum(self.preps[k].expected.sim_seconds for k in first)
        inst = sum(o.sim_seconds for o in first.values())
        return {
            "sim_mips": (sum(o.instret for o in ok) / run_s / 1e6
                         if run_s else 0.0),
            "bb_overhead_pct": 100.0 * (inst - base) / base if base else 0.0,
            "sessions_per_s": (len(ok) / sum(o.scaled_wall for o in ok)
                               if ok else 0.0),
            "deterministic": {
                "instret": sum(o.instret for o in first.values()),
                "points": sum(o.points for o in first.values()),
            },
        }

    def layers(self, phase: Phase) -> dict:
        n = len(phase.outcomes)
        selfs = self_times(phase.tracer.spans)
        incl = inclusive_times(phase.tracer.spans)
        wall = sum(o.wall for o in phase.outcomes)
        out = {metric: 1000.0 * selfs.get(span, 0.0) / n
               for span, metric in INPROC_LAYERS.items()}
        out["sim.run_ms"] = 1000.0 * incl.get("sim.run", 0.0) / n
        out["sim.jit_share"] = (incl.get("sim.jit", 0.0)
                                / incl["sim.run"] if incl.get("sim.run")
                                else 0.0)
        out["unattributed_ms"] = 1000.0 * (wall - sum(selfs.values())) / n
        out["session_ms"] = 1000.0 * wall / n
        return out

    def counters(self) -> dict:
        return counter_pass(self.preps, type(self).opener)


class MatmulBB(InProcess):
    name = "matmul_bb"
    opener = staticmethod(session_borrowed)
    ref_iterations = 30_000
    #: a run fits 49 to 78 sessions, depending on the host's speed
    tail_chunk = 40

    def mutatees(self):
        if self.tiny:
            return [mt.matmul(self.seed, n=4, reps=2)]
        return [mt.matmul(self.seed)]


class ColdMix(InProcess):
    name = "cold_mix"
    opener = staticmethod(session_cold)

    def mutatees(self):
        return mt.tiny_mix(self.seed) if self.tiny else mt.cold_mix(self.seed)


class ServiceRewrite(Workload):
    name = "service_rewrite"
    #: one client on one worker, pinned to one core: client and worker
    #: take turns, and the host samples taken between batches speak for
    #: the speed the sessions saw.  With a client and a worker per core,
    #: both cores were busy and slowed each other by an amount the
    #: samples, taken with the cores idle, did not see.
    workers = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.rig: ServiceRig | None = None
        self.references: dict = {}
        # the server's workers fork from this process and inherit this
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def mutatees(self):
        return mt.tiny_mix(self.seed) if self.tiny else mt.cold_mix(self.seed)

    def setup_once(self, rep: int) -> None:
        store_dir = os.path.join(self.workdir, "store")
        shutil.rmtree(store_dir, ignore_errors=True)
        self.store = ArtifactStore(store_dir)
        super().setup_once(rep)
        self.rig = ServiceRig(self.workdir, self.workers,
                              f"setup{rep}")

    def teardown(self) -> None:
        if self.rig is not None:
            self.rig.close()
            self.rig = None

    def warm_up(self) -> None:
        with ServiceClient(self.rig.sock, timeout=60.0) as client:
            service_session(client, self.preps[self.order[0]], NullTracer())

    def loop(self, seconds, tracer) -> Phase:
        phase = service_loop(self.rig, self.preps, self.order, seconds,
                             tracer, self.references, self.meter)
        self.worker_rss = self.rig.worker_rss_mb()
        return phase

    def traced_loop(self, seconds) -> Phase:
        """A fresh server with the metrics plane armed, forked while the
        worker-side calls are wrapped, so its workers record the spans."""
        self.teardown()
        with wrapped(WORKER_HOOKS, TelemetrySink()):
            self.rig = ServiceRig(self.workdir, self.workers, "traced",
                                  metrics=True)
        calls = CallCounter()
        try:
            with wrapped(CLIENT_HOOKS, calls):
                phase = service_loop(self.rig, self.preps, self.order,
                                     seconds, Tracer(), self.references,
                                     self.meter)
        finally:
            fleet = self.rig.close()
            self.rig = None
        phase.fleet = fleet
        phase.retries = calls.calls["attempt"] - calls.calls["request"]
        return phase

    def judge(self, phases: list, tally: Tally) -> dict:
        """Tally every phase; metrics come from the first."""
        verified = verify_rewrites(self.preps, self.references)
        for phase in phases:
            judge_rewrites(phase, self.references, verified, tally)
        phase = phases[0]
        ok = phase.ok
        inst = sum(v[1] for v in verified.values())
        sim = sum(v[2] for v in verified.values())
        run_s, mips_inst = self.rerun_rewrites()
        base = sum(self.preps[k].expected.sim_seconds for k in verified)
        digest = hashlib.sha256("".join(
            self.references[k][0] for k in sorted(self.references)
        ).encode()).hexdigest()
        return {
            "sim_mips": mips_inst / run_s / 1e6 if run_s else 0.0,
            "bb_overhead_pct": 100.0 * (sim - base) / base if base else 0.0,
            "sessions_per_s": (len(ok) / sum(o.scaled_wall for o in ok)
                               if ok else 0.0),
            "deterministic": {
                "instret": inst,
                "points": sum(len(p.all_points) for p in self.preps),
                "rewrite_sha256": digest,
            },
        }

    def rerun_rewrites(self) -> tuple[float, int]:
        """Rounds of further runs of every reference rewrite, for
        :data:`MIPS_SECONDS`, each run scaled by the host samples around
        it.  Returns ``(scaled run seconds, instructions retired)``."""
        runs = []
        deadline = time.perf_counter() + (0.0 if self.tiny else MIPS_SECONDS)
        gc.collect()
        gc.freeze()
        before = self.meter.sample()
        while not runs or time.perf_counter() < deadline:
            for _, blob, _ in self.references.values():
                m = Machine(P550)
                load_rewritten(m, blob)
                t0 = time.perf_counter()
                m.run()
                t = time.perf_counter() - t0
                gc.collect()
                after = self.meter.sample()
                runs.append((t, (before, after), m.instret))
                before = after
        gc.unfreeze()
        return (sum(t * self.meter.scale(*ref) for t, ref, _ in runs),
                sum(inst for _, _, inst in runs))

    def layers(self, phase: Phase) -> dict:
        n = len(phase.outcomes)
        client = inclusive_times(phase.tracer.spans)
        fleet = phase.fleet
        hists = fleet.get("histograms", {})
        server_s = sum(hists.get(f"service.op.{op}.us", {}).get("sum", 0.0)
                       for op in SERVICE_OPS) / 1e6
        worker = {name: fleet.get("spans", {}).get(name, {}).get(
                  "total_s", 0.0) for name in WORKER_LAYERS}
        client_ops = sum(client.get(f"service.{op}", 0.0)
                         for op in SERVICE_OPS)
        wall = sum(o.wall for o in phase.outcomes)
        out = {metric: 1000.0 * worker[span] / n
               for span, metric in WORKER_LAYERS.items()}
        for op in ("open", "insert", "rewrite", "close"):
            out[f"service.{op}_ms"] = 1000.0 * client.get(
                f"service.{op}", 0.0) / n
        out["service.server_ms"] = 1000.0 * server_s / n
        out["service.transport_ms"] = 1000.0 * (client_ops - server_s) / n
        out["service.dispatch_ms"] = 1000.0 * (
            server_s - sum(worker.values())) / n
        out["unattributed_ms"] = 1000.0 * (wall - client_ops) / n
        out["session_ms"] = 1000.0 * wall / n
        out["service.client_retries"] = phase.retries
        out["service.errors"] = fleet.get("counters", {}).get(
            "service.errors", 0)
        return out

    def counters(self) -> dict:
        """One session per mutatee on a fresh armed server; the workers'
        final flushes carry the patch counters."""
        rig = ServiceRig(self.workdir, self.workers,
                         "counters", metrics=True)
        try:
            with ServiceClient(rig.sock, timeout=60.0) as client:
                for prep in self.preps:
                    service_session(client, prep, NullTracer())
        finally:
            fleet = rig.close()
        got = fleet.get("counters", {})
        return {name: got.get(name, 0) for name in COUNTERS}


WORKLOADS = {w.name: w for w in (MatmulBB, ColdMix, ServiceRewrite)}

#: per-layer metrics that partition a session's wall time, by workload
PARTITION = {
    "matmul_bb": ("patch.insert_ms", "patch.commit_ms", "sim.load_ms",
                  "patch.apply_ms", "sim.jit_ms", "sim.execute_ms",
                  "unattributed_ms"),
    "cold_mix": ("minicc.compile_ms", "elf.write_ms", "analyze.open_ms",
                 "patch.insert_ms", "patch.commit_ms", "sim.load_ms",
                 "patch.apply_ms", "sim.jit_ms", "sim.execute_ms",
                 "unattributed_ms"),
    "service_rewrite": ("service.transport_ms", "service.dispatch_ms",
                        "analyze.open_ms", "patch.insert_ms",
                        "patch.commit_ms", "elf.rewrite_ms",
                        "unattributed_ms"),
}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        workdir: str) -> dict:
    """Set up, run and check one workload; returns the raw result."""
    wl = WORKLOADS[name](seed, tiny, workdir)
    tally = Tally()
    try:
        setup_times = wl.setup()
        wl.warm_up()
        if trace:
            phase = wl.loop(seconds / 2, NullTracer())
            traced = wl.traced_loop(seconds / 2)
            judged = wl.judge([phase, traced], tally)
        else:
            phase = wl.loop(seconds, NullTracer())
            judged = wl.judge([phase], tally)
        rss = _rss_mb() + wl.worker_rss
        counters = wl.counters() if trace else None
    finally:
        wl.teardown()
    walls = [o.scaled_wall for o in phase.ok]
    result = {
        "tally": tally,
        "setup_s": statistics.median(t for _, t in setup_times),
        "setup_times": setup_times,
        "walls": walls,
        "raw_walls": [o.wall for o in phase.ok],
        "tail_chunk": wl.tail_chunk,
        "host_scale": wl.meter.median_scale(),
        "peak_rss_mb": rss,
        "judged": judged,
        "mutatees": [p.mutatee.name for p in wl.preps],
    }
    if trace:
        # spans are raw; the traced loop's typical factor scales them all,
        # which keeps the partition exact
        factor = statistics.median(o.scale for o in traced.outcomes)
        layers = {k: v * factor if k.endswith("_ms") else v
                  for k, v in wl.layers(traced).items()}
        untraced_p50 = statistics.median(walls) * 1000.0
        traced_p50 = statistics.median(
            [o.scaled_wall for o in traced.ok]) * 1000.0
        layers["trace.overhead_ms"] = traced_p50 - untraced_p50
        result["layers"] = layers
        result["counters"] = counters
        result["partition"] = PARTITION[name]
    return result


def session_stats(walls, chunk: int = TAIL_CHUNK) -> dict:
    value, pct, n = tail(walls, chunk)
    return {"session_p50_ms": statistics.median(walls) * 1000.0,
            "session_tail_ms": value * 1000.0,
            "tail_percentile": pct, "tail_samples": n}
