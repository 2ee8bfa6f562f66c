"""Session benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20     # one row each

Prints a human-readable table, then, as the last line of stdout, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones.  Each run appends a record to ``perfbench/history.jsonl``
and fails its ``correct`` flag if a deterministic counter or
``bb_overhead_pct`` differs from an earlier run of the same code and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("matmul_bb", "cold_mix", "service_rewrite")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (smoke tests)")
    ap.add_argument("--history", default=str(BENCH_DIR / "history.jsonl"),
                    help="JSONL run history to append to")
    return ap.parse_args(argv)


def code_hash() -> str:
    """Digest of the program sources and the benchmark's own code."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_history(path: Path, record: dict) -> list[str]:
    """Differences between *record*'s deterministic values and every
    earlier record of the same code, workload, seed and size."""
    key = ("code", "workload", "seed", "tiny")
    problems = []
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return problems
    for line in lines:
        try:
            old = json.loads(line)
        except ValueError:
            continue
        if any(old.get(k) != record[k] for k in key):
            continue
        for name, value in record["deterministic"].items():
            prev = old.get("deterministic", {}).get(name)
            if prev is not None and prev != value:
                problems.append(f"{name}: {prev} earlier, {value} now")
    return sorted(set(problems))


def _table(rows: list[tuple[str, dict]], names, units) -> str:
    cols = [f"{n} [{u}]" for n, u in zip(names, units)]
    width = max(len("workload"), *(len(w) for w, _ in rows))
    out = ["  ".join([f"{'workload':<{width}}"] + cols)]
    for wname, values in rows:
        cells = [f"{values[n]:>{len(col)}.4g}" for col, n in zip(cols, names)]
        out.append("  ".join([f"{wname:<{width}}"] + cells))
    return "\n".join(out)


def run_one(args) -> dict:
    from perfbench import metrics, workloads

    cores = workloads.nproc()   # before a workload pins itself to one
    workdir = BENCH_DIR / ".work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        raw = workloads.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.tiny,
                          os.path.relpath(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = raw["tally"]
    judged = raw["judged"]
    e2e = {
        "setup_s": raw["setup_s"],
        "sessions_per_s": judged["sessions_per_s"],
        "sim_mips": judged["sim_mips"],
        "bb_overhead_pct": judged["bb_overhead_pct"],
        "peak_rss_mb": raw["peak_rss_mb"],
        **workloads.session_stats(raw["walls"], raw["tail_chunk"]),
    }
    deterministic = {"bb_overhead_pct": judged["bb_overhead_pct"],
                     **judged["deterministic"]}
    layers = None
    if args.trace:
        counters = raw["counters"]
        hits = counters.pop("sim.trace.jalr_guard_hits")
        checks = hits + counters.pop("sim.trace.jalr_guard_misses")
        counters["sim.trace.jalr_guard_checks"] = checks
        counters["sim.trace.jalr_guard_hit_ratio"] = (
            hits / checks if checks else 1.0)
        layers = {**counters, **raw["layers"]}
        for name, _, _ in metrics.PER_LAYER:
            layers.setdefault(name, 0.0)
        deterministic.update(
            {n: layers[n] for n in metrics.DETERMINISTIC})

    record = {
        "ts": time.time(), "git_sha": git_sha(), "code": code_hash(),
        "nproc": cores, "python": platform.python_version(),
        "machine": platform.machine(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "mutatees": raw["mutatees"],
        "setup_times_s": [t for t, _ in raw["setup_times"]],
        "setup_times_scaled_s": [t for _, t in raw["setup_times"]],
        "host_scale": raw["host_scale"],
        "raw_session_p50_ms": 1000.0 * statistics.median(raw["raw_walls"]),
        "raw_session_tail_ms":
            workloads.session_stats(raw["raw_walls"],
                                    raw["tail_chunk"])["session_tail_ms"],
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed_frac, "failures": tally.reasons,
        "end_to_end": e2e, "per_layer": layers,
        "deterministic": deterministic,
    }
    history = Path(args.history)
    drift = check_history(history, record)
    record["determinism_drift"] = drift
    with history.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in drift:
        print(f"perfbench: DETERMINISM CHECK FAILED ({args.workload}, "
              f"seed {args.seed}): {problem}", file=sys.stderr)
    for reason, n in tally.reasons.items():
        print(f"perfbench: {n} failed session(s): {reason}",
              file=sys.stderr)

    spec = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = layers if args.trace else e2e
    if args.trace:
        print(f"{args.workload}: {tally.attempted} sessions, "
              f"failed_frac {tally.failed_frac:.4g}")
        for name, unit, _ in spec:
            print(f"  {name:<34} {values[name]:>14.6g} {unit}")
        part = raw["partition"]
        print(f"  self times {' + '.join(part)} = "
              f"{sum(values[p] for p in part):.3f} ms; "
              f"traced session wall {values['session_ms']:.3f} ms")
    else:
        print(_table([(args.workload, {**e2e,
                                       "failed_frac": tally.failed_frac})],
                     [n for n, _, _ in spec] + ["failed_frac"],
                     [u for _, u, _ in spec] + ["1"]))
        print(f"tail = p{e2e['tail_percentile']:.2f} of "
              f"{e2e['tail_samples']} sessions; times scaled to the "
              f"nominal host by {raw['host_scale']:.3f} (median), raw "
              f"session p50 {record['raw_session_p50_ms']:.4g} ms")
    return {
        "correct": tally.failed == 0 and not drift,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec},
    }


def run_all(args) -> dict:
    """Each workload in its own process (so peak RSS is its own), then
    one table row per workload."""
    from perfbench import metrics

    rows, results = [], {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--history", args.history]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {name} failed "
                             f"(exit {proc.returncode})")
        res = json.loads(lines[-1])
        results[name] = res
        row = {k: v["value"] for k, v in res["metrics"].items()}
        row["failed_frac"] = res["failed"] / res["attempted"]
        rows.append((name, row))
    spec = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(_table(rows, [n for n, _, _ in spec] + ["failed_frac"],
                 [u for _, u, _ in spec] + ["1"]))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
