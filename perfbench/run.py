"""Certificate benchmark for planecover.

Runs one workload in this process with ``workers=1`` and prints, as its last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run it from the repository root:

    python3 perfbench/run.py --workload fragments-h4 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off: the workload's calls repeat until ``--seconds``
is spent and each timing is the median over the repetitions.  With
``--trace 1`` they are its per-layer metrics, from one untraced call and one
replay of the workload through the public layer functions with spans around
each call.  Every output is checked before a number is reported; a raised
exception or a broken invariant counts as a failed check.

The workloads are exhaustive and fixed by their specs, so the seed is
recorded with the result but no input depends on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


class Gate:
    """Tally of correctness checks; failed holds the names of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def record(self, checks) -> None:
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed.append(name)

    def error(self, where: str, exc: BaseException) -> None:
        traceback.print_exception(exc, file=sys.stderr)
        self.record([(f"{where}: {exc!r}", False)])


def _call(wl, state):
    """One call of the workload: (its result or the exception it raised,
    wall seconds, CPU seconds)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        raw = wl.run(state)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        raw = exc
    return raw, time.perf_counter() - w0, time.process_time() - c0


def _checked(wl, state, raw, gate: Gate):
    """Read a call's outputs back and gate them; None if the call or the
    reading raised."""
    if isinstance(raw, Exception):
        gate.error("run", raw)
        return None
    try:
        out = wl.collect(state, raw)
        gate.record(wl.check(out))
        return out
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        gate.error("check", exc)
        return None


def _gate_can_fail(wl, out, gate: Gate) -> None:
    """The gate must reject a copy of the outputs with one number wrong."""
    if out is None:
        return
    probe = Gate()
    try:
        probe.record(wl.check(wl.tamper(out)))
    except Exception as exc:  # noqa: BLE001 - raising is a rejection too
        probe.record([(repr(exc), False)])
    gate.record([("gate_rejects_tampered_output", bool(probe.failed))])


def measure_setup(name: str) -> tuple[float, float]:
    """Median over fresh processes of importing planecover and networkx and
    doing the workload's set-up, after one unmeasured warm-up: (seconds at
    reference speed, measured seconds)."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import json, time\n"
        "from speed import ARITHMETIC, SpeedProbe\n"
        "with SpeedProbe((ARITHMETIC,)) as probe:\n"
        "    t0 = time.perf_counter()\n"
        "    import workloads\n"
        f"    workloads.WORKLOADS[{name!r}].setup()\n"
        "    seconds = time.perf_counter() - t0\n"
        "print(json.dumps([seconds * probe.factor(), seconds]))\n"
    )
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        child = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        runs.append(json.loads(child.stdout))
    runs = runs[1:]
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def run_timed(wl, state, gate: Gate, seconds: float) -> dict:
    """Repeat the workload's calls for ``seconds``; each timing is scaled to
    reference machine speed by the probes taken during the call."""
    from speed import SpeedProbe

    walls: list[float] = []
    cpus: list[float] = []
    raw_walls: list[float] = []
    out = None
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        while not raw_walls or time.perf_counter() + statistics.median(raw_walls) <= deadline:
            first = probe.mark()
            raw, wall, cpu = _call(wl, state)
            factor = probe.factor(first)
            raw_walls.append(wall)
            walls.append(wall * factor)
            cpus.append(cpu * factor)
            out = _checked(wl, state, raw, gate) or out
    _gate_can_fail(wl, out, gate)
    print(
        f"{wl.name}: {len(walls)} calls in {math.fsum(raw_walls):.2f} s; quartiles of "
        f"measured wall {_quartiles(raw_walls)}, at reference speed {_quartiles(walls)}"
    )
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"[{values[0]:.4f}]"
    return "[" + ", ".join(f"{v:.4f}" for v in statistics.quantiles(values, n=4)) + "]"


def run_traced(wl, state, gate: Gate) -> dict:
    from tracer import Tracer, percentile

    raw, untraced_s, _ = _call(wl, state)
    out = _checked(wl, state, raw, gate)
    tracer = Tracer()
    r0 = time.perf_counter()
    try:
        gate.record(wl.replay(state, tracer, out))
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        gate.error("replay", exc)
    replay_s = time.perf_counter() - r0
    _gate_can_fail(wl, out, gate)

    spans, counts = tracer.by_name(), tracer.counts

    def calls(name):
        return len(spans.get(name, ()))

    def secs(name):
        return math.fsum(spans.get(name, ()))

    def pct(name, q, scale):
        return percentile(spans.get(name, ()), q) * scale

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {
        "covers.transitive.calls": calls("covers.transitive"),
        "covers.transitive.s": secs("covers.transitive"),
        "covers.transitive.ratio": share(
            counts.get("covers.transitive.accepted", 0), calls("covers.transitive")
        ),
        "covers.normalize.s": secs("covers.normalize"),
        "covers.derive.s": secs("covers.derive"),
        "embedding.planarity.calls": calls("embedding.planarity"),
        "embedding.planarity.s": secs("embedding.planarity"),
        "embedding.planarity.p50_us": pct("embedding.planarity", 0.50, 1e6),
        "embedding.planarity.p99_us": pct("embedding.planarity", 0.99, 1e6),
        "embedding.planarity.accept_ratio": share(
            counts.get("embedding.planarity.accepted", 0), calls("embedding.planarity")
        ),
        "graphs.canonical.calls": calls("graphs.canonical"),
        "graphs.canonical.s": secs("graphs.canonical"),
        "graphs.canonical.new_class_ratio": share(
            counts.get("graphs.canonical.new", 0), calls("graphs.canonical")
        ),
        "graphs.connectivity.calls": calls("graphs.connectivity"),
        "graphs.connectivity.s": secs("graphs.connectivity"),
        "search.analyze.calls": calls("search.analyze"),
        "search.analyze.s": secs("search.analyze"),
        "search.analyze.p50_ms": pct("search.analyze", 0.50, 1e3),
        "search.analyze.p99_ms": pct("search.analyze", 0.99, 1e3),
        "search.analyze.outer_choices": counts.get("search.analyze.outer_choices", 0),
        "search.analyze.survivor_ratio": share(
            counts.get("search.analyze.survivors", 0), calls("search.analyze")
        ),
        "search.enumerate_quotients.s": secs("search.enumerate_quotients"),
        "search.enumerate_quotients.count": counts.get("search.enumerate_quotients.count", 0),
        "search.min_beads.calls": calls("search.min_beads"),
        "search.min_beads.s": secs("search.min_beads"),
        "search.min_beads.p80_ms": pct("search.min_beads", 0.80, 1e3),
        "structure.admissibility.calls": calls("structure.admissibility"),
        "structure.admissibility.s": secs("structure.admissibility"),
        "structure.quotient_graph.s": secs("structure.quotient_graph"),
        "bounds.fold_verdict.s": secs("bounds.fold_verdict"),
        "bounds.census_identity.calls": calls("bounds.census_identity"),
        "io.cert_bytes": counts.get("io.cert_bytes", 0),
        "io.dumps.s": secs("io.dumps"),
        "trace.replay_s": replay_s,
        "trace.coverage": share(tracer.covered_seconds(), replay_s),
        "trace.overhead_ratio": share(replay_s, untraced_s),
    }
    metrics.update((k, v) for k, v in counts.items() if k.startswith("search.excluded."))

    print(f"{wl.name}: traced replay {replay_s:.2f} s, untraced call {untraced_s:.2f} s", file=sys.stderr)
    print(f"{'span':32} {'calls':>8} {'total s':>10} {'self s':>10}", file=sys.stderr)
    for name, n, total, own in tracer.summary():
        print(f"{name:32} {n:8d} {total:10.4f} {own:10.4f}", file=sys.stderr)
    for name, k in sorted(counts.items()):
        print(f"count {name} = {k}", file=sys.stderr)
    return metrics


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "planecover").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(seed: int) -> dict:
    import networkx
    import planecover

    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "planecover": planecover.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (SRC / "planecover" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"error: run from a planecover checkout; {SRC} or {bench_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads(bench_path.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"env": environment(args.seed), "workload": wl.name, "trace": args.trace}, sort_keys=True))

    gate = Gate()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        state = wl.prepare(tmp)
        if args.trace:
            measured = run_traced(wl, state, gate)
        else:
            setup_s, setup_measured = measure_setup(wl.name)
            print(f"set-up: {setup_measured:.4f} s measured, {setup_s:.4f} s at reference speed")
            measured = run_timed(wl, state, gate, args.seconds)
            measured["setup_s"] = setup_s
        known = wl.probe(state)
    if args.trace:
        measured.update(known)
    for name, k in known.items():
        print(f"known defect: {name} = {k}")
    print(
        f"checks: {gate.attempted} attempted, {len(gate.failed)} failed, "
        f"fail_ratio {len(gate.failed) / max(gate.attempted, 1):.6g} {gate.failed[:10]}"
    )

    undeclared = set(measured) - {m["name"] for m in declared}
    if undeclared:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {
                "correct": not gate.failed,
                "attempted": gate.attempted,
                "failed": len(gate.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
