"""geoleak benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload preset-suite --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --write-reference

Each workload runs in its own single-threaded process as a closed loop with
one client. With ``--trace 0`` the timed loop runs for ``--seconds`` and the
end-to-end metrics are reported. With ``--trace 1`` each op of a fixed set
(``check_ops``) runs untraced and then again with spans around every call
into the library's layers; the per-layer metrics come from those spans. The last
line of standard output is one JSON object; the lines before it print every
metric by name and unit, and a run record. ``--workload all`` runs each
workload in a child process and prints all of them.

Every op's output is hashed outside the timed region. On the default seed the
digests are compared with ``reference.json``; on every seed, ops with the same
input must agree, a stateful stream must replay identically, and the traced
run must produce the same digests as the untraced one. A mismatch counts as a
failed op.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread per process: keep numpy's BLAS pool from starting workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, MetricsRow  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPS = 3
IMPORT_REPS = 5
# the imports run.py makes before a workload exists, as a fresh interpreter
# makes them; argv: this directory, the source tree
IMPORT_PROBE = """
import time
t = time.perf_counter()
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
import numpy
sys.path[:0] = sys.argv[1:3]
import spans, workloads
print(time.perf_counter() - t)
"""
TAIL_BEYOND = 10  # samples that must lie above the tail percentile
TAIL_MAX = 0.9  # and it is no higher than p90
REFERENCE = HERE / "reference.json"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("preset-suite", "service-churn")


class Pass:
    """A sequence of ops on one state: latencies, digests and failures."""

    def __init__(self, wl, state, out_dir: Path):
        self.wl, self.state, self.out_dir = wl, state, out_dir
        self.latencies: list[float] = []
        self.timed_s = 0.0  # op latencies plus the timed per-pass work
        self.digests: dict[int, str] = {}
        self.pass_digests: dict[int, str] = {}  # op position that ended the pass -> digest
        self.rows: dict[int, MetricsRow] = {}  # first MetricsRow per script entry
        self.failed: set[int] = set()
        self.artifact_bytes = 0
        self._pass_rows: list[MetricsRow] = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def key(self, p: int) -> int:
        """Ops with the same key must give the same digest."""
        return p if self.wl.stateful else p % self.wl.size

    def group_means(self) -> list[float]:
        """The mean latency of each op group, in group order."""
        groups: dict[int, list[float]] = collections.defaultdict(list)
        for p, t in enumerate(self.latencies):
            groups[p % self.wl.groups].append(t)
        return [statistics.fmean(groups[g]) for g in sorted(groups)]

    def fail(self, p: int, what: str) -> None:
        if not self.failed:
            print(f"op {p} failed: {what}", file=sys.stderr)
        self.failed.add(p)

    def step(self, p: int, tracer=None) -> None:
        """Run op p, timed, then check its output, untimed. After the last op
        of a whole pass, write the pass summary (timed) and hash it."""
        wl = self.wl
        if tracer is not None:
            tracer.op_id = p
        t0 = time.perf_counter()
        try:
            result = wl.run(self.state, p, self.out_dir)
        except Exception:
            result = None
            self.fail(p, traceback.format_exc())
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.timed_s += t1 - t0
        if result is not None:
            try:
                self.digests[p], nbytes = wl.check(p, result, self.out_dir)
                self.artifact_bytes += nbytes
            except Exception:
                self.fail(p, traceback.format_exc())
            if isinstance(result, MetricsRow):
                self.rows.setdefault(p % wl.size, result)
                self._pass_rows.append(result)
        if (p + 1) % wl.size == 0:
            if wl.pass_summary and len(self._pass_rows) == wl.size:
                t2 = time.perf_counter()
                path = wl.end_pass(self._pass_rows, self.out_dir)
                self.timed_s += time.perf_counter() - t2
                self.pass_digests[p] = hashlib.sha256(path.read_bytes()).hexdigest()
                path.unlink()
            self._pass_rows = []


def run_pass(wl, state, out_dir: Path, positions=None, *, seconds=None) -> Pass:
    """Run the ops at `positions` (default 0, 1, 2, ...) in order, stopping
    once `seconds` have passed; a workload with a pass summary stops only at
    the end of a pass."""
    res = Pass(wl, state, out_dir)
    deadline = time.perf_counter() + seconds if seconds is not None else None
    for p in itertools.count() if positions is None else positions:
        res.step(p)
        if deadline is not None and time.perf_counter() >= deadline:
            if not wl.pass_summary or (p + 1) % wl.size == 0:
                break
    return res


def check_against(res: Pass, expected: dict[int, str], label: str) -> None:
    """Mark every op whose digest differs from the expected one for its key."""
    for p, digest in res.digests.items():
        want = expected.get(res.key(p))
        if want is not None and want != digest:
            res.fail(p, f"digest differs from {label}")


def check_repeats(res: Pass) -> None:
    """Ops with the same input, and every pass summary, must agree."""
    first: dict[int, str] = {}
    for p in sorted(res.digests):
        first.setdefault(res.key(p), res.digests[p])
    check_against(res, first, "an earlier op with the same input")
    first_pass = next(iter(res.pass_digests.values()), None)
    for p, digest in res.pass_digests.items():
        if digest != first_pass:
            res.fail(p, "metrics.csv differs from the first pass")


def check_reference(res: Pass, seed: int) -> None:
    if seed != DEFAULT_SEED:
        return
    ref = json.loads(REFERENCE.read_text())[res.wl.name]
    check_against(res, dict(enumerate(ref["ops"])), "the reference digest")
    for p, digest in res.pass_digests.items():
        if digest != ref["pass"]:
            res.fail(p, "metrics.csv differs from the reference digest")


def replay(res: Pass, state, out_dir: Path) -> None:
    """Run again, on a fresh state, the ops whose bytes nothing else confirmed:
    a stateful stream's first check_ops ops, or stateless inputs seen once."""
    wl = res.wl
    if wl.stateful:
        positions = range(min(wl.check_ops, res.ops))
    else:
        seen = collections.Counter(p % wl.size for p in res.digests)
        positions = [p for p in sorted(res.digests) if seen[p % wl.size] == 1]
    again = run_pass(wl, state, out_dir, positions)
    for p in again.failed:
        res.fail(p, "replay failed")
    check_against(res, {again.key(p): d for p, d in again.digests.items()}, "its replay")


def attack_summary(rows) -> dict:
    """Success rate, median error and per-run counts over one row per input."""
    if not rows:
        return {}
    errors = [r.localization_error for r in rows if r.outcome == "success"]
    return {
        "success_rate": len(errors) / len(rows),
        "median_error_m": statistics.median(errors) if errors else None,
        "attack.queries_per_run": sum(r.queries for r in rows) / len(rows),
        "attack.moves_per_run": sum(r.moves or 0 for r in rows) / len(rows),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile, up to TAIL_MAX, with at least
    TAIL_BEYOND samples above it, and that percentile; never below the
    median, which is what a short run falls back to. Above p90 a run of
    thousands of ops measures the host's rare stalls, not the program."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(min(n - TAIL_BEYOND - 1, math.ceil(TAIL_MAX * n) - 1), n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def emit(spec_metrics: list[dict], values: dict, record: dict, failed: int, attempted: int) -> None:
    """Print every value by name and unit, the run record, and last the JSON
    result with exactly the metrics BENCHMARK.json lists."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    for name, value in values.items():
        print(f"  {name} = {'n/a' if value is None else value} {units.get(name, '')}")
    print("record " + json.dumps(record, sort_keys=True))
    metrics = {name: {"value": values[name] or 0, "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def timed_run(wl, state, seconds: float, seed: int, work: Path) -> tuple[dict, dict, set, int]:
    """End-to-end metrics from an untraced closed loop of `seconds`.

    `op_ms_p50` is the median over op groups (see workloads.py) of each
    group's mean latency: a group's ops are spread over the whole run, so the
    mean evens out the stretches in which a shared host runs the same code
    slower, where the median of single ops would jump with them.
    """
    loop = run_pass(wl, state, work / "loop", seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    replay(loop, wl.new_state(), work / "replay")
    check_repeats(loop)
    check_reference(loop, seed)
    means = loop.group_means()
    tail_s, tail_pct = tail(loop.latencies)
    summary = attack_summary(list(loop.rows.values()))
    values = {
        "ops_per_s": loop.ops / loop.timed_s,
        "op_ms_p50": statistics.median(means) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "failed_op_share": len(loop.failed) / loop.ops,
        "success_rate": summary.get("success_rate"),
        "median_error_m": summary.get("median_error_m"),
    }
    record = {
        "ops": loop.ops,
        "groups": len(means),
        "timed_s": loop.timed_s,
        "tail_percentile": tail_pct,
        "tail_samples": loop.ops,
        "single_op_ms_p50": statistics.median(loop.latencies) * 1e3,
    }
    return values, record, loop.failed, loop.ops


def traced_run(wl, state, seed: int, work: Path, per_layer: list[dict]) -> tuple[dict, dict, set, int]:
    """Per-layer metrics: the check_ops ops, each run untraced and then traced
    on a second state, so that both see the same machine conditions."""
    plain = Pass(wl, state, work / "plain")
    tracer = Tracer()
    with tracer:
        traced = Pass(wl, wl.new_state(), work / "traced")
    for p in range(wl.check_ops):
        plain.step(p)
        with tracer:
            traced.step(p, tracer)
    spans_file = RUN_DIR / f"{wl.name}-spans.npz"
    tracer.save(spans_file)
    check_against(traced, {plain.key(p): d for p, d in plain.digests.items()}, "the untraced run")
    for res in (plain, traced):
        check_repeats(res)
        check_reference(res, seed)
    failed = {("plain", p) for p in plain.failed} | {("traced", p) for p in traced.failed}

    calls, self_s = tracer.self_times()
    c = tracer.counters
    considered = c["lbs_sim.World.query_nearby.considered"]
    cells = c["attack.intersect_constraints.cells"]
    values = {
        "trace.overhead_share": 1.0 - plain.timed_s / traced.timed_s,
        "trace.spans": len(tracer),
        "failed_op_share": len(failed) / (2 * wl.check_ops),
        "harness.artifact_bytes": traced.artifact_bytes / traced.ops,
        "lbs_sim.World.query_nearby.rows": c["lbs_sim.World.query_nearby.rows"],
        "lbs_sim.World.query_nearby.kept_ratio": c["lbs_sim.World.query_nearby.rows"] / considered if considered else None,
        "attack.intersect_constraints.cells": cells,
        "attack.intersect_constraints.occupied_ratio": c["attack.intersect_constraints.occupied"] / cells if cells else None,
        **attack_summary(list(traced.rows.values())),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s for n, s in self_s.items() if n.startswith(layer + "."))
    for name in (m["name"] for m in per_layer):
        if name not in values:
            span, _, kind = name.rpartition(".")
            values[name] = calls.get(span, 0) if kind == "calls" else self_s.get(span, 0.0)
    print("self time by span:")
    for s, n in sorted(((s, n) for n, s in self_s.items() if calls[n]), reverse=True):
        print(f"  {n}: {s:.6f} s over {calls[n]} calls")
    record = {"ops": wl.check_ops, "spans_file": str(spans_file.relative_to(ROOT))}
    return values, record, failed, 2 * wl.check_ops


def import_times() -> list[float]:
    """Import time in IMPORT_REPS fresh interpreters, one after another: one
    import is a single sample of a noisy host, the median of several is not."""
    cmd = [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")]
    return [float(subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout) for _ in range(IMPORT_REPS)]


def run_workload(args) -> int:
    import_s = time.perf_counter() - _T0
    imports = import_times()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        wl = state = None  # the previous set-up is garbage before the next one starts
        wl = cls(args.seed)
        state = wl.new_state()
        setups.append(time.perf_counter() - t)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "import_s": import_s,
        "import_reps_s": imports,
        "setup_reps_s": setups,
    }
    work = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            values, more, failed, attempted = traced_run(wl, state, args.seed, work, spec["per_layer"])
            metrics = spec["per_layer"]
        else:
            values, more, failed, attempted = timed_run(wl, state, args.seconds, args.seed, work)
            values = {"setup_s": statistics.median(imports) + statistics.median(setups), **values}
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(metrics, values, {**record, **more}, len(failed), attempted)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        lines = out.rstrip("\n").split("\n")
        print(f"{name}:")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def write_reference() -> int:
    """Record the digests of every workload's check_ops ops on the default seed."""
    ref = {}
    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name](DEFAULT_SEED)
        work = RUN_DIR / f"reference-{os.getpid()}"
        try:
            res = run_pass(wl, wl.new_state(), work, range(wl.check_ops))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res.failed:
            print(f"{name}: {len(res.failed)} ops failed; reference not written", file=sys.stderr)
            return 1
        ref[name] = {
            "seed": DEFAULT_SEED,
            "ops": [res.digests[p] for p in range(wl.check_ops)],
            "pass": next(iter(res.pass_digests.values()), None),
        }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="re-take reference.json at this commit")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
