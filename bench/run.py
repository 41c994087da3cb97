"""Seeded closed-loop benchmark of the exact decomposition pipeline.

Run from the repository root:

    python3 bench/run.py --workload planted --seed 1 --seconds 20 --trace 0

One client in one thread calls the package's public API; the next instance
starts only after the previous call returns.  `--trace 0` times the calls
and prints the end-to-end metrics; `--trace 1` runs a fixed number of
instances twice each, once plain and once with timing spans wrapped around
every layer (see spans.py), and prints the per-layer metrics.  End-to-end
timings are scaled to one machine speed by a reference computation timed
between calls (see speed.py); the raw timings are printed beside them.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
GOLDEN = BENCH / "golden.json"
SETUP_REPEATS = 5


def fresh_import():
    """Import the package from this checkout's src/, dropping any earlier
    import so that each set-up pays the full import cost."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "affinepowers" or n.startswith("affinepowers.")]:
        del sys.modules[name]
    ap = importlib.import_module("affinepowers")
    importlib.import_module("affinepowers.serialize")
    if Path(ap.__file__).resolve().parent != ROOT / "src" / "affinepowers":
        raise ImportError(f"affinepowers imported from {ap.__file__}, not from {src}")
    return ap


def setup(workload: str, seed: int, probe):
    """SETUP_REPEATS full set-ups (import plus pool generation), each
    between two reference samples; returns the last package and pool with
    the median set-up time, scaled and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        started = time.perf_counter()
        ap = fresh_import()
        pool = workloads.build_pool(ap, workload, seed)
        ended = time.perf_counter()
        probe.sample()
        scaled.append((started, ended))
        raw.append(ended - started)
    setup_s = statistics.median(probe.scaled(a, b) for a, b in scaled)
    return ap, pool, setup_s, statistics.median(raw)


def timed_call(ap, inst):
    """(result, error, start, end) of one call on the perf_counter clock."""
    started = time.perf_counter()
    try:
        result, error = workloads.call(ap, inst), None
    except Exception as exc:  # every outcome is recorded and checked
        result, error = None, exc
    return result, error, started, time.perf_counter()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text()).get(workload, [])


class Checker:
    """Invariant checks on every call and, on the default seed, a
    comparison with the golden outcome of the same pool slot.  An
    instance seen again must give the same outcome as the first time."""

    def __init__(self, ap, pool, golden):
        self.ap, self.pool, self.golden = ap, pool, golden
        self.seen: dict[int, dict] = {}
        self.problems: list[str] = []

    def __call__(self, index: int, result, error) -> bool:
        inst = self.pool[index]
        got = workloads.outcome(self.ap, inst, result, error)
        if index in self.seen:
            problem = None if got == self.seen[index] else f"{inst.label}: outcome changed on repeat"
        else:
            self.seen[index] = got
            problem = workloads.check(self.ap, inst, result, error)
            if problem is None and self.golden is not None:
                if index >= len(self.golden) or self.golden[index] != got:
                    problem = f"{inst.label}: differs from golden slot {index}"
        if problem is not None:
            self.problems.append(problem)
        return problem is None


def call_metrics(good: int, latencies: list[float], percentile: int) -> tuple[dict, float, int]:
    """throughput_ips, latency_p50_ms and latency_tail_ms from the call
    latencies in seconds, with the tail's percentile and the number of
    calls beyond it."""
    lat = sorted(latencies)
    attempted = len(lat)
    rank = -(-percentile * attempted // 100)  # nearest rank, 1-based
    if attempted - rank < 10:
        # too few calls for the workload's percentile: the highest one with
        # at least 10 calls beyond it, or the maximum of a run under 20 calls
        rank = attempted - 10 if attempted >= 20 else attempted
    return {
        "throughput_ips": good / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": lat[rank - 1] * 1000,
    }, 100.0 * rank / attempted, attempted - rank


def end_to_end(args, ap, pool, probe, setup_s, setup_raw_s) -> tuple[int, int, dict]:
    """Closed loop for --seconds, stopping at a cycle boundary, with a
    reference sample between calls; outputs are kept and checked after
    the loop."""
    cycle = workloads.cycle_length(args.workload)
    records = []
    started = time.perf_counter()
    i = 0
    while i % cycle or time.perf_counter() - started < args.seconds:
        probe.between_calls()
        result, error, start, end = timed_call(ap, pool[i % len(pool)])
        records.append((i % len(pool), result, error, start, end))
        i += 1
    probe.sample()
    loop_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(ap, pool, load_golden(args.workload, args.seed))
    good = sum(checker(idx, res, err) for idx, res, err, _, _ in records)
    attempted = len(records)
    for problem in checker.problems[:20]:
        print("FAILED", problem)

    percentile = workloads.TAIL_PERCENTILE[args.workload]
    values, tail_pct, beyond = call_metrics(
        good, [probe.scaled(a, b) for *_, a, b in records], percentile
    )
    raw, _, _ = call_metrics(good, [b - a for *_, a, b in records], percentile)
    values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    raw.update(setup_s=setup_raw_s)
    ref = probe.durations
    print(f"loop: {attempted} instances in {loop_s:.3f} s, {attempted // cycle} cycles of {cycle}")
    print(f"latency_tail is p{tail_pct:.1f} of {attempted} samples ({beyond} beyond it)")
    print(f"failed_frac: {(attempted - good) / attempted:.4f} ({attempted - good} of {attempted})")
    print(
        f"reference: {len(ref)} samples, median {statistics.median(ref) * 1000:.2f} ms,"
        f" min {min(ref) * 1000:.2f} ms, max {max(ref) * 1000:.2f} ms;"
        f" timings below are scaled to {speed.REF_S * 1000:g} ms"
    )
    print("raw (unscaled):", json.dumps(raw))
    return attempted, attempted - good, values


def traced_pass(ap, pool, count: int, checker):
    """Call each of the first count instances untraced and then traced, so
    counts repeat exactly and the overhead is measured on the same work.
    Returns the recorder, the traced wall time of each instance, the
    untraced and traced totals, and the number of good outcomes."""
    rec = spans.Recorder()
    plain_s = traced_s = 0.0
    walls = []
    good = 0
    for i in range(count):
        index = i % len(pool)
        result, error, start, end = timed_call(ap, pool[index])
        plain_s += end - start
        good += checker(index, result, error)
        rec.install()
        rec.instance = i
        try:
            result, error, start, end = timed_call(ap, pool[index])
        finally:
            rec.instance = None
            rec.uninstall()
        traced_s += end - start
        walls.append(end - start)
        good += checker(index, result, error)
    return rec, walls, plain_s, traced_s, good


def layer_values(names, recorded, plain_s: float, traced_s: float) -> dict:
    """Per-layer metric values by name: <span name>.<stat>, where a span
    that never ran reads 0, plus trace.overhead_frac."""
    stats = spans.aggregate(recorded)
    values = {}
    for name in names:
        if name == "trace.overhead_frac":
            values[name] = traced_s / plain_s - 1
        else:
            span_name, stat = name.rsplit(".", 1)
            values[name] = stats.get(span_name, {}).get(stat, 0)
    return values


def per_layer(args, ap, pool, names) -> tuple[int, int, dict]:
    per_cycle, _, trace_cycles = workloads.WORKLOADS[args.workload]
    count = per_cycle * trace_cycles
    checker = Checker(ap, pool, load_golden(args.workload, args.seed))
    rec, walls, plain_s, traced_s, good = traced_pass(ap, pool, count, checker)
    for problem in checker.problems[:20]:
        print("FAILED", problem)
    recorded = rec.spans
    own = spans.self_times(recorded)
    rooted = sum(s.end - s.start for s in recorded if s.parent is None)
    print(
        f"trace: {len(recorded)} spans over {count} instances; self time {sum(own):.4f} s"
        f" + outside spans {sum(walls) - rooted:.4f} s = traced wall {sum(walls):.4f} s"
    )
    write_spans(args, recorded)
    return 2 * count, 2 * count - good, layer_values(names, recorded, plain_s, traced_s)


def write_spans(args, recorded) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    rows = [[s.name, s.start, s.end, s.parent, s.instance, s.counts] for s in recorded]
    path.write_text(json.dumps(rows))
    print(f"spans written to {path.relative_to(ROOT)}")


def write_golden(workload: str) -> None:
    """Record the outcome of every pool slot at the default seed."""
    ap = fresh_import()
    pool = workloads.build_pool(ap, workload, DEFAULT_SEED)
    outcomes = []
    for inst in pool:
        result, error, _, _ = timed_call(ap, inst)
        problem = workloads.check(ap, inst, result, error)
        if problem is not None:
            raise SystemExit(f"not writing a golden file for a failing output: {problem}")
        outcomes.append(workloads.outcome(ap, inst, result, error))
    data = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data[workload] = outcomes
    # one outcome per line keeps diffs of the golden file readable
    blocks = []
    for name in sorted(data):
        rows = ",\n".join("  " + json.dumps(o, sort_keys=True) for o in data[name])
        blocks.append(f"{json.dumps(name)}: [\n{rows}\n]")
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"golden: {len(outcomes)} outcomes for {workload}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"record the outcomes of seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden(args.workload)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = run_info(args)
    print("run:", json.dumps(info, sort_keys=True))
    probe = speed.Probe()
    ap, pool, setup_s, setup_raw_s = setup(args.workload, args.seed, probe)
    if args.trace:
        metrics = spec["per_layer"]
        attempted, failed, values = per_layer(args, ap, pool, [m["name"] for m in metrics])
    else:
        metrics = spec["end_to_end"]
        attempted, failed, values = end_to_end(args, ap, pool, probe, setup_s, setup_raw_s)
    out = {}
    for m in metrics:
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']}: {values[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
