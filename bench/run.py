#!/usr/bin/env python3
"""Benchmark of the extraspecial toolkit, run from the root of a checkout.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: sweep, cover-large, classify-scrambled, cli (see workloads.py and
bench/README.md).  The program under test is the checkout's own `src/`; the
benchmark exits 2 without a result when it is missing.

`--trace 0` prints the end-to-end metrics: setup time (median of several
fresh processes, each timed from its start to the point where its first op
would begin), ops per second, median and tail op latency, and peak RSS.
A run repeats whole passes of its ops.  Every time is scaled to a nominal
host speed, measured with a fixed reference job right before and right
after each op (hostspeed.py), and the three rate and latency metrics use
each op's median scaled latency over the passes.
`--trace 1` runs one pass untraced and one pass with every layer wrapped
(layers.py) and prints the per-layer metrics and the tracing overhead.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is a JSON report with the run's
provenance, and the same report is written under bench/out/.

`--steady` repeats the benchmark over several seeds in fresh processes and
prints each end-to-end metric's median, quartiles and spread against the
bound in BENCHMARK.json:

    python3 bench/run.py --steady --workload cli --seeds 1,2,3,4,5 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
WORKLOAD_NAMES = ("sweep", "cover-large", "classify-scrambled", "cli")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


# ---------------------------------------------------------------------------
# measurements taken in fresh processes
# ---------------------------------------------------------------------------


def setup_child(workload: str, seed: int) -> int:
    """Body of one set-up sample: import, build the inputs, reach the first op."""
    import workloads

    wl = workloads.build(workload, seed)
    wl.until_first_op()
    print("READY", flush=True)
    wl.close()
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from the spawn of a fresh process to its READY line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE)
    with proc.stdout:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.wait() != 0 or line.strip() != b"READY":
        raise RuntimeError(f"set-up process for {workload} failed")
    return elapsed


def measure_import() -> float:
    """Median seconds a fresh interpreter spends importing extraspecial.cli."""
    code = ("import time; t = time.perf_counter(); import extraspecial.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                             capture_output=True, text=True, check=True).stdout
        samples.append(float(out.strip()))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 of `latencies` beyond it.

    `latencies` holds one value per op of a pass, so the percentile is fixed
    by the pass length, not by how many passes ran.
    """
    n = len(latencies)
    if n < 11:
        raise ValueError("a pass needs at least 11 ops for a tail latency")
    return sorted(latencies)[n - 11], 100 * (n - 10) / n


def median_per_op(pass_latencies: list[list[float]]) -> list[float]:
    """Each op's median latency over the passes of a run, in pass order."""
    return [statistics.median(column) for column in zip(*pass_latencies)]


def _timing_metrics(per_pass: list[list[float]], setup: list[float]) -> dict:
    """setup_s, ops_per_s, op_p50_s and op_tail_s from each op's median latency."""
    typical = median_per_op(per_pass)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_s": statistics.median(typical),
        "op_tail_s": tail_latency(typical)[0],
    }


def provenance(workload: str, seed: int, wl) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "inputs": wl.inputs,
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_checked(wl):
    """One pass: (wall seconds, outcomes, ok flags); checking is not timed."""
    t0 = time.perf_counter()
    outcomes = wl.run_pass()
    wall = time.perf_counter() - t0
    return wall, outcomes, wl.check(outcomes)


def _run_scaled(wl, speed):
    """One pass, a host-speed sample right before each op and after the last.

    Returns (wall, outcomes, ok flags, scaled latencies); the wall time
    includes the samples.
    """
    samples = []

    def tag(index):
        samples.append(speed.sample())

    t0 = time.perf_counter()
    outcomes = wl.run_pass(tag)
    samples.append(speed.sample())
    wall = time.perf_counter() - t0
    scaled = [s * hostspeed.scale(samples[i], samples[i + 1])
              for i, (_, s, _) in enumerate(outcomes)]
    return wall, outcomes, wl.check(outcomes), scaled


def _scaled_setup(workload, seed, speed) -> tuple[float, float]:
    """(scaled, raw) seconds of one set-up sample, with host-speed samples around it."""
    before = speed.sample()
    raw = measure_setup(workload, seed)
    return raw * hostspeed.scale(before, speed.sample()), raw


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one run; returns (result line, report)."""
    import workloads

    if trace:
        return _run_traced(workload, seed)
    wl = workloads.build(workload, seed)
    speed = hostspeed.HostSpeed()
    try:
        setup, walls, outcomes, oks, per_pass, raw_pass = [], [], [], [], [], []
        start = time.perf_counter()
        while True:
            # one set-up sample per pass spreads them over the run's host phases
            setup.append(_scaled_setup(workload, seed, speed))
            wall, out, ok, scaled = _run_scaled(wl, speed)
            walls.append(wall)
            outcomes += out
            oks += ok
            per_pass.append(scaled)
            raw_pass.append([s for _, s, _ in out])
            # start another whole pass only if it should end within the budget
            if time.perf_counter() - start + min(walls) > seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(_scaled_setup(workload, seed, speed))
        if workload == "cli":
            peak_kb = wl.child_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = _timing_metrics(per_pass, [scaled for scaled, _ in setup])
        values["peak_rss_mb"] = peak_kb / 1024
        raw = _timing_metrics(raw_pass, [r for _, r in setup])
        report = provenance(workload, seed, wl)
        report.update({
            "trace": 0,
            "seconds": seconds,
            "passes": len(walls),
            "pass_walls_s": walls,
            "ops_per_pass": len(per_pass[0]),
            "pass_ops_per_s": [len(per_pass[0]) / w for w in walls],
            "setup_samples_s": [scaled for scaled, _ in setup],
            "op_tail_percentile": tail_latency(per_pass[0])[1],
            "op_tail_samples": len(per_pass[0]),
            "peak_rss_source": "op child processes" if workload == "cli" else "this process",
            "unscaled_metrics": raw,
            "reference_s": {"nominal": hostspeed.NOMINAL_S, "samples": len(speed.seconds),
                            "min": min(speed.seconds), "median": statistics.median(speed.seconds),
                            "max": max(speed.seconds)},
        })
    finally:
        wl.close()
    return _finish(values, END_TO_END_UNITS, outcomes, oks, report)


def _run_traced(workload: str, seed: int) -> tuple[dict, dict]:
    import layers
    import workloads

    import_s = measure_import()
    tracer = layers.Tracer().install()
    try:
        wl = workloads.build(workload, seed, trace=True)
    finally:
        tracer.uninstall()
    try:
        wall_plain, out_plain, ok_plain = _run_checked(wl)

        def tag(index):
            tracer.op = index

        tracer.install()
        try:
            t0 = time.perf_counter()
            out_traced = wl.run_pass(tag)
            wall_traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ok_traced = wl.check(out_traced)
        report = provenance(workload, seed, wl)
    finally:
        wl.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json.gz")
    tracer.write(spans_path)
    report.update({
        "trace": 1,
        "untraced_pass_s": wall_plain,
        "traced_pass_s": wall_traced,
        "tracing_overhead_s": wall_traced - wall_plain,
        "tracing_overhead_frac": (wall_traced - wall_plain) / wall_plain,
        "ops_per_pass": len(out_traced),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "span_table": tracer.span_table(),
    })
    values = tracer.metrics(import_s)
    return _finish(values, layers.METRIC_UNITS, out_plain + out_traced, ok_plain + ok_traced,
                   report)


def _finish(values, units, outcomes, oks, report) -> tuple[dict, dict]:
    failed = [(label, answer) for (label, _, answer), ok in zip(outcomes, oks) if not ok]
    report["attempted"] = len(outcomes)
    report["failed"] = len(failed)
    report["failed_frac"] = len(failed) / len(outcomes)
    report["failed_ops"] = sorted({f"{label}: {answer!r}"[:300] for label, answer in failed})
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, report


def _write_report(report: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


# ---------------------------------------------------------------------------
# steadiness
# ---------------------------------------------------------------------------


def steady(workload_names, seeds, seconds) -> int:
    """Run each workload once per seed in a fresh process; print spreads against bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    status = 0
    for workload in workload_names:
        rows = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"{workload}: seeds {seeds}, failed {[r['failed'] for r in rows]}")
        for name in END_TO_END_UNITS:
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            if verdict == "WIDE" and name != "setup_s":
                status = 1
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}  bound {bound}  {verdict}")
    return status


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of " + ", ".join(WORKLOAD_NAMES) + " (comma list with --steady)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true", help="repeat over --seeds")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "extraspecial", "__init__.py")):
        print(f"error: no extraspecial sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = args.workload.split(",")
    for name in names:
        if name not in WORKLOAD_NAMES:
            parser.error(f"unknown workload {name!r}")

    if args.setup_child:
        return setup_child(args.workload, args.seed)
    if args.steady:
        return steady(names, [int(s) for s in args.seeds.split(",")], args.seconds)
    if len(names) != 1:
        parser.error("one workload per run")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _write_report(report)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
