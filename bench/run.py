"""The monodual benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload {reproduce,census,sites} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports monodual from that checkout's
``src`` and nothing else.  With ``--trace 0`` it starts one warm-up process,
then, one at a time, a process that stops after set-up followed by a fresh
process for one pass of the workload, for as long as another such pair still
fits in ``--seconds``, and then set-up processes until it has timed ten.
Each end-to-end figure is a trimmed mean over the passes (set-up over every
process it timed).  With ``--trace 1`` it starts a
single traced process that times every layer, whatever the workload, and
reports the per-layer figures; the spans go to ``bench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the
outputs were correct, 1 that some were not, 2 that no monodual source was
found, 3 that a pass process died or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("reproduce", "census", "sites")
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # every process this run starts has ended by then
UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class PassFailed(RuntimeError):
    pass


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle of the values: a tenth is dropped at each end, and at
    least one value at each end once there are three or more.

    A shared host's CPU can alternate between speeds in phases of a few
    seconds (two speeds about 1.5x apart on the reference host in
    bench/README.md).  A median over a run's passes then jumps between them,
    which makes run-to-run spread widest; a mean follows the share of time
    spent at each, and the trim keeps one stray pass from moving it.
    """
    v = sorted(values)
    cut = max(1, len(v) // 10) if len(v) >= 3 else 0
    return statistics.fmean(v[cut:len(v) - cut])


def start_pass(root: Path, argv: list[str], timeout: float) -> dict:
    """Run bench/work.py in a fresh interpreter and return its record."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(root / "bench" / "work.py"), *argv, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise PassFailed(f"{' '.join(argv)}: no result within {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{' '.join(argv)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="monodual benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "monodual" / "__init__.py").is_file():
        print(f"no monodual source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    results = root / "bench" / "results"
    results.mkdir(exist_ok=True)
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    seed = ["--seed", str(args.seed)]
    try:
        if args.trace:
            trace_path = results / f"trace-{args.workload}-seed{args.seed}.json"
            rec = start_pass(root, ["traced", *seed, "--trace-out", str(trace_path)], left())
            passes, setups = [rec], [rec["setup_s"]]
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in rec.get("metrics", {}).items()}
        else:
            probe = [args.workload, *seed, "--setup-only"]
            start_pass(root, probe, left())  # warm-up: bytecode caches and the file cache
            measure_start = time.monotonic()
            # set-up probes alternate with the passes, so both sample the whole run
            setups, passes, took = [], [], []
            while True:
                t0 = time.monotonic()
                setups.append(start_pass(root, probe, left())["setup_s"])
                passes.append(start_pass(root, [args.workload, *seed], left()))
                took.append(time.monotonic() - t0)
                if time.monotonic() - measure_start + statistics.median(took) > args.seconds:
                    break
            while len(setups) < SETUP_PROBES:
                setups.append(start_pass(root, probe, left())["setup_s"])
            setups += [r["setup_s"] for r in passes]
            metrics = {
                name: {"value": trimmed_mean(
                    [r[name] for r in passes] if name != "setup_s" else setups), "unit": unit}
                for name, unit in UNITS.items()
            }
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for reason in r["reasons"]:
            print(f"failed: {reason}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setups_s": setups, "passes": passes}
    out = results / f"run-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
