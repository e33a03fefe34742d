"""One pass of a benchmark workload, in a fresh process started by run.py.

    python3 bench/work.py {census,sites,reproduce} --seed N --t0 T [--setup-only]
    python3 bench/work.py traced --seed N --t0 T --trace-out PATH

``--t0`` is the parent's monotonic clock just before it started this process,
so ``setup_s`` covers interpreter start, ``import monodual`` and building the
inputs, up to the first timed call.  ``--setup-only`` stops there.  The last
line of standard output is one JSON object with the pass's figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import monodual  # noqa: E402  (after the checkout's src is on the path)

import oracle  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402


def prepare(workload: str, seed: int):
    if workload == "census":
        return wl.prepare_census(seed)
    if workload == "sites":
        return wl.prepare_sites(seed)
    if workload == "reproduce":
        return None
    return {
        "census": wl.prepare_census(seed),
        "sites": wl.prepare_sites(seed),
        "k3": wl.prepare_sites(seed, wl.REPRODUCE_K3),
    }


def run(workload: str, inputs, tr: Tracer):
    if workload == "census":
        return wl.run_census(inputs, tr)
    if workload == "sites":
        return wl.run_sites(inputs, tr)
    if workload == "reproduce":
        return wl.run_reproduce_cli()
    out = {}
    with tr.span("workload.census"):
        out["census"] = wl.run_census(inputs["census"], tr)
    with tr.span("workload.sites"):
        out["sites"] = wl.run_sites(inputs["sites"], tr)
    out["reproduce"] = []
    with tr.span("workload.reproduce"):
        for name, call in wl.reproduce_calls():
            with tr.span(f"reproduce.check.{name}"):
                out["reproduce"].append(call())
    # probes of single layers, after the three workloads
    with tr.span("probe.k3"):
        out["k3"] = wl.run_sites(inputs["k3"], tr)
    return out


def verify(workload: str, inputs, out, tally: wl.Tally, seed: int) -> None:
    if workload == "census":
        wl.verify_census(inputs, out, tally, oracle.HomSets())
    elif workload == "sites":
        wl.verify_sites(inputs, out, tally, seed)
    elif workload == "reproduce":
        wl.verify_reproduce_cli(*out, tally)
    else:
        wl.verify_census(inputs["census"], out["census"], tally, oracle.HomSets())
        wl.verify_sites(inputs["sites"], out["sites"], tally, seed)
        wl.verify_sites(inputs["k3"], out["k3"], tally, seed)
        for result in out["reproduce"]:
            tally.check(result.passed, f"reproduce check {result.name}")


def run_probes(census_out: dict, tr: Tracer, tally: wl.Tally) -> None:
    """Traced pass only: single-layer probes, each timed, then checked."""
    reps5 = [t.rows for t in census_out["commutative"][5].representatives]
    wl.probe_tables(reps5, tr, tally)
    wl.probe_catalog(census_out, tr, tally)
    wl.probe_automorphisms(tr, tally)
    wl.probe_expectation(tr, tally)


def layer_metrics(out, tr: Tracer) -> dict:
    """Every per-layer metric of the traced pass, as {name: (value, unit)}."""
    m = {}
    for order in (3, 4, 5):
        m[f"enumeration.commutative_s.o{order}"] = (tr.total(f"enumeration.commutative.o{order}"), "s")
    m["enumeration.absorbing_s"] = (tr.total("enumeration.absorbing"), "s")
    m["enumeration.semiring_s"] = (tr.total("enumeration.semiring"), "s")
    m["enumeration.classes.o5"] = (out["census"]["commutative"][5].count, "count")
    m["tables.canonical_form_s"] = (tr.total("tables.canonical_form"), "s")
    m["tables.canonical_form_calls"] = (tr.counters["tables.canonical_form_calls"], "count")
    m["catalog.lookup_s"] = (tr.total("catalog.lookup"), "s")
    m["catalog.lookup_calls"] = (tr.counters["catalog.lookup_calls"], "count")
    m["algebra.automorphisms_s"] = (tr.total("algebra.automorphisms"), "s")
    m["homdual.hom_set_s"] = (tr.total("homdual.hom_set"), "s")
    m["homdual.hom_set_calls"] = (len(tr.durations("homdual.hom_set")), "count")
    m["homdual.hom_set_size_total"] = (sum(a.size for a in out["census"]["hom"].values()), "count")
    m["homdual.census_s"] = (tr.total("homdual.census"), "s")
    m["homdual.reduce_s"] = (tr.total("homdual.reduce"), "s")
    m["homdual.quadruples"] = (len(out["census"]["quadruples"]), "count")
    m["homdual.classes"] = (len(out["census"]["classes"]), "count")
    for name, k, _, _ in wl.SITES + wl.REPRODUCE_K3:
        tag = f"{name}.k{k}"
        for part in ("lift", "dual_map", "index_table"):
            m[f"product.{part}_s.{tag}"] = (tr.total(f"product.{part}.{tag}"), "s")
        m[f"ips.pathwise_seed_s.{tag}"] = (statistics.median(tr.durations(f"ips.pathwise_seed.{tag}")), "s")
        m[f"ips.pairs_checked.{tag}"] = (tr.counters[f"ips.pairs_checked.{tag}"], "count")
        m[f"ips.events.{tag}"] = (tr.counters[f"ips.events.{tag}"], "count")
    m["ips.mc_s.psi5.k2"] = (tr.total("ips.mc.psi5.k2"), "s")
    m["ips.uniformisation_s.psi5.k2"] = (tr.total("ips.uniformisation.psi5.k2"), "s")
    for name in wl.REPRODUCE_CHECK_NAMES:
        m[f"reproduce.check_s.{name}"] = (tr.total(f"reproduce.check.{name}"), "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=("census", "sites", "reproduce", "traced"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-out")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(monodual.__file__).resolve().parents:
        print(f"monodual was imported from {monodual.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = prepare(args.workload, args.seed)
    tr = Tracer(enabled=args.workload == "traced")
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = wl.Tally()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        out = run(args.workload, inputs, tr)
    except Exception:  # a call that raises fails the pass; the record still goes out
        traceback.print_exc()
        out = None
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb}
    if out is None:
        tally.check(False, "a call raised; see the traceback on stderr")
    else:
        try:
            if args.workload == "traced":
                run_probes(out["census"], tr, tally)
            verify(args.workload, inputs, out, tally, args.seed)
        except Exception:
            traceback.print_exc()
            tally.check(False, "a check raised; see the traceback on stderr")
    if args.workload == "traced" and tally.failed == 0:
        record["metrics"] = layer_metrics(out, tr)
        record["sections_s"] = {
            name: tr.total(f"workload.{name}") for name in ("census", "sites", "reproduce")
        }
        if args.trace_out:
            tr.dump(args.trace_out)
    record.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
