"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 computation error, 4 reproduction
mismatch.  Statistical subcommands require an explicit --seed; there is no
hidden entropy anywhere.  Size budgets honour the MONODUAL_PAIR_BUDGET
environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import catalog
from .enumeration import (
    MONOID_ORDER_CAP,
    enumerate_commutative_monoids,
    enumerate_semiring_multiplications,
)
from .homdual import (
    QUADRUPLE_ORDERS,
    duality_from_dict,
    find_all_duality_quadruples,
    named_duality,
    reduce_duality_quadruples,
)
from .ips import (
    DualityViolation,
    RateModel,
    check_pathwise_duality,
    estimate_expectation_duality,
)
from .product import SiteMap, dual_map, lift_duality
from .reproduce import reproduce_all
from .tables import render_table

USAGE_EXIT = 2
COMPUTE_EXIT = 3
MISMATCH_EXIT = 4


class UsageError(ValueError):
    pass

# every domain error (AlgebraError, DualityError, MalformedTable, NoDual,
# NoRealEmbedding, OrderTooLarge, SizeBudgetExceeded, StateSpaceTooLarge,
# WindowViolation, json decoding) subclasses ValueError; DualityViolation
# signals a detected inconsistency and is reported the same way
COMPUTE_ERRORS = (ValueError, KeyError, OSError, DualityViolation)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _resolve_psi(selector: str):
    """A named table (psi5), its transpose (psi5.T), or a JSON file path."""
    try:
        return named_duality(selector)
    except KeyError:  # not a catalog name: a JSON file
        with open(selector, encoding="utf-8") as fh:
            return duality_from_dict(json.load(fh))


def _lifted_for(selector: str, sites: int):
    if sites < 0:
        raise UsageError(f"--sites must be at least 0, got {sites}")
    psi = _resolve_psi(selector)
    hit = catalog.catalog_lookup(psi.t)
    emb = catalog.REAL_EMBEDDINGS.get(hit[0].label) if hit else None
    if emb is not None and hit is not None:
        # transport the embedding along the isomorphism onto psi's own carrier
        _, perm = hit
        emb = tuple(emb[perm[i]] for i in range(psi.t.order))
    return lift_duality(psi, sites, real_embedding=emb)


def _cmd_monoids_enumerate(args) -> int:
    report = enumerate_commutative_monoids(args.order)
    if args.format == "json":
        _emit(report.to_dict())
    else:
        labels = report.catalog_labels or [f"#{i}" for i in range(report.count)]
        print(f"{report.count} commutative monoid classes of order {report.order}")
        for label, rep in zip(labels, report.representatives):
            print()
            print(render_table(label, rep.rows))
    return 0


def _cmd_monoids_catalog(args) -> int:
    labels = [args.label] if args.label else list(catalog.M_LABELS + catalog.N_LABELS + ("F4-mult",))
    for lab in labels:
        if lab not in catalog.ENTRIES:
            raise KeyError(f"unknown catalog label {lab!r}")
    if args.format == "json":
        if args.label:
            _emit(catalog.ENTRIES[args.label].to_dict())
        else:
            print(catalog.catalog_to_json())
    else:
        for i, lab in enumerate(labels):
            if i:
                print()
            print(catalog.render_entry(lab))
    return 0


def _cmd_semirings_enumerate(args) -> int:
    add = catalog.monoid(args.additive)
    classes = enumerate_semiring_multiplications(add)
    if args.format == "json":
        _emit({
            "additive": args.additive,
            "count": len(classes),
            "classes": [
                {
                    "mul": [list(r) for r in c.semiring.mul.rows],
                    "one": c.semiring.one,
                    "mult_label": c.mult_label,
                }
                for c in classes
            ],
        })
    else:
        print(f"{len(classes)} semiring classes on {args.additive}")
        for c in classes:
            print()
            print(render_table(f"({args.additive},*)", c.semiring.mul.rows))
            print(f"mult ~ {c.mult_label}")
    return 0


def _cmd_dualities_find(args) -> int:
    quads = find_all_duality_quadruples(args.max_order)
    if args.reduce:
        classes = reduce_duality_quadruples(quads)
        if args.format == "json":
            _emit({
                "quadruples": len(quads),
                "classes": [
                    {
                        "matched_name": c.matched_name,
                        "s": c.representative.s_label,
                        "r": c.representative.r_label,
                        "t": c.representative.t_label,
                        "psi": [list(r) for r in c.representative.psi.values],
                        "members": len(c.members),
                        "verified": c.representative.psi.verified,
                    }
                    for c in classes
                ],
            })
        else:
            print(f"{len(quads)} quadruples, {len(classes)} reduced classes")
            for c in classes:
                r = c.representative
                print()
                print(f"{c.matched_name}: {r.s_label} x {r.r_label} -> {r.t_label}")
                print(render_table("psi", r.psi.values))
    else:
        if args.format == "json":
            _emit({
                "count": len(quads),
                "quadruples": [
                    {
                        "r": q.r_label,
                        "s": q.s_label,
                        "t": q.t_label,
                        "psi": [list(r) for r in q.psi.values],
                        "isomorphisms": q.isomorphism_count,
                        "verified": q.psi.verified,
                    }
                    for q in quads
                ],
            })
        else:
            print(f"{len(quads)} duality quadruples (R, S, T, psi)")
            for q in quads:
                print(f"  R={q.r_label:<4} S={q.s_label:<4} T={q.t_label:<4} "
                      f"({q.isomorphism_count} isomorphism choices)")
    return 0


def _cmd_dual_map(args) -> int:
    lifted = _lifted_for(args.psi, args.sites)
    with open(args.map, encoding="utf-8") as fh:
        matrix = json.load(fh)
    m = SiteMap.from_matrix(lifted.s_space, matrix)
    mhat = dual_map(lifted, m)
    _emit({
        "psi": args.psi,
        "sites": args.sites,
        "dual_matrix": [[list(e) for e in row] for row in mhat.matrix],
        "verified": True,
    })
    return 0


def _cmd_simulate(args) -> int:
    lifted = _lifted_for(args.psi, args.sites)
    space = lifted.s_space
    with open(args.rates, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not all(
        isinstance(item, dict) and isinstance(item.get("id"), str) for item in entries
    ):
        raise ValueError("--rates must hold a JSON list of {id, matrix, rate} objects")
    maps, rates = {}, {}
    for item in entries:
        if item["id"] in maps:
            raise ValueError(f"--rates repeats the id {item['id']!r}")
        maps[item["id"]] = SiteMap.from_matrix(space, item.get("matrix"))
        rate = item.get("rate")
        try:
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise TypeError  # a JSON number only: float() would also take "1" and true
            rates[item["id"]] = float(rate)
        except (TypeError, OverflowError):
            raise ValueError(f"the rate of {item['id']!r} is not a float") from None
    model = RateModel.build(space, maps, rates)
    if args.check == "pathwise":
        report = check_pathwise_duality(
            model, lifted, (0.0, args.t_max), seed=args.seed, coverage=args.coverage
        )
        _emit(report.to_dict())  # a violation raises DualityViolation
        return 0
    # expectation
    x = _configuration(args.x, space, "--x")
    y = _configuration(args.y, lifted.r_space, "--y")
    est = estimate_expectation_duality(
        model, lifted, x, y, args.t_max, args.replicates, seed=args.seed
    )
    _emit(est.to_dict())
    return 0 if est.consistent else COMPUTE_EXIT


def _configuration(text, space, flag: str) -> tuple[int, ...]:
    if not isinstance(text, str):  # absent, or [] where argparse drops a bare "--" value
        raise UsageError(f"--check expectation requires a configuration for {flag}")
    try:
        config = tuple(int(v) for v in text.split(","))
        space.index_of(config)
    except ValueError as exc:
        raise UsageError(f"{flag} {text!r}: {exc}") from None
    return config


def _int_at_least(low: int):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


def _cmd_reproduce(args) -> int:
    manifest = reproduce_all(pathwise_seeds=args.pathwise_seeds, replicates=args.replicates)
    if args.format == "json":
        print(manifest.to_json())
    else:
        for c in manifest.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status} {c.name}")
            if not c.passed:
                print(f"     expected: {c.expected}")
                print(f"     actual:   {c.actual}")
        print("PASSED" if manifest.passed else "FAILED")
    return 0 if manifest.passed else MISMATCH_EXIT


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="monodual",
        description="Finite monoid/semiring duality: catalogs, censuses, dual maps, simulation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    mono = sub.add_parser("monoids", help="enumerate or print small commutative monoids")
    mono_sub = mono.add_subparsers(dest="subcommand", required=True)
    me = mono_sub.add_parser("enumerate", help="all isomorphism classes of one order")
    me.add_argument("--order", type=int, choices=range(1, MONOID_ORDER_CAP + 1), required=True)
    me.add_argument("--format", choices=("json", "table"), default="table")
    me.set_defaults(func=_cmd_monoids_enumerate)
    mc = mono_sub.add_parser("catalog", help="print embedded catalog tables")
    mc.add_argument("--label")
    mc.add_argument("--format", choices=("json", "table"), default="table")
    mc.set_defaults(func=_cmd_monoids_catalog)

    semi = sub.add_parser("semirings", help="semiring structures on a catalog monoid")
    semi_sub = semi.add_subparsers(dest="subcommand", required=True)
    se = semi_sub.add_parser("enumerate", help="all semiring multiplications, up to isomorphism")
    se.add_argument("--additive", required=True, metavar="LABEL")
    se.add_argument("--format", choices=("json", "table"), default="table")
    se.set_defaults(func=_cmd_semirings_enumerate)

    dual = sub.add_parser("dualities", help="the duality-quadruple census")
    dual_sub = dual.add_subparsers(dest="subcommand", required=True)
    df = dual_sub.add_parser("find", help="find all duality quadruples")
    df.add_argument("--max-order", type=int, choices=QUADRUPLE_ORDERS, default=4)
    df.add_argument("--reduce", action="store_true")
    df.add_argument("--format", choices=("json", "table"), default="table")
    df.set_defaults(func=_cmd_dualities_find)

    dm = sub.add_parser("dual-map", help="construct the dual of a matrix site map")
    dm.add_argument("--psi", required=True, help="named table (psi5), transpose (psi5.T), or JSON file")
    dm.add_argument("--sites", type=int, required=True)
    dm.add_argument("--map", required=True, help="JSON file with a K x K matrix of local hom value tables")
    dm.set_defaults(func=_cmd_dual_map)

    sim = sub.add_parser("simulate", help="simulate a model and check a duality")
    sim.add_argument("--psi", required=True)
    sim.add_argument("--sites", type=int, required=True)
    sim.add_argument("--rates", required=True, help="JSON list of {id, matrix, rate}")
    sim.add_argument("--t-max", type=_nonnegative_float, required=True)
    sim.add_argument("--seed", type=_int_at_least(0), required=True)
    sim.add_argument("--check", choices=("pathwise", "expectation"), required=True)
    sim.add_argument("--coverage", choices=("exhaustive", "sampled"), default="exhaustive")
    sim.add_argument("--replicates", type=_int_at_least(1), default=100_000)
    sim.add_argument("--x", help="comma-separated start configuration on the S side")
    sim.add_argument("--y", help="comma-separated configuration on the R side")
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("reproduce", help="re-derive every cataloged artifact and diff")
    rep.add_argument("--format", choices=("json", "text"), default="text")
    rep.add_argument("--pathwise-seeds", type=_int_at_least(1), default=100)
    rep.add_argument("--replicates", type=_int_at_least(1), default=100_000)
    rep.set_defaults(func=_cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BrokenPipeError:
        # The reader of stdout is gone (`| head`): stop quietly.  What is still
        # buffered goes to devnull, so the flush at exit cannot fail as well.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except COMPUTE_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return COMPUTE_EXIT


if __name__ == "__main__":
    sys.exit(main())
