"""The reproduction pipeline: every cataloged artifact re-derived and diffed.

Each check re-computes one published artifact (a count, a table family, an
identity) from scratch and compares it against the embedded catalog.  Checks
are granular and carry the catalog labels they depend on, so corrupting one
catalog entry fails exactly the checks that use it.  Every product-space check
lifts its table in one place, `_lifted`, which orients each table as `LIFTED_TABLES` states.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import product as iproduct

from . import catalog
from .algebra import automorphisms, validate_semiring
from .enumeration import (
    enumerate_commutative_monoids,
    enumerate_monoids_with_absorbing,
    enumerate_semiring_multiplications,
)
from .homdual import (
    _hom_values,
    find_all_duality_quadruples,
    match_named_duality,
    named_duality,
    reduce_duality_quadruples,
)
from .ips import (
    RateModel,
    check_pathwise_seeds,
    dual_model,
    estimate_expectation_duality,
    exact_semigroup_expectation,
)
from .product import (
    LiftedDuality,
    SiteMap,
    _tabulate,
    dual_maps,
    lattice_duality_function,
    lift_duality,
    module_maps,
)
from .tables import canonical_form, class_group, least_image

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}  # checked at every order listed
EXPECTED_CLASS_NAMES = sorted(catalog.PSI_TABLES)
ALL_M = set(catalog.M_LABELS)
PATHWISE_MIN_EVENTS = 20  # events every pathwise stream must realise; windows have at least four times this mean
LIFTED_TABLES = {"psi5": "psi5.T"}  # the orientation the product-space checks lift: psi5's maps act on M6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: object
    actual: object
    depends: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "expected": self.expected,
            "actual": self.actual,
            "depends": list(self.depends),
        }


@dataclass(frozen=True)
class ReproductionManifest:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]},
            indent=2,
            sort_keys=True,
        )


def _check(name, depends, expected, compute) -> CheckResult:
    try:
        actual = compute()
    except Exception as exc:  # a failed recomputation is a diff, not a crash
        return CheckResult(name, False, expected, f"error: {exc}", tuple(sorted(depends)))
    return CheckResult(name, actual == expected, expected, actual, tuple(sorted(depends)))


def _labels_of_order(n: int) -> list[str]:
    return [lab for lab in catalog.M_LABELS if catalog.ENTRIES[lab].table.order == n]


def check_monoid_counts(monoids=enumerate_commutative_monoids) -> CheckResult:
    """`monoids(n)` enumerates order n; `reproduce_all` passes one shared per run."""
    orders = sorted(EXPECTED_COUNTS)
    return _check(
        "commutative-monoid-counts",
        (),
        [EXPECTED_COUNTS[n] for n in orders],
        lambda: [monoids(n).count for n in orders],
    )


def check_catalog_bijection(order: int, monoids=enumerate_commutative_monoids) -> CheckResult:
    expected = sorted(_labels_of_order(order))
    return _check(
        f"catalog-bijection-order-{order}",
        expected,
        expected,
        lambda: sorted(monoids(order).catalog_labels or ()),
    )


def check_catalog_rendering() -> CheckResult:
    """Every rendered table must parse back to the stored entries verbatim."""
    labels = list(catalog.M_LABELS) + list(catalog.N_LABELS) + ["F4-mult"]

    def compute():
        hits = 0
        for lab in labels:
            text = catalog.render_entry(lab)
            body = text.splitlines()[2:]
            rows = tuple(
                tuple(int(v) for v in line.split("|")[1].split()) for line in body
            )
            if rows == catalog.MONOID_TABLES[lab]:
                hits += 1
        return hits

    # round-trips whatever is stored, so it depends on no particular entry
    return _check("catalog-rendering", (), len(labels), compute)


def _census():
    return tuple(find_all_duality_quadruples(4))


def _classes(census=_census):
    return reduce_duality_quadruples(census())


def check_duality_census(census=_census) -> CheckResult:
    """`census` returns the quadruple census; `reproduce_all` passes one shared per run."""

    def compute():
        quads = census()
        same_cardinality = all(
            catalog.ENTRIES[q.s_label].table.order == catalog.ENTRIES[q.r_label].table.order
            for q in quads
        )
        return {"quadruples": len(quads), "same_cardinality": same_cardinality}

    return _check(
        "duality-census",
        ALL_M - {"M0"},
        {"quadruples": 110, "same_cardinality": True},
        compute,
    )


def check_duality_reduction(classes=_classes) -> CheckResult:
    """`classes` returns the census's reduction; `reproduce_all` passes one shared per run."""

    def compute():
        reduced = classes()
        return {
            "classes": len(reduced),
            "names": sorted(c.matched_name for c in reduced),
        }

    return _check(
        "duality-reduction",
        ALL_M - {"M0"},
        {"classes": 22, "names": EXPECTED_CLASS_NAMES},
        compute,
    )


def _form(m) -> tuple:
    return canonical_form(m.rows, m.neutral)


def check_semiring_census(add_label: str) -> CheckResult:
    expected_labels = sorted(
        lab for a, _, lab in catalog.SEMIRING_TABLES if a == add_label
    )
    depends = {add_label} | set(expected_labels)

    def compute():
        add = catalog.monoid(add_label)
        found = enumerate_semiring_multiplications(add)
        group = class_group(tuple(automorphisms(add)), opposite=True)
        expected = sorted(
            least_image(mul, group) for a, mul, _ in catalog.SEMIRING_TABLES if a == add_label
        )
        # a multiplication is named only by the labels this check declares: its
        # canonical form, or failing that its opposite's, against theirs
        named = {}
        for lab in expected_labels:
            named.setdefault(_form(catalog.ENTRIES[lab].monoid()), lab)
        muls = [f.semiring.mul_monoid() for f in found]
        labels = [named.get(_form(m), named.get(_form(m.opposite()))) for m in muls]
        return {
            "classes": len(found),
            "tables_match": [f.semiring.mul.rows for f in found] == expected
            and None not in labels and sorted(labels) == expected_labels,
        }

    return _check(
        f"semiring-census-{add_label}",
        depends,
        {"classes": len(expected_labels), "tables_match": True},
        compute,
    )


def check_absorbing_monoids() -> CheckResult:
    def compute():
        n4 = enumerate_monoids_with_absorbing(4, commutative=False)
        n3 = enumerate_monoids_with_absorbing(3, commutative=False)
        n2 = enumerate_monoids_with_absorbing(2)
        return {
            "order4_noncommutative": sorted(n4.catalog_labels or ()),
            "order3_noncommutative": n3.count,
            "order2_all": sorted(n2.catalog_labels or ()),
        }

    return _check(
        "absorbing-monoid-census",
        {"N1", "N2", "M1"},
        {
            "order4_noncommutative": ["N1", "N2"],
            "order3_noncommutative": 0,
            "order2_all": ["M1"],
        },
        compute,
    )


def check_f4_nonlinear_count() -> CheckResult:
    def compute():
        add = catalog.monoid("M25")
        field = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
        homs = _hom_values(add, add)
        linear = set(module_maps(field, side="left"))
        assert set(module_maps(field, side="right")) == linear
        return {
            "additive_endomorphisms": len(homs),
            "not_linear": sum(1 for h in homs if h not in linear),
        }

    return _check(
        "f4-nonlinear-homs",
        {"M25", "F4-mult"},
        {"additive_endomorphisms": 16, "not_linear": 12},
        compute,
    )


def check_lattice_bridge(classes=_classes) -> CheckResult:
    # each lattice as its join monoid
    lattices = {
        "2-chain": ("M1", "psi1"),
        "3-chain": ("M4", "psi4"),
        "diamond": ("M11", "psi11"),
        "4-chain": ("M15", "psi15"),
    }

    def compute():
        matched = {
            name: match_named_duality(lattice_duality_function(catalog.monoid(label)))
            for name, (label, _) in lattices.items()
        }
        into_m1 = sorted(
            c.matched_name for c in classes() if c.representative.t_label == "M1"
        )
        return {"matched": matched, "classes_into_M1": into_m1}

    # the census sweep behind classes_into_M1 only moves if one of the four
    # lattice monoids (or the value monoid M1) is corrupted
    return _check(
        "lattice-duality-bridge",
        {"M1", "M4", "M11", "M15"},
        {
            "matched": {name: want for name, (_, want) in lattices.items()},
            "classes_into_M1": ["psi1", "psi11", "psi15", "psi4"],
        },
        compute,
    )


def _lifted(name: str, sites: int) -> LiftedDuality:
    """The table of `name` that the product-space checks lift, with its value monoid's real embedding."""
    psi = named_duality(LIFTED_TABLES.get(name, name))
    return lift_duality(psi, sites, real_embedding=catalog.REAL_EMBEDDINGS.get(catalog.PSI_TABLES[name][2]))


def _local_homs(lifted: LiftedDuality) -> list:
    return _hom_values(lifted.s_space.local, lifted.s_space.local)


def _brute_force_dual(lifted: LiftedDuality):
    """A function from the index table of a map on S^k to, per y, the R index whose Psi column is
    x -> Psi(image[x], y), or None where no column is; the map has a dual exactly when no y gets None."""
    psi = lifted.table()
    column_of = {col: j for j, col in enumerate(map(tuple, psi.T.tolist()))}
    return lambda image: [column_of.get(col) for col in map(tuple, psi[image].T.tolist())]


def _dual_maps_agree(lifted: LiftedDuality) -> dict:
    """dual_maps against a brute-force dual for every k x k matrix of H(S, S), and no dual for a non-hom."""
    space = lifted.s_space
    k = space.sites
    brute_force_dual = _brute_force_dual(lifted)
    # every entry comes from H(S, S), and dual_maps checks each distinct entry once
    maps = [SiteMap(space, tuple(entries[i * k:(i + 1) * k] for i in range(k)))
            for entries in iproduct(_local_homs(lifted), repeat=k * k)]
    mhats = dual_maps(lifted, maps)  # identity decided inside
    # the oracle reads every index table: one fold per side
    tables, dual_tables = _tabulate(space, maps), _tabulate(lifted.r_space, mhats)
    n_ok = 0
    for table, dual_table in zip(tables, dual_tables):
        if brute_force_dual(table) != dual_table.tolist():
            return {"matrices_verified": n_ok, "non_hom_has_dual": None}
        n_ok += 1
    # the constant map onto (1, ..., 1) violates f(0) = 0 (catalog carriers have neutral 0) and must admit no dual
    bad = [space.index_of((1,) * k)] * space.n_configs
    return {"matrices_verified": n_ok, "non_hom_has_dual": None not in brute_force_dual(bad)}


def check_dual_map_psi5() -> CheckResult:
    return _check(
        "dual-map-psi5-exhaustive",
        {"M5", "M6"},
        {"matrices_verified": 81, "non_hom_has_dual": False},
        lambda: _dual_maps_agree(_lifted("psi5", 2)),
    )


def _pathwise_model(lifted: LiftedDuality) -> RateModel:
    """The spread + cycle rate model on the lifted duality's S side."""
    space = lifted.s_space
    homs = _local_homs(lifted)
    k = space.sites
    first = next(h for h in homs if len(set(h)) > 1)  # the first non-zero local homomorphism
    matrices = {
        "spread": [[first if abs(i - j) <= 1 else homs[0] for j in range(k)] for i in range(k)],
        "cycle": [[homs[(i + j) % len(homs)] for j in range(k)] for i in range(k)],
    }
    maps = {mid: SiteMap.from_matrix(space, matrix) for mid, matrix in matrices.items()}
    return RateModel.build(space, maps, {"spread": 1.5, "cycle": 1.0})


def _pathwise_case(name: str, seeds: int):
    """The model, lifted duality, window and seeds that the pathwise check of `name` runs on, at k = 3."""
    lifted = _lifted(name, 3)
    model = _pathwise_model(lifted)
    window = (0.0, max(30.0, 4 * PATHWISE_MIN_EVENTS / model.total_rate))
    tag = int(name.removeprefix("psi"))
    return model, lifted, window, [(tag, seed) for seed in range(seeds)]


def check_pathwise(name: str, seeds: int = 100) -> CheckResult:
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    labels = set(catalog.PSI_TABLES[name][:3])

    def compute():
        reports = check_pathwise_seeds(*_pathwise_case(name, seeds))
        return {
            "seeds_passed": len(reports),
            "all_windows_busy": all(rep.n_events >= PATHWISE_MIN_EVENTS for rep in reports),
        }

    return _check(
        f"pathwise-{name}",
        labels,
        {"seeds_passed": seeds, "all_windows_busy": True},
        compute,
    )


def check_expectation_psi5(replicates: int = 100_000) -> CheckResult:
    def compute():
        lifted = _lifted("psi5", 2)
        space = lifted.s_space
        homs = _local_homs(lifted)
        m = SiteMap.from_matrix(space, [[homs[2], homs[1]], [homs[0], homs[2]]])
        model = RateModel.build(space, {"m": m}, {"m": 0.8})
        x, y, t = (1, 2), (1, 0), 1.0
        dm = dual_model(model, lifted)
        est = estimate_expectation_duality(model, lifted, x, y, t, replicates, seed=2024, dual=dm)
        exact_lhs = exact_semigroup_expectation(model, lifted, x, y, t)
        exact_rhs = exact_semigroup_expectation(dm, lifted, x, y, t, evolving="r")
        mc_vs_exact = (
            abs(est.lhs - exact_lhs) <= 1e-9 + 4 * est.lhs_stderr
            and abs(est.rhs - exact_rhs) <= 1e-9 + 4 * est.rhs_stderr
        )
        # closed form for a single idempotent map at rate lam
        idem = homs[2]
        assert tuple(idem[idem[v]] for v in range(len(idem))) == tuple(idem)
        mi = SiteMap.diagonal(space, idem)
        lam = 0.7
        single = RateModel.build(space, {"i": mi}, {"i": lam})
        uni = exact_semigroup_expectation(single, lifted, x, y, t)
        p = math.exp(-lam * t)
        closed = p * lifted.evaluate_embedded(x, y) + (1 - p) * lifted.evaluate_embedded(
            mi.apply(x), y
        )
        return {
            "sides_consistent": bool(est.consistent),
            "mc_matches_uniformization": bool(mc_vs_exact),
            "sides_exact_equal": abs(exact_lhs - exact_rhs) <= 2e-12,
            "closed_form_matches": abs(uni - closed) <= 1e-9,
        }

    return _check(
        "expectation-psi5",
        {"M5", "M6"},
        {
            "sides_consistent": True,
            "mc_matches_uniformization": True,
            "sides_exact_equal": True,
            "closed_form_matches": True,
        },
        compute,
    )


def reproduce_all(pathwise_seeds: int = 100, replicates: int = 100_000) -> ReproductionManifest:
    """Run every reproduction check and collect the manifest."""
    # computed once per run, by the first check that needs them
    monoids = functools.cache(enumerate_commutative_monoids)
    census = functools.cache(_census)
    classes = functools.cache(functools.partial(_classes, census))
    checks = [check_monoid_counts(monoids)]
    checks += [check_catalog_bijection(n, monoids) for n in (1, 2, 3, 4)]
    checks += [check_catalog_rendering()]
    checks += [check_duality_census(census), check_duality_reduction(classes)]
    checks += [check_semiring_census(lab) for lab in catalog.M_LABELS if lab != "M0"]
    checks += [check_absorbing_monoids(), check_f4_nonlinear_count(), check_lattice_bridge(classes)]
    checks += [check_dual_map_psi5()]
    checks += [check_pathwise(name, seeds=pathwise_seeds) for name in ("psi1", "psi2", "psi5")]
    checks += [check_expectation_psi5(replicates=replicates)]
    return ReproductionManifest(tuple(checks))
