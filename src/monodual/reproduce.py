"""The reproduction pipeline: every cataloged artifact re-derived and diffed.

Each check re-computes one published artifact (a count, a table family, an
identity) from scratch and compares it against the embedded catalog.  Checks
are granular and carry the catalog labels they depend on, so corrupting one
catalog entry fails exactly the checks that use it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import product as iproduct

from . import catalog
from .algebra import (
    Semiring,
    are_isomorphic_semirings,
    chain,
    diamond,
    validate_semiring,
)
from .enumeration import (
    enumerate_commutative_monoids,
    enumerate_monoids_with_absorbing,
    enumerate_semiring_multiplications,
)
from .homdual import (
    find_all_duality_quadruples,
    hom_set,
    match_named_duality,
    reduce_duality_quadruples,
)
from .ips import (
    RateModel,
    check_pathwise_duality,
    dual_model,
    estimate_expectation_duality,
    exact_semigroup_expectation,
)
from .product import (
    SiteMap,
    dual_map,
    lattice_duality_function,
    lift_duality,
    module_maps,
)
from .homdual import named_duality

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}  # checked at every order listed
EXPECTED_CLASS_NAMES = sorted(catalog.PSI_TABLES)
ALL_M = set(catalog.M_LABELS)
PATHWISE_MIN_EVENTS = 20  # events every pathwise stream must realise; windows have at least four times this mean


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

    @classmethod
    def from_json(cls, text: str) -> "ReproductionManifest":
        obj = json.loads(text)
        return cls(
            tuple(
                CheckResult(
                    name=c["name"],
                    passed=c["passed"],
                    expected=c["expected"],
                    actual=c["actual"],
                    depends=tuple(c["depends"]),
                )
                for c in obj["checks"]
            )
        )


def _check(name, depends, expected, compute) -> CheckResult:
    try:
        actual = compute()
    except Exception as exc:  # a failed recomputation is a diff, not a crash
        return CheckResult(name, False, expected, f"error: {exc}", tuple(sorted(depends)))
    return CheckResult(name, actual == expected, expected, actual, tuple(sorted(depends)))


def _labels_of_order(n: int) -> list[str]:
    return [lab for lab in catalog.M_LABELS if catalog.ENTRIES[lab].table.order == n]


def check_monoid_counts() -> CheckResult:
    orders = sorted(EXPECTED_COUNTS)
    return _check(
        "commutative-monoid-counts",
        (),
        [EXPECTED_COUNTS[n] for n in orders],
        lambda: [enumerate_commutative_monoids(n).count for n in orders],
    )


def check_catalog_bijection(order: int) -> CheckResult:
    expected = sorted(_labels_of_order(order))
    return _check(
        f"catalog-bijection-order-{order}",
        expected,
        expected,
        lambda: sorted(enumerate_commutative_monoids(order).catalog_labels or ()),
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


def check_duality_reduction(census=_census) -> CheckResult:
    def compute():
        classes = reduce_duality_quadruples(census())
        return {
            "classes": len(classes),
            "names": sorted(c.matched_name for c in classes),
        }

    return _check(
        "duality-reduction",
        ALL_M - {"M0"},
        {"classes": 22, "names": EXPECTED_CLASS_NAMES},
        compute,
    )


def _expected_semirings(add_label: str) -> list[Semiring]:
    return [
        validate_semiring(catalog.MONOID_TABLES[add_label], mul)
        for a, mul, _ in catalog.SEMIRING_TABLES
        if a == add_label
    ]


def check_semiring_census(add_label: str) -> CheckResult:
    expected_labels = sorted(
        lab for a, _, lab in catalog.SEMIRING_TABLES if a == add_label
    )
    depends = {add_label} | set(expected_labels)

    def compute():
        found = enumerate_semiring_multiplications(catalog.monoid(add_label))
        expected = _expected_semirings(add_label)
        if len(found) != len(expected):
            return {"classes": len(found), "tables_match": False}
        used = set()
        for f in found:
            hit = None
            for i, e in enumerate(expected):
                if i not in used and are_isomorphic_semirings(f.semiring, e, include_opposite=True):
                    hit = i
                    break
            if hit is None:
                return {"classes": len(found), "tables_match": False}
            used.add(hit)
        return {
            "classes": len(found),
            "tables_match": sorted(f.mult_label for f in found) == expected_labels,
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
        homs = hom_set(add, add).values()
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


def check_lattice_bridge(census=_census) -> CheckResult:
    lattices = {
        "2-chain": (chain(2), "psi1"),
        "3-chain": (chain(3), "psi4"),
        "diamond": (diamond(), "psi11"),
        "4-chain": (chain(4), "psi15"),
    }

    def compute():
        matched = {
            name: match_named_duality(lattice_duality_function(lat))
            for name, (lat, _) in lattices.items()
        }
        classes = reduce_duality_quadruples(census())
        into_m1 = sorted(
            c.matched_name for c in classes if c.representative.t_label == "M1"
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


def _psi5_lifted(sites: int):
    psi = named_duality("psi5").transposed()  # maps act on the M6 side
    return lift_duality(psi, sites, real_embedding=catalog.REAL_EMBEDDINGS["M5"])


def check_dual_map_psi5() -> CheckResult:
    def compute():
        lifted = _psi5_lifted(2)
        space = lifted.s_space
        homs = hom_set(space.local, space.local).values()
        psi = lifted.table()
        column_of = {col: j for j, col in enumerate(map(tuple, psi.T.tolist()))}

        def brute_force_dual(image):
            """Per y, the R index whose Psi column is x -> Psi(image[x], y), or None."""
            return [column_of.get(col) for col in map(tuple, psi[image].T.tolist())]

        n_ok = 0
        for entries in iproduct(homs, repeat=4):
            matrix = [[entries[0], entries[1]], [entries[2], entries[3]]]
            m = SiteMap.from_matrix(space, matrix)
            mhat = dual_map(lifted, m)  # identity re-checked inside
            if brute_force_dual(m.index_table()) != mhat.index_table().tolist():
                return {"matrices_verified": n_ok, "non_hom_has_dual": None}
            n_ok += 1
        # the constant map onto (1, 1) violates f(0) = 0 and must admit no dual
        bad = [space.index_of((1, 1))] * space.n_configs
        missing = brute_force_dual(bad).count(None)
        return {"matrices_verified": n_ok, "non_hom_has_dual": missing == 0}

    return _check(
        "dual-map-psi5-exhaustive",
        {"M5", "M6"},
        {"matrices_verified": 81, "non_hom_has_dual": False},
        compute,
    )


def _pathwise_model(name: str, sites: int):
    if name == "psi5":
        lifted = _psi5_lifted(sites)
    else:
        emb_label = catalog.PSI_TABLES[name][2]
        lifted = lift_duality(
            named_duality(name), sites, real_embedding=catalog.REAL_EMBEDDINGS.get(emb_label)
        )
    space = lifted.s_space
    homs = hom_set(space.local, space.local).values()
    k = space.sites
    zero = homs[0]
    nontrivial = [h for h in homs if len(set(h)) > 1]
    spread = SiteMap.from_matrix(
        space,
        [[nontrivial[0] if abs(i - j) <= 1 else zero for j in range(k)] for i in range(k)],
    )
    cycle = SiteMap.from_matrix(
        space,
        [[homs[(i + j) % len(homs)] for j in range(k)] for i in range(k)],
    )
    model = RateModel.build(space, {"spread": spread, "cycle": cycle}, {"spread": 1.5, "cycle": 1.0})
    return lifted, model


def check_pathwise(name: str, seeds: int = 100) -> CheckResult:
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    labels = set(catalog.PSI_TABLES[name][:3])

    tag = int(name.removeprefix("psi"))

    def compute():
        lifted, model = _pathwise_model(name, 3)
        window = (0.0, max(30.0, 4 * PATHWISE_MIN_EVENTS / model.total_rate))
        dual = dual_model(model, lifted)
        events_ok = True
        for seed in range(seeds):
            rep = check_pathwise_duality(model, lifted, window, seed=(tag, seed), dual=dual)
            if rep.n_events < PATHWISE_MIN_EVENTS:
                events_ok = False
        return {"seeds_passed": seeds, "all_windows_busy": events_ok}

    return _check(
        f"pathwise-{name}",
        labels,
        {"seeds_passed": seeds, "all_windows_busy": True},
        compute,
    )


def check_expectation_psi5(replicates: int = 100_000) -> CheckResult:
    def compute():
        lifted = _psi5_lifted(2)
        space = lifted.s_space
        homs = hom_set(space.local, space.local).values()
        m = SiteMap.from_matrix(space, [[homs[2], homs[1]], [homs[0], homs[2]]])
        model = RateModel.build(space, {"m": m}, {"m": 0.8})
        x, y, t = (1, 2), (1, 0), 1.0
        est = estimate_expectation_duality(model, lifted, x, y, t, replicates, seed=2024)
        exact_lhs = exact_semigroup_expectation(model, lifted, x, y, t, tol=1e-12)
        dm = dual_model(model, lifted)
        exact_rhs = exact_semigroup_expectation(dm, lifted, x, y, t, tol=1e-12, evolving="r")
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
        uni = exact_semigroup_expectation(single, lifted, x, y, t, tol=1e-12)
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
    census = functools.cache(_census)  # computed once per run, by the first check that needs it
    checks = [check_monoid_counts()]
    checks += [check_catalog_bijection(n) for n in (1, 2, 3, 4)]
    checks += [check_catalog_rendering()]
    checks += [check_duality_census(census), check_duality_reduction(census)]
    checks += [check_semiring_census(lab) for lab in catalog.M_LABELS if lab != "M0"]
    checks += [check_absorbing_monoids(), check_f4_nonlinear_count(), check_lattice_bridge(census)]
    checks += [check_dual_map_psi5()]
    checks += [check_pathwise(name, seeds=pathwise_seeds) for name in ("psi1", "psi2", "psi5")]
    checks += [check_expectation_psi5(replicates=replicates)]
    return ReproductionManifest(tuple(checks))
