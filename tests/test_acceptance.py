"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Every tolerance and runtime bound is pinned here; nothing is deferred to
later calibration.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""

import math
import time
from itertools import product as iproduct

from monodual import catalog
from monodual.algebra import validate_semiring
from monodual.cli import main as cli_main
from monodual.enumeration import (
    enumerate_commutative_monoids,
    enumerate_monoids_with_absorbing,
    enumerate_semiring_multiplications,
)
from monodual.homdual import (
    find_all_duality_quadruples,
    hom_set,
    is_minimal,
    match_named_duality,
    named_duality,
    reduce_duality_quadruples,
)
from monodual.ips import (
    RateModel,
    check_pathwise_duality,
    dual_model,
    estimate_expectation_duality,
    exact_semigroup_expectation,
)
from monodual.product import SiteMap, dual_map, lattice_duality_function, lift_duality, module_maps
from monodual.tables import render_table
from oracles import are_isomorphic_semirings


def _report(number: int, name: str, passed: bool):
    print(f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def hom_values(label):
    m = catalog.monoid(label)
    return [h.values for h in hom_set(m, m).base]


def test_criterion_01_monoid_counts():
    t0 = time.perf_counter()
    small = [enumerate_commutative_monoids(n).count for n in (1, 2, 3, 4)]
    small_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    big = enumerate_commutative_monoids(5).count
    big_elapsed = time.perf_counter() - t1
    ok = small == [1, 2, 5, 19] and big == 78 and small_elapsed < 1.0 and big_elapsed < 60.0
    _report(1, "monoid counts 1,2,5,19,78 within time budget", ok)


def test_criterion_02_catalog_bijection_and_verbatim_tables(capsys):
    ok = True
    for order in (1, 2, 3, 4):
        labels = sorted(
            lab for lab in catalog.M_LABELS if catalog.ENTRIES[lab].table.order == order
        )
        got = enumerate_commutative_monoids(order).catalog_labels
        ok &= got is not None and sorted(got) == labels and len(set(got)) == len(got)
    # the CLI reproduces every order-4 table byte-identically
    for lab in (f"M{i}" for i in range(8, 27)):
        code = cli_main(["monoids", "catalog", "--label", lab])
        out = capsys.readouterr().out
        ok &= code == 0 and out == render_table(lab, catalog.MONOID_TABLES[lab]) + "\n"
    with capsys.disabled():
        _report(2, "order <= 4 classes biject onto the catalog; tables verbatim", ok)


def test_criterion_03_duality_census():
    t0 = time.perf_counter()
    quads = find_all_duality_quadruples(4)
    classes = reduce_duality_quadruples(quads)
    elapsed = time.perf_counter() - t0
    names = sorted(c.matched_name for c in classes)
    ok = (
        len(quads) == 110
        and len(classes) == 22
        and names == sorted(catalog.PSI_TABLES)
        and elapsed < 120.0
    )
    _report(3, "110 quadruples reduce to the 22 named tables", ok)


def test_criterion_04_semiring_census():
    ok = True
    for lab in catalog.M_LABELS:
        if lab == "M0":
            continue
        found = enumerate_semiring_multiplications(catalog.monoid(lab))
        expected = [
            validate_semiring(catalog.MONOID_TABLES[lab], mul)
            for a, mul, _ in catalog.SEMIRING_TABLES
            if a == lab
        ]
        if len(found) != len(expected):
            ok = False
            continue
        used = set()
        for f in found:
            hit = next(
                (
                    i
                    for i, e in enumerate(expected)
                    if i not in used
                    and are_isomorphic_semirings(f.semiring, e, include_opposite=True)
                ),
                None,
            )
            if hit is None:
                ok = False
                break
            used.add(hit)
    rep = enumerate_monoids_with_absorbing(4, commutative=False)
    ok &= sorted(rep.catalog_labels or ()) == ["N1", "N2"]
    _report(4, "semiring structures match the catalog exactly; N1/N2 confirmed", ok)


def test_criterion_05_f4_count():
    add = catalog.monoid("M25")
    field = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    homs = hom_set(add, add)
    linear = set(module_maps(field, "left"))
    bad = sum(1 for h in homs.base if h.values not in linear)
    _report(5, "exactly 12 additive endomorphisms fail field linearity", bad == 12)


def test_criterion_06_lattice_bridge():
    # the 2-, 3- and 4-chain and the diamond, each as its join monoid
    targets = [("M1", "psi1"), ("M4", "psi4"), ("M11", "psi11"), ("M15", "psi15")]
    ok = all(match_named_duality(lattice_duality_function(catalog.monoid(m))) == want for m, want in targets)
    classes = reduce_duality_quadruples(find_all_duality_quadruples(4))
    into_m1 = sorted(c.matched_name for c in classes if c.representative.t_label == "M1")
    ok &= into_m1 == ["psi1", "psi11", "psi15", "psi4"]
    _report(6, "lattice dualities are psi1/psi4/psi11/psi15, the only ones into M1", ok)


def test_criterion_07_dual_map_exhaustive():
    t0 = time.perf_counter()
    lifted = lift_duality(named_duality("psi5").transposed(), 2)
    space = lifted.s_space
    homs = hom_values("M6")
    ssp_cfgs = list(space.configs())
    rsp = lifted.r_space
    rsp_cfgs = list(rsp.configs())
    column_of = {
        tuple(lifted.evaluate(xs, ys) for xs in ssp_cfgs): ys for ys in rsp_cfgs
    }
    ok = True
    for entries in iproduct(homs, repeat=4):
        m = SiteMap.from_matrix(space, [[entries[0], entries[1]], [entries[2], entries[3]]])
        mhat = dual_map(lifted, m)  # raises if the identity fails anywhere
        for ys in rsp_cfgs:
            col = tuple(lifted.evaluate(m.apply(xs), ys) for xs in ssp_cfgs)
            ok &= column_of[col] == mhat.apply(ys)  # brute-force dual agrees
    # sampled non-homomorphisms admit no dual
    for bad in (lambda xs: (1, 1), lambda xs: (min(xs[0] + xs[1], 2), xs[1])):
        misses = sum(
            1
            for ys in rsp_cfgs
            if tuple(lifted.evaluate(bad(xs), ys) for xs in ssp_cfgs) not in column_of
        )
        ok &= misses > 0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(7, "psi5 dual maps exact over all 81 matrices; non-homs have none", ok)


def _acceptance_model(name: str):
    emb_label = catalog.PSI_TABLES[name][2]
    emb = catalog.REAL_EMBEDDINGS.get(emb_label)
    psi = named_duality(name)
    if name == "psi5":
        psi = psi.transposed()
    lifted = lift_duality(psi, 3, real_embedding=emb)
    space = lifted.s_space
    homs = [h.values for h in hom_set(space.local, space.local).base]
    zero = homs[0]
    drift = next(h for h in homs if len(set(h)) > 1)
    band = SiteMap.from_matrix(
        space, [[drift if abs(i - j) <= 1 else zero for j in range(3)] for i in range(3)]
    )
    cycle = SiteMap.from_matrix(
        space, [[homs[(i + j) % len(homs)] for j in range(3)] for i in range(3)]
    )
    model = RateModel.build(space, {"band": band, "cycle": cycle}, {"band": 1.5, "cycle": 1.0})
    return lifted, model


def test_criterion_08_pathwise_exact():
    ok = True
    for tag, name in enumerate(("psi1", "psi2", "psi5")):
        lifted, model = _acceptance_model(name)
        dual = dual_model(model, lifted)
        window = (0.0, 30.0)  # mean 75 events at total rate 2.5
        for seed in range(100):
            report = check_pathwise_duality(
                model, lifted, window, seed=(tag, seed), dual=dual
            )
            ok &= report.passed and report.n_events >= 20 and report.coverage == "exhaustive"
    _report(8, "pathwise identity exact for psi1/psi2/psi5 across 100 seeds", ok)


def test_criterion_09_expectation_duality():
    lifted = lift_duality(
        named_duality("psi5").transposed(), 2, real_embedding=catalog.REAL_EMBEDDINGS["M5"]
    )
    space = lifted.s_space
    homs = hom_values("M6")
    m = SiteMap.from_matrix(space, [[homs[2], homs[1]], [homs[0], homs[2]]])
    model = RateModel.build(space, {"m": m}, {"m": 0.8})
    x, y, t = (1, 2), (1, 0), 1.0
    est = estimate_expectation_duality(model, lifted, x, y, t, 100_000, seed=2718)
    ok = abs(est.lhs - est.rhs) <= 4.0 * est.combined_stderr
    exact_lhs = exact_semigroup_expectation(model, lifted, x, y, t)
    exact_rhs = exact_semigroup_expectation(
        dual_model(model, lifted), lifted, x, y, t, evolving="r"
    )
    ok &= abs(est.lhs - exact_lhs) <= 1e-9 + 4.0 * est.lhs_stderr
    ok &= abs(est.rhs - exact_rhs) <= 1e-9 + 4.0 * est.rhs_stderr
    # closed-form oracle for an idempotent single-map model
    idem = homs[2]
    ok &= tuple(idem[idem[v]] for v in range(3)) == idem
    lam = 0.7
    single = RateModel.build(space, {"i": SiteMap.diagonal(space, idem)}, {"i": lam})
    uni = exact_semigroup_expectation(single, lifted, x, y, t)
    p = math.exp(-lam * t)
    closed = p * lifted.evaluate_embedded(x, y) + (1.0 - p) * lifted.evaluate_embedded(
        single.entries[0].site_map.apply(x), y
    )
    ok &= abs(uni - closed) <= 1e-9
    _report(9, "expectation duality: MC within 4 se, exact within 1e-9", ok)


def test_criterion_10_empirical_census_property():
    # find_all_duality_quadruples re-verifies every isomorphism candidate and
    # raises on any failure, so reaching here certifies the candidate law
    quads = find_all_duality_quadruples(4)
    ok = all(
        catalog.ENTRIES[q.s_label].table.order == catalog.ENTRIES[q.r_label].table.order
        for q in quads
    )
    ok &= sum(q.isomorphism_count for q in quads) >= len(quads)
    for q in quads:
        if is_minimal(q):
            t_order = catalog.ENTRIES[q.t_label].table.order
            ok &= t_order <= min(
                catalog.ENTRIES[q.s_label].table.order,
                catalog.ENTRIES[q.r_label].table.order,
            )
    _report(10, "every candidate verifies; |S|=|R|; minimal classes have small T", ok)
