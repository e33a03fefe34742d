import random
import time
from itertools import permutations, product as iproduct

import pytest

import monodual.homdual as homdual
from monodual import catalog
from monodual.algebra import Monoid, are_isomorphic, automorphisms, iter_isomorphisms, validate_semiring
from monodual.homdual import (
    Condition1Fail,
    Condition2Fail,
    Condition3Fail,
    Condition4Fail,
    DualityError,
    DualityFunction,
    UnmatchedClass,
    duality_from_dict,
    duality_to_dict,
    find_all_duality_quadruples,
    hom_set,
    is_homomorphism,
    is_minimal,
    is_reflexive,
    match_named_duality,
    named_duality,
    reduce_duality_quadruples,
    verify_duality,
)
from monodual.product import module_maps
from monodual.enumeration import enumerate_commutative_monoids
from monodual.tables import CayleyTable, preservation_witness, relabel, transpose
from oracles import adjoint_embedding, adjoint_sum_table_reference, all_homs_reference


def brute_force_homs(source, target):
    """Oracle: filter every value table, with no generating-set shortcut."""
    n = source.order
    return sorted(
        vals
        for vals in iproduct(range(target.order), repeat=n)
        if is_homomorphism(source, target, vals)
    )


def test_hom_set_matches_brute_force_oracle():
    labels = [lab for lab in catalog.M_LABELS if catalog.ENTRIES[lab].table.order <= 3]
    for a in labels:
        for b in labels:
            s, t = catalog.monoid(a), catalog.monoid(b)
            assert [h.values for h in hom_set(s, t).base] == brute_force_homs(s, t), (a, b)


def test_hom_set_on_a_product_monoid_matches_brute_force():
    from monodual.product import product_monoid

    s = product_monoid(catalog.monoid("M6"), 2)
    t = catalog.monoid("M5")
    assert [h.values for h in hom_set(s, t).base] == brute_force_homs(s, t)


def _search_inputs(case):
    """The (source, target) pairs on which the hom search is held against the reference search."""
    from monodual.product import product_monoid

    ms = [catalog.monoid(lab) for lab in catalog.M_LABELS]
    if case == "catalog":
        return [(s, t) for s in ms for t in ms]
    if case == "non-commutative sources":
        ns = [catalog.monoid(lab) for lab in catalog.N_LABELS]
        return [(s, t) for s in ns for t in ms + ns]
    if case == "adjoint sources":  # into the reversed targets, the neutral map is the last, not 0
        adjoints = [hom_set(s, t) for s in ms for t in ms + [_reversed(m) for m in ms]]
        sources = {adj.monoid() for adj in adjoints if 2 <= adj.size <= 4}
        assert any(a.neutral != 0 for a in sources)
        return [(s, t) for s in sorted(sources, key=repr) for t in ms]
    return [(product_monoid(catalog.monoid("M6"), 2), catalog.monoid("M5"))]


@pytest.mark.parametrize("case", ["catalog", "non-commutative sources", "adjoint sources", "product"])
def test_hom_search_equals_the_reference_search(case):
    for s, t in _search_inputs(case):
        assert homdual._all_homs(s, t) == all_homs_reference(s, t), (s, t)


@pytest.mark.slow
def test_hom_search_equals_the_reference_search_to_order_five():
    ms = [Monoid(t, 0) for n in range(1, 6) for t in enumerate_commutative_monoids(n).representatives]
    assert len(ms) == 105
    for s in ms:
        for t in ms:
            assert homdual._all_homs(s, t) == all_homs_reference(s, t), (s, t)


@pytest.mark.parametrize("s_lab, t_lab, values", [
    ("M6", "M5", (0,)),
    ("M6", "M5", (0, 1, 7)),
    ("M6", "M5", (0, 1, 2, 3)),
    ("M6", "M5", (0, 1.0, 1)),
    ("M6", "M5", (0, -1, 1)),
    ("M6", "M5", (0, "1", 1)),
    ("M1", "M1", (0, True)),
    ("M1", "M1", None),
])
def test_is_homomorphism_refuses_malformed_value_tables(s_lab, t_lab, values):
    with pytest.raises(ValueError):
        is_homomorphism(catalog.monoid(s_lab), catalog.monoid(t_lab), values)


def test_is_homomorphism_equals_the_check_on_all_pairs():
    labels = catalog.M_LABELS + catalog.N_LABELS
    for a in labels:
        for b in labels:
            s, t = catalog.monoid(a), catalog.monoid(b)
            if t.order ** s.order > 256:
                continue
            for vals in iproduct(range(t.order), repeat=s.order):
                full = vals[s.neutral] == t.neutral and preservation_witness(vals, s.rows, t.rows) is None
                assert is_homomorphism(s, t, vals) == full, (a, b, vals)


def test_hom_set_examples():
    m1, m2 = catalog.monoid("M1"), catalog.monoid("M2")
    a = hom_set(m1, m1)
    assert [h.values for h in a.base] == [(0, 0), (0, 1)]
    assert are_isomorphic(a.monoid(), m1) is not None
    b = hom_set(m2, m2)
    assert b.size == 2
    assert are_isomorphic(b.monoid(), m2) is not None
    c = hom_set(catalog.monoid("M6"), catalog.monoid("M5"))
    assert c.size == 3
    assert are_isomorphic(c.monoid(), catalog.monoid("M5")) is not None


def test_hom_set_closure_under_pointwise_addition():
    s, t = catalog.monoid("M15"), catalog.monoid("M4")
    adj = hom_set(s, t)
    values = {h.values for h in adj.base}
    for f in adj.base:
        for g in adj.base:
            pointwise = tuple(t.add(a, b) for a, b in zip(f.values, g.values))
            assert pointwise in values
    assert adj.base[adj.index_of_zero].values == (0,) * s.order


def test_hom_set_requires_commutative_target():
    with pytest.raises(ValueError):
        hom_set(catalog.monoid("M1"), catalog.monoid("N1"))


def test_adjoint_embedding_examples():
    m1 = catalog.monoid("M1")
    emb = adjoint_embedding(m1, m1)
    assert len(set(emb.values)) == 2 and emb.target.order == 2
    m0 = catalog.monoid("M0")
    emb0 = adjoint_embedding(m0, m0)
    assert emb0.values == (0,) and emb0.target.order == 1
    emb65 = adjoint_embedding(catalog.monoid("M6"), catalog.monoid("M5"))
    assert len(set(emb65.values)) == 3 == emb65.target.order


def test_adjoint_tables_equal_the_reference_sums_and_build_one_monoid():
    for a in catalog.M_LABELS:
        for b in catalog.M_LABELS:
            adj = hom_set(catalog.monoid(a), catalog.monoid(b))
            assert adj.op.rows == adjoint_sum_table_reference(adj), (a, b)
            assert adj.monoid() is adj.monoid()
            assert adj.monoid().op is adj.op and adj.monoid().neutral == adj.index_of_zero


def test_adjoint_table_past_the_pair_budget_raises_before_it_is_built(monkeypatch):
    import monodual.product as product
    import monodual.tables as tables

    assert product.SizeBudgetExceeded is tables.SizeBudgetExceeded
    assert product.pair_budget is tables.pair_budget
    m15 = catalog.monoid("M15")
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "399")
    with pytest.raises(tables.SizeBudgetExceeded):
        hom_set(m15, m15).op  # 20 maps
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "400")
    assert hom_set(m15, m15).op.order == 20
    monkeypatch.delenv("MONODUAL_PAIR_BUDGET")
    m8 = catalog.monoid("M8")
    start = time.perf_counter()
    with pytest.raises(tables.SizeBudgetExceeded):
        adjoint_embedding(m8, m8)  # 6562 maps into M8: a table of 6562^2 cells
    assert time.perf_counter() - start < 5.0


def test_is_reflexive_examples():
    assert is_reflexive(catalog.monoid("M2"), catalog.monoid("M2"))
    assert not is_reflexive(catalog.monoid("M1"), catalog.monoid("M2"))
    assert is_reflexive(catalog.monoid("M4"), catalog.monoid("M1"))


CATALOG_PAIRS = [(a, b) for a in catalog.M_LABELS for b in catalog.M_LABELS]


def test_reflexivity_sweep_over_all_catalog_pairs():
    reflexive = {(a, b) for a, b in CATALOG_PAIRS if is_reflexive(catalog.monoid(a), catalog.monoid(b))}
    assert len(reflexive) == 140


def test_reflexive_pairs_with_small_adjoints_are_the_census_pairs():
    census = {(q.s_label, q.t_label) for q in find_all_duality_quadruples(4)}
    reflexive = set()
    for a, b in CATALOG_PAIRS:
        s, t = catalog.monoid(a), catalog.monoid(b)
        if 2 <= hom_set(s, t).size <= 4 and is_reflexive(s, t):
            reflexive.add((a, b))
    assert len(census) == 110 and reflexive == census


def test_is_reflexive_matches_the_adjoint_embedding_definition():
    checked = 0
    for a, b in CATALOG_PAIRS:
        s, t = catalog.monoid(a), catalog.monoid(b)
        if hom_set(s, t).size > 9:
            continue
        emb = adjoint_embedding(s, t)
        assert is_reflexive(s, t) == (len(set(emb.values)) == s.order == emb.target.order), (a, b)
        checked += 1
    assert checked == 709


def _reversed(m):
    """m with element i renamed n-1-i, so that its neutral element leaves 0."""
    perm = tuple(reversed(range(m.order)))
    return Monoid(CayleyTable(relabel(m.rows, perm)), perm[m.neutral])


def test_adjoint_table_is_the_pointwise_sum_of_the_maps():
    for a, b in CATALOG_PAIRS:
        s = catalog.monoid(a)
        for t in (catalog.monoid(b), _reversed(catalog.monoid(b))):
            adj = hom_set(s, t)
            values = adj.values()
            for i, f in enumerate(values):
                for j, g in enumerate(values):
                    assert values[adj.op.rows[i][j]] == tuple(t.add(x, y) for x, y in zip(f, g)), (a, b)
            assert values[adj.index_of_zero] == (t.neutral,) * s.order


def test_verify_duality_rejects_constant_table():
    m1 = catalog.monoid("M1")
    psi = DualityFunction(m1, m1, m1, ((0, 0), (0, 0)))
    with pytest.raises(Condition1Fail):
        verify_duality(psi)


def test_verify_duality_rejects_wrong_columns():
    m2 = catalog.monoid("M2")
    # distinct rows and columns, but the columns are not homomorphisms
    psi = DualityFunction(m2, m2, m2, ((1, 0), (0, 1)))
    with pytest.raises(Condition2Fail):
        verify_duality(psi)


def test_psi5_orientation():
    """The cataloged 3x3 table verifies with rows on the involution side only."""
    psi = named_duality("psi5")
    assert (psi.s.rows, psi.r.rows) == (catalog.MONOID_TABLES["M5"], catalog.MONOID_TABLES["M6"])
    assert verify_duality(psi) is None
    # the same entries with the argument roles swapped are not a duality
    wrong = DualityFunction(psi.r, psi.s, psi.t, psi.values)
    with pytest.raises(Exception):
        verify_duality(wrong)


def test_named_duality_resolves_the_transpose_selector():
    psi = named_duality("psi5.T")
    assert psi == named_duality("psi5").transposed()
    assert (psi.s.rows, psi.r.rows) == (catalog.MONOID_TABLES["M6"], catalog.MONOID_TABLES["M5"])
    for name in ("psi99.T", "psi5.T.T", ".T"):
        with pytest.raises(KeyError):
            named_duality(name)


def test_psi5_real_coordinates():
    """Transposing psi5 and embedding T in the reals gives the signed 3x3 matrix."""
    psi = named_duality("psi5").transposed()
    emb = catalog.REAL_EMBEDDINGS["M5"]  # 0 -> 1, 1 -> -1, 2 -> 0
    real = [[emb[v] for v in row] for row in psi.values]
    assert real == [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, 0.0]]
    # reordering columns to (-1, 0, 1) coordinates
    order = [1, 2, 0]
    signed = [[row[j] for j in order] for row in real]
    assert signed == [[1.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]


def _census_by_triple():
    return {(q.s_label, q.r_label, q.t_label): q for q in find_all_duality_quadruples(4)}


def test_census_reproduces_named_tables():
    quads = _census_by_triple()
    for name in ("psi1", "psi2"):
        s_lab, r_lab, t_lab, table = catalog.PSI_TABLES[name]
        q = quads[(s_lab, r_lab, t_lab)]
        assert q.psi.values == table and verify_duality(q.psi) is None and q.isomorphism_count == 1


def test_census_mod3():
    q = _census_by_triple()[("M7", "M7", "M7")]
    # multiplication mod 3 is the least of the two candidates; the other swaps columns 1 and 2
    assert q.psi.values == tuple(tuple((x * y) % 3 for y in range(3)) for x in range(3))
    assert verify_duality(q.psi) is None and q.isomorphism_count == 2


def test_evaluation_duality_for_reflexive_pairs():
    for s_lab, t_lab in [("M2", "M2"), ("M4", "M1"), ("M6", "M5"), ("M7", "M7")]:
        s, t = catalog.monoid(s_lab), catalog.monoid(t_lab)
        assert is_reflexive(s, t)
        adj = hom_set(s, t)  # psi(x, h) = h(x) on S x H(S,T), a duality whenever S is T-reflexive
        assert verify_duality(DualityFunction(s, adj.monoid(), t, tuple(zip(*adj.values())))) is None


def test_transposed_keeps_a_non_square_table_whole():
    s, t = catalog.monoid("M20"), catalog.monoid("M6")
    adj = hom_set(s, t)
    psi = DualityFunction(s, adj.monoid(), t, tuple(zip(*adj.values())))  # 4 x 5
    verify_duality(psi)
    assert (psi.s.order, psi.r.order) == (4, 5)
    back = psi.transposed()
    assert (back.s, back.r, back.t) == (psi.r, psi.s, psi.t)
    assert back.values == tuple(zip(*psi.values)) and len(back.values) == 5
    assert verify_duality(back) is None


def test_duality_column_and_row_maps_are_isomorphisms():
    # for every named table: columns enumerate H(S,T), rows enumerate H(R,T),
    # and both carriers are reflexive with respect to T
    for name in catalog.PSI_TABLES:
        psi = named_duality(name)
        cols = {psi.column(y) for y in range(psi.r.order)}
        rows = set(psi.values)
        assert cols == set(hom_set(psi.s, psi.t).values())
        assert rows == set(hom_set(psi.r, psi.t).values())
        assert is_reflexive(psi.s, psi.t) and is_reflexive(psi.r, psi.t)


def test_census_counts():
    quads = find_all_duality_quadruples(4)
    assert len(quads) == 110
    assert all(
        catalog.ENTRIES[q.s_label].table.order == catalog.ENTRIES[q.r_label].table.order
        for q in quads
    )
    assert sum(q.isomorphism_count for q in quads) == 164


def test_census_order_two_restriction():
    quads = find_all_duality_quadruples(2)
    assert {(q.r_label, q.s_label, q.t_label) for q in quads} == {
        ("M1", "M1", "M1"),
        ("M2", "M2", "M2"),
    }


def test_census_order_three_gives_the_seven_small_tables():
    quads = find_all_duality_quadruples(3)
    classes = reduce_duality_quadruples(quads)
    assert len(quads) == 15
    assert [c.matched_name for c in classes] == [f"psi{i}" for i in range(1, 8)]


def test_asymmetric_classes_contain_both_orientations():
    classes = reduce_duality_quadruples(find_all_duality_quadruples(4))
    members = {c.matched_name: len(c.members) for c in classes}
    for name, (s_lab, r_lab, _, _) in catalog.PSI_TABLES.items():
        assert members[name] == (2 if s_lab != r_lab else 1), name


def test_reduction_to_22_classes():
    quads = find_all_duality_quadruples(4)
    classes = reduce_duality_quadruples(quads)
    assert len(classes) == 22
    assert sorted(c.matched_name for c in classes) == sorted(catalog.PSI_TABLES)
    by_name = {c.matched_name: c for c in classes}
    assert by_name["psi23"] is not by_name["psi235"]
    for c in classes:
        orders = [catalog.ENTRIES[lab].table.order
                  for lab in (c.representative.s_label, c.representative.r_label)]
        t_order = catalog.ENTRIES[c.representative.t_label].table.order
        assert t_order <= min(orders)


def test_unmatched_class_is_reported(monkeypatch):
    trimmed = {k: v for k, v in catalog.PSI_TABLES.items() if k != "psi25"}
    monkeypatch.setitem(catalog.__dict__, "PSI_TABLES", trimmed)
    with pytest.raises(UnmatchedClass):
        reduce_duality_quadruples(find_all_duality_quadruples(4))


def _orbit_key(s_label, r_label, t_label, values):
    """Oracle: the least image of the table under Aut(S) x Aut(R) relabeling and transposition."""
    s, r = catalog.monoid(s_label), catalog.monoid(r_label)
    images = []
    for m in _relabelings(values, automorphisms(s), automorphisms(r)):
        images.append((s_label, r_label, t_label, m))
        images.append((r_label, s_label, t_label, transpose(m)))
    return min(images)


def _relabelings(values, row_perms, column_perms):
    return {
        tuple(tuple(values[b[x]][a[y]] for y in range(len(values[0]))) for x in range(len(values)))
        for b in row_perms
        for a in column_perms
    }


def test_a_duality_class_is_its_carriers():
    # relabeling S moves no table out of its Aut(R) column orbit, which is the census's candidates
    quads = find_all_duality_quadruples(4)
    for q in quads:
        s, r, values = q.psi.s, q.psi.r, q.psi.values
        columns = _relabelings(values, [tuple(range(s.order))], automorphisms(r))
        assert _relabelings(values, automorphisms(s), automorphisms(r)) == columns, q.key()[:3]
        assert len(columns) == q.isomorphism_count and min(columns) == values, q.key()[:3]
    assert len(quads) == 110


def test_reduction_groups_as_the_orbit_key_does():
    quads = find_all_duality_quadruples(4)
    by_orbit: dict = {}
    for q in quads:
        if is_minimal(q):
            by_orbit.setdefault(_orbit_key(q.s_label, q.r_label, q.t_label, q.psi.values), set()).add(q.key())
    classes = reduce_duality_quadruples(quads)
    groups = {frozenset(q.key() for q in c.members) for c in classes}
    assert len(groups) == 22 and groups == {frozenset(g) for g in by_orbit.values()}
    for c in classes:  # and each class has the orbit key of the table it is named after
        rep = c.representative
        named = catalog.PSI_TABLES[c.matched_name]
        assert _orbit_key(rep.s_label, rep.r_label, rep.t_label, rep.psi.values) == _orbit_key(*named)


def test_a_named_table_that_fails_to_verify_names_no_class(monkeypatch):
    s_lab, r_lab, t_lab, values = catalog.PSI_TABLES["psi25"]
    zeros = tuple(tuple(0 for _ in row) for row in values)
    monkeypatch.setitem(catalog.PSI_TABLES, "psi25", (s_lab, r_lab, t_lab, zeros))
    with pytest.raises(UnmatchedClass):
        reduce_duality_quadruples(find_all_duality_quadruples(4))


def test_census_keeps_one_source_per_catalog_class(monkeypatch):
    # M6 carrying M4's table is a second label for M4's class
    import dataclasses

    patched = dict(catalog.ENTRIES)
    patched["M6"] = dataclasses.replace(patched["M6"], table=CayleyTable(catalog.MONOID_TABLES["M4"]))
    monkeypatch.setitem(catalog.__dict__, "ENTRIES", patched)
    quads = find_all_duality_quadruples(4)
    assert len(quads) == 99
    assert all(q.s_label != "M6" for q in quads)


def test_census_looks_up_each_source_and_adjoint_once_and_verifies_every_candidate(monkeypatch):
    import monodual.homdual as homdual

    calls = {"lookup": 0, "check": 0, "verify": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(catalog, "catalog_lookup", counted("lookup", catalog.catalog_lookup))
    monkeypatch.setattr(homdual, "check_pairing", counted("check", homdual.check_pairing))
    monkeypatch.setattr(homdual, "verify_duality", counted("verify", homdual.verify_duality))
    quads = find_all_duality_quadruples(4)
    assert calls["lookup"] <= 136
    assert calls["check"] == sum(q.isomorphism_count for q in quads) == 164
    assert calls["verify"] == 0


def test_census_searches_no_hom_set_per_candidate(monkeypatch):
    # 676 adjoints H(S, T) and 134 double adjoints for reflexivity; H(R, T) is the double adjoint relabelled
    calls = _counting(monkeypatch, "_hom_values")
    assert len(find_all_duality_quadruples(4)) == 110
    assert len(calls) <= 810


def test_census_builds_hom_objects_only_for_pairs_that_pass_the_cheap_tests(monkeypatch):
    find_all_duality_quadruples(4)  # every hom set searched
    # 134 pairs pass the size and evaluation-injectivity tests, with 462 maps between them;
    # building every adjoint first made 2 227 Hom objects
    built = _counting(monkeypatch, "Hom")
    assert len(find_all_duality_quadruples(4)) == 110
    assert len(built) <= 462


def test_census_raises_on_a_candidate_that_is_no_duality(monkeypatch):
    # a bijection R -> H(S, T) that fixes the neutral element but is not additive: some row leaves H(R, T)
    import monodual.homdual as homdual

    def with_a_forgery(a, b):
        isos = list(iter_isomorphisms(a, b))
        yield from isos
        yield from [p for p in permutations(range(a.order)) if p[a.neutral] == b.neutral and p not in isos][:1]

    monkeypatch.setattr(homdual, "iter_isomorphisms", with_a_forgery)
    with pytest.raises(Condition4Fail):
        find_all_duality_quadruples(4)


def test_f4_has_twelve_nonlinear_additive_endomorphisms():
    add = catalog.monoid("M25")
    field = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    homs = hom_set(add, add)
    linear = set(module_maps(field, "left"))
    assert set(module_maps(field, "right")) == linear
    assert homs.size == 16 and len(linear) == 4
    assert sum(1 for h in homs.base if h.values not in linear) == 12


def test_m23_module_maps_equal_additive_homs():
    s = catalog.semiring("M23", "M11")
    homs = {h.values for h in hom_set(s.add, s.add).base}
    assert set(module_maps(s, "left")) == homs
    assert set(module_maps(s, "right")) == homs


def test_duality_json_round_trip():
    psi = named_duality("psi13")
    again = duality_from_dict(duality_to_dict(psi))
    assert again == psi


def test_match_named_duality_handles_relabeled_carriers():
    psi = named_duality("psi11")
    perm = (0, 2, 3, 1)
    s2 = Monoid(type(psi.s.op)(relabel(psi.s.rows, perm)), 0)
    values = tuple(
        tuple(psi.values[x][y] for y in range(4)) for x in range(4)
    )
    relabeled = [[0] * 4 for _ in range(4)]
    for x in range(4):
        for y in range(4):
            relabeled[perm[x]][y] = values[x][y]
    moved = DualityFunction(s2, psi.r, psi.t, tuple(tuple(r) for r in relabeled))
    assert verify_duality(moved) is None
    assert match_named_duality(moved) == "psi11"


def test_match_named_duality_names_only_dualities():
    psi = named_duality("psi11")
    assert match_named_duality(psi) == "psi11"
    assert match_named_duality(psi.transposed()) == "psi11"
    zeros = DualityFunction(psi.s, psi.r, psi.t, tuple((0,) * 4 for _ in range(4)))
    # swapping rows 0 and 1 is no automorphism of S (each fixes the neutral 0): the columns leave H(S, T)
    swapped = DualityFunction(psi.s, psi.r, psi.t, (psi.values[1], psi.values[0], *psi.values[2:]))
    for bad in (zeros, swapped):
        with pytest.raises(DualityError):
            verify_duality(bad)
        assert match_named_duality(bad) is None


def _counting(monkeypatch, name):
    """Count the calls of homdual's ``name`` made through the module."""
    import monodual.homdual as homdual

    calls = []
    fn = getattr(homdual, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(homdual, name, counted)
    return calls


def test_verify_duality_builds_each_hom_set_only_once_its_condition_is_reached(monkeypatch):
    calls = _counting(monkeypatch, "hom_set")
    m1, m2 = catalog.monoid("M1"), catalog.monoid("M2")
    with pytest.raises(Condition1Fail):
        verify_duality(DualityFunction(m1, m1, m1, ((0, 0), (0, 0))))
    assert len(calls) == 0
    with pytest.raises(Condition2Fail):
        verify_duality(DualityFunction(m2, m2, m2, ((1, 0), (0, 1))))
    assert len(calls) == 1
    psi1 = named_duality("psi1")
    del calls[:]
    verify_duality(psi1)
    assert len(calls) == 2


def test_condition_three_fails_alone_on_repeated_columns():
    # H(M0, M1) and H(M2, M1) are each the zero map: only the repeated column is wrong
    psi = DualityFunction(catalog.monoid("M0"), catalog.monoid("M2"), catalog.monoid("M1"), ((0, 0),))
    with pytest.raises(Condition3Fail) as err:
        verify_duality(psi)
    assert err.value.witness == (0, 1)


def _first_failed_condition(psi):
    """Oracle: the first of the four conditions that fails, by brute-force hom sets; 0 if none."""
    rows = list(psi.values)
    cols = list(zip(*rows))
    holds = (
        len(set(rows)) == len(rows),
        set(cols) == set(brute_force_homs(psi.s, psi.t)),
        len(set(cols)) == len(cols),
        set(rows) == set(brute_force_homs(psi.r, psi.t)),
    )
    return next((i + 1 for i, ok in enumerate(holds) if not ok), 0)


def test_verify_duality_raises_the_first_condition_a_brute_force_oracle_finds():
    fails = (None, Condition1Fail, Condition2Fail, Condition3Fail, Condition4Fail)
    small = ["M0", "M1", "M2"]
    order = {lab: catalog.ENTRIES[lab].table.order for lab in catalog.M_LABELS}
    # every table on carriers of order <= 2, then seeded edits of the order-3 census tables
    tables = [
        (s, r, t, flat)
        for s, r, t in iproduct(small, repeat=3)
        for flat in iproduct(range(order[t]), repeat=order[s] * order[r])
    ]
    rng = random.Random(2108)
    census = find_all_duality_quadruples(3)
    for _ in range(400):
        q = rng.choice(census)
        values = [list(row) for row in q.psi.values]
        for _ in range(rng.randrange(3)):  # up to two random entries, or a column swap
            if rng.random() < 0.5:
                values[rng.randrange(len(values))][rng.randrange(len(values[0]))] = rng.randrange(q.psi.t.order)
            else:
                a, b = rng.randrange(len(values[0])), rng.randrange(len(values[0]))
                for row in values:
                    row[a], row[b] = row[b], row[a]
        tables.append((q.s_label, q.r_label, q.t_label, tuple(v for row in values for v in row)))
    seen = set()
    for s_lab, r_lab, t_lab, flat in tables:
        s, r, t = (catalog.monoid(lab) for lab in (s_lab, r_lab, t_lab))
        values = tuple(tuple(flat[x * r.order:(x + 1) * r.order]) for x in range(s.order))
        psi = DualityFunction(s, r, t, values)
        want = _first_failed_condition(psi)
        seen.add(want)
        if want == 0:
            verify_duality(psi)
        else:
            with pytest.raises(DualityError) as err:
                verify_duality(psi)
            assert type(err.value) is fails[want], (s_lab, r_lab, t_lab, values)
    assert seen == {0, 1, 2, 3, 4}


def test_match_named_duality_verifies_only_psi_and_the_tables_named_for_its_class(monkeypatch):
    # psi itself on every call, however it was built, then the first named table of its class
    psi = named_duality("psi11")
    bare = DualityFunction(psi.s, psi.r, psi.t, psi.values)
    calls = _counting(monkeypatch, "verify_duality")
    for table in (bare, psi):
        del calls[:]
        assert match_named_duality(table) == "psi11"
        assert [c[0] for c in calls] == [table, psi]


def test_a_second_census_searches_no_hom_set(monkeypatch):
    first = find_all_duality_quadruples(4)
    searches = _counting(monkeypatch, "_all_homs")
    assert find_all_duality_quadruples(4) == first
    assert searches == []


def test_an_equal_table_in_a_new_monoid_hits_the_memo(monkeypatch):
    s, t = catalog.monoid("M11"), catalog.monoid("M19")
    want = hom_set(s, t).values()
    searches = _counting(monkeypatch, "_all_homs")
    copy = Monoid(CayleyTable(tuple(tuple(row) for row in s.rows)), 0)
    assert copy is not s and copy.op is not s.op
    assert hom_set(copy, t).values() == want
    assert searches == []


def test_a_corrupted_entry_is_searched_afresh(monkeypatch):
    # the memo is keyed by the tables, not by catalog labels
    import dataclasses

    ms = [catalog.monoid(lab) for lab in catalog.M_LABELS]
    before = {(s, t): hom_set(s, t).values() for s in ms for t in ms}
    patched = dict(catalog.ENTRIES)
    patched["M11"] = dataclasses.replace(patched["M11"], table=CayleyTable(catalog.MONOID_TABLES["M15"]))
    monkeypatch.setitem(catalog.__dict__, "ENTRIES", patched)
    m11, m15 = catalog.monoid("M11"), catalog.monoid("M15")
    assert m11 == m15
    for m in ms:
        assert list(hom_set(m11, m).values()) == all_homs_reference(m15, m) == list(before[m15, m])
        assert list(hom_set(m, m11).values()) == all_homs_reference(m, m15) == list(before[m, m15])


def test_memo_hits_equal_the_reference_search_as_misses_do(monkeypatch):
    ms = [catalog.monoid(lab) for lab in catalog.M_LABELS if catalog.ENTRIES[lab].table.order <= 3]
    homdual._hom_values.cache_clear()
    searches = _counting(monkeypatch, "_all_homs")
    for hit in (False, True):
        for s in ms:
            for t in ms:
                assert list(hom_set(s, t).values()) == all_homs_reference(s, t), (s, t, hit)
        assert len(searches) == len(ms) ** 2
