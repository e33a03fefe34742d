import random
from functools import partial

import numpy as np
import pytest

from monodual import catalog
from monodual.algebra import are_isomorphic, automorphisms, validate_semiring
from monodual.enumeration import (
    OrderTooLarge,
    _fill_monoid_tables,
    _orderly,
    enumerate_commutative_monoids,
    enumerate_monoids_with_absorbing,
    enumerate_semiring_multiplications,
)
from monodual.homdual import find_all_duality_quadruples
from monodual.tables import (
    absorbing_of,
    associativity_witness,
    canonical_form,
    class_group,
    distributivity_holds_at,
    distributivity_witness,
    least_image,
    relabel,
    relabelings_fixing,
    transpose,
)
from oracles import are_isomorphic_semirings, enumerate_commutative_monoids_naive


def test_counts_orders_one_to_four():
    assert [enumerate_commutative_monoids(n).count for n in (1, 2, 3, 4)] == [1, 2, 5, 19]


def test_order_one_is_the_singleton():
    rep = enumerate_commutative_monoids(1)
    assert rep.catalog_labels == ("M0",)


def test_order_three_labels():
    rep = enumerate_commutative_monoids(3)
    assert sorted(rep.catalog_labels) == ["M3", "M4", "M5", "M6", "M7"]


def test_order_four_hits_every_catalog_label_once():
    rep = enumerate_commutative_monoids(4)
    assert sorted(rep.catalog_labels) == sorted(f"M{i}" for i in range(8, 27))


def test_naive_oracle_agrees_up_to_order_three():
    for n in (1, 2, 3):
        fast = enumerate_commutative_monoids(n)
        assert fast.representatives == enumerate_commutative_monoids_naive(n)


def test_representatives_are_canonical_and_sorted():
    rep = enumerate_commutative_monoids(4)
    rows = [t.rows for t in rep.representatives]
    assert rows == sorted(rows)
    for r in rows:
        assert canonical_form(r) == r


def test_representatives_pairwise_non_isomorphic():
    from monodual.algebra import Monoid

    rep = enumerate_commutative_monoids(4)
    ms = [Monoid(t, 0) for t in rep.representatives]
    for i, a in enumerate(ms):
        for b in ms[i + 1:]:
            assert are_isomorphic(a, b) is None


def test_order_six_is_421_canonical_tables():
    rep = enumerate_commutative_monoids(6)
    rows = [t.rows for t in rep.representatives]
    assert rep.count == len(rows) == 421 and rep.catalog_labels is None
    assert rows == sorted(rows)
    for r in rows:
        assert canonical_form(r) == r


@pytest.mark.slow
def test_order_seven_count_through_the_filler():
    rows = list(_fill_monoid_tables(7, commutative=True))
    assert len(rows) == 2637  # OEIS A058131
    for r in rows:
        assert canonical_form(r) == r


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        enumerate_commutative_monoids(7)
    with pytest.raises(OrderTooLarge):
        enumerate_commutative_monoids(0)
    with pytest.raises(OrderTooLarge):
        enumerate_monoids_with_absorbing(5)


def test_orders_that_are_no_integers_are_refused():
    for call in (enumerate_commutative_monoids, enumerate_monoids_with_absorbing, find_all_duality_quadruples):
        for order in (2.0, 3.0, True, "2", None):
            with pytest.raises(ValueError, match="order must be an integer"):
                call(order)
    report = enumerate_commutative_monoids(np.int64(3))
    assert type(report.order) is int and report.count == 5
    assert enumerate_monoids_with_absorbing(np.int64(2)).order == 2
    assert len(find_all_duality_quadruples(np.int64(2))) == 2


def test_absorbing_census_order_two():
    rep = enumerate_monoids_with_absorbing(2)
    assert rep.count == 1 and rep.catalog_labels == ("M1",)
    assert catalog.entry("M1").absorbing == 1
    assert enumerate_monoids_with_absorbing(2, commutative=False).count == 0


def test_absorbing_census_order_three_all_commutative():
    assert enumerate_monoids_with_absorbing(3, commutative=False).count == 0
    rep = enumerate_monoids_with_absorbing(3, commutative=True)
    assert sorted(rep.catalog_labels) == ["M3", "M4", "M5"]


def test_absorbing_census_order_four_noncommutative_is_n1_n2():
    rep = enumerate_monoids_with_absorbing(4, commutative=False)
    assert rep.count == 2
    assert sorted(rep.catalog_labels) == ["N1", "N2"]


def test_semiring_enumeration_on_m4():
    classes = enumerate_semiring_multiplications(catalog.monoid("M4"))
    assert sorted(c.mult_label for c in classes) == ["M3", "M4", "M4"]


def test_semiring_enumeration_on_m5_is_empty():
    assert enumerate_semiring_multiplications(catalog.monoid("M5")) == []


def test_semiring_enumeration_on_m25_contains_the_field():
    classes = enumerate_semiring_multiplications(catalog.monoid("M25"))
    assert sorted(c.mult_label for c in classes) == ["M11", "M12", "M18"]
    field = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    assert any(
        are_isomorphic_semirings(c.semiring, field, include_opposite=True)
        for c in classes
    )


def test_semiring_enumeration_matches_catalog_for_every_additive_monoid():
    for lab in catalog.M_LABELS:
        found = enumerate_semiring_multiplications(catalog.monoid(lab))
        expected = [
            validate_semiring(catalog.MONOID_TABLES[lab], mul)
            for a, mul, _ in catalog.SEMIRING_TABLES
            if a == lab
        ]
        if lab == "M0":
            assert len(found) == 1  # the one-point structure, below catalog scope
            continue
        assert len(found) == len(expected), lab
        used = set()
        for f in found:
            hit = next(
                i
                for i, e in enumerate(expected)
                if i not in used
                and are_isomorphic_semirings(f.semiring, e, include_opposite=True)
            )
            used.add(hit)


def test_every_enumerated_semiring_revalidates():
    for lab in ("M4", "M11", "M15"):
        for cls in enumerate_semiring_multiplications(catalog.monoid(lab)):
            validate_semiring(cls.semiring.add.op, cls.semiring.mul)


def test_enumeration_is_deterministic():
    a = enumerate_commutative_monoids(4)
    b = enumerate_commutative_monoids(4)
    assert a == b
    sa = enumerate_semiring_multiplications(catalog.monoid("M15"))
    sb = enumerate_semiring_multiplications(catalog.monoid("M15"))
    assert [c.semiring.mul.rows for c in sa] == [c.semiring.mul.rows for c in sb]


def _unpruned(t, cells, law):
    """Every completion of the partial table t (None = free) passing ``law`` at
    each step and associative when complete: labelled tables, no orbit pruning."""
    n = len(t)
    if not cells:
        rows = tuple(map(tuple, t))
        if associativity_witness(rows) is None:
            yield rows
        return
    (first, *rest) = cells
    for v in range(n):
        for i, j in first:
            t[i][j] = v
        if law(t):
            yield from _unpruned(t, rest, law)
    for i, j in first:
        t[i][j] = None


def _labelled_monoids(n, commutative):
    t = [[i if j == 0 else j if i == 0 else None for j in range(n)] for i in range(n)]
    if commutative:
        cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    else:
        cells = [((i, j),) for i in range(1, n) for j in range(1, n)]
    return _unpruned(t, cells, lambda rows: associativity_witness(rows) is None)


def _labelled_multiplications(add):
    n = len(add)
    if n == 1:
        yield ((0,),)
        return
    for unit in range(1, n):
        t = [[0 if 0 in (i, j) else j if i == unit else i if j == unit else None for j in range(n)]
             for i in range(n)]
        cells = [((i, j),) for i in range(1, n) for j in range(1, n) if t[i][j] is None]
        yield from _unpruned(t, cells, lambda mul: distributivity_witness(add, mul) is None)


def _least(rows, perms, opposite):
    """Per-table class key: least relabeling of the table, or of its opposite too."""
    return min(relabel(q, p) for q in ((rows, transpose(rows)) if opposite else (rows,)) for p in perms)


def _pinned_table(rnd, n, zero):
    """A random n x n table with row and column 0 pinned: 0 neutral, or absorbing if ``zero``."""
    return tuple(
        tuple(0 if zero and 0 in (x, y) else y if x == 0 else x if y == 0 else rnd.randrange(n)
              for y in range(n))
        for x in range(n)
    )


def test_least_image_is_the_orbit_minimum():
    rnd = random.Random(2108)
    cases = [(relabelings_fixing(0, n), opposite, False) for n in range(1, 7) for opposite in (False, True)]
    cases += [(tuple(automorphisms(catalog.monoid(lab))), True, True) for lab in catalog.M_LABELS]
    for perms, opposite, zero in cases:
        group = class_group(perms, opposite)
        for _ in range(200):
            t = _pinned_table(rnd, len(perms[0]), zero)
            assert least_image(t, group) == _least(t, perms, opposite), (t, opposite)


def test_orderly_enumerators_match_the_per_table_quotient():
    for n in (1, 2, 3, 4, 5):
        perms = relabelings_fixing(0, n)
        want = sorted({_least(r, perms, False) for r in _labelled_monoids(n, commutative=True)})
        assert [t.rows for t in enumerate_commutative_monoids(n).representatives] == want, n
    for n in (1, 2, 3, 4):
        perms = relabelings_fixing(0, n)
        tables = [r for r in _labelled_monoids(n, commutative=False) if absorbing_of(r) is not None]
        want = sorted({_least(r, perms, True) for r in tables})
        assert [t.rows for t in enumerate_monoids_with_absorbing(n).representatives] == want, n
    for lab in catalog.M_LABELS:
        add = catalog.monoid(lab).normalized()
        auts = automorphisms(add)
        want = sorted({_least(m, auts, True) for m in _labelled_multiplications(add.rows)})
        got = [c.semiring.mul.rows for c in enumerate_semiring_multiplications(add)]
        assert got == want, lab


def test_a_law_instance_that_reads_only_pinned_cells_is_checked_at_the_root():
    # M5's 1 + 1 = 0, so (1 + 1) * 2 = 0 while 1 * 2 + 1 * 2 = 2: the unit 1
    # rules out every multiplication.  With no cell left free, no cell's check
    # reads the failing instance, and only the check at the root finds it.
    add = catalog.MONOID_TABLES["M5"]
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    assert associativity_witness(mul) is None and distributivity_witness(add, mul) is not None
    group = class_group(tuple(automorphisms(catalog.monoid("M5"))), opposite=True)
    law_at = partial(distributivity_holds_at, add)
    assert list(_orderly(mul, [], partial(distributivity_witness, add), law_at, group)) == []
    assert list(_orderly(mul, [], lambda m: None, law_at, group)) == [tuple(map(tuple, mul))]
