from itertools import permutations

import pytest

from monodual import catalog
from monodual.algebra import (
    Monoid,
    MulNotMonoid,
    NoNeutralElement,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    ZeroNotAbsorbing,
    are_isomorphic,
    automorphisms,
    iter_isomorphisms,
    one_generates_addition,
    validate_monoid,
    validate_semiring,
)
from monodual.product import lattice_duality_function, product_monoid
from monodual.tables import CayleyTable, MalformedTable, relabel


def test_validate_monoid_m6():
    m = validate_monoid(catalog.MONOID_TABLES["M6"], require_commutative=True)
    assert m.neutral == 0 and m.order == 3


def test_validate_monoid_singleton():
    m = validate_monoid([[0]])
    assert m.order == 1 and m.neutral == 0


def test_validate_monoid_not_associative():
    with pytest.raises(NotAssociative):
        validate_monoid([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_validate_monoid_no_neutral():
    with pytest.raises(NoNeutralElement):
        validate_monoid([[1, 1], [1, 1]])


def test_validate_monoid_not_commutative():
    with pytest.raises(NotCommutative):
        validate_monoid(catalog.MONOID_TABLES["N1"], require_commutative=True)


def test_normalize_moves_neutral_to_zero():
    m = validate_monoid(catalog.MONOID_TABLES["N1"]).normalized()
    assert m.neutral == 0
    plain = validate_monoid(catalog.MONOID_TABLES["N1"])
    assert plain.neutral == 3
    assert are_isomorphic(plain, m) is not None


def test_validate_semiring_boolean_and_field2():
    s = validate_semiring(catalog.MONOID_TABLES["M1"], [[0, 0], [0, 1]])
    assert s.one == 1 and s.zero == 0
    f2 = validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 0], [0, 1]])
    assert f2.one == 1


def test_validate_semiring_zero_not_absorbing():
    # OR as multiplication over mod-2 addition: 1*0 = 1
    with pytest.raises(ZeroNotAbsorbing):
        validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 1], [1, 1]])


def test_validate_semiring_not_distributive():
    # sign multiplication over the 3-chain join fails distributivity
    with pytest.raises(NotDistributive):
        validate_semiring(
            catalog.MONOID_TABLES["M4"], [[0, 0, 0], [0, 2, 1], [0, 1, 2]]
        )


def test_validators_raise_on_the_first_witness():
    with pytest.raises(NotAssociative) as exc:
        validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 0]])
    assert exc.value.witness == (1, 1, 2) and str(exc.value) == "(1+1)+2 != 1+(1+2)"
    m8 = catalog.MONOID_TABLES["M8"]
    with pytest.raises(MulNotMonoid, match=r"^multiplication not associative at \(2,3,3\)$"):
        validate_semiring(m8, [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 0], [0, 3, 0, 1]])
    with pytest.raises(NotDistributive) as exc:
        validate_semiring(m8, [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 2], [0, 3, 3, 3]])
    assert exc.value.witness == (2, 1, 1, "left")
    with pytest.raises(NotDistributive) as exc:
        validate_semiring(m8, [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 0], [0, 3, 0, 0]])
    assert exc.value.witness == (1, 1, 2, "right")


@pytest.mark.parametrize("read", [validate_monoid], ids=["validate_monoid"])
@pytest.mark.parametrize("entry", [1.5, "1", None, True, False])
def test_non_integer_entries_are_malformed(read, entry):
    with pytest.raises(MalformedTable):
        read([[0, entry], [1, 0]])


def test_dual_lattice_join_is_original_meet():
    join = catalog.monoid("M11")  # the diamond: bottom 0, atoms 1 and 2, top 3
    # reversing the order swaps bottom and top and fixes the atoms
    reversed_join = relabel(join.rows, (3, 1, 2, 0))
    assert reversed_join == lattice_duality_function(join).r.rows


def test_are_isomorphic_identity():
    m2 = catalog.monoid("M2")
    assert are_isomorphic(m2, m2) == (0, 1)


def test_m3_and_m4_are_not_isomorphic():
    assert are_isomorphic(catalog.monoid("M3"), catalog.monoid("M4")) is None


def test_m11_is_square_of_m1():
    square = product_monoid(catalog.monoid("M1"), 2)
    assert are_isomorphic(square, catalog.monoid("M11")) is not None


def test_isomorphism_is_equivalence_on_catalog_samples():
    from monodual.homdual import is_homomorphism
    from monodual.enumeration import enumerate_commutative_monoids

    reps = [Monoid(t, 0) for t in enumerate_commutative_monoids(3).representatives]
    cats = [catalog.monoid(lab) for lab in ("M3", "M4", "M5", "M6", "M7")]
    for ma in reps:
        assert are_isomorphic(ma, ma) == tuple(range(ma.order))  # reflexive, lex-smallest
    for ma in reps + cats:
        for mb in reps + cats:
            p = are_isomorphic(ma, mb)
            q = are_isomorphic(mb, ma)
            assert (p is None) == (q is None)  # symmetric
            if p is not None:
                inv = [0] * len(p)
                for i, v in enumerate(p):
                    inv[v] = i
                assert is_homomorphism(mb, ma, inv)  # witness invertible
                for mc in cats:  # transitive on triples
                    r = are_isomorphic(mb, mc)
                    if r is not None:
                        assert are_isomorphic(ma, mc) is not None


def test_iter_isomorphisms_is_a_filter_over_all_permutations():
    """Every equal-order pair of catalog monoids, with b also reversed (x -> n-1-x)
    so that isomorphic pairs differ as tables and the neutral moves."""
    monoids = [catalog.monoid(lab) for lab in catalog.M_LABELS + catalog.N_LABELS]
    pairs = 0
    for a in monoids:
        for m in monoids:
            n = a.order
            if m.order != n:
                continue
            rev = tuple(reversed(range(n)))
            for b in (m, Monoid(CayleyTable(relabel(m.rows, rev)), rev[m.neutral])):
                ra, rb = a.rows, b.rows
                want = [
                    p for p in permutations(range(n))
                    if p[a.neutral] == b.neutral
                    and all(p[ra[x][y]] == rb[p[x]][p[y]] for x in range(n) for y in range(n))
                ]
                assert list(iter_isomorphisms(a, b)) == want
                pairs += bool(want)
    assert pairs == 2 * len(monoids)  # only a class with itself: the catalog lists each once


def test_automorphism_counts():
    assert len(automorphisms(catalog.monoid("M25"))) == 6
    assert len(automorphisms(catalog.monoid("M15"))) == 1
    assert len(automorphisms(catalog.monoid("M7"))) == 2


def test_one_generates_addition():
    f2 = validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 0], [0, 1]])
    assert one_generates_addition(f2)
    f4 = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    assert not one_generates_addition(f4)
    m23 = catalog.semiring("M23", "M11")
    assert not one_generates_addition(m23)


def test_one_generated_implies_commutative_multiplication():
    from monodual.enumeration import enumerate_semiring_multiplications

    for lab in catalog.M_LABELS:
        add = catalog.monoid(lab)
        for cls in enumerate_semiring_multiplications(add):
            if one_generates_addition(cls.semiring):
                assert cls.semiring.mul_monoid().is_commutative(), lab
