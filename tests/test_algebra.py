import json

import pytest

from monodual import catalog
from monodual.algebra import (
    InvalidLattice,
    Lattice,
    Monoid,
    MulNotMonoid,
    NoNeutralElement,
    NotAssociative,
    NotCommutative,
    NotDistributive,
    ZeroNotAbsorbing,
    are_isomorphic,
    automorphisms,
    chain,
    diamond,
    dual_lattice,
    lattice_join_monoid,
    one_generates_addition,
    Semiring,
    validate_monoid,
    validate_semiring,
)
from monodual.product import product_monoid
from monodual.tables import CayleyTable, MalformedTable


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


def _table_json(entry):
    return json.dumps({"order": 2, "table": [[0, entry], [1, 0]]})


@pytest.mark.parametrize("read", [
    CayleyTable.from_json,
    lambda text: validate_monoid(json.loads(text)["table"]),
    lambda text: Semiring.from_json(json.dumps({"add": json.loads(_table_json(1)),
                                                "mul": json.loads(text)})),
], ids=["CayleyTable.from_json", "validate_monoid", "Semiring.from_json"])
@pytest.mark.parametrize("entry", [1.5, "1", None])
def test_non_integer_entries_are_malformed(read, entry):
    with pytest.raises(MalformedTable):
        read(_table_json(entry))


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


def test_lattice_validation():
    chain(4)
    diamond()
    with pytest.raises(InvalidLattice):
        # two incomparable maximal elements: no least upper bound
        Lattice.from_leq([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvalidLattice):
        Lattice.from_leq([[1, 1], [1, 1]])  # not antisymmetric


def test_lattice_join_monoids_match_catalog():
    for lat, want in [(chain(2), "M1"), (chain(3), "M4"), (chain(4), "M15"), (diamond(), "M11")]:
        hit = catalog.catalog_lookup(lattice_join_monoid(lat))
        assert hit is not None and hit[0].label == want


def test_dual_lattice_is_involution():
    for lat in [chain(2), chain(3), chain(4), diamond()]:
        rev, star = dual_lattice(lat)
        assert star == tuple(range(lat.order))
        back, _ = dual_lattice(rev)
        assert back == lat
        # order reversal swaps bottom and top
        assert rev.bottom == lat.top and rev.top == lat.bottom


def test_dual_lattice_join_is_original_meet():
    lat = diamond()
    rev, _ = dual_lattice(lat)
    assert rev.join_table() == lat.meet_table()
