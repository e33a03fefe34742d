import json
from itertools import permutations

import pytest

from monodual import catalog
from monodual.algebra import Monoid, are_isomorphic, iter_isomorphisms, validate_monoid, validate_semiring
from monodual.homdual import named_duality, verify_duality
from monodual.product import _check_real_embedding
from monodual.tables import CayleyTable, as_rows, relabel, transpose


def test_every_m_entry_is_a_commutative_monoid_with_neutral_zero():
    for lab in catalog.M_LABELS:
        m = validate_monoid(catalog.MONOID_TABLES[lab], require_commutative=True)
        assert m.neutral == 0, lab


def test_n_entries_are_noncommutative_monoids_with_absorbing_zero():
    for lab in catalog.N_LABELS:
        e = catalog.entry(lab)
        m = validate_monoid(e.table)
        assert not m.is_commutative()
        assert e.absorbing == 0


def test_f4_mult_entry():
    e = catalog.entry("F4-mult")
    m = validate_monoid(e.table)
    assert m.is_commutative() and e.absorbing == 0
    assert are_isomorphic(m, catalog.monoid("M18")) is not None


def test_absorbing_flags_follow_the_ordering_rule():
    # within each order: absorbing classes first, then almost-absorbing, then neither
    absorbing = {"M0", "M1", "M3", "M4", "M5"} | {f"M{i}" for i in range(8, 19)}
    for lab in catalog.M_LABELS:
        e = catalog.entry(lab)
        if lab in absorbing:
            assert e.absorbing == e.table.order - 1, lab
        else:
            assert e.absorbing is None, lab
    # almost-absorbing elements sit at n-1 except where the semiring unit
    # naming convention wins the conflict and pins them at 1
    assert catalog.entry("M2").almost_absorbing == 1
    assert catalog.entry("M6").almost_absorbing == 1
    assert catalog.entry("M19").almost_absorbing == 3
    assert catalog.entry("M20").almost_absorbing == 1
    assert catalog.entry("M21").almost_absorbing == 1
    for lab in ("M7", "M22", "M23", "M24", "M25", "M26"):
        e = catalog.entry(lab)
        assert e.absorbing is None and e.almost_absorbing is None, lab


def test_m_entries_pairwise_non_isomorphic():
    for order in (2, 3, 4):
        labs = [lab for lab in catalog.M_LABELS if len(catalog.MONOID_TABLES[lab]) == order]
        for i, a in enumerate(labs):
            for b in labs[i + 1:]:
                assert are_isomorphic(catalog.monoid(a), catalog.monoid(b)) is None, (a, b)
    assert are_isomorphic(catalog.monoid("N1"), catalog.monoid("N2")) is None
    # and neither is isomorphic to its own opposite
    for lab in catalog.N_LABELS:
        m = catalog.monoid(lab)
        assert are_isomorphic(m, m.opposite()) is None


def test_semiring_catalog_validates_with_stated_multiplicative_classes():
    for add_lab, mul, mult_lab in catalog.SEMIRING_TABLES:
        s = validate_semiring(catalog.MONOID_TABLES[add_lab], mul)
        hit = catalog.catalog_lookup(s.mul_monoid(), include_opposite=True)
        assert hit is not None and hit[0].label == mult_lab, (add_lab, mult_lab)


def test_semiring_lookup_helper():
    s = catalog.semiring("M25", "M18")
    assert s.one == 1 and s.order == 4
    with pytest.raises(KeyError):
        catalog.semiring("M25", "M14")


def test_all_named_duality_tables_verify():
    for name in catalog.PSI_TABLES:
        assert verify_duality(named_duality(name)) is None, name


def test_real_embeddings_are_multiplicative_and_injective():
    for lab, emb in catalog.REAL_EMBEDDINGS.items():
        _check_real_embedding(catalog.monoid(lab), emb)


def test_catalog_lookup_examples():
    # cyclic group of order 3
    c3 = validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert catalog.catalog_lookup(c3)[0].label == "M7"
    # max on a 3-chain and on a 4-chain
    m3max = validate_monoid([[max(i, j) for j in range(3)] for i in range(3)])
    assert catalog.catalog_lookup(m3max)[0].label == "M4"
    m4max = validate_monoid([[max(i, j) for j in range(4)] for i in range(4)])
    assert catalog.catalog_lookup(m4max)[0].label == "M15"
    # order-5 structures are outside the catalog
    c5 = validate_monoid([[(i + j) % 5 for j in range(5)] for i in range(5)])
    assert catalog.catalog_lookup(c5) is None


def test_catalog_lookup_witness_maps_onto_entry_table():
    c3 = validate_monoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    entry, perm = catalog.catalog_lookup(c3)
    rows = entry.table.rows
    for x in range(3):
        for y in range(3):
            assert perm[c3.add(x, y)] == rows[perm[x]][perm[y]]


def test_catalog_json_export_is_stable_and_complete():
    text = catalog.catalog_to_json()
    assert text == catalog.catalog_to_json()
    data = json.loads(text)
    assert [e["label"] for e in data] == list(catalog.M_LABELS + catalog.N_LABELS + ("F4-mult",))
    for e in data:
        assert len(as_rows(e["table"])) == e["order"]


def _lookup_by_label_scan(m, include_opposite=False):
    """Oracle: the first M/N label with an isomorphism, and its lex-first witness."""
    labels = [lab for lab in catalog.M_LABELS + catalog.N_LABELS
              if catalog.ENTRIES[lab].table.order == m.order]
    for cand in (m, m.opposite()) if include_opposite else (m,):
        for lab in labels:
            for p in iter_isomorphisms(cand, catalog.ENTRIES[lab].monoid()):
                return lab, p
    return None


def _relabelings(rows, neutral):
    """Every relabeling of a table, the neutral element moving with it."""
    for perm in permutations(range(len(rows))):
        yield Monoid(CayleyTable(relabel(rows, perm)), perm[neutral])


def test_catalog_lookup_matches_label_scan_under_every_relabeling():
    moved = 0
    for lab in catalog.M_LABELS + catalog.N_LABELS:
        e = catalog.ENTRIES[lab]
        for m in _relabelings(e.table.rows, e.neutral):
            moved += m.neutral != 0
            for include_opposite in (False, True):
                entry, perm = catalog.catalog_lookup(m, include_opposite)
                assert (entry.label, perm) == _lookup_by_label_scan(m, include_opposite)
                assert entry.label == lab
    assert moved > 0


def test_transposed_n_entries_are_found_only_with_include_opposite():
    for lab in catalog.N_LABELS:
        e = catalog.ENTRIES[lab]
        for m in _relabelings(transpose(e.table.rows), e.neutral):
            assert catalog.catalog_lookup(m) is None
            entry, perm = catalog.catalog_lookup(m, include_opposite=True)
            assert (entry.label, perm) == _lookup_by_label_scan(m, include_opposite=True)
            assert entry.label == lab
