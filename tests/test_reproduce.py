import dataclasses

import pytest

from monodual import catalog
from monodual.reproduce import ReproductionManifest, check_pathwise, check_semiring_census, reproduce_all
from monodual.tables import CayleyTable


def small_manifest():
    return reproduce_all(pathwise_seeds=3, replicates=2000)


def test_fresh_checkout_passes():
    manifest = small_manifest()
    assert manifest.passed
    names = [c.name for c in manifest.checks]
    assert "commutative-monoid-counts" in names
    assert "duality-census" in names
    assert "expectation-psi5" in names
    assert len(names) == len(set(names))


def test_manifest_json_round_trip():
    manifest = small_manifest()
    again = ReproductionManifest.from_json(manifest.to_json())
    assert again == manifest
    assert again.to_json() == manifest.to_json()


def test_corrupting_one_catalog_entry_fails_exactly_its_checks(monkeypatch):
    # swap the M6 table for a copy of M4: still a valid monoid, wrong class
    fake = dataclasses.replace(
        catalog.ENTRIES["M6"], table=CayleyTable(catalog.MONOID_TABLES["M4"])
    )
    patched = dict(catalog.ENTRIES)
    patched["M6"] = fake
    monkeypatch.setitem(catalog.__dict__, "ENTRIES", patched)
    tables = dict(catalog.MONOID_TABLES)
    tables["M6"] = catalog.MONOID_TABLES["M4"]
    monkeypatch.setitem(catalog.__dict__, "MONOID_TABLES", tables)

    manifest = reproduce_all(pathwise_seeds=2, replicates=500)
    failing = {c.name for c in manifest.checks if not c.passed}
    m6_dependent = {c.name for c in manifest.checks if "M6" in c.depends}
    assert failing == m6_dependent
    assert failing  # the corruption is actually detected


@pytest.mark.parametrize("i, j", [(4, 5), (3, 4), (30, 31), (42, 43)])
def test_swapping_a_semiring_table_fails_exactly_its_census(monkeypatch, i, j):
    """Entry i gets entry j's multiplication, a different class on the same additive
    monoid; the labels still agree, so only the table comparison can see it."""
    tables = list(catalog.SEMIRING_TABLES)
    (add, _, label), (other_add, mul, _) = tables[i], tables[j]
    assert add == other_add
    tables[i] = (add, mul, label)
    monkeypatch.setitem(catalog.__dict__, "SEMIRING_TABLES", tuple(tables))
    failing = [lab for lab in catalog.M_LABELS[1:] if not check_semiring_census(lab).passed]
    assert failing == [add]


def test_pathwise_check_needs_at_least_one_seed():
    for seeds in (0, -3):
        with pytest.raises(ValueError):
            check_pathwise("psi1", seeds=seeds)
