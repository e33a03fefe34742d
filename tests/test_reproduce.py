import dataclasses

import pytest

from monodual import catalog
from monodual.reproduce import check_pathwise, check_semiring_census, reproduce_all
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


def test_a_run_enumerates_each_order_and_reduces_the_census_once(monkeypatch):
    from monodual import reproduce

    calls = {"enumerate": [], "census": 0, "reduce": 0}
    enumerate_, census, reduce_ = (reproduce.enumerate_commutative_monoids, reproduce.find_all_duality_quadruples,
                                   reproduce.reduce_duality_quadruples)

    def counted_enumerate(order):
        calls["enumerate"].append(order)
        return enumerate_(order)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(reproduce, "enumerate_commutative_monoids", counted_enumerate)
    monkeypatch.setattr(reproduce, "find_all_duality_quadruples", counted("census", census))
    monkeypatch.setattr(reproduce, "reduce_duality_quadruples", counted("reduce", reduce_))
    assert small_manifest().passed
    assert sorted(calls["enumerate"]) == [1, 2, 3, 4, 5]
    assert calls["census"] == calls["reduce"] == 1


def test_corrupting_one_catalog_entry_fails_exactly_its_checks(monkeypatch):
    # each label gets a copy of another table of its order: still a valid
    # monoid, wrong class.  M11, the diamond's join monoid, gets M10's, which
    # differs only at 1 + 1, and then M15's, which comes after it in the
    # catalog; a check that looked the copied class up by its first catalog
    # label would then find M11 and fail without depending on it
    for label, copied in (("M6", "M4"), ("M11", "M10"), ("M11", "M15")):
        with monkeypatch.context() as patch:
            fake = dataclasses.replace(
                catalog.ENTRIES[label], table=CayleyTable(catalog.MONOID_TABLES[copied])
            )
            patch.setitem(catalog.__dict__, "ENTRIES", {**catalog.ENTRIES, label: fake})
            patch.setitem(
                catalog.__dict__, "MONOID_TABLES", {**catalog.MONOID_TABLES, label: catalog.MONOID_TABLES[copied]}
            )

            manifest = reproduce_all(pathwise_seeds=2, replicates=500)
        failing = {c.name for c in manifest.checks if not c.passed}
        dependent = {c.name for c in manifest.checks if label in c.depends}
        assert failing == dependent, label
        assert failing, label  # the corruption is actually detected


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
