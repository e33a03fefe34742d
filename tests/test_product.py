import random
import re
import tracemalloc
from functools import reduce
from itertools import chain, product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monodual import catalog
from monodual.algebra import Monoid, validate_monoid, validate_semiring
from monodual.enumeration import enumerate_commutative_monoids
from monodual.homdual import (
    Condition1Fail,
    Condition2Fail,
    DualityError,
    DualityFunction,
    hom_set,
    named_duality,
    verify_duality,
)
from monodual.ips import (
    DualityViolation,
    RateModel,
    check_pathwise_duality,
    dual_model,
)
from monodual import product
from monodual.product import (
    LiftedDuality,
    NoDual,
    SiteMap,
    SiteSpace,
    SizeBudgetExceeded,
    _blocks,
    _module_maps,
    _sitewise_sums,
    dual_map,
    dual_maps,
    global_hom_set_matrix_check,
    lattice_duality_function,
    lift_duality,
    module_maps,
    pair_budget,
    product_monoid,
    product_monoid_many,
    semiring_inner_duality,
    verify_module_duality,
)
from monodual.homdual import match_named_duality
from monodual.reproduce import _brute_force_dual
from monodual.tables import CayleyTable, relabel
from oracles import product_monoid_reference


def hom_values(label):
    m = catalog.monoid(label)
    return [h.values for h in hom_set(m, m).base]


def test_product_monoid_catalog_classes():
    m1, m2 = catalog.monoid("M1"), catalog.monoid("M2")
    assert catalog.catalog_lookup(product_monoid(m1, 2))[0].label == "M11"
    assert catalog.catalog_lookup(product_monoid(m2, 2))[0].label == "M25"
    assert catalog.catalog_lookup(product_monoid_many([m1, m2]))[0].label == "M23"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_monoid_many_equals_the_cell_by_cell_product(data):
    factors = []
    for label in data.draw(st.lists(st.sampled_from(catalog.M_LABELS), max_size=3)):
        m = catalog.monoid(label)
        perm = data.draw(st.permutations(range(m.order)))  # moves the neutral element off 0
        factors.append(Monoid(CayleyTable(relabel(m.rows, perm)), perm[m.neutral]))
    assert product_monoid_many(factors) == product_monoid_reference(factors)


def test_product_monoid_budget():
    with pytest.raises(SizeBudgetExceeded):
        product_monoid(catalog.monoid("M7"), 10)


def test_pair_budget_honours_environment(monkeypatch):
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "10")
    with pytest.raises(SizeBudgetExceeded):
        product_monoid(catalog.monoid("M7"), 2)
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "1000000")
    product_monoid(catalog.monoid("M7"), 2)


def test_adjoint_of_product_factorises():
    # tuples of local homomorphisms exhaust the global homomorphism set
    small = [catalog.monoid(lab) for lab in ("M1", "M2", "M4", "M6")]
    t_choices = [catalog.monoid(lab) for lab in ("M1", "M5")]
    for s1 in small:
        for s2 in small:
            for t in t_choices:
                prod = product_monoid_many([s1, s2])
                global_homs = {h.values for h in hom_set(prod, t).base}
                h1 = [h.values for h in hom_set(s1, t).base]
                h2 = [h.values for h in hom_set(s2, t).base]
                built = set()
                for f1 in h1:
                    for f2 in h2:
                        vals = tuple(
                            t.add(f1[a], f2[b])
                            for a, b in iproduct(range(s1.order), range(s2.order))
                        )
                        built.add(vals)
                assert built == global_homs
                assert len(built) == len(h1) * len(h2)  # the pairing is one-to-one


def test_site_map_validation():
    space = SiteSpace(catalog.monoid("M6"), 2)
    good = hom_values("M6")
    SiteMap.from_matrix(space, [[good[1], good[0]], [good[2], good[1]]])
    with pytest.raises(ValueError):
        SiteMap.from_matrix(space, [[(1, 1, 1), good[0]], [good[0], good[1]]])
    with pytest.raises(ValueError):
        SiteMap.from_matrix(space, [[good[0]]])


def test_matrix_check_identity_and_swap():
    space = SiteSpace(catalog.monoid("M6"), 2)
    ident = tuple(range(3))
    zero = (0, 0, 0)
    got = global_hom_set_matrix_check(space, lambda c: c)
    assert got is not None and got.matrix == ((ident, zero), (zero, ident))
    got = global_hom_set_matrix_check(space, lambda c: (c[1], c[0]))
    assert got is not None and got.matrix == ((zero, ident), (ident, zero))


def test_matrix_check_rejects_non_homomorphisms():
    space = SiteSpace(catalog.monoid("M6"), 2)
    assert global_hom_set_matrix_check(space, lambda c: (1, 1)) is None
    # additive on single sites but not globally: a max-like interaction
    bad = lambda c: (min(c[0] + c[1], 2), c[1])
    assert global_hom_set_matrix_check(space, bad) is None


def test_matrix_check_round_trip():
    space = SiteSpace(catalog.monoid("M5"), 3)
    homs = hom_values("M5")
    m = SiteMap.from_matrix(
        space, [[homs[(i * 2 + j) % len(homs)] for j in range(3)] for i in range(3)]
    )
    got = global_hom_set_matrix_check(space, m.apply)
    assert got is not None and got.matrix == m.matrix


def test_lift_psi1_is_support_intersection():
    psi = named_duality("psi1")
    lifted = lift_duality(psi, 3)
    for xs in lifted.s_space.configs():
        for ys in lifted.r_space.configs():
            want = max(x * y for x, y in zip(xs, ys))
            assert lifted.evaluate(xs, ys) == want


def test_lift_psi2_is_mod2_inner_product():
    psi = named_duality("psi2")
    lifted = lift_duality(psi, 3)
    for xs in lifted.s_space.configs():
        for ys in lifted.r_space.configs():
            want = sum(x * y for x, y in zip(xs, ys)) % 2
            assert lifted.evaluate(xs, ys) == want


def test_lift_psi5_is_a_real_product():
    emb = catalog.REAL_EMBEDDINGS["M5"]
    psi = named_duality("psi5").transposed()
    lifted = lift_duality(psi, 3, real_embedding=emb)
    local = [[emb[v] for v in row] for row in psi.values]
    for xs in lifted.s_space.configs():
        for ys in lifted.r_space.configs():
            want = 1.0
            for x, y in zip(xs, ys):
                want *= local[x][y]
            assert lifted.evaluate_embedded(xs, ys) == want


def test_lift_rejects_non_duality():
    m1 = catalog.monoid("M1")
    bogus = DualityFunction(m1, m1, m1, ((0, 0), (0, 0)))
    with pytest.raises(DualityError):
        lift_duality(bogus, 2)


def test_lift_verifies_the_local_table_beyond_the_product_level_recheck():
    # at k = 4 no product-level re-check runs, so only the local verification sees the coinciding rows
    m1 = catalog.monoid("M1")
    with pytest.raises(Condition1Fail):
        lift_duality(DualityFunction(m1, m1, m1, ((0, 0), (0, 0))), 4)


@pytest.mark.parametrize("shape", [(5, 3, 4), (3, 1, 20), (2, 6, 5), (1, 2, 17), (4, 9, 9), (1, 1, 1)])
@pytest.mark.parametrize("block", [1, 7, 16, 1000])
def test_blocks_cover_every_pair_once_in_row_major_order(monkeypatch, shape, block):
    monkeypatch.setattr(product, "PAIR_BLOCK", block)
    seen = []
    for rows, lines, cols in _blocks(shape):
        cells = [(r, x, c) for r in range(*rows.indices(shape[0]))
                 for x in range(*lines.indices(shape[1])) for c in range(*cols.indices(shape[2]))]
        assert 0 < len(cells) <= block
        seen += cells
    assert seen == list(np.ndindex(*shape))


def test_dual_map_of_identity_is_identity():
    lifted = lift_duality(named_duality("psi5").transposed(), 2)
    ident = SiteMap.identity(lifted.s_space)
    mhat = dual_map(lifted, ident)
    assert mhat.matrix == SiteMap.identity(lifted.r_space).matrix


def test_dual_of_spread_map_under_psi1_is_spread():
    lifted = lift_duality(named_duality("psi1"), 2)
    ident = (0, 1)
    m = SiteMap.from_matrix(lifted.s_space, [[ident, ident], [ident, ident]])
    mhat = dual_map(lifted, m)
    assert mhat.matrix == m.matrix
    # brute force over every function on the dual side confirms uniqueness
    rsp = lifted.r_space
    cfgs = list(rsp.configs())
    satisfying = []
    for images in iproduct(range(len(cfgs)), repeat=len(cfgs)):
        cand = {cfgs[i]: cfgs[images[i]] for i in range(len(cfgs))}
        if all(
            lifted.evaluate(m.apply(xs), ys) == lifted.evaluate(xs, cand[ys])
            for xs in lifted.s_space.configs()
            for ys in cfgs
        ):
            satisfying.append(cand)
    assert len(satisfying) == 1
    assert all(satisfying[0][ys] == mhat.apply(ys) for ys in cfgs)


def test_dual_map_entries_live_in_the_dual_hom_set():
    lifted = lift_duality(named_duality("psi5").transposed(), 2)
    homs6 = hom_values("M6")
    homs5 = set(hom_values("M5"))
    for entries in iproduct(homs6, repeat=4):
        m = SiteMap.from_matrix(lifted.s_space, [[entries[0], entries[1]], [entries[2], entries[3]]])
        mhat = dual_map(lifted, m)
        for row in mhat.matrix:
            for e in row:
                assert e in homs5


def test_dual_maps_for_dualities_between_different_monoids():
    # carriers differ on the two sides; dual_map re-checks the defining
    # identity on every configuration pair internally
    for name in ("psi13", "psi16", "psi18"):
        psi = named_duality(name)
        lifted = lift_duality(psi, 2)
        space = lifted.s_space
        homs = [h.values for h in hom_set(space.local, space.local).base]
        r_homs = {h.values for h in hom_set(lifted.r_space.local, lifted.r_space.local).base}
        for a in homs:
            for b in homs:
                m = SiteMap.from_matrix(space, [[a, b], [b, a]])
                mhat = dual_map(lifted, m)
                assert all(e in r_homs for row in mhat.matrix for e in row), name


def test_dual_map_sampled_verification_above_budget():
    # 3^7 x 3^7 configuration pairs exceed the default budget; the entries decide the identity all the same
    psi = named_duality("psi5").transposed()
    lifted = lift_duality(psi, 7)
    assert lifted.s_space.n_configs * lifted.r_space.n_configs > pair_budget()
    homs = hom_values("M6")
    m = SiteMap.from_matrix(
        lifted.s_space, [[homs[(i + j) % 3] for j in range(7)] for i in range(7)]
    )
    mhat = dual_map(lifted, m)
    rng = random.Random(7)
    for _ in range(300):
        xs, ys = (tuple(rng.randrange(3) for _ in range(7)) for _ in range(2))
        assert lifted.evaluate(m.apply(xs), ys) == lifted.evaluate(xs, mhat.apply(ys))
    xs, ys = (1, 2, 0, 1, 2, 0, 1), (0, 1, 2, 0, 1, 2, 0)
    assert lifted.evaluate(m.apply(xs), ys) == lifted.evaluate(xs, mhat.apply(ys))


def test_dual_of_dual_under_transpose_recovers_the_map():
    psi = named_duality("psi5").transposed()
    lifted = lift_duality(psi, 2)
    back = lift_duality(psi.transposed(), 2)
    homs6 = hom_values("M6")
    m = SiteMap.from_matrix(lifted.s_space, [[homs6[1], homs6[2]], [homs6[0], homs6[1]]])
    mhat = dual_map(lifted, m)
    mback = dual_map(back, mhat)
    assert mback.matrix == m.matrix


def test_non_homomorphism_admits_no_dual():
    lifted = lift_duality(named_duality("psi1"), 2)
    ssp, rsp = lifted.s_space, lifted.r_space
    cfgs = list(rsp.configs())
    bad = lambda xs: (1, 1)
    for images in iproduct(range(len(cfgs)), repeat=len(cfgs)):
        cand = {cfgs[i]: cfgs[images[i]] for i in range(len(cfgs))}
        assert not all(
            lifted.evaluate(bad(xs), ys) == lifted.evaluate(xs, cand[ys])
            for xs in ssp.configs()
            for ys in cfgs
        )


def test_semiring_inner_duality_f2():
    f2 = validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 0], [0, 1]])
    lifted = semiring_inner_duality(f2, 2)
    for xs in lifted.s_space.configs():
        for ys in lifted.r_space.configs():
            assert lifted.evaluate(xs, ys) == (xs[0] * ys[0] + xs[1] * ys[1]) % 2
    assert verify_module_duality(lifted, f2) is None


def test_verify_module_duality_raises_the_first_failed_condition():
    f2 = validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 0], [0, 1]])
    add = f2.add
    zero = LiftedDuality(DualityFunction(add, add, add, ((0, 0), (0, 0))), 2)
    with pytest.raises(Condition1Fail):
        verify_module_duality(zero, f2)
    # distinct rows, but the column (1, 0) sends 0 to 1: no module map
    swapped = LiftedDuality(DualityFunction(add, add, add, ((1, 0), (0, 1))), 1)
    with pytest.raises(Condition2Fail):
        verify_module_duality(swapped, f2)


def test_semiring_inner_duality_boolean():
    b = validate_semiring(catalog.MONOID_TABLES["M1"], [[0, 0], [0, 1]])
    lifted = semiring_inner_duality(b, 2)
    lifted_psi1 = lift_duality(named_duality("psi1"), 2)
    for xs in lifted.s_space.configs():
        for ys in lifted.r_space.configs():
            assert lifted.evaluate(xs, ys) == lifted_psi1.evaluate(xs, ys)


def test_semiring_inner_duality_verifies_f4_at_two_sites():
    f4 = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    lifted = semiring_inner_duality(f4, 2)
    assert verify_module_duality(lifted, f4) is None
    assert len(_module_maps(f4, 2, "left")) == 16


def test_semiring_inner_duality_honours_the_pair_budget(monkeypatch):
    f4 = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "256")  # the 16 x 16 Psi table at k=2
    semiring_inner_duality(f4, 2)
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "255")
    with pytest.raises(SizeBudgetExceeded):
        semiring_inner_duality(f4, 2)


def test_f4_inner_pairing_is_no_monoid_duality_and_nonlinear_maps_lack_duals():
    f4 = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    lifted = semiring_inner_duality(f4, 1)
    with pytest.raises(DualityError):
        verify_duality(lifted.local)
    linear = set(module_maps(f4, "left"))
    homs = hom_set(f4.add, f4.add)
    without = [h.values for h in homs.base if h.values not in linear]
    assert len(without) == 12
    for vals in without:
        assert lifted.local_dual(vals) is None
    for vals in linear:
        assert lifted.local_dual(vals) is not None
    m = SiteMap.diagonal(SiteSpace(f4.add, 1), without[0])
    with pytest.raises(NoDual):
        dual_map(lifted, m)


def test_one_generated_semirings_bridge_to_monoid_duality():
    from monodual.algebra import one_generates_addition
    from monodual.enumeration import enumerate_semiring_multiplications

    for lab in catalog.M_LABELS:
        add = catalog.monoid(lab)
        if add.order > 4:
            continue
        for cls in enumerate_semiring_multiplications(add):
            s = cls.semiring
            if not one_generates_addition(s) or s.order == 1:
                continue
            psi = DualityFunction(s.add, s.add, s.add, s.mul.rows)
            assert verify_duality(psi) is None, lab


def test_one_generated_module_maps_equal_homs_on_products():
    f2 = validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 0], [0, 1]])
    lifted = semiring_inner_duality(f2, 2)
    assert verify_module_duality(lifted, f2) is None
    # the left-module maps on the product coincide with the additive maps
    sp = lifted.s_space
    cfgs = list(sp.configs())
    add = f2.add.rows
    additive = []
    for images in iproduct(range(len(cfgs)), repeat=len(cfgs)):
        vals = [cfgs[i] for i in images]
        ok = True
        for i, a in enumerate(cfgs):
            for j, b in enumerate(cfgs):
                ab = tuple(add[x][y] for x, y in zip(a, b))
                got = vals[cfgs.index(ab)]
                want = tuple(add[x][y] for x, y in zip(vals[i], vals[j]))
                if got != want:
                    ok = False
                    break
            if not ok:
                break
        if ok and vals[cfgs.index((0, 0))] == (0, 0):
            additive.append(tuple(vals))
    linear = [
        v
        for v in additive
        if all(
            v[cfgs.index(tuple(f2.mul.rows[c][y] for y in cfgs[i]))]
            == tuple(f2.mul.rows[c][w] for w in v[i])
            for c in range(2)
            for i in range(len(cfgs))
        )
    ]
    assert set(linear) == set(additive)


def test_lattice_duality_functions_match_named_tables():
    for label, want in [("M1", "psi1"), ("M4", "psi4"), ("M11", "psi11"), ("M15", "psi15")]:
        psi = lattice_duality_function(catalog.monoid(label))
        assert match_named_duality(psi) == want


def test_lattice_duality_values_are_order_indicators():
    join = catalog.monoid("M11")  # the diamond: bottom 0, atoms 1 and 2, top 3
    psi = lattice_duality_function(join)
    for x in range(join.order):
        for y in range(join.order):
            assert psi.values[x][y] == (0 if join.add(x, y) == y else 1)
    # the columns' monoid is the meet, its neutral element the top
    assert psi.r.rows == ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))
    assert psi.r.add(1, 2) == 0 and psi.r.neutral == 3


def test_every_lattice_up_to_order_5_is_a_duality_into_m1_both_ways():
    counts = []
    for order in range(1, 6):
        lattices = [
            validate_monoid(table) for table in enumerate_commutative_monoids(order).representatives
            if all(table.rows[x][x] == x for x in range(order))
        ]
        counts.append(len(lattices))
        for join in lattices:
            psi = lattice_duality_function(join)
            assert psi.s == join and psi.t == catalog.monoid("M1")
            verify_duality(psi)
            verify_duality(psi.transposed())
    assert counts == [1, 1, 1, 2, 5]


def test_lattice_duality_refuses_a_monoid_that_is_no_lattice():
    band = validate_monoid(((0, 1, 2), (1, 1, 1), (2, 2, 2)))  # idempotent, 1 + 2 != 2 + 1
    for join in (catalog.monoid("M2"), band):
        with pytest.raises(ValueError, match="commutative with every element idempotent"):
            lattice_duality_function(join)


def test_psi_table_and_pair_kernel_match_scalar_evaluate_for_every_reduced_class():
    for name in sorted(catalog.PSI_TABLES):
        for k in (0, 1, 2, 3):
            lifted = lift_duality(named_duality(name), k)
            ssp, rsp = lifted.s_space, lifted.r_space
            want = [[lifted.evaluate(xs, ys) for ys in rsp.configs()] for xs in ssp.configs()]
            table = lifted.table()
            assert table.dtype == np.uint8 and table.tolist() == want, (name, k)
            xi, yi = np.indices(table.shape).reshape(2, -1)
            pairs = lifted.values_at(xi, yi)
            assert pairs.dtype == np.uint8 and pairs.reshape(table.shape).tolist() == want, (name, k)


def test_values_at_matches_scalar_evaluate_in_one_site_and_uneven_blocks(monkeypatch):
    # a budget of |S||R| fits 1-site blocks only; |S||R|^2 splits k = 3 into blocks of 2 and 1.
    # The kernel needs no duality, so a 2 x 3 table tells the S digits from the R digits.
    cases = {name: [lift_duality(named_duality(name), k) for k in range(4)] for name in catalog.PSI_TABLES}
    rectangular = DualityFunction(catalog.monoid("M1"), catalog.monoid("M6"), catalog.monoid("M6"),
                                  ((0, 1, 2), (2, 2, 1)))
    cases["2x3"] = [LiftedDuality(rectangular, k) for k in range(4)]
    for name, lifteds in cases.items():
        size = lifteds[0].local.s.order * lifteds[0].local.r.order
        for budget in (size, size * size):
            monkeypatch.setenv("MONODUAL_PAIR_BUDGET", str(budget))
            for lifted in lifteds:
                ssp, rsp = lifted.s_space, lifted.r_space
                want = [lifted.evaluate(xs, ys) for xs in ssp.configs() for ys in rsp.configs()]
                xi, yi = np.divmod(np.arange(ssp.n_configs * rsp.n_configs), rsp.n_configs)
                got = lifted.values_at(xi, yi)
                assert got.dtype == np.uint8 and got.tolist() == want, (name, lifted.sites, budget)
                assert (xi == np.arange(len(xi)) // rsp.n_configs).all()  # the inputs are left as they were


def test_values_at_broadcasts_one_index_against_many():
    lifted = lift_duality(named_duality("psi5").transposed(), 7)  # two blocks at the default budget
    xi = np.arange(lifted.s_space.n_configs)
    y = (2, 0, 1, 1, 0, 2, 1)
    got = lifted.values_at(xi, lifted.r_space.index_of(y))
    assert got.tolist() == [lifted.evaluate(lifted.s_space.config_of(i), y) for i in xi.tolist()]


def test_zero_sites_lift_to_the_one_point_duality():
    lifted = lift_duality(named_duality("psi5"), 0)  # re-verified on the one-point product
    assert dual_map(lifted, SiteMap.identity(lifted.s_space)).matrix == ()


def test_index_table_matches_scalar_apply_on_random_hom_matrices():
    rng = random.Random(7)
    for label in ("M2", "M5", "M6", "M11", "M25"):
        local = catalog.monoid(label)
        homs = hom_values(label)
        n = local.order
        for k in (1, 2, 3):
            space = SiteSpace(local, k)
            configs = list(space.configs())
            assert [space.index_of(c) for c in configs] == list(range(len(configs)))
            assert [space.config_of(i) for i in range(len(configs))] == configs
            for _ in range(5):
                m = SiteMap.from_matrix(space, [[rng.choice(homs) for _ in range(k)] for _ in range(k)])
                want = [sum(v * n ** (k - 1 - i) for i, v in enumerate(m.apply(c))) for c in configs]
                assert m.index_table().tolist() == want, (label, m.matrix)


def test_index_of_rejects_malformed_configurations():
    space = SiteSpace(catalog.monoid("M6"), 2)
    assert space.index_of((2, 1)) == 7 and space.config_of(7) == (2, 1)
    for bad in [(1,), (1, 2, 0), (1, 3), (-1, 0), (1.5, 0), (True, 0), ("1", 0), 5]:
        with pytest.raises(ValueError):
            space.index_of(bad)
    for bad in [-1, 9, 2 ** 70, 1.0, True, "7"]:
        with pytest.raises(ValueError):
            space.config_of(bad)


def test_site_spaces_refuse_sites_that_are_no_non_negative_integer():
    psi = named_duality("psi5").transposed()
    for bad in (-1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="sites must be a non-negative integer"):
            SiteSpace(catalog.monoid("M6"), bad)
        with pytest.raises(ValueError, match="sites must be a non-negative integer"):
            lift_duality(psi, bad)
    assert SiteSpace(catalog.monoid("M6"), np.int64(3)).n_configs == 27


def test_matrix_faults_name_the_first_position_in_row_major_order():
    space = SiteSpace(catalog.monoid("M6"), 3)
    good = hom_values("M6")
    matrix = [[good[1]] * 3 for _ in range(3)]
    matrix[1][2] = matrix[2][0] = (1, 1, 1)  # no homomorphism, seen twice
    matrix[2][1] = (0, 3, 0)  # out of range, later in row-major order
    with pytest.raises(ValueError, match=re.escape("matrix entry (1,2) is not a local homomorphism")):
        SiteMap.from_matrix(space, matrix)
    matrix[0][1] = (0, 3, 0)
    with pytest.raises(ValueError, match=re.escape("matrix entry (0,1) must list 3 values in 0..2")):
        SiteMap.from_matrix(space, matrix)
    # additive maps of F4 that are not linear have no dual under the inner pairing
    f4 = validate_semiring(catalog.MONOID_TABLES["M25"], catalog.MONOID_TABLES["F4-mult"])
    lifted = semiring_inner_duality(f4, 2)
    linear = set(module_maps(f4, "left"))
    without = [h.values for h in hom_set(f4.add, f4.add).base if h.values not in linear]
    ident = tuple(range(4))
    m = SiteMap.from_matrix(lifted.s_space, [[ident, without[0]], [without[1], without[0]]])
    with pytest.raises(NoDual, match=re.escape("matrix entry (0,1) admits no local dual")):
        dual_map(lifted, m)


def test_sampled_dual_map_check_rejects_a_corrupted_dual(monkeypatch):
    # 3^7 x 3^7 pairs exceed the budget, so only the single-site pairs can catch it
    lifted = lift_duality(named_duality("psi5").transposed(), 7)
    assert lifted.s_space.n_configs * lifted.r_space.n_configs > pair_budget()
    homs = hom_values("M6")
    true_dual = LiftedDuality.local_dual
    assert true_dual(lifted, homs[1]) != true_dual(lifted, homs[2])

    def corrupted(self, values):
        return true_dual(self, homs[2] if values == homs[1] else values)

    monkeypatch.setattr(LiftedDuality, "local_dual", corrupted)
    # At 39 sites psi5.T's Psi is its absorbing value 2 on all but about (7/9)^39 of uniform
    # pairs, whatever the dual; single-site pairs stay away from it.  The corner matrix has
    # homs[1] only at (0, k - 1), so only x non-neutral at site 0 and y at site k - 1 show it.
    for k in (7, 39):
        lifted = lift_duality(named_duality("psi5").transposed(), k)
        spread = [[homs[(i + j) % 3] for j in range(k)] for i in range(k)]
        corner = [[homs[1] if (i, j) == (0, k - 1) else homs[0] for j in range(k)] for i in range(k)]
        for matrix in (spread, corner):
            with pytest.raises(AssertionError, match="dual-map identity fails"):
                dual_map(lifted, SiteMap.from_matrix(lifted.s_space, matrix))
    # psi2 at 39 sites with the duals of the zero and identity maps swapped
    lifted = lift_duality(named_duality("psi2"), 39)
    zero, ident = (0, 0), (0, 1)
    m = SiteMap.from_matrix(lifted.s_space, [[(zero, ident)[(i * j + i) % 2] for j in range(39)]
                                             for i in range(39)])

    def swapped(self, values):
        return true_dual(self, ident if values == zero else zero)

    monkeypatch.setattr(LiftedDuality, "local_dual", swapped)
    with pytest.raises(AssertionError, match="dual-map identity fails"):
        dual_map(lifted, m)


def test_dual_map_beyond_the_budget_refuses_a_table_that_is_not_bi_additive(monkeypatch):
    # row and column 1 of psi send 1 to 1, but 1 + 1 is 1 in M1 and 2 in M6: no homomorphisms M1 -> M6
    two = catalog.monoid("M1")
    lifted = LiftedDuality(DualityFunction(two, two, catalog.monoid("M6"), ((0, 0), (0, 1))), 2)
    m = SiteMap.identity(lifted.s_space)
    # the unvalidated entry (0, 1, 1) is no homomorphism of M6, where 1 + 1 = 2, yet has a dual,
    # as rows 1 and 2 of psi agree
    six = catalog.monoid("M6")
    rows_agree = LiftedDuality(DualityFunction(six, two, two, ((0, 0), (0, 1), (0, 1))), 2)
    bad = SiteMap(rows_agree.s_space, (((0, 1, 1), (0, 0, 0)), ((0, 0, 0), (0, 1, 2))))
    assert rows_agree.local_dual((0, 1, 1)) == (0, 1)
    # refused within the budget (16 and 36 pairs) and beyond it alike
    for budget in (None, "15"):
        if budget is not None:
            monkeypatch.setenv("MONODUAL_PAIR_BUDGET", budget)
        with pytest.raises(ValueError, match="row 1 of psi is no homomorphism") as refused:
            dual_map(lifted, m)
        assert refused.type is ValueError
        with pytest.raises(ValueError, match=re.escape("matrix entry (0,0) is not a local homomorphism")) as refused:
            dual_map(rows_agree, bad)
        assert refused.type is ValueError


def test_apply_indices_matches_scalar_apply_on_both_routes(monkeypatch):
    space = SiteSpace(catalog.monoid("M6"), 4)
    homs = hom_values("M6")
    m = SiteMap.from_matrix(space, [[homs[(i * j) % 3] for j in range(4)] for i in range(4)])
    idx = np.random.default_rng(5).integers(space.n_configs, size=200)
    want = [space.index_of(m.apply(space.config_of(i))) for i in idx.tolist()]
    assert m.apply_indices(idx[:50]).tolist() == want[:50]
    assert m.apply_indices(idx).tolist() == want
    assert m.apply_indices(idx.reshape(10, 20)).tolist() == np.reshape(want, (10, 20)).tolist()
    assert "_index_table" not in m.__dict__  # only index_table() tabulates
    assert m.index_table()[idx].tolist() == want
    # 2^63 configurations of psi2's side: 22 indices take blocks of at most 4 sites, digits up to the top index
    space = lift_duality(named_duality("psi2"), 63).s_space
    assert space.local == catalog.monoid("M2")
    z2 = hom_values("M2")
    m = SiteMap.from_matrix(space, [[z2[(i * j + i) % 2] for j in range(63)] for i in range(63)])
    idx = np.array([0, 2 ** 63 - 1, *np.random.default_rng(6).integers(2 ** 63, size=20, dtype=np.int64)])
    want = [space.index_of(m.apply(space.config_of(i))) for i in idx.tolist()]
    assert m.apply_indices(idx).tolist() == want
    # a budget of |S| fits 1-site blocks only; |S|^2 splits k = 3 into blocks of 2 and 1
    for budget in (3, 9):
        monkeypatch.setenv("MONODUAL_PAIR_BUDGET", str(budget))
        for k in range(4):
            space = SiteSpace(catalog.monoid("M6"), k)
            m = SiteMap.from_matrix(space, [[homs[(i + 2 * j) % 3] for j in range(k)] for i in range(k)])
            every = np.arange(space.n_configs)
            want = [space.index_of(m.apply(c)) for c in space.configs()]
            assert m.apply_indices(every[:-1]).tolist() == want[:-1], (budget, k)
            assert m.index_table().tolist() == want, (budget, k)


def test_site_map_block_tables_follow_the_index_count(monkeypatch):
    import monodual.product as product

    shapes = []

    def spy(t, local):
        table = _sitewise_sums(t, local)
        shapes.append(table.shape)  # (1, output sites of the group, block cells)
        return table

    monkeypatch.setattr(product, "_sitewise_sums", spy)
    space = SiteSpace(catalog.monoid("M2"), 63)
    m = SiteMap.identity(space)
    idx = np.array([0, *(2 ** p for p in reversed(range(63)))])  # at most one non-neutral site
    assert m.apply_indices(idx).tolist() == idx.tolist()
    assert max(cells for _, _, cells in shapes) <= len(idx) == 64
    # 11 blocks of 5 or 6 sites; each group of output sites is one call per block, and all the
    # calls of a group hold at most max(4 x 64, PAIR_BLOCK) cells
    assert len(shapes) == 11 * 3 and [g for _, g, _ in shapes] == [26] * 22 + [11] * 11
    for lo in range(0, len(shapes), 11):
        assert sum(g * cells for _, g, cells in shapes[lo:lo + 11]) <= max(4 * 64, product.PAIR_BLOCK)
    # index_table() maps all |S|^k configurations, so each output site is one block
    shapes.clear()
    space = SiteSpace(catalog.monoid("M6"), 4)
    assert SiteMap.identity(space).index_table().tolist() == list(range(81))
    assert shapes == [(1, 4, 81)]
    # 2^16 images: a group holds four sites' tables, half the bytes of the int64 images
    shapes.clear()
    space = SiteSpace(catalog.monoid("M2"), 16)
    assert SiteMap.identity(space).index_table().tolist() == list(range(2 ** 16))
    assert shapes == [(1, 4, 2 ** 16)] * 4


def _site_by_site_sums(t, local) -> list:
    """The table of sum_i local[i][a_i][b_i] in T, one site at a time, over index tuples in configuration order."""
    sites, a, b = local.shape
    return [
        [reduce(t.add, (int(local[i, x[i], y[i]]) for i in range(sites)), t.neutral)
         for y in iproduct(range(b), repeat=sites)]
        for x in iproduct(range(a), repeat=sites)
    ]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sitewise_sums_equal_site_by_site_sums(data):
    t = catalog.monoid(data.draw(st.sampled_from(catalog.M_LABELS)))
    a, b, tables = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    sites = data.draw(st.integers(0, max(w for w in range(7) if (a * b) ** w <= 1024)))
    local = data.draw(arrays(np.uint8, (sites, a, tables, b), elements=st.integers(0, t.order - 1)))
    stacked = _sitewise_sums(t, local)
    assert stacked.dtype == np.uint8 and stacked.shape == (a ** sites, tables, b ** sites)
    for g in range(tables):
        want = _site_by_site_sums(t, local[:, :, g])
        table = _sitewise_sums(t, local[:, :, g])
        assert table.dtype == np.uint8 and table.tolist() == want
        assert stacked[:, g].tolist() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_indices_equals_scalar_apply(data):
    label = data.draw(st.sampled_from(catalog.M_LABELS))
    local, homs = catalog.monoid(label), hom_values(label)
    k = data.draw(st.integers(0, max(w for w in range(8) if local.order ** w <= 4096)))
    space = SiteSpace(local, k)
    m = SiteMap.from_matrix(space, [[data.draw(st.sampled_from(homs)) for _ in range(k)] for _ in range(k)])
    shape = data.draw(st.sampled_from([(), (data.draw(st.integers(1, 40)),),
                                       (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))]))
    idx = data.draw(arrays(np.int64, shape, elements=st.integers(0, space.n_configs - 1)))
    want = [space.index_of(m.apply(space.config_of(i))) for i in idx.ravel().tolist()]
    got = m.apply_indices(idx)
    assert np.shape(got) == shape and np.ravel(got).tolist() == want


def _cycle_map(label, k):
    homs = hom_values(label)
    return SiteMap.from_matrix(SiteSpace(catalog.monoid(label), k),
                               [[homs[(i + j) % len(homs)] for j in range(k)] for i in range(k)])


@pytest.mark.parametrize("build, bound_mb", [
    (lambda: lift_duality(named_duality("psi5").transposed(), 6).table, 0.70),
    (lambda: lift_duality(named_duality("psi2"), 9).table, 0.46),
    (lambda: _cycle_map("M2", 16).index_table, 1.71),
    (lambda: _cycle_map("M6", 10).index_table, 1.54),
], ids=["psi5.T-k6-table", "psi2-k9-table", "M2^16-index-table", "M6^10-index-table"])
def test_tables_peak_no_higher_than_the_site_by_site_build(build, bound_mb):
    # each bound is the traced peak of building the same table one site at a time
    tabulate = build()  # a fresh instance, nothing tabulated yet
    tracemalloc.start()
    try:
        tabulate()
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    assert peak_mb <= bound_mb


def test_a_space_past_int64_indices_is_refused():
    two, three = catalog.monoid("M1"), catalog.monoid("M6")
    space = SiteSpace(two, 63)  # 2^63 configurations: the largest index is 2^63 - 1
    top = (1,) * 63
    assert space.index_of(top) == 2 ** 63 - 1 and space.config_of(2 ** 63 - 1) == top
    assert SiteSpace(catalog.monoid("M0"), 10 ** 9).n_configs == 1
    for local, k, count in [(two, 64, "2^64"), (three, 40, "3^40"), (three, 10 ** 9, "3^1000000000")]:
        with pytest.raises(SizeBudgetExceeded, match=re.escape(f"{count} configurations")):
            SiteSpace(local, k)
    with pytest.raises(SizeBudgetExceeded, match=re.escape("3^40 configurations")):
        lift_duality(named_duality("psi5").transposed(), 40)


def test_sampled_pathwise_check_reports_a_real_witness():
    lifted = lift_duality(named_duality("psi5").transposed(), 3)
    homs = hom_values("M6")
    m = SiteMap.from_matrix(
        lifted.s_space, [[homs[(i + j) % 3] for j in range(3)] for i in range(3)]
    )
    model = RateModel.build(lifted.s_space, {"m": m}, {"m": 1.0})
    wrong = RateModel.build(lifted.r_space, {"m": SiteMap.identity(lifted.r_space)}, {"m": 1.0})
    assert wrong.entries != dual_model(model, lifted).entries
    with pytest.raises(DualityViolation) as info:
        check_pathwise_duality(model, lifted, (0.0, 5.0), seed=3, coverage="sampled",
                               n_samples=500, dual=wrong)
    exc = info.value
    s, u = exc.stream.window
    assert exc.stream.n_events > 0
    events = exc.stream.events_in(s, u)
    maps, duals = ({e.map_id: e.site_map for e in r.entries} for r in (model, wrong))
    fx, gy = exc.x, exc.y
    for map_id, _t in events:
        fx = maps[map_id].apply(fx)
    for map_id, _t in reversed(events):
        gy = duals[map_id].apply(gy)
    assert lifted.evaluate(fx, exc.y) != lifted.evaluate(exc.x, gy)


def _module_maps_by_filter(s, sites, side):
    """Oracle: filter all |S|^(|S|^k) functions S^k -> S for additivity and scalar commutation."""
    add, mul = s.add.rows, s.mul.rows
    sp = SiteSpace(s.add, sites)
    cfgs = list(sp.configs())
    idx = sp.index_of
    out = []
    for vals in iproduct(range(s.order), repeat=len(cfgs)):
        if vals[idx(sp.neutral_config())] != s.zero:
            continue
        if any(vals[idx(tuple(add[a][b] for a, b in zip(x, y)))] != add[vals[i]][vals[j]]
               for i, x in enumerate(cfgs) for j, y in enumerate(cfgs)):
            continue
        if side == "left":
            ok = all(vals[idx(tuple(mul[a][v] for v in x))] == mul[a][vals[i]]
                     for a in range(s.order) for i, x in enumerate(cfgs))
        else:
            ok = all(vals[idx(tuple(mul[v][a] for v in x))] == mul[vals[i]][a]
                     for a in range(s.order) for i, x in enumerate(cfgs))
        if ok:
            out.append(vals)
    return out


@pytest.mark.parametrize("add_label, mult_label, sites", [
    ("M2", "M1", 2),   # F2
    ("M1", "M1", 2),   # the Boolean semiring
    ("M25", "M18", 1),  # F4
    ("M7", "M5", 2),   # F3
    ("M15", "N1", 1),  # non-commutative multiplication: the two sides differ
])
def test_module_maps_match_a_filter_over_all_functions(add_label, mult_label, sites):
    s = catalog.semiring(add_label, mult_label)
    found = {side: _module_maps(s, sites, side) for side in ("left", "right")}
    for side, got in found.items():
        assert got == _module_maps_by_filter(s, sites, side), side
    if sites == 1:
        assert module_maps(s, "left") == found["left"]
        assert module_maps(s, "right") == found["right"]
    if mult_label == "N1":
        assert found["left"] != found["right"]


ORIENTED_TABLES = [(name, transposed) for name in sorted(catalog.PSI_TABLES) for transposed in (False, True)]


def _outcome(call):
    """What `call` returns, or the type and message of the NoDual or AssertionError it raises."""
    try:
        return call()
    except (NoDual, AssertionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dual_maps_equal_one_map_calls(data):
    name, transposed = data.draw(st.sampled_from(ORIENTED_TABLES))
    psi = named_duality(name).transposed() if transposed else named_duality(name)
    k = data.draw(st.integers(0, 3))
    lifted = lift_duality(psi, k)
    ssp, rsp = lifted.s_space, lifted.r_space
    homs = hom_set(psi.s, psi.s).values()
    entry = st.sampled_from(homs)
    matrices = data.draw(st.lists(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k),
                                  min_size=1, max_size=6))
    # local duals corrupted as in test_corrupted_dual_raises_violation (that of one entry replaced by
    # another's), or missing, so that one batch may hold maps that fail in either way
    swapped, missing = (data.draw(st.dictionaries(entry, entry, max_size=2)),
                        data.draw(st.sets(entry, max_size=1)))
    true_dual = LiftedDuality.local_dual

    def corrupted(self, values):
        return None if values in missing else true_dual(self, swapped.get(values, values))

    beyond = k > 0 and data.draw(st.booleans())  # a pair budget below |S^k| |R^k| changes nothing
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LiftedDuality, "local_dual", corrupted)
        if beyond:
            patch.setenv("MONODUAL_PAIR_BUDGET", str(ssp.n_configs * rsp.n_configs - 1))
        singles = [_outcome(lambda m=m: dual_map(lifted, SiteMap.from_matrix(ssp, m))) for m in matrices]
        maps = [SiteMap.from_matrix(ssp, m) for m in matrices]
        batch = _outcome(lambda: dual_maps(lifted, maps))
    failures = [single for single in singles if isinstance(single, tuple)]
    if failures:
        assert batch == failures[0]
        return
    assert [mhat.matrix for mhat in batch] == [mhat.matrix for mhat in singles]
    assert not any("_index_table" in f.__dict__ for f in maps + batch)  # dual_maps builds no index table
    brute_force_dual = _brute_force_dual(lifted)
    for m, mhat in zip(maps, batch):
        assert mhat.index_table().tolist() == brute_force_dual(m.index_table())
        assert mhat.index_table().tolist() == [rsp.index_of(mhat.apply(y)) for y in rsp.configs()]


def test_dual_maps_do_no_product_space_work(monkeypatch):
    psi = named_duality("psi5").transposed()
    homs = hom_values("M6")
    batches = []
    for k in (2, 7, 39):
        lifted = lift_duality(psi, k)  # at k = 2 its product-level re-check folds the Psi table
        batches.append((lifted, [SiteMap.from_matrix(lifted.s_space, [[homs[(i * j + c) % 3] for j in range(k)]
                                                                      for i in range(k)]) for c in range(3)]))
    calls = []
    for name in ("_sitewise_sums", "_map_images", "identity_holds"):
        monkeypatch.setattr(product, name, lambda *args, name=name: calls.append(name))
    for lifted, maps in batches:
        k = lifted.sites
        mhats = dual_maps(lifted, maps)
        assert [mhat.matrix for mhat in mhats] == [
            tuple(tuple(lifted.local_dual(m.matrix[i][j]) for i in range(k)) for j in range(k)) for m in maps
        ]
        assert not any("_index_table" in f.__dict__ for f in maps + mhats)
    assert calls == []


def _failing_pairs(lifted, m, mhat) -> set:
    """Every (x, y) with Psi(m(x), y) != Psi(x, mhat(y)): scalar apply and evaluate over all pairs."""
    images = {y: mhat.apply(y) for y in lifted.r_space.configs()}
    return {(x, y) for x in lifted.s_space.configs() for mx in [m.apply(x)] for y, my in images.items()
            if lifted.evaluate(mx, y) != lifted.evaluate(x, my)}


def _single_site(space, site, value) -> tuple:
    config = list(space.neutral_config())
    config[site] = value
    return tuple(config)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dual_maps_fail_exactly_when_a_pair_fails(data):
    name, transposed = data.draw(st.sampled_from(ORIENTED_TABLES))
    psi = named_duality(name).transposed() if transposed else named_duality(name)
    k = data.draw(st.integers(1, 3))
    lifted = lift_duality(psi, k)
    ssp, rsp = lifted.s_space, lifted.r_space
    entry = st.sampled_from(hom_set(psi.s, psi.s).values())
    matrices = data.draw(st.lists(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k),
                                  min_size=1, max_size=3))
    # local duals swapped (that of one entry replaced by another's), replaced by another homomorphism of R,
    # or missing
    swapped = data.draw(st.dictionaries(entry, entry, max_size=2))
    replaced = data.draw(st.dictionaries(entry, st.sampled_from(hom_set(psi.r, psi.r).values()), max_size=1))
    missing = data.draw(st.sets(entry, max_size=1))
    true_dual = LiftedDuality.local_dual

    def corrupted(self, values):
        if values in missing:
            return None
        return replaced.get(values) or true_dual(self, swapped.get(values, values))

    # the first failing single-site pair in the order (site of x, value of x, site of y, value of y)
    singles = [(_single_site(ssp, i, a), _single_site(rsp, j, b))
               for i in range(k) for a in range(psi.s.order) for j in range(k) for b in range(psi.r.order)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LiftedDuality, "local_dual", corrupted)
        for matrix in matrices:
            m = SiteMap.from_matrix(ssp, matrix)
            if missing & set(chain.from_iterable(matrix)):
                with pytest.raises(NoDual):
                    dual_maps(lifted, [m])
                continue
            mhat = SiteMap(rsp, tuple(tuple(corrupted(lifted, matrix[i][j]) for i in range(k)) for j in range(k)))
            failing = _failing_pairs(lifted, m, mhat)
            first = next((pair for pair in singles if pair in failing), None)
            assert (first is None) == (not failing)  # single-site pairs decide every pair
            try:
                got = dual_maps(lifted, [m])
            except AssertionError as exc:
                assert first is not None and str(exc) == f"dual-map identity fails at {first[0]}, {first[1]}"
            else:
                assert first is None and got[0].matrix == mhat.matrix
