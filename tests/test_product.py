import random
from itertools import product as iproduct

import numpy as np
import pytest

from monodual import catalog
from monodual.algebra import validate_semiring
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
from monodual.product import (
    LiftedDuality,
    NoDual,
    SiteMap,
    SiteSpace,
    SizeBudgetExceeded,
    _module_maps,
    dual_map,
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
from monodual.algebra import chain, diamond
from monodual.homdual import match_named_duality


def hom_values(label):
    m = catalog.monoid(label)
    return [h.values for h in hom_set(m, m).base]


def test_product_monoid_catalog_classes():
    m1, m2 = catalog.monoid("M1"), catalog.monoid("M2")
    assert catalog.catalog_lookup(product_monoid(m1, 2))[0].label == "M11"
    assert catalog.catalog_lookup(product_monoid(m2, 2))[0].label == "M25"
    assert catalog.catalog_lookup(product_monoid_many([m1, m2]))[0].label == "M23"


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
    # 3^7 x 3^7 configuration pairs exceed the default budget, so the
    # identity check falls back to deterministic sampling
    psi = named_duality("psi5").transposed()
    lifted = lift_duality(psi, 7)
    homs = hom_values("M6")
    m = SiteMap.from_matrix(
        lifted.s_space, [[homs[(i + j) % 3] for j in range(7)] for i in range(7)]
    )
    mhat = dual_map(lifted, m, samples=2000)
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
    assert verify_module_duality(lifted) is None


def test_verify_module_duality_raises_the_first_failed_condition():
    f2 = validate_semiring(catalog.MONOID_TABLES["M2"], [[0, 0], [0, 1]])
    add = f2.add
    zero = LiftedDuality(DualityFunction(add, add, add, ((0, 0), (0, 0))), 2, module_source=f2)
    with pytest.raises(Condition1Fail):
        verify_module_duality(zero)
    # distinct rows, but the column (1, 0) sends 0 to 1: no module map
    swapped = LiftedDuality(DualityFunction(add, add, add, ((1, 0), (0, 1))), 1, module_source=f2)
    with pytest.raises(Condition2Fail):
        verify_module_duality(swapped)


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
    assert verify_module_duality(lifted) is None
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
    assert verify_module_duality(lifted) is None
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
    for lat, want in [(chain(2), "psi1"), (chain(3), "psi4"), (diamond(), "psi11"), (chain(4), "psi15")]:
        psi = lattice_duality_function(lat)
        assert psi.verified
        assert match_named_duality(psi) == want


def test_lattice_duality_values_are_order_indicators():
    lat = diamond()
    psi = lattice_duality_function(lat)
    for x in range(lat.order):
        for y in range(lat.order):
            assert psi.values[x][y] == (0 if lat.leq[x][y] else 1)


def test_psi_table_and_pair_kernel_match_scalar_evaluate_for_every_reduced_class():
    for name in sorted(catalog.PSI_TABLES):
        for k in (0, 1, 2, 3):
            lifted = lift_duality(named_duality(name), k)
            ssp, rsp = lifted.s_space, lifted.r_space
            want = [[lifted.evaluate(xs, ys) for ys in rsp.configs()] for xs in ssp.configs()]
            table = lifted.table()
            assert table.dtype == np.uint8 and table.tolist() == want, (name, k)
            xi, yi = np.indices(table.shape).reshape(2, -1)
            pairs = lifted.evaluate_pairs(ssp.config_array(xi), rsp.config_array(yi))
            assert pairs.reshape(table.shape).tolist() == want, (name, k)


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
            assert space.config_array().tolist() == [list(c) for c in configs]
            assert space.index_array(space.config_array()).tolist() == list(range(len(configs)))
            for _ in range(5):
                m = SiteMap.from_matrix(space, [[rng.choice(homs) for _ in range(k)] for _ in range(k)])
                want = [sum(v * n ** (k - 1 - i) for i, v in enumerate(m.apply(c))) for c in configs]
                assert m.index_table().tolist() == want, (label, m.matrix)


def test_index_of_rejects_malformed_configurations():
    space = SiteSpace(catalog.monoid("M6"), 2)
    assert space.index_of((2, 1)) == 7 and space.config_of(7) == (2, 1)
    for bad in [(1,), (1, 2, 0), (1, 3), (-1, 0)]:
        with pytest.raises(ValueError):
            space.index_of(bad)


def test_sampled_dual_map_check_needs_at_least_one_pair():
    lifted = lift_duality(named_duality("psi5").transposed(), 7)
    assert lifted.s_space.n_configs * lifted.r_space.n_configs > pair_budget()
    m = SiteMap.identity(lifted.s_space)
    for samples in (0, -3):
        with pytest.raises(ValueError):
            dual_map(lifted, m, samples=samples)


def test_sampled_dual_map_check_rejects_a_corrupted_dual(monkeypatch):
    # 3^7 x 3^7 pairs exceed the budget, so only the sampled branch can catch it
    lifted = lift_duality(named_duality("psi5").transposed(), 7)
    assert lifted.s_space.n_configs * lifted.r_space.n_configs > pair_budget()
    homs = hom_values("M6")
    m = SiteMap.from_matrix(
        lifted.s_space, [[homs[(i + j) % 3] for j in range(7)] for i in range(7)]
    )
    true_dual = LiftedDuality.local_dual
    assert true_dual(lifted, homs[1]) != true_dual(lifted, homs[2])

    def corrupted(self, values):
        return true_dual(self, homs[2] if values == homs[1] else values)

    monkeypatch.setattr(LiftedDuality, "local_dual", corrupted)
    with pytest.raises(AssertionError, match="dual-map identity fails"):
        dual_map(lifted, m, samples=2000)


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
