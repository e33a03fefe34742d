import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from monodual import catalog, ips, product
from monodual.homdual import hom_set, named_duality
from monodual.ips import (
    MC_BLOCK,
    DualityViolation,
    EventStream,
    RateModel,
    StateSpaceTooLarge,
    WindowViolation,
    _mark_lookup,
    _mc_endpoints,
    check_pathwise_duality,
    check_pathwise_seeds,
    dual_model,
    estimate_expectation_duality,
    exact_semigroup_expectation,
    flow_index_table,
    sample_event_stream,
)
from monodual.product import NoRealEmbedding, SiteMap, SizeBudgetExceeded, dual_map, lift_duality, pair_budget
from monodual.reproduce import _brute_force_dual, _lifted, _pathwise_case, _pathwise_model
from oracles import event_stream_reference


def hom_values(label):
    m = catalog.monoid(label)
    return [h.values for h in hom_set(m, m).base]


def psi1_model(sites=2, rates=(1.0,)):
    lifted = lift_duality(named_duality("psi1"), sites, real_embedding=catalog.REAL_EMBEDDINGS["M1"])
    space = lifted.s_space
    ident = (0, 1)
    spread = SiteMap.from_matrix(space, [[ident] * sites for _ in range(sites)])
    maps = {"spread": spread}
    model_rates = {"spread": rates[0]}
    if len(rates) > 1:
        maps["still"] = SiteMap.identity(space)
        model_rates["still"] = rates[1]
    return lifted, RateModel.build(space, maps, model_rates)


def psi5_model(sites=2, rate=0.8):
    lifted = lift_duality(
        named_duality("psi5").transposed(), sites, real_embedding=catalog.REAL_EMBEDDINGS["M5"]
    )
    space = lifted.s_space
    homs = hom_values("M6")
    matrix = [[homs[(i + j) % 3] for j in range(sites)] for i in range(sites)]
    m = SiteMap.from_matrix(space, matrix)
    return lifted, RateModel.build(space, {"m": m}, {"m": rate})


def test_zero_rates_give_empty_stream():
    _, model = psi1_model(rates=(0.0,))
    stream = sample_event_stream(model, (0.0, 50.0), seed=3)
    assert stream.events == ()


def test_stream_times_strictly_increasing_inside_window():
    _, model = psi1_model(rates=(2.0, 1.0))
    stream = sample_event_stream(model, (1.0, 9.0), seed=11)
    times = [t for _, t in stream.events]
    assert all(1.0 < t < 9.0 for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))


def test_stream_is_reproducible_and_seed_sensitive():
    _, model = psi1_model(rates=(1.0, 3.0))
    a = sample_event_stream(model, (0.0, 10.0), seed=42)
    b = sample_event_stream(model, (0.0, 10.0), seed=42)
    c = sample_event_stream(model, (0.0, 10.0), seed=43)
    assert a.events == b.events
    assert a.events != c.events


def test_event_count_matches_poisson_mean():
    # rate 1 on a window of length 10: the replicate mean must sit within
    # four standard errors of 10
    _, model = psi1_model(rates=(1.0,))
    reps = 10_000
    counts = [sample_event_stream(model, (0.0, 10.0), seed=(100, i)).n_events for i in range(reps)]
    mean = sum(counts) / reps
    assert abs(mean - 10.0) <= 4.0 * math.sqrt(10.0 / reps)


def test_mark_frequencies_match_rate_shares():
    _, model = psi1_model(rates=(1.0, 3.0))
    marks = []
    i = 0
    while len(marks) < 10_000:
        marks += [mid for mid, _ in sample_event_stream(model, (0.0, 50.0), seed=(200, i)).events]
        i += 1
    marks = marks[:10_000]
    share = marks.count("spread") / len(marks)
    se = math.sqrt(0.25 * 0.75 / len(marks))
    assert abs(share - 0.25) <= 4.0 * se


def flow(model, stream, x, s, u, convention="+"):
    """X[s,u](x) read off the composed index table."""
    table = flow_index_table(model, stream, s, u, convention)
    return model.space.config_of(table[model.space.index_of(x)])


def apply_events(model, events, x):
    """The scalar reference: SiteMap.apply along the events in the order given."""
    maps = {e.map_id: e.site_map for e in model.entries}
    for map_id, _t in events:
        x = maps[map_id].apply(x)
    return tuple(x)


def test_apply_flow_identity_on_empty_window():
    lifted, model = psi1_model()
    stream = sample_event_stream(model, (0.0, 5.0), seed=1)
    for conv in ("+", "-"):
        assert stream.events_in(2.0, 2.0, conv) == ()
        for xs in lifted.s_space.configs():
            assert flow(model, stream, xs, 2.0, 2.0, conv) == xs


def test_apply_flow_single_event():
    lifted, model = psi1_model()
    stream = EventStream(window=(0.0, 2.0), ids=("spread",), times=np.array([1.0]), marks=np.array([0]))
    for conv in ("+", "-"):
        assert flow(model, stream, (1, 0), 0.0, 2.0, conv) == (1, 1)


def test_apply_flow_window_violation():
    lifted, model = psi1_model()
    stream = sample_event_stream(model, (0.0, 5.0), seed=1)
    with pytest.raises(WindowViolation):
        stream.events_in(-1.0, 2.0)
    with pytest.raises(ValueError, match="convention"):
        stream.events_in(0.0, 2.0, "+-")


def test_boundary_conventions_differ_only_at_event_times():
    _, model = psi1_model()
    stream = EventStream(window=(0.0, 4.0), ids=("spread",), times=np.array([1.0, 3.0]), marks=np.array([0, 0]))
    x = (1, 0)
    # sub-window cut exactly at the first event time
    assert flow(model, stream, x, 0.0, 1.0, "+") == (1, 1)   # (0, 1] includes it
    assert flow(model, stream, x, 0.0, 1.0, "-") == x        # [0, 1) excludes it
    assert flow(model, stream, x, 1.0, 2.0, "+") == x
    assert flow(model, stream, x, 1.0, 2.0, "-") == (1, 1)
    # boundaries away from events: conventions coincide
    assert flow(model, stream, x, 0.5, 2.5, "+") == flow(model, stream, x, 0.5, 2.5, "-")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.floats(0.1, 4.9), st.floats(5.0, 9.9))
def test_cocycle_property(seed, t_mid, t_end):
    lifted, model = psi1_model(rates=(1.5, 0.5))
    space = lifted.s_space
    stream = sample_event_stream(model, (0.0, 10.0), seed=seed)
    for conv in ("+", "-"):
        first = stream.events_in(0.0, t_mid, conv)
        second = stream.events_in(t_mid, t_end, conv)
        whole = stream.events_in(0.0, t_end, conv)
        table = flow_index_table(model, stream, 0.0, t_end, conv)
        head = flow_index_table(model, stream, 0.0, t_mid, conv)
        tail = flow_index_table(model, stream, t_mid, t_end, conv)
        assert np.array_equal(tail[head], table)
        for i, xs in enumerate(space.configs()):
            two_step = apply_events(model, second, apply_events(model, first, xs))
            assert two_step == apply_events(model, whole, xs) == space.config_of(table[i])


def test_pathwise_duality_psi1_and_psi5():
    for builder in (psi1_model, psi5_model):
        lifted, model = builder(2)
        report = check_pathwise_duality(model, lifted, (0.0, 10.0), seed=21)
        assert report.passed and report.pairs_checked > 0


def tied_model():
    """Two maps that do not commute, on a window whose events fall on nine float times."""
    lifted = lift_duality(named_duality("psi5").transposed(), 2)
    space = lifted.s_space
    zero, ident, h = hom_values("M6")
    swap = SiteMap.from_matrix(space, [[zero, ident], [ident, zero]])
    squash = SiteMap.from_matrix(space, [[h, zero], [zero, ident]])
    assert not np.array_equal(swap.index_table()[squash.index_table()],
                              squash.index_table()[swap.index_table()])
    model = RateModel.build(space, {"squash": squash, "swap": swap}, {"squash": 0.3, "swap": 0.3})
    return lifted, model, (2.0 ** 53, 2.0 ** 53 + 16)


def test_pathwise_duality_reverses_tied_events(monkeypatch):
    # floats near 2**53 are 2 apart, so events on this window often tie; the
    # dual flow must undo tied maps in reverse order too, and a window end
    # that is an event time gives the "-" convention its own row
    lifted, model, window = tied_model()
    times = [t for _, t in sample_event_stream(model, window, seed=0).events]
    assert len(set(times)) < len(times)
    assert window[0] in times
    rows = []
    compose = ips._compose
    monkeypatch.setattr(ips, "_compose", lambda tables, marks: rows.append(len(marks)) or compose(tables, marks))
    reports = check_pathwise_seeds(model, lifted, window, range(20))
    assert [r.seed for r in reports] == list(range(20)) and all(r.passed for r in reports)
    assert 20 < rows[0] < 40


def test_pathwise_duality_sampled_coverage():
    lifted, model = psi5_model(2)
    report = check_pathwise_duality(
        model, lifted, (0.0, 10.0), seed=9, coverage="sampled", n_samples=2000
    )
    assert report.passed and report.pairs_checked == 4000


def corrupted_psi5_dual(model, lifted):
    """psi5_model's dual with one matrix entry swapped for another local homomorphism."""
    good = dual_model(model, lifted)
    homs5 = hom_values("M5")
    bad_entry = next(
        h for h in homs5 if h != good.entries[0].site_map.matrix[0][0]
    )
    matrix = [list(row) for row in good.entries[0].site_map.matrix]
    matrix[0][0] = bad_entry
    return RateModel.build(
        good.space,
        {"m": SiteMap.from_matrix(good.space, matrix)},
        {"m": model.entries[0].rate},
    )


def test_corrupted_dual_raises_violation():
    lifted, model = psi5_model(2)
    corrupted = corrupted_psi5_dual(model, lifted)
    # this particular corruption cancels out after two applications of the
    # map, so use a window and seed realising exactly one event
    assert sample_event_stream(model, (0.0, 1.0), seed=6).n_events == 1
    with pytest.raises(DualityViolation):
        check_pathwise_duality(model, lifted, (0.0, 1.0), seed=6, dual=corrupted)


def test_pathwise_reports_are_deterministic():
    lifted, model = psi5_model(2)
    a = check_pathwise_duality(model, lifted, (0.0, 5.0), seed=123)
    b = check_pathwise_duality(model, lifted, (0.0, 5.0), seed=123)
    assert a == b


def test_expectation_at_time_zero_is_exact():
    lifted, model = psi5_model(2)
    x, y = (1, 2), (0, 1)
    est = estimate_expectation_duality(model, lifted, x, y, 0.0, 50, seed=7)
    want = lifted.evaluate_embedded(x, y)
    assert est.lhs == want == est.rhs
    assert est.lhs_stderr == 0.0 == est.rhs_stderr


def test_expectation_with_zero_rates():
    lifted, model = psi1_model(rates=(0.0,))
    x, y = (1, 0), (1, 1)
    est = estimate_expectation_duality(model, lifted, x, y, 3.0, 50, seed=7)
    want = lifted.evaluate_embedded(x, y)
    assert est.lhs == want == est.rhs


def test_a_wrong_dual_without_spread_is_inconsistent_at_many_replicates():
    lifted, _ = psi5_model(2)
    ssp, rsp = lifted.s_space, lifted.r_space
    still = RateModel.build(ssp, {"i": SiteMap.identity(ssp)}, {"i": 1.0})
    # the dual of the identity is the identity, not the map onto the neutral configuration
    zero = (lifted.local.r.neutral,) * lifted.local.r.order
    wrong = RateModel.build(rsp, {"z": SiteMap.diagonal(rsp, zero)}, {"z": 1.0})
    x, y = (1, 2), (1, 0)
    est = estimate_expectation_duality(still, lifted, x, y, 30.0, 10_000, seed=5, dual=wrong)
    assert est.lhs == lifted.evaluate_embedded(x, y) == -1.0 and est.rhs == 1.0
    assert est.lhs_stderr == 0.0 == est.rhs_stderr
    assert not est.consistent


def test_expectation_requires_real_embedding():
    psi = named_duality("psi3")  # T = M3 admits no real embedding
    lifted = lift_duality(psi, 1)
    space = lifted.s_space
    model = RateModel.build(space, {"i": SiteMap.identity(space)}, {"i": 1.0})
    with pytest.raises(NoRealEmbedding):
        estimate_expectation_duality(model, lifted, (0,), (0,), 1.0, 10, seed=1)


def test_expectation_sides_agree_and_match_uniformisation():
    lifted, model = psi5_model(2)
    x, y, t = (1, 2), (1, 0), 1.0
    est = estimate_expectation_duality(model, lifted, x, y, t, 20_000, seed=77)
    assert est.consistent
    exact = exact_semigroup_expectation(model, lifted, x, y, t)
    assert abs(est.lhs - exact) <= 1e-9 + 4 * est.lhs_stderr
    dm = dual_model(model, lifted)
    exact_r = exact_semigroup_expectation(dm, lifted, x, y, t, evolving="r")
    assert abs(exact - exact_r) <= 2e-12
    assert abs(est.rhs - exact_r) <= 1e-9 + 4 * est.rhs_stderr


def test_uniformisation_time_zero_and_closed_form():
    lifted, _ = psi5_model(2)
    space = lifted.s_space
    homs = hom_values("M6")
    idem = homs[2]
    assert tuple(idem[idem[v]] for v in range(3)) == idem
    lam, t = 0.9, 0.7
    model = RateModel.build(space, {"i": SiteMap.diagonal(space, idem)}, {"i": lam})
    x, y = (1, 1), (1, 2)
    assert exact_semigroup_expectation(model, lifted, x, y, 0.0) == lifted.evaluate_embedded(x, y)
    got = exact_semigroup_expectation(model, lifted, x, y, t)
    p = math.exp(-lam * t)
    m = model.entries[0].site_map
    want = p * lifted.evaluate_embedded(x, y) + (1 - p) * lifted.evaluate_embedded(m.apply(x), y)
    assert abs(got - want) <= 1e-9


def test_uniformisation_state_space_cap():
    lifted, _ = psi5_model(9)
    space = lifted.s_space
    model = RateModel.build(space, {"i": SiteMap.identity(space)}, {"i": 1.0})
    with pytest.raises(StateSpaceTooLarge):
        exact_semigroup_expectation(model, lifted, (0,) * 9, (0,) * 9, 1.0)


def built_before_the_refusal(*args, **kwargs):
    raise AssertionError("built before the size refusal")


def test_pathwise_size_refusals_come_before_the_stream_and_the_dual(monkeypatch):
    sampler = ips._stream_sampler
    monkeypatch.setattr(ips, "_stream_sampler", built_before_the_refusal)
    monkeypatch.setattr(ips, "dual_model", built_before_the_refusal)
    checks = [
        lambda model, lifted, coverage: check_pathwise_duality(model, lifted, (0.0, 1.0), 1, coverage),
        lambda model, lifted, coverage: check_pathwise_seeds(model, lifted, (0.0, 1.0), [1, 2], coverage),
    ]
    # 3^7 x 3^7 pairs are too many to check all; 3^13 configurations are too many for one side
    for sites, coverage, match, admitted in [
        (7, "exhaustive", "configuration pairs", 3 ** 14), (13, "sampled", "one side", 3 ** 13),
    ]:
        lifted, model = psi5_model(sites)
        for check in checks:
            with pytest.raises(StateSpaceTooLarge, match=match):
                check(model, lifted, coverage)
            # a budget that admits the check reaches the stream, and then the dual
            with monkeypatch.context() as patch:
                patch.setenv("MONODUAL_PAIR_BUDGET", str(admitted))
                with pytest.raises(AssertionError, match="built before"):
                    check(model, lifted, coverage)
                patch.setattr(ips, "_stream_sampler", sampler)
                with pytest.raises(AssertionError, match="built before"):
                    check(model, lifted, coverage)


def test_expectation_refuses_a_side_past_the_pair_budget(monkeypatch):
    monkeypatch.setattr(ips, "dual_model", built_before_the_refusal)
    monkeypatch.setattr(ips, "_embedded_values", built_before_the_refusal)
    lifted = lift_duality(
        named_duality("psi5").transposed(), 13, real_embedding=catalog.REAL_EMBEDDINGS["M5"]
    )
    space = lifted.s_space
    model = RateModel.build(space, {"i": SiteMap.identity(space)}, {"i": 1.0})
    with pytest.raises(StateSpaceTooLarge, match="one side"):
        estimate_expectation_duality(model, lifted, (0,) * 13, (0,) * 13, 1.0, 10, seed=1)
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", str(3 ** 13))  # the bound admits a side of the budget
    with pytest.raises(AssertionError, match="built before"):
        estimate_expectation_duality(model, lifted, (0,) * 13, (0,) * 13, 1.0, 10, seed=1)


def test_mc_agrees_with_uniformisation_across_seeds():
    # four-standard-error agreement should hold for nearly every seed
    lifted, model = psi5_model(2)
    x, y, t = (1, 2), (1, 0), 1.0
    exact = exact_semigroup_expectation(model, lifted, x, y, t)
    hits = 0
    for seed in range(10):
        est = estimate_expectation_duality(model, lifted, x, y, t, 2000, seed=(300, seed))
        if abs(est.lhs - exact) <= 1e-9 + 4 * est.lhs_stderr:
            hits += 1
    assert hits >= 9


def test_mc_replicates_are_scheduling_independent():
    # the same (seed, side, replicate) namespace must give identical results
    lifted, model = psi5_model(2)
    x, y = (1, 2), (1, 0)
    a = estimate_expectation_duality(model, lifted, x, y, 1.0, 500, seed=5)
    b = estimate_expectation_duality(model, lifted, x, y, 1.0, 500, seed=5)
    assert a == b


@pytest.mark.parametrize("window", [
    (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0),
    # anything but two real numbers
    (0, 1, 2), (1,), None, 5, ("0", "1"), (False, True),
])
def test_non_finite_windows_are_rejected(window):
    lifted, model = psi1_model(rates=(1.0,))
    with pytest.raises(WindowViolation):
        sample_event_stream(model, window, seed=1)
    with pytest.raises(WindowViolation):
        EventStream(window=window, ids=(), times=np.empty(0), marks=np.empty(0, dtype=np.intp))
    with pytest.raises(WindowViolation):
        check_pathwise_duality(model, lifted, window, seed=1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_expectations_reject_a_non_finite_or_negative_time(t):
    lifted, model = psi5_model(2)
    x, y = (1, 2), (1, 0)
    with pytest.raises(ValueError):
        estimate_expectation_duality(model, lifted, x, y, t, 10, seed=7)
    with pytest.raises(ValueError):
        exact_semigroup_expectation(model, lifted, x, y, t)


@pytest.mark.parametrize("n", [0, -3, 2.5, True, "10"])
def test_sampled_pathwise_check_needs_at_least_one_pair(n):
    lifted, model = psi5_model(2)
    with pytest.raises(ValueError):
        check_pathwise_duality(model, lifted, (0.0, 1.0), seed=9, coverage="sampled", n_samples=n)


def test_sampled_pairs_per_row_are_bounded_by_the_pair_budget(monkeypatch):
    lifted, model = psi5_model(2)
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "100")
    assert check_pathwise_duality(model, lifted, (0.0, 1.0), seed=9, coverage="sampled", n_samples=100).passed
    monkeypatch.setattr(ips, "_stream_sampler", None)  # no stream may be drawn
    monkeypatch.setattr(ips, "dual_model", None)  # nor any dual built
    with pytest.raises(SizeBudgetExceeded):
        check_pathwise_duality(model, lifted, (0.0, 1.0), seed=9, coverage="sampled", n_samples=101)


def test_a_seed_of_none_is_refused_before_anything_is_drawn(monkeypatch):
    lifted, model = psi5_model(2)
    monkeypatch.setattr(np.random, "default_rng", None)  # nothing may be drawn
    with pytest.raises(ValueError, match="a seed is required"):
        sample_event_stream(model, (0.0, 1.0), None)
    monkeypatch.setattr(ips, "dual_model", None)  # nor any dual built
    with pytest.raises(ValueError, match="a seed is required"):
        check_pathwise_seeds(model, lifted, (0.0, 1.0), [1, None])
    with pytest.raises(ValueError, match="a seed is required"):
        estimate_expectation_duality(model, lifted, (1, 2), (1, 0), 1.0, 10, seed=None)
    # every other seed numpy does not take, booleans and negative parts too
    for seed in (1.5, "abc", b"x", bytearray(b"x"), (1.5,), (None, 1), True, (True, 1), -1, (1, -2),
                 np.array(5), np.array([[1, 2]]), object()):
        for call in (
            lambda: sample_event_stream(model, (0.0, 1.0), seed),
            lambda: check_pathwise_seeds(model, lifted, (0.0, 1.0), [1, seed]),
            lambda: estimate_expectation_duality(model, lifted, (1, 2), (1, 0), 1.0, 10, seed=seed),
        ):
            with pytest.raises(ValueError, match="a seed must be a non-negative integer or a sequence of them"):
                call()
    # what numpy takes is still taken
    for seed in (0, 2 ** 70, np.uint64(3), (4, 5), [6], np.array([7, 8]), ()):
        assert ips._checked_seed(seed) is seed


def test_uniformisation_closed_form_at_large_lambda_t():
    # lambda t = 1000: exp(-1000) underflows, so time is split into steps
    lifted, _ = psi5_model(2)
    space = lifted.s_space
    idem = hom_values("M6")[2]
    lam, t = 1000.0, 1.0
    model = RateModel.build(space, {"i": SiteMap.diagonal(space, idem)}, {"i": lam})
    m = model.entries[0].site_map
    x, y = (0, 1), (1, 1)
    assert lifted.evaluate_embedded(x, y) != lifted.evaluate_embedded(m.apply(x), y)
    p = math.exp(-lam * t)
    want = p * lifted.evaluate_embedded(x, y) + (1 - p) * lifted.evaluate_embedded(m.apply(x), y)
    got = exact_semigroup_expectation(model, lifted, x, y, t)
    assert abs(got - want) <= 1e-9


def _scalar_endpoints(model, x, t, replicates, seed, side):
    """The block kernel's draws replayed replicate by replicate through SiteMap.apply."""
    active = [e for e in model.entries if e.rate > 0.0]
    shares = np.cumsum([e.rate for e in active]) / model.total_rate
    ends = []
    for b, lo in enumerate(range(0, replicates, MC_BLOCK)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, side, b))))
        n = rng.poisson(model.total_rate * t, size=min(MC_BLOCK, replicates - lo))
        paths = [[] for _ in n]
        for j in range(int(n.max())):
            live = [i for i in range(len(n)) if n[i] > j]
            for i, u in zip(live, rng.random(len(live))):
                paths[i].append(next((e for e, c in zip(active, shares[:-1]) if u < c), active[-1]))
        for path in paths:
            cfg = tuple(x)
            for e in path:
                cfg = e.site_map.apply(cfg)
            ends.append(model.space.index_of(cfg))
    return ends


def mc_endpoints(*args):
    """Every replicate's endpoint: the blocks `_mc_endpoints` yields, concatenated."""
    return np.concatenate(list(_mc_endpoints(*args)))


def test_lockstep_walk_matches_scalar_replay():
    model = _pathwise_model(_lifted("psi5", 2))
    space = model.space
    maps = {e.map_id: e.site_map for e in model.entries}
    maps["idle"] = SiteMap.identity(space)  # a zero-rate map must never be drawn
    model = RateModel.build(space, maps, {"spread": 1.5, "cycle": 1.0, "idle": 0.0})
    x = (1, 2)
    replicates = 2 * MC_BLOCK + 17
    got = mc_endpoints(model, space.index_of(x), 1.2, replicates, 11, 0)
    assert got.tolist() == _scalar_endpoints(model, x, 1.2, replicates, 11, 0)


def test_partial_last_block_is_deterministic():
    lifted, model = psi5_model(2)
    x, y = (1, 2), (1, 0)
    replicates = 2 * MC_BLOCK + 17
    a = estimate_expectation_duality(model, lifted, x, y, 1.0, replicates, seed=5)
    b = estimate_expectation_duality(model, lifted, x, y, 1.0, replicates, seed=5)
    assert a == b
    # whole blocks do not depend on how many replicates follow them
    start = lifted.s_space.index_of(x)
    full = mc_endpoints(model, start, 1.0, replicates, 5, 0)
    assert (full[:MC_BLOCK] == mc_endpoints(model, start, 1.0, MC_BLOCK, 5, 0)).all()


def test_mc_side_from_counts_matches_the_stored_endpoints():
    lifted = _lifted("psi5", 3)
    model = _pathwise_model(lifted)
    x, y = (1, 1, 2), (1, 1, 0)
    values, start = ips._embedded_values(lifted, x, y, "s")
    replicates = 2 * MC_BLOCK + 17
    e = mc_endpoints(model, start, 1.0, replicates, 9, 0)
    assert e.size == replicates and np.unique(values[e]).size > 1
    mean, se = ips._mc_side(model, values, start, 1.0, replicates, 9, 0)
    assert abs(mean - values[e].mean()) <= 1e-12
    assert abs(se - values[e].std(ddof=1) / math.sqrt(replicates)) <= 1e-12


@pytest.mark.parametrize("replicates", [2.5, 1e3, True, "10", None])
def test_replicates_must_be_an_integer(replicates, monkeypatch):
    lifted, model = psi5_model(2)
    monkeypatch.setattr(ips, "_mc_endpoints", None)  # nothing may be drawn
    with pytest.raises(ValueError, match="replicates must be an integer"):
        estimate_expectation_duality(model, lifted, (1, 2), (1, 0), 1.0, replicates, seed=1)


def test_mc_on_a_multi_map_model_matches_uniformisation():
    # at this start pair, swapping the two maps' rates moves the exact value by 0.28
    lifted = _lifted("psi5", 3)
    model = _pathwise_model(lifted)
    x, y, t = (1, 1, 2), (1, 1, 0), 1.0
    est = estimate_expectation_duality(model, lifted, x, y, t, 20_000, seed=3141)
    exact = exact_semigroup_expectation(model, lifted, x, y, t)
    assert est.consistent
    assert abs(est.lhs - exact) <= 1e-9 + 4 * est.lhs_stderr
    assert abs(est.rhs - exact) <= 1e-9 + 4 * est.rhs_stderr


def test_mc_at_large_lambda_t_matches_certified_uniformisation():
    lifted, model = psi5_model(2, rate=1000.0)
    x, y, t = (1, 2), (1, 0), 1.0
    est = estimate_expectation_duality(model, lifted, x, y, t, 300, seed=41)
    exact = exact_semigroup_expectation(model, lifted, x, y, t)
    dm = dual_model(model, lifted)
    exact_r = exact_semigroup_expectation(dm, lifted, x, y, t, evolving="r")
    assert abs(exact - exact_r) <= 2e-12
    assert abs(est.lhs - exact) <= 1e-9 + 4 * est.lhs_stderr
    assert abs(est.rhs - exact_r) <= 1e-9 + 4 * est.rhs_stderr


def test_mark_lookup_stays_in_range_where_cumulative_shares_fall_short_of_one():
    _, model = psi1_model(2, rates=(2.2, 0.7))
    u = 1.0 - 2.0 ** -53
    # the shares sum to u, the largest float below one, so looking u up in their
    # plain cumsum gives an index past the last map
    shares = np.cumsum(np.array([2.2, 0.7]) / model.total_rate)
    assert np.searchsorted(shares, u, side="right") == 2
    active, lookup = _mark_lookup(model)
    assert [e.map_id for e in active] == ["spread", "still"]
    assert lookup(u) == 1 and lookup(0.0) == 0
    assert lookup(np.array([0.0, 0.5, u])).tolist() == [0, 0, 1]


def test_zero_rate_maps_are_never_drawn():
    _, model = psi1_model(2, rates=(1.0, 0.0))
    active, lookup = _mark_lookup(model)
    assert [e.map_id for e in active] == ["spread"]
    assert lookup(np.linspace(0.0, 1.0, 101, endpoint=False)).max() == 0
    stream = sample_event_stream(model, (0.0, 50.0), seed=9)
    assert stream.n_events > 0
    assert {mid for mid, _ in stream.events} == {"spread"}


def test_jump_bound_admits_the_budget_and_rejects_any_path_beyond_it(monkeypatch):
    lifted, model = psi5_model(2, rate=2.0)
    dual = dual_model(model, lifted)
    x, y = (1, 2), (1, 0)
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "20")
    # 2.0 * 10.0 expected jumps sit exactly at the budget, for one path and
    # for one Monte-Carlo replicate; a second replicate doubles the work, and
    # the exact expectation's 9 states take nine times the work
    assert sample_event_stream(model, (0.0, 10.0), seed=1).n_events > 0
    estimate_expectation_duality(model, lifted, x, y, 10.0, 1, seed=1, dual=dual)
    beyond = [
        lambda: exact_semigroup_expectation(model, lifted, x, y, 10.0),
        lambda: sample_event_stream(model, (0.0, 10.5), seed=1),
        lambda: check_pathwise_duality(model, lifted, (0.0, 10.5), seed=1, dual=dual),
        lambda: estimate_expectation_duality(model, lifted, x, y, 10.5, 1, seed=1, dual=dual),
        lambda: estimate_expectation_duality(model, lifted, x, y, 10.0, 2, seed=1, dual=dual),
        lambda: exact_semigroup_expectation(model, lifted, x, y, 10.5),
    ]
    for call in beyond:
        with pytest.raises(SizeBudgetExceeded, match="expected jumps"):
            call()


def test_zero_rates_need_no_jump_budget():
    lifted, model = psi1_model(rates=(0.0,))
    assert sample_event_stream(model, (-1e300, 1e300), seed=3).events == ()
    x = y = (1, 0)
    assert exact_semigroup_expectation(model, lifted, x, y, 1e300) == lifted.evaluate_embedded(x, y)


def test_a_total_rate_that_overflows_is_rejected():
    _, model = psi1_model(2, rates=(1.0, 1.0))
    maps = {e.map_id: e.site_map for e in model.entries}
    with pytest.raises(ValueError, match="total rate"):
        RateModel.build(model.space, maps, {"spread": 1e308, "still": 1e308})


def test_a_window_whose_length_overflows_is_rejected():
    lifted, model = psi1_model(rates=(0.0,))
    with pytest.raises(WindowViolation):
        sample_event_stream(model, (-1e308, 1e308), seed=1)


def stream_cases():
    """(model, window, seeds) of every stream these tests and `monodual reproduce` check."""
    cases = []
    for name in ("psi1", "psi2", "psi5"):
        model, _, window, seeds = _pathwise_case(name, 100)
        cases.append((model, window, seeds))
    _, model, window = tied_model()
    cases.append((model, window, range(20)))
    _, model = psi5_model(2)
    cases += [(model, (0.0, 1.0), range(31)), (model, (0.0, 10.0), [9, 21]), (model, (0.0, 5.0), [123])]
    _, model = psi1_model(2)
    cases.append((model, (0.0, 10.0), [21]))
    return cases


def test_stream_arrays_match_the_reference_stream():
    for model, window, seeds in stream_cases():
        ids, sample = ips._stream_sampler(model, window)
        for seed in seeds:
            want = event_stream_reference(model, window, seed)
            stream = sample(seed)
            assert stream.ids == ids and stream.seed == seed
            assert list(zip([ids[m] for m in stream.marks], stream.times.tolist())) == list(want), seed
            assert sample_event_stream(model, window, seed).events == want, seed


@pytest.mark.parametrize("name", ["psi1", "psi2", "psi5"])
def test_batch_reports_equal_one_seed_reports(name):
    model, lifted, window, seeds = _pathwise_case(name, 100)
    dual = dual_model(model, lifted)
    reports = check_pathwise_seeds(model, lifted, window, seeds, dual=dual)
    assert reports == tuple(check_pathwise_duality(model, lifted, window, seed, dual=dual) for seed in seeds)
    assert [r.seed for r in reports] == seeds


def first_violation(check):
    """The pair, seed and events of the DualityViolation `check` raises; streams compare by identity."""
    with pytest.raises(DualityViolation) as exc:
        check()
    return exc.value.x, exc.value.y, exc.value.stream.seed, exc.value.stream.events


def failing_seeds(model, lifted, window, seeds, dual):
    """The seeds whose one-seed check raises DualityViolation."""
    failing = []
    for seed in seeds:
        try:
            check_pathwise_duality(model, lifted, window, seed, dual=dual)
        except DualityViolation:
            failing.append(seed)
    return failing


def test_a_violation_at_a_later_seed_is_the_one_seed_violation():
    lifted, model = psi5_model(2)
    corrupted = corrupted_psi5_dual(model, lifted)
    window, seeds = (0.0, 1.0), list(range(1, 31))
    failing = failing_seeds(model, lifted, window, seeds, corrupted)
    assert failing and failing[0] > seeds[0]
    want = first_violation(lambda: check_pathwise_duality(model, lifted, window, failing[0], dual=corrupted))
    assert want[2] == failing[0]
    assert first_violation(lambda: check_pathwise_seeds(model, lifted, window, seeds, dual=corrupted)) == want


def test_a_violation_carries_the_stream_the_batch_checked(monkeypatch):
    # the witness is the stream the batch composed, not a second draw of its seed
    lifted, model = psi5_model(2)
    corrupted = corrupted_psi5_dual(model, lifted)
    window, seeds = (0.0, 1.0), range(1, 31)
    with monkeypatch.context() as patch:
        patch.setattr(ips, "sample_event_stream", lambda *args: pytest.fail("the check drew a stream twice"))
        with pytest.raises(DualityViolation) as exc:
            check_pathwise_seeds(model, lifted, window, seeds, dual=corrupted)
    stream = exc.value.stream
    failing = failing_seeds(model, lifted, window, seeds, corrupted)[0]
    want = sample_event_stream(model, window, failing)
    assert stream.seed == want.seed == failing and stream.window == want.window
    assert stream.n_events > 0 and stream.events == want.events


def swapped_dual(model, lifted, pair=None):
    """The dual model with the duals of the two maps `pair` swapped, by default of its only two maps."""
    good = {e.map_id: e.site_map for e in dual_model(model, lifted).entries}
    a, b = pair or sorted(good)
    good[a], good[b] = good[b], good[a]
    return RateModel.build(lifted.r_space, good, {e.map_id: e.rate for e in model.entries})


@pytest.mark.parametrize("name", ["psi1", "psi5"])
def test_splitting_seeds_and_events_leaves_the_results(monkeypatch, name):
    model, lifted, window, seeds = _pathwise_case(name, 100)
    whole = check_pathwise_seeds(model, lifted, window, seeds)
    lifted5, model5 = psi5_model(2)
    corrupted = corrupted_psi5_dual(model5, lifted5)
    seeds5 = range(1, 31)
    exhaustive, sampled = (
        lambda: check_pathwise_seeds(model5, lifted5, (0.0, 1.0), seeds5, dual=corrupted),
        lambda: check_pathwise_seeds(model5, lifted5, (0.0, 1.0), seeds5, "sampled", 50, corrupted),
    )
    violations = [first_violation(exhaustive), first_violation(sampled)]
    # each fails at a later seed, so past the first block of pairs (part of the first seed's row)
    assert all(v[2] > seeds5[0] for v in violations)
    # at most six rows, three seeds, per chunk, a few events per block and five pairs per comparison
    n_pairs = lifted.s_space.n_configs * lifted.r_space.n_configs
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", str(6 * n_pairs))
    monkeypatch.setattr(ips, "FLOW_CHUNK", 1000)
    monkeypatch.setattr(product, "PAIR_BLOCK", 5)
    assert check_pathwise_seeds(model, lifted, window, seeds) == whole
    assert [first_violation(exhaustive), first_violation(sampled)] == violations


@pytest.mark.parametrize("block", [7, 1000])
def test_pair_blocks_leave_the_reports_and_duals(monkeypatch, block):
    cases = [_pathwise_case(name, 100) for name in ("psi1", "psi2", "psi5")]
    lifted7 = _lifted("psi5", 7)
    model7 = _pathwise_model(lifted7)
    dual7 = dual_model(model7, lifted7)
    lifted4 = _lifted("psi5", 4)
    model4 = _pathwise_model(lifted4)

    def results():
        return (
            [check_pathwise_seeds(*case) for case in cases],
            check_pathwise_seeds(model7, lifted7, (0.0, 32.0), range(2), "sampled", 5000, dual7),
            [e.site_map.matrix for e in dual_model(model4, lifted4).entries],
        )

    want = results()
    monkeypatch.setattr(product, "PAIR_BLOCK", block)
    assert results() == want


def traced_peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_pair_comparisons_hold_one_block_of_pairs():
    lifted = _lifted("psi5", 7)
    model = _pathwise_model(lifted)
    dual = dual_model(model, lifted)

    def sampled(seeds):
        return lambda: check_pathwise_seeds(model, lifted, (0.0, 32.0), seeds, "sampled", 100_000, dual)

    sampled([99])()  # first calls build caches that are no part of a check's peak
    # comparing whole rows of 10^5 pairs at once peaked at 7.1 MB for one seed and 34.4 MB for ten
    assert traced_peak_mb(sampled([0])) <= 2.5
    assert traced_peak_mb(sampled(range(10))) <= 8.0
    lifted6 = _lifted("psi5", 6)
    model6 = _pathwise_model(lifted6)
    lifted6.table()
    dual_model(model6, lifted6)
    assert traced_peak_mb(lambda: dual_model(model6, lifted6)) <= 0.5  # 1.6 MB comparing every pair at once


def test_an_estimate_holds_constant_memory_at_many_replicates():
    lifted, model = psi5_model(2)
    dual = dual_model(model, lifted)
    x, y = (1, 2), (1, 0)
    estimate_expectation_duality(model, lifted, x, y, 1.0, 10, seed=3, dual=dual)  # builds the index tables
    # one int64 endpoint and one float64 value per replicate peaked at 15.3 MB
    assert traced_peak_mb(lambda: estimate_expectation_duality(
        model, lifted, x, y, 1.0, 10 ** 6, seed=3, dual=dual)) <= 1.0


def test_sampled_indices_fill_the_narrowest_dtype():
    # 2^16 configurations: indices up to 65535, the largest a uint16 holds
    lifted = _lifted("psi2", 16)
    model = _pathwise_model(lifted)
    window, seeds = (0.0, 1.0), range(5)
    reports = check_pathwise_seeds(model, lifted, window, seeds, "sampled", 2000)
    assert all(r.passed for r in reports) and sum(r.n_events for r in reports) > 0
    wrong = swapped_dual(model, lifted)
    with pytest.raises(DualityViolation) as exc:
        check_pathwise_seeds(model, lifted, window, seeds, "sampled", 2000, wrong)
    v = exc.value
    # the witness is the seed's first failing pair among its int64 draws, all x then all y from key (seed, 2)
    rng = np.random.default_rng((v.stream.seed, 2))
    xi, yi = (rng.integers(2 ** 16, size=2000) for _ in "xy")
    events = [map_id for map_id, _t in v.stream.events_in(*window)]
    maps, duals = ({e.map_id: e.site_map.index_table() for e in m.entries} for m in (model, wrong))
    X, Y = np.arange(2 ** 16), np.arange(2 ** 16)
    for map_id in events:
        X = maps[map_id][X]
    for map_id in reversed(events):
        Y = duals[map_id][Y]
    j = np.flatnonzero(lifted.values_at(X[xi], yi) != lifted.values_at(xi, Y[yi]))[0]
    assert (v.x, v.y) == (lifted.s_space.config_of(xi[j]), lifted.r_space.config_of(yi[j]))
    fx, gy = lifted.s_space.config_of(X[xi[j]]), lifted.r_space.config_of(Y[yi[j]])
    assert lifted.evaluate(fx, v.y) != lifted.evaluate(v.x, gy)


def linear_move(space, links):
    """The map whose matrix [input site][output site] holds the identity at `links` and the zero map elsewhere."""
    n, e, k = space.local.order, space.local.neutral, space.sites
    ident, zero = tuple(range(n)), (e,) * n
    return SiteMap.from_matrix(space, [[ident if (i, j) in links else zero for j in range(k)] for i in range(k)])


def voter_move(space, to, source):
    """Site `to` takes site `source`'s state, every other site keeps its own: a voter model move."""
    return linear_move(space, {(i, i) for i in range(space.sites) if i != to} | {(source, to)})


def branching(space, source, to):
    """x_to <- x_to + x_source, x_to v x_source in M1: a particle at `source` branches onto `to`."""
    return linear_move(space, {(i, i) for i in range(space.sites)} | {(source, to)})


def death(space, site):
    """x_site <- 0: the particle at `site` dies."""
    return linear_move(space, {(i, i) for i in range(space.sites) if i != site})


def contact_process(space, birth=1.0, dying=0.7):
    """Branching both ways along the cycle of sites at rate `birth`, and death at each site at rate `dying`."""
    k = space.sites
    maps = {f"{i}>{j}": branching(space, i, j) for i in range(k) for j in ((i + 1) % k, (i - 1) % k)}
    rates = dict.fromkeys(maps, birth)
    maps.update({f"d{i}": death(space, i) for i in range(k)})
    rates.update(dict.fromkeys((f"d{i}" for i in range(k)), dying))
    return RateModel.build(space, maps, rates)


@pytest.mark.parametrize("name, image", [("psi1", (0, 1, 0)), ("psi2", (0, 0, 0))])
def test_the_dual_of_a_voter_move_is_its_transposed_matrix(monkeypatch, name, image):
    # the two-state classical dualities: coalescing (psi1) and annihilating (psi2) duals of the voter model
    lifted = lift_duality(named_duality(name), 3)
    m = voter_move(lifted.s_space, 0, 1)
    transposed = tuple(zip(*m.matrix))
    mhat = dual_map(lifted, m)
    assert mhat.matrix == transposed and mhat.apply((1, 1, 0)) == image
    monkeypatch.setenv("MONODUAL_PAIR_BUDGET", "32")  # 8 x 8 pairs: the 4 x 4 single-site pairs decide
    assert lifted.s_space.n_configs * lifted.r_space.n_configs > pair_budget()
    assert dual_map(lifted, m).matrix == transposed


@pytest.mark.parametrize("name", ["psi1", "psi2"])
def test_the_voter_model_is_dual_to_coalescing_and_annihilating_walks(name):
    lifted = lift_duality(named_duality(name), 3)
    space = lifted.s_space
    model = RateModel.build(space, {"0<-1": voter_move(space, 0, 1), "1<-2": voter_move(space, 1, 2)},
                            {"0<-1": 1.0, "1<-2": 1.5})
    reports = check_pathwise_seeds(model, lifted, (0.0, 1.0), range(20))
    assert len(reports) == 20 and all(r.passed for r in reports)
    with pytest.raises(DualityViolation):
        check_pathwise_seeds(model, lifted, (0.0, 1.0), range(20), dual=swapped_dual(model, lifted))


def test_the_duals_of_branching_and_death_are_their_transposed_matrices():
    lifted = lift_duality(named_duality("psi1"), 3)
    space = lifted.s_space
    for m in (branching(space, 0, 1), branching(space, 2, 0), death(space, 1)):
        assert dual_map(lifted, m).matrix == tuple(zip(*m.matrix))
    # the dual of a branching from 0 onto 1 branches from 1 onto 0
    assert dual_map(lifted, branching(space, 0, 1)).matrix == branching(space, 1, 0).matrix


def test_the_contact_process_is_self_dual():
    lifted = lift_duality(named_duality("psi1"), 3)
    model = contact_process(lifted.s_space)
    assert len(model.entries) == 9

    def as_multiset(m):
        return Counter((e.site_map.matrix, e.rate) for e in m.entries)

    assert as_multiset(dual_model(model, lifted)) == as_multiset(model)
    reports = check_pathwise_seeds(model, lifted, (0.0, 1.0), range(20))
    assert len(reports) == 20 and all(r.passed for r in reports)
    with pytest.raises(DualityViolation):
        check_pathwise_seeds(model, lifted, (0.0, 1.0), range(20), dual=swapped_dual(model, lifted, ("0>1", "1>0")))


@pytest.mark.parametrize("name", ["psi1", "psi2"])
def test_the_majority_vote_has_no_dual(name):
    lifted = lift_duality(named_duality(name), 3)
    space = lifted.s_space

    def majority(x):
        """x_0 <- maj(x_0, x_1, x_2)."""
        return (int(sum(x) >= 2), *x[1:])

    image = np.array([space.index_of(majority(x)) for x in space.configs()])
    assert None in _brute_force_dual(lifted)(image)
    assert product.global_hom_set_matrix_check(space, majority) is None
    # the voter move, a matrix of homomorphisms, passes the same lookup
    assert None not in _brute_force_dual(lifted)(voter_move(space, 0, 1).index_table())


def near_budget_model():
    """The model of `simulate --rates tests/golden/simulate_rates.json` on psi5.T at two sites."""
    lifted = lift_duality(named_duality("psi5").transposed(), 2)
    rates = json.loads((Path(__file__).parent / "golden" / "simulate_rates.json").read_text())
    return RateModel.build(
        lifted.s_space,
        {r["id"]: SiteMap.from_matrix(lifted.s_space, r["matrix"]) for r in rates},
        {r["id"]: r["rate"] for r in rates},
    )


@pytest.mark.slow
def test_a_stream_near_the_jump_budget_matches_the_reference_stream():
    # the stream of `simulate --t-max 4.2e5 --seed 7` on tests/golden/simulate_rates.json
    model = near_budget_model()
    events = sample_event_stream(model, (0.0, 4.2e5), seed=7).events
    assert len(events) == 966_352
    assert events == event_stream_reference(model, (0.0, 4.2e5), 7)


def test_composing_a_stream_near_the_jump_budget_holds_one_chunk():
    model = near_budget_model()
    stream = sample_event_stream(model, (0.0, 4.2e5), seed=7)
    flow_index_table(model, stream, 0.0, 4.2e5)  # the maps' index tables are built once, outside the peak
    for convention in "+-":
        tracemalloc.start()
        try:
            flow = flow_index_table(model, stream, 0.0, 4.2e5, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flow.tolist() == [0, 8, 8, 8, 8, 8, 8, 8, 8]
        # composed one event column at a time, the 966 352 events peaked at 86 536 bytes
        assert peak <= 86_536


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_equals_event_by_event_composition(data):
    n, s, rows = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    maps = data.draw(arrays(np.int64, (s - 1, n), elements=st.integers(0, n - 1)))
    tables = np.concatenate([maps, np.arange(n)[None]])  # the identity last, as in every table stack
    marks = data.draw(arrays(data.draw(st.sampled_from([np.uint8, np.intp])), (rows, data.draw(st.integers(0, 60))),
                             elements=st.integers(0, s - 1)))
    want = np.tile(np.arange(n), (rows, 1))
    for r in range(rows):
        for mark in marks[r]:
            want[r] = np.take(tables[mark], want[r])
    # small chunks split the words of one row across chunks, the last word padded
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ips, "FLOW_CHUNK", data.draw(st.sampled_from([2 ** 4, 2 ** 7, ips.FLOW_CHUNK])))
        got = ips._compose(tables, marks)
    assert got.dtype == tables.dtype and got.tolist() == want.tolist()
