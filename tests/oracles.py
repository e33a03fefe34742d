"""Reference implementations the tests hold the library against; none of them is part of monodual."""

from itertools import product

import numpy as np

from monodual.algebra import Monoid, Semiring, iter_isomorphisms
from monodual.homdual import Hom, _generating_plan, hom_set, is_homomorphism
from monodual.tables import (
    CayleyTable,
    associativity_witness,
    canonical_form,
    is_commutative,
    neutral_of,
    preservation_witness,
    transpose,
)


def all_homs_reference(source, target) -> list[tuple[int, ...]]:
    """Every homomorphism as a value table, sorted: each target value on each generator, all n^2 pairs checked."""
    generators, plan = _generating_plan(source)
    s_rows, t_rows = source.rows, target.rows
    homs = []
    for assignment in product(range(target.order), repeat=len(generators)):
        vals = [None] * source.order
        vals[source.neutral] = target.neutral
        for g, v in zip(generators, assignment):
            vals[g] = v
        for elem, a, b in plan:
            vals[elem] = t_rows[vals[a]][vals[b]]
        if preservation_witness(vals, s_rows, t_rows) is None:
            homs.append(tuple(vals))
    homs.sort()
    return homs


def adjoint_sum_table_reference(adj) -> tuple[tuple[int, ...], ...]:
    """The pointwise-addition table of an adjoint's maps, one sum of two value tables per cell."""
    homs, t = adj.values(), adj.target.rows
    index = {h: i for i, h in enumerate(homs)}
    return tuple(tuple(index[tuple(t[a][b] for a, b in zip(f, g))] for g in homs) for f in homs)


def product_monoid_reference(locals_) -> Monoid:
    """The componentwise product, states the tuples of factor elements in lex order, built cell by cell."""
    states = list(product(*(range(m.order) for m in locals_)))
    index = {s: i for i, s in enumerate(states)}
    rows = tuple(
        tuple(index[tuple(m.add(a[i], b[i]) for i, m in enumerate(locals_))] for b in states)
        for a in states
    )
    return Monoid(CayleyTable(rows), index[tuple(m.neutral for m in locals_)])


def adjoint_embedding(source, target) -> Hom:
    """The evaluation map x -> (h -> h(x)) from S into the double adjoint H(H(S,T),T)."""
    adj = hom_set(source, target)
    double = hom_set(adj.monoid(), target)
    index = {h.values: i for i, h in enumerate(double.base)}
    vals = []
    for x in range(source.order):
        ev = tuple(h.values[x] for h in adj.base)
        if ev not in index:
            raise AssertionError("evaluation functional is not a homomorphism")
        vals.append(index[ev])
    emb = Hom(source, double.monoid(), tuple(vals))
    if not is_homomorphism(source, double.monoid(), emb.values):
        raise AssertionError("evaluation embedding is not a homomorphism")
    return emb


def are_isomorphic_semirings(a: Semiring, b: Semiring, include_opposite: bool = False):
    """Bijection preserving both tables (and hence zero and unit), or None.

    The candidates are the additive isomorphisms, in lex order.  With
    include_opposite, a witness onto the opposite multiplication of b is also
    accepted; the returned permutation is then tagged ("op", perm).
    """
    variants = [("id", b.mul.rows)] + ([("op", transpose(b.mul.rows))] if include_opposite else [])
    for tag, bm in variants:
        for p in iter_isomorphisms(a.add, b.add):
            if preservation_witness(p, a.mul.rows, bm) is None:
                return p if tag == "id" else ("op", p)
    return None


def enumerate_commutative_monoids_naive(order: int) -> tuple[CayleyTable, ...]:
    """The canonical class representatives, sorted: generate every table, filter, then quotient.

    It visits all n^(n^2) tables, so order 3 is its practical limit.
    """
    n = order
    classes = set()
    for flat in product(range(n), repeat=n * n):
        rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        e = neutral_of(rows)
        if e is None or not is_commutative(rows) or associativity_witness(rows) is not None:
            continue
        classes.add(canonical_form(rows, neutral=e))
    return tuple(CayleyTable(r) for r in sorted(classes))


def event_stream_reference(model, window, seed) -> tuple[tuple[str, float], ...]:
    """The events of the stream of `seed` as (map id, time) pairs, drawn in the documented order
    (count, sorted uniform times, marks by rate share) and sorted by (time, map id) one pair at a time."""
    s, u = float(window[0]), float(window[1])
    rng = np.random.default_rng(seed)
    n = rng.poisson(model.total_rate * (u - s))
    times = np.sort(rng.uniform(s, u, n)).tolist()
    active = [e for e in model.entries if e.rate > 0.0]
    bounds = np.cumsum([e.rate for e in active])[:-1] / model.total_rate
    ids = [active[i].map_id for i in np.searchsorted(bounds, rng.random(n), side="right").tolist()]
    return tuple(sorted(zip(ids, times), key=lambda e: (e[1], e[0])))
