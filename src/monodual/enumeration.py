"""Exhaustive, isomorphism-quotiented generation of small monoids and semirings.

The generator fills the free cells of an operation table depth-first with the
neutral element pinned at 0, pruning on every associativity triple that is
already fully determined, and re-checks complete tables in full (the partial
check is a pruning device, not the correctness argument).  Class
representatives are canonical tables: the lexicographic minimum over all
relabelings fixing 0, and additionally over the transposed table where the
quotient includes opposites.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import Monoid, Semiring, automorphisms, validate_semiring
from . import catalog
from .tables import (
    CayleyTable,
    Rows,
    absorbing_of,
    canonical_form,
    canonical_form_with_opposite,
    is_associative,
    is_commutative,
    neutral_of,
    relabel,
    transpose,
)

MONOID_ORDER_CAP = 5
SEMIRING_ORDER_CAP = 4


class OrderTooLarge(ValueError):
    def __init__(self, order, cap):
        super().__init__(f"order {order} exceeds the supported cap {cap}")


@dataclass(frozen=True)
class EnumerationReport:
    order: int
    count: int
    representatives: tuple[CayleyTable, ...]
    catalog_labels: tuple[str, ...] | None

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "count": self.count,
            "representatives": [[list(r) for r in t.rows] for t in self.representatives],
            "catalog_labels": list(self.catalog_labels) if self.catalog_labels else None,
        }


def _completions(t, cells, ok):
    """Depth-first completions of the partial table t (None marks a free entry).

    Each cell is a tuple of positions that take one value together, so a
    commutative mirror is one cell.  Branches where ``ok()`` fails on the
    partial table are pruned; complete tables are re-checked for
    associativity in full before they are yielded.
    """
    n = len(t)

    def rec(k: int):
        if k == len(cells):
            rows = tuple(tuple(row) for row in t)
            if is_associative(rows):
                yield rows
            return
        for v in range(n):
            for i, j in cells[k]:
                t[i][j] = v
            if ok():
                yield from rec(k + 1)
        for i, j in cells[k]:
            t[i][j] = None

    yield from rec(0)


def _fill_monoid_tables(n: int, commutative: bool):
    """Yield all monoid tables on 0..n-1 with neutral 0 (mirrored cells if commutative)."""
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = x
        t[x][0] = x
    if commutative:
        cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    else:
        cells = [((i, j),) for i in range(1, n) for j in range(1, n)]

    def partial_ok() -> bool:
        rng = range(n)
        for x in rng:
            rowx = t[x]
            for y in rng:
                xy = rowx[y]
                if xy is None:
                    continue
                rowxy = t[xy]
                for z in rng:
                    yz = t[y][z]
                    if yz is None:
                        continue
                    left = rowxy[z]
                    right = rowx[yz]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    yield from _completions(t, cells, partial_ok)


def _labels_for(reps, include_opposite: bool):
    labels = []
    for rows in reps:
        hit = catalog.catalog_lookup(Monoid(CayleyTable(rows), 0), include_opposite)
        if hit is None:
            return None
        labels.append(hit[0].label)
    return tuple(labels)


def enumerate_commutative_monoids(order: int) -> EnumerationReport:
    """All isomorphism classes of commutative monoids of the given order."""
    if not 1 <= order <= MONOID_ORDER_CAP:
        raise OrderTooLarge(order, MONOID_ORDER_CAP)
    classes = {canonical_form(rows) for rows in _fill_monoid_tables(order, commutative=True)}
    reps = sorted(classes)
    labels = _labels_for(reps, include_opposite=False) if order <= 4 else None
    return EnumerationReport(
        order=order,
        count=len(reps),
        representatives=tuple(CayleyTable(r) for r in reps),
        catalog_labels=labels,
    )


def enumerate_commutative_monoids_naive(order: int) -> EnumerationReport:
    """Oracle pipeline: generate every table, filter, then quotient.  Order <= 3 only."""
    if not 1 <= order <= 3:
        raise OrderTooLarge(order, 3)
    n = order
    classes = set()
    for flat in product(range(n), repeat=n * n):
        rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        e = neutral_of(rows)
        if e is None or not is_commutative(rows) or not is_associative(rows):
            continue
        classes.add(canonical_form(rows, neutral=e))
    reps = sorted(classes)
    return EnumerationReport(
        order=order,
        count=len(reps),
        representatives=tuple(CayleyTable(r) for r in reps),
        catalog_labels=_labels_for(reps, include_opposite=False),
    )


def enumerate_monoids_with_absorbing(order: int, commutative=None) -> EnumerationReport:
    """Monoid classes possessing an absorbing element, quotiented up to opposites.

    ``commutative`` filters the output: True keeps only commutative classes,
    False only non-commutative ones, None keeps everything.  Classes are taken
    up to isomorphism *and* anti-isomorphism, matching the catalog convention
    under which N1 and N2 are the only non-commutative order-4 classes.
    """
    if not 1 <= order <= 4:
        raise OrderTooLarge(order, 4)
    classes = set()
    for rows in _fill_monoid_tables(order, commutative=False):
        if absorbing_of(rows) is None:
            continue
        comm = is_commutative(rows)
        if commutative is not None and comm != commutative:
            continue
        classes.add(canonical_form_with_opposite(rows))
    reps = sorted(classes)
    return EnumerationReport(
        order=order,
        count=len(reps),
        representatives=tuple(CayleyTable(r) for r in reps),
        catalog_labels=_labels_for(reps, include_opposite=True),
    )


@dataclass(frozen=True)
class SemiringClass:
    semiring: Semiring
    mult_label: str | None


def _semiring_multiplications(add_rows: Rows):
    """All raw multiplication tables making (add, mul) a semiring."""
    n = len(add_rows)
    if n == 1:
        yield ((0,),)
        return
    rng = range(n)
    for unit in range(1, n):
        t = [[None] * n for _ in range(n)]
        for x in rng:
            t[0][x] = 0
            t[x][0] = 0
            t[unit][x] = x
            t[x][unit] = x
        free = [((i, j),) for i in range(1, n) for j in range(1, n) if unit not in (i, j)]

        def distrib_ok() -> bool:
            for x in rng:
                for y in rng:
                    for z in rng:
                        v = t[x][add_rows[y][z]]
                        a, b = t[x][y], t[x][z]
                        if None not in (v, a, b) and v != add_rows[a][b]:
                            return False
                        v = t[add_rows[x][y]][z]
                        a, b = t[x][z], t[y][z]
                        if None not in (v, a, b) and v != add_rows[a][b]:
                            return False
            return True

        yield from _completions(t, free, distrib_ok)


def enumerate_semiring_multiplications(add: Monoid) -> list[SemiringClass]:
    """All semiring structures on a commutative monoid, one per isomorphism class.

    Two structures count as isomorphic when some additive automorphism carries
    one multiplication onto the other or onto its opposite; this is the
    convention under which the embedded semiring catalog is complete.  Each
    class is annotated with the catalog label of its multiplicative monoid.
    """
    if add.order > SEMIRING_ORDER_CAP:
        raise OrderTooLarge(add.order, SEMIRING_ORDER_CAP)
    if not add.is_commutative():
        raise ValueError("additive monoid must be commutative")
    if add.neutral != 0:
        add = add.normalized()
    add_rows = add.op.rows
    auts = automorphisms(add)

    def least_of_orbit(m: Rows) -> Rows:
        return min(min(q, transpose(q)) for q in (relabel(m, p) for p in auts))

    out = []
    for m in sorted({least_of_orbit(m) for m in _semiring_multiplications(add_rows)}):
        s = validate_semiring(add_rows, m)
        hit = catalog.catalog_lookup(s.mul_monoid(), include_opposite=True)
        out.append(SemiringClass(semiring=s, mult_label=hit[0].label if hit else None))
    return out
