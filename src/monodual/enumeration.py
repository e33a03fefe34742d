"""Exhaustive generation of small monoids and semirings, one table per class.

A class is an orbit of tables under a group G: the relabelings fixing 0 for
commutative monoids; those and transposition for monoids up to opposites; the
additive automorphisms and transposition for semiring multiplications.  Every
element of G fixes 0, and row and column 0 are pinned (0 is the neutral, or
the absorbing zero), so G never moves them.  The class representative is the
least member of its orbit in row-major lex order, i.e. its canonical table.

Generation is orderly (R. C. Read, "Every one a winner", Ann. Discrete Math. 2,
1978; I. A. Faradzev, 1978): it never builds a labelled copy or an orbit.  The
filler sets the free cells depth-first in row-major order, trying the values
in increasing order; a commutative mirror cell is set with its earlier twin.
A partial table t is cut when a law instance that reads only set entries
fails (the witness functions of :mod:`monodual.tables`), or when some g in G
beats it: walking the positions in row-major order, the first position where
g(t) and t differ has both entries set and g(t) smaller there, and every
earlier position has both entries set and equal.

No canonical table is cut.  Its partial tables satisfy every law instance
they can read, and if g beat one of them, g would beat every completion of it
on the same positions, the canonical table included, which would then not be
least in its orbit.  Every table that comes out is canonical: at a complete
table the walk reaches a verdict for every g, so it survives only if no
member of its orbit is smaller.  Each orbit thus yields exactly one table.
The semiring filler runs once per choice of the unit, whose row and column
it pins too; a canonical table is a completion in the one run for its unit.
An element g that is found larger at some node stays larger on the whole
subtree, since set entries never change; only the undecided ones are carried
down.  Complete tables are re-checked for associativity in full: the partial
checks are a pruning device, the full check is the correctness argument.
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
    associativity_witness,
    canonical_form,
    distributivity_witness,
    is_commutative,
    neutral_of,
    relabelings_fixing,
)

MONOID_ORDER_CAP = 6
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


def _group(perms, opposite: bool) -> list[tuple[tuple, tuple, bool]]:
    """G as (p, inverse of p, transposed) triples, the identity left out.

    The image of a table t under (p, q, flip) is relabel(t, p), or
    relabel(transpose(t), p) when flip: at (x, y) it holds p[t[q[x]][q[y]]],
    with q[x] and q[y] swapped when flip.
    """
    flips = (False, True) if opposite else (False,)
    out = []
    for p in perms:
        q = [0] * len(p)
        for old, new in enumerate(p):
            q[new] = old
        identity = all(i == v for i, v in enumerate(p))
        out += [(p, tuple(q), flip) for flip in flips if flip or not identity]
    return out


def _orderly(t, cells, law, group):
    """The completions of the partial table t (None marks a free entry) that
    are least in their orbit under ``group`` (see the module docstring).

    ``cells`` are the free cells in row-major order, each a tuple of positions
    that take one value together.  ``law(t)`` is the partial law check.
    """
    n = len(t)
    positions = [(x, y) for x in range(1, n) for y in range(1, n)]

    def verdict(p, q, flip) -> int:
        """-1 if g beats t, 1 if g(t) is larger at the first difference, 0 if undecided."""
        for x, y in positions:
            old, v = t[x][y], (t[q[y]][q[x]] if flip else t[q[x]][q[y]])
            if old is None or v is None:
                return 0
            if p[v] != old:
                return -1 if p[v] < old else 1
        return 0

    def rec(k: int, live):
        if k == len(cells):
            rows = tuple(tuple(row) for row in t)
            if associativity_witness(rows) is None:
                yield rows
            return
        for v in range(n):
            for i, j in cells[k]:
                t[i][j] = v
            if not law(t):
                continue
            undecided = []
            for g in live:
                s = verdict(*g)
                if s < 0:
                    break
                if s == 0:
                    undecided.append(g)
            else:
                yield from rec(k + 1, undecided)
        for i, j in cells[k]:
            t[i][j] = None

    yield from rec(0, group)


def _fill_monoid_tables(n: int, commutative: bool):
    """The canonical monoid tables on 0..n-1 with neutral 0, in lex order.

    Commutative: one per class of commutative monoids.  Otherwise one per
    class up to isomorphism and anti-isomorphism, of all monoids.
    """
    t = [[None] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = x
        t[x][0] = x
    if commutative:
        cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    else:
        cells = [((i, j),) for i in range(1, n) for j in range(1, n)]
    group = _group(relabelings_fixing(0, n), opposite=not commutative)
    yield from _orderly(t, cells, lambda rows: associativity_witness(rows) is None, group)


def _report(order: int, reps: list[Rows], labels) -> EnumerationReport:
    return EnumerationReport(order, len(reps), tuple(CayleyTable(r) for r in reps), labels)


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
    reps = list(_fill_monoid_tables(order, commutative=True))
    return _report(order, reps, _labels_for(reps, include_opposite=False) if order <= 4 else None)


def enumerate_commutative_monoids_naive(order: int) -> EnumerationReport:
    """Oracle pipeline: generate every table, filter, then quotient.  Order <= 3 only."""
    if not 1 <= order <= 3:
        raise OrderTooLarge(order, 3)
    n = order
    classes = set()
    for flat in product(range(n), repeat=n * n):
        rows = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        e = neutral_of(rows)
        if e is None or not is_commutative(rows) or associativity_witness(rows) is not None:
            continue
        classes.add(canonical_form(rows, neutral=e))
    reps = sorted(classes)
    return _report(order, reps, _labels_for(reps, include_opposite=False))


def enumerate_monoids_with_absorbing(order: int, commutative=None) -> EnumerationReport:
    """Monoid classes possessing an absorbing element, quotiented up to opposites.

    ``commutative`` filters the output: True keeps only commutative classes,
    False only non-commutative ones, None keeps everything.  Classes are taken
    up to isomorphism *and* anti-isomorphism, matching the catalog convention
    under which N1 and N2 are the only non-commutative order-4 classes.
    """
    if not 1 <= order <= 4:
        raise OrderTooLarge(order, 4)
    reps = [
        rows for rows in _fill_monoid_tables(order, commutative=False)
        if absorbing_of(rows) is not None
        and (commutative is None or is_commutative(rows) == commutative)
    ]
    return _report(order, reps, _labels_for(reps, include_opposite=True))


@dataclass(frozen=True)
class SemiringClass:
    semiring: Semiring
    mult_label: str | None


def _semiring_multiplications(add_rows: Rows, auts):
    """One multiplication making (add, mul) a semiring per class under the
    additive automorphisms ``auts`` and transposition, the canonical one."""
    n = len(add_rows)
    if n == 1:
        yield ((0,),)
        return
    group = _group(auts, opposite=True)
    for unit in range(1, n):
        t = [[None] * n for _ in range(n)]
        for x in range(n):
            t[0][x] = 0
            t[x][0] = 0
            t[unit][x] = x
            t[x][unit] = x
        free = [((i, j),) for i in range(1, n) for j in range(1, n) if unit not in (i, j)]
        yield from _orderly(t, free, lambda mul: distributivity_witness(add_rows, mul) is None, group)


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
    add = add.normalized()
    add_rows = add.op.rows
    out = []
    for m in sorted(_semiring_multiplications(add_rows, automorphisms(add))):
        s = validate_semiring(add_rows, m)
        hit = catalog.catalog_lookup(s.mul_monoid(), include_opposite=True)
        out.append(SemiringClass(semiring=s, mult_label=hit[0].label if hit else None))
    return out
