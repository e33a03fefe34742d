"""Exhaustive generation of small monoids and semirings, one table per class.

A class is an orbit of tables under a group G (``tables.class_group``): the
relabelings fixing 0 for commutative monoids; those and transposition for
monoids up to opposites; the additive automorphisms and transposition for
semiring multiplications.  Its representative is its canonical table.

Generation is orderly (R. C. Read, "Every one a winner", Ann. Discrete Math. 2,
1978; I. A. Faradzev, 1978): it never builds a labelled copy or an orbit.  The
filler sets the free cells depth-first in row-major order, trying the values
in increasing order; a commutative mirror cell is set with its earlier twin.
A partial table t is cut when a law instance that reads only set entries
fails (the witness functions of :mod:`monodual.tables`), or when some g in G
beats it: ``compare_image(t, t, g)`` walks the positions in row-major order,
and the first position where g(t) and t differ has both entries set and g(t)
smaller there, and every earlier position has both entries set and equal.

A node checks the law only where the cell it has just set can change the
verdict: ``associativity_holds_at`` and ``distributivity_holds_at`` check the
instances in that cell's row or column, which include every instance that
reads it.  So each instance is checked at the node that sets the last cell it
reads, or at the root, where the law's full witness runs once for the
instances whose reads are all pinned: for semirings, the rows and columns of
0 and of the unit, which alone can rule out a unit.  A walk that stopped at
a free cell resumes there at the child nodes, since set entries never change
on a subtree.

No canonical table is cut.  Its partial tables satisfy every law instance
they can read, and if g beat one of them, g would beat every completion of it
on the same positions, the canonical table included, which would then not be
least in its orbit.  Every table that comes out is canonical: at a complete
table the walk reaches a verdict for every g, so it survives only if no
member of its orbit is smaller.  Each orbit thus yields exactly one table.
The semiring filler runs once per choice of the unit, whose row and column
it pins too; a canonical table is a completion in the one run for its unit.
An element g that is found larger at some node stays larger on the whole
subtree, so only the undecided ones are carried down.  Complete tables are
re-checked for associativity in full: the partial checks are a pruning
device, the full check is the correctness argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import Monoid, Semiring, automorphisms, validate_semiring
from . import catalog
from .tables import (
    CayleyTable,
    Rows,
    absorbing_of,
    as_int,
    associativity_holds_at,
    associativity_witness,
    class_group,
    compare_image,
    distributivity_holds_at,
    distributivity_witness,
    is_commutative,
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


def _orderly(t, cells, law, law_at, group):
    """The completions of the partial table t (None marks a free entry) that
    are least in their orbit under ``group`` (see the module docstring).

    ``cells`` are the free cells in row-major order, each a tuple of positions
    that take one value together, the first of them (i, j) the one the law
    is checked at.  ``law(t)`` is the law's witness, run once on t, and
    ``law_at(t, i, j)`` checks the law instances that read (i, j).
    """
    n = len(t)

    def rec(k: int, live):
        if k == len(cells):
            rows = tuple(tuple(row) for row in t)
            if associativity_witness(rows) is None:
                yield rows
            return
        cell = cells[k]
        i0, j0 = cell[0]
        for v in range(n):
            for i, j in cell:
                t[i][j] = v
            if not law_at(t, i0, j0):
                continue
            undecided = []
            for g, start in live:
                s, stop = compare_image(t, t, g, start)
                if s < 0:
                    break
                if s == 0:
                    undecided.append((g, stop))
            else:
                yield from rec(k + 1, undecided)
        for i, j in cell:
            t[i][j] = None

    if law(t) is None:
        yield from rec(0, [(g, 0) for g in group])


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
        # the law is checked at (i, j) only: an instance (x, y, z) that reads
        # (j, i) fails with its mirror (z, y, x), which reads (i, j)
        cells = [((i, j), (j, i)) for i in range(1, n) for j in range(i, n)]
    else:
        cells = [((i, j),) for i in range(1, n) for j in range(1, n)]
    group = class_group(relabelings_fixing(0, n), opposite=not commutative)
    yield from _orderly(t, cells, associativity_witness, associativity_holds_at, group)


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


def _checked_order(order) -> int:
    """The order as an int (``as_int``); ValueError for anything else, booleans and floats included."""
    try:
        return as_int(order)
    except TypeError:
        raise ValueError(f"order must be an integer, got {order!r}") from None


def enumerate_commutative_monoids(order: int) -> EnumerationReport:
    """All isomorphism classes of commutative monoids of the given order."""
    order = _checked_order(order)
    if not 1 <= order <= MONOID_ORDER_CAP:
        raise OrderTooLarge(order, MONOID_ORDER_CAP)
    reps = list(_fill_monoid_tables(order, commutative=True))
    return _report(order, reps, _labels_for(reps, include_opposite=False) if order <= 4 else None)


def enumerate_monoids_with_absorbing(order: int, commutative=None) -> EnumerationReport:
    """Monoid classes possessing an absorbing element, quotiented up to opposites.

    ``commutative`` filters the output: True keeps only commutative classes,
    False only non-commutative ones, None keeps everything.  Classes are taken
    up to isomorphism *and* anti-isomorphism, matching the catalog convention
    under which N1 and N2 are the only non-commutative order-4 classes.
    """
    order = _checked_order(order)
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
    group = class_group(tuple(auts), opposite=True)
    for unit in range(1, n):
        t = [[None] * n for _ in range(n)]
        for x in range(n):
            t[0][x] = 0
            t[x][0] = 0
            t[unit][x] = x
            t[x][unit] = x
        free = [((i, j),) for i in range(1, n) for j in range(1, n) if unit not in (i, j)]
        yield from _orderly(t, free, partial(distributivity_witness, add_rows),
                            partial(distributivity_holds_at, add_rows), group)


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
