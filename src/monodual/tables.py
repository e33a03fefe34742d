"""Cayley tables, and the one home of the table laws and of table classes.

A table of order n is a tuple of n tuples of ints in 0..n-1, so tables are
hashable and usable as dict keys / set members directly.  Each law has one
witness function, returning its first failing tuple in lex order or None.  In
a partial table (lists, None for a free cell) a law instance counts once all
it reads is set.  ``associativity_holds_at`` and ``distributivity_holds_at``
check only the instances that may read one cell, which is how the
enumeration fillers prune.  A class of
tables is an orbit under a ``class_group``, and its canonical table is its
least member in row-major lex order.  ``compare_image`` is the one walk that
orders an image g(t) against a reference table; ``least_image`` and the
orderly fillers of :mod:`monodual.enumeration` both run it.  The pair
budget (``MONODUAL_PAIR_BUDGET``), which bounds the large tables and arrays,
lives here so that every module can import it.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import cache
from itertools import permutations

Row = tuple[int, ...]
Rows = tuple[Row, ...]


DEFAULT_PAIR_BUDGET = 10 ** 6


def pair_budget() -> int:
    """MONODUAL_PAIR_BUDGET, or DEFAULT_PAIR_BUDGET where it is unset; ValueError unless it is a positive integer."""
    value = os.environ.get("MONODUAL_PAIR_BUDGET")
    if value is None:
        return DEFAULT_PAIR_BUDGET
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"MONODUAL_PAIR_BUDGET must be a positive integer, got {value!r}")
    return budget


class SizeBudgetExceeded(ValueError):
    pass


class MalformedTable(ValueError):
    pass


def as_int(v) -> int:
    """operator.index for one table entry, refusing booleans (JSON true/false)."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is not an integer")
    return operator.index(v)


def as_rows(rows) -> Rows:
    """Normalise nested lists/tuples to the canonical tuple form, validating shape."""
    try:
        out = tuple(tuple(map(as_int, row)) for row in rows)
    except TypeError:
        raise MalformedTable("table entries must be integers") from None
    n = len(out)
    if n == 0:
        raise MalformedTable("empty table")
    for row in out:
        if len(row) != n:
            raise MalformedTable(f"table is not square: row of length {len(row)}, order {n}")
        for v in row:
            if not 0 <= v < n:
                raise MalformedTable(f"entry {v} out of range for order {n}")
    return out


@dataclass(frozen=True)
class CayleyTable:
    """An n-by-n operation table over elements 0..n-1."""

    rows: Rows

    def __hash__(self) -> int:
        """The dataclass hash, computed on first use and kept, as tables key many caches."""
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.rows,)))
        return self._hash

    @property
    def order(self) -> int:
        return len(self.rows)



def transpose(rows: Rows) -> Rows:
    """Swap rows and columns; an m-by-n table becomes n-by-m."""
    return tuple(zip(*rows))


def relabel(rows: Rows, perm) -> Rows:
    """Rename elements, old index i becoming perm[i]."""
    inv = [0] * len(rows)
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple([perm[row[j]] for j in inv]) for row in [rows[i] for i in inv])


def neutral_at_zero(rows: Rows, neutral: int) -> Rows:
    """``rows`` relabeled by the swap of 0 and ``neutral``, which moves the neutral element to 0."""
    swap = list(range(len(rows)))
    swap[0], swap[neutral] = neutral, 0
    return rows if neutral == 0 else relabel(rows, swap)


def neutral_of(rows: Rows):
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == x == rows[x][e] for x in range(n)):
            return e
    return None


def absorbing_of(rows: Rows):
    n = len(rows)
    for a in range(n):
        if all(rows[a][x] == a == rows[x][a] for x in range(n)):
            return a
    return None


def almost_absorbing_of(rows: Rows):
    """Element absorbing against everything except itself."""
    n = len(rows)
    for a in range(n):
        if rows[a][a] != a and all(
            rows[a][x] == a == rows[x][a] for x in range(n) if x != a
        ):
            return a
    return None


def is_commutative(rows: Rows) -> bool:
    n = len(rows)
    return all(rows[x][y] == rows[y][x] for x in range(n) for y in range(x + 1, n))


def associativity_witness(rows):
    """The first (x, y, z) with (x*y)*z != x*(y*z), or None."""
    rng = range(len(rows))
    for x in rng:
        rowx = rows[x]
        for y in rng:
            xy = rowx[y]
            if xy is None:
                continue
            rowxy, rowy = rows[xy], rows[y]
            for z in rng:
                yz = rowy[z]
                if yz is None:
                    continue
                left, right = rowxy[z], rowx[yz]
                if left != right and left is not None and right is not None:
                    return x, y, z
    return None


def associativity_holds_at(rows, i, j) -> bool:
    """Whether every instance (x, y, z) with x = i or z = j holds, counting an
    instance once all it reads is set.  Its reads x*y, y*z, (x*y)*z and
    x*(y*z) each lie in row x or in column z, so every instance that reads
    the cell (i, j) is among these."""
    rng = range(len(rows))
    rowi = rows[i]
    for y in rng:
        iy = rowi[y]
        if iy is None:
            continue
        rowiy, rowy = rows[iy], rows[y]
        for z in rng:
            yz = rowy[z]
            if yz is None:
                continue
            left, right = rowiy[z], rowi[yz]
            if left != right and left is not None and right is not None:
                return False
    colj = [row[j] for row in rows]
    for x in rng:
        rowx = rows[x]
        for y in rng:
            xy, yj = rowx[y], colj[y]
            if xy is None or yj is None:
                continue
            left, right = colj[xy], rowx[yj]
            if left != right and left is not None and right is not None:
                return False
    return True


def distributivity_witness(add, mul):
    """The first (x, y, z, side) where mul fails to distribute over the complete add.

    At each triple, left x*(y+z) = x*y + x*z goes before right (x+y)*z = x*z + y*z.
    """
    rng = range(len(add))
    for x in rng:
        mx, addx = mul[x], add[x]
        for y in rng:
            addy, mxy, my, mxpy = add[y], mx[y], mul[y], mul[addx[y]]
            for z in rng:
                v, a, b = mx[addy[z]], mxy, mx[z]
                if v is not None and a is not None and b is not None and v != add[a][b]:
                    return x, y, z, "left"
                v, a, b = mxpy[z], mx[z], my[z]
                if v is not None and a is not None and b is not None and v != add[a][b]:
                    return x, y, z, "right"
    return None


def distributivity_holds_at(add, mul, i, j) -> bool:
    """Whether every left instance with x = i and every right instance with
    z = j holds, counting an instance once all it reads of mul is set.  The
    left law x*(y+z) = x*y + x*z reads mul in row x only, the right law
    (x+y)*z = x*z + y*z in column z only, so every instance that reads the
    cell (i, j) is among these."""
    rng = range(len(add))
    mi = mul[i]
    for y in rng:
        a = mi[y]
        if a is None:
            continue
        adda, addy = add[a], add[y]
        for z in rng:
            v, b = mi[addy[z]], mi[z]
            if v is not None and b is not None and v != adda[b]:
                return False
    colj = [row[j] for row in mul]
    for x in rng:
        a = colj[x]
        if a is None:
            continue
        adda, addx = add[a], add[x]
        for y in rng:
            v, b = colj[addx[y]], colj[y]
            if v is not None and b is not None and v != adda[b]:
                return False
    return True


def preservation_witness(f, a, b):
    """The first (x, y) where the map f from a's carrier to b's has f(x a y) != f(x) b f(y)."""
    rng = range(len(a))
    for x in rng:
        fx = f[x]
        if fx is None:
            continue
        ax, bfx = a[x], b[fx]
        for y in rng:
            fy, axy = f[y], ax[y]
            if fy is None or axy is None:
                continue
            left, right = f[axy], bfx[fy]
            if left != right and left is not None and right is not None:
                return x, y
    return None


@cache
def relabelings_fixing(neutral: int, n: int) -> tuple[Row, ...]:
    """Every permutation of 0..n-1 that maps ``neutral`` to itself, in lex order."""
    return tuple(p for p in permutations(range(n)) if p[neutral] == neutral)


@cache
def class_group(perms: tuple[Row, ...], opposite: bool) -> tuple:
    """The class group G: the relabelings ``perms``, also composed with
    transposition if ``opposite``, without the identity, each g as (p, walk).
    Groups are cached, so ``perms`` is a tuple.

    Every p fixes 0, and the tables G acts on have row and column 0 pinned
    (0 neutral or absorbing), which g leaves alone.  ``walk`` lists the
    positions (x, y) in rows and columns 1..n-1 in row-major order, each with
    the position (i, j) it reads: g(t)[x][y] = p[t[i][j]], so g(t) is
    relabel(t, p), or relabel(transpose(t), p) if g transposes.
    """
    out = []
    for p in perms:
        n = len(p)
        q = [0] * n
        for old, new in enumerate(p):
            q[new] = old
        for flip in (False, True) if opposite else (False,):
            if flip or any(i != v for i, v in enumerate(p)):
                walk = tuple((x, y, q[y], q[x]) if flip else (x, y, q[x], q[y])
                             for x in range(1, n) for y in range(1, n))
                out.append((p, walk))
    return tuple(out)


def compare_image(t, ref, g, start: int = 0) -> tuple[int, int]:
    """Compare g(t) with ``ref`` along g's walk from position ``start``.

    Returns (-1, 0) if g(t) is smaller at the first position where they
    differ, (1, 0) if larger, (0, k) if a None entry (a free cell of a
    partial table) comes first, at position k, and (0, len(walk)) if they
    are equal.  A walk stopped at a free cell resumes at k once the cell is
    set.  The walk is row-major, so (x, y) is at (x - 1)(n - 1) + y - 1.
    """
    p, walk = g
    for x, y, i, j in walk[start:] if start else walk:
        old, v = ref[x][y], t[i][j]
        if old is None or v is None:
            return 0, (x - 1) * (len(t) - 1) + y - 1
        if p[v] != old:
            return (-1, 0) if p[v] < old else (1, 0)
    return 0, len(walk)


def least_image(rows: Rows, group) -> Rows:
    """The least of ``rows`` and its images under ``group`` (see class_group)
    in row-major lex order; an image is built only when it beats the best so far."""
    best = rows
    for g in group:
        if compare_image(rows, best, g)[0] < 0:
            p, walk = g
            image = [list(row) for row in rows]
            for x, y, i, j in walk:
                image[x][y] = p[rows[i][j]]
            best = tuple(map(tuple, image))
    return best


def canonical_form(rows: Rows, neutral: int = 0) -> Rows:
    """The canonical table of a monoid with neutral element ``neutral``: the
    least relabeling of ``rows`` that puts the neutral at 0."""
    group = class_group(relabelings_fixing(0, len(rows)), opposite=False)
    return least_image(neutral_at_zero(rows, neutral), group)


def render_table(label: str, rows: Rows) -> str:
    """Text rendering with a header row and column of element names."""
    names = [str(i) for i in range(len(rows))]
    width = max(len(label), max(len(s) for s in names))
    cell = max(len(s) for s in names)
    head = label.rjust(width) + " | " + " ".join(s.rjust(cell) for s in names)
    sep = "-" * (width + 1) + "+" + "-" * (len(head) - width - 2)
    lines = [head, sep]
    for i, row in enumerate(rows):
        lines.append(
            names[i].rjust(width) + " | " + " ".join(names[v].rjust(cell) for v in row)
        )
    return "\n".join(lines)
