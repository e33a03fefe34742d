"""Cayley tables, and the one home of the table laws and relabeling orbits.

A table of order n is a tuple of n tuples of ints in 0..n-1, so tables are
hashable and usable as dict keys / set members directly.  Each law has one
witness function, returning its first failing tuple in lex order or None.  In
a partial table (lists, None for a free cell) a law instance counts once all
it reads is set, which is how the enumeration fillers prune.  A class of
tables is a relabeling orbit, and ``canonical_form`` is its least member.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cache
from itertools import permutations

Row = tuple[int, ...]
Rows = tuple[Row, ...]


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

    @classmethod
    def from_rows(cls, rows) -> "CayleyTable":
        return cls(as_rows(rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def apply(self, x: int, y: int) -> int:
        return self.rows[x][y]

    def to_json(self) -> str:
        return json.dumps({"order": self.order, "table": [list(r) for r in self.rows]})

    @classmethod
    def from_json(cls, text: str) -> "CayleyTable":
        obj = json.loads(text)
        rows = as_rows(obj["table"])
        if obj.get("order") not in (None, len(rows)) or isinstance(obj.get("order"), bool):
            raise MalformedTable("declared order disagrees with table size")
        return cls(rows)


def transpose(rows: Rows) -> Rows:
    """Swap rows and columns; an m-by-n table becomes n-by-m."""
    return tuple(zip(*rows))


def relabel(rows: Rows, perm) -> Rows:
    """Rename elements, old index i becoming perm[i]."""
    inv = [0] * len(rows)
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple([perm[row[j]] for j in inv]) for row in [rows[i] for i in inv])


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


def orbit(rows: Rows, perms, opposite: bool = False) -> set[Rows]:
    """The relabelings of ``rows`` by ``perms``, and of its transpose too if ``opposite``."""
    bases = (rows, transpose(rows)) if opposite else (rows,)
    return {relabel(t, p) for t in bases for p in perms}


def canonical_form(rows: Rows, neutral: int = 0) -> Rows:
    """The least member of the orbit of ``rows`` under relabelings putting ``neutral`` at 0."""
    n = len(rows)
    if neutral != 0:
        swap = list(range(n))
        swap[0], swap[neutral] = neutral, 0
        rows = relabel(rows, swap)
    return min(orbit(rows, relabelings_fixing(0, n)))


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
