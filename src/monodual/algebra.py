"""Finite monoids and semirings with exhaustive validators.

All carriers are 0..n-1.  Validation is exhaustive (O(n^3) for associativity
and distributivity); the orders handled here are tiny, so there is no reason
to check anything by sampling.  The laws themselves are checked by the
witness functions of :mod:`monodual.tables`; the validators raise on the
witness they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .tables import (
    CayleyTable,
    Rows,
    as_rows,
    associativity_witness,
    distributivity_witness,
    is_commutative,
    neutral_at_zero,
    neutral_of,
    preservation_witness,
    transpose,
)


class AlgebraError(ValueError):
    pass


class NotAssociative(AlgebraError):
    def __init__(self, x, y, z):
        self.witness = (x, y, z)
        super().__init__(f"({x}+{y})+{z} != {x}+({y}+{z})")


class NoNeutralElement(AlgebraError):
    def __init__(self):
        super().__init__("no neutral element")


class NotCommutative(AlgebraError):
    def __init__(self, x, y):
        self.witness = (x, y)
        super().__init__(f"{x}+{y} != {y}+{x}")


class AdditiveNotCommutativeMonoid(AlgebraError):
    pass


class MulNotMonoid(AlgebraError):
    pass


class ZeroNotAbsorbing(AlgebraError):
    def __init__(self, x):
        self.witness = x
        super().__init__(f"multiplication by {x} does not absorb into zero")


class NotDistributive(AlgebraError):
    def __init__(self, x, y, z, side):
        self.witness = (x, y, z, side)
        super().__init__(f"distributivity fails on the {side} at ({x},{y},{z})")


@dataclass(frozen=True)
class Monoid:
    """An associative operation table with its neutral element.

    Catalog-normalised instances have neutral == 0; instances produced from
    other sources (a lattice's meet monoid, adjoint monoids before
    relabeling) may carry the neutral elsewhere.
    """

    op: CayleyTable
    neutral: int

    def __hash__(self) -> int:
        """The dataclass hash, computed on first use and kept, as monoids key many caches."""
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.op, self.neutral)))
        return self._hash

    @property
    def order(self) -> int:
        return self.op.order

    @property
    def rows(self) -> Rows:
        return self.op.rows

    def add(self, x: int, y: int) -> int:
        return self.op.rows[x][y]

    def is_commutative(self) -> bool:
        return is_commutative(self.op.rows)

    def opposite(self) -> "Monoid":
        return Monoid(CayleyTable(transpose(self.op.rows)), self.neutral)

    def normalized(self) -> "Monoid":
        """Relabel so the neutral element sits at index 0 (swap move)."""
        return Monoid(CayleyTable(neutral_at_zero(self.op.rows, self.neutral)), 0)


def validate_monoid(table, require_commutative: bool = False) -> Monoid:
    """Check the monoid axioms on a table, returning the witnessed failure otherwise."""
    rows = table.rows if isinstance(table, CayleyTable) else as_rows(table)
    n = len(rows)
    e = neutral_of(rows)
    if e is None:
        raise NoNeutralElement()
    w = associativity_witness(rows)
    if w is not None:
        raise NotAssociative(*w)
    if require_commutative:
        for x in range(n):
            for y in range(x + 1, n):
                if rows[x][y] != rows[y][x]:
                    raise NotCommutative(x, y)
    return Monoid(CayleyTable(rows), e)


@dataclass(frozen=True)
class Semiring:
    """Commutative addition and a multiplication with absorbing zero, linked by distributivity."""

    add: Monoid
    mul: CayleyTable
    one: int

    @property
    def order(self) -> int:
        return self.add.order

    @property
    def zero(self) -> int:
        return self.add.neutral

    def mul_monoid(self) -> Monoid:
        return Monoid(self.mul, self.one)

    def opposite(self) -> "Semiring":
        return Semiring(self.add, CayleyTable(transpose(self.mul.rows)), self.one)


def validate_semiring(add_table, mul_table) -> Semiring:
    """Check all four semiring axioms exhaustively."""
    add_rows = add_table.rows if isinstance(add_table, CayleyTable) else as_rows(add_table)
    mul_rows = mul_table.rows if isinstance(mul_table, CayleyTable) else as_rows(mul_table)
    if len(add_rows) != len(mul_rows):
        raise AlgebraError("addition and multiplication tables have different orders")
    try:
        add = validate_monoid(add_rows, require_commutative=True)
    except AlgebraError as exc:
        raise AdditiveNotCommutativeMonoid(str(exc)) from exc
    one = neutral_of(mul_rows)
    if one is None:
        raise MulNotMonoid("multiplication has no unit")
    w = associativity_witness(mul_rows)
    if w is not None:
        raise MulNotMonoid("multiplication not associative at ({},{},{})".format(*w))
    zero = add.neutral
    for x in range(len(add_rows)):
        if mul_rows[x][zero] != zero or mul_rows[zero][x] != zero:
            raise ZeroNotAbsorbing(x)
    w = distributivity_witness(add_rows, mul_rows)
    if w is not None:
        raise NotDistributive(*w)
    return Semiring(add, CayleyTable(mul_rows), one)


def one_generates_addition(s: Semiring) -> bool:
    """True iff every nonzero element is a finite additive multiple of the unit."""
    add = s.add.rows
    reached = set()
    x = s.one
    while x not in reached:
        reached.add(x)
        x = add[x][s.one]
    return reached >= set(range(s.order)) - {s.zero}


# ---------------------------------------------------------------------------
# isomorphism search

def iter_isomorphisms(a: Monoid, b: Monoid):
    """Yield all neutral-preserving bijections carrying a's table onto b's, in lex order."""
    n = a.order
    if b.order != n:
        return
    ra, rb = a.op.rows, b.op.rows
    for p in permutations(range(n)):
        if p[a.neutral] == b.neutral and preservation_witness(p, ra, rb) is None:
            yield p


def are_isomorphic(a: Monoid, b: Monoid):
    """The lexicographically smallest witnessing bijection, or None."""
    for p in iter_isomorphisms(a, b):
        return p
    return None


def automorphisms(m: Monoid):
    return list(iter_isomorphisms(m, m))
