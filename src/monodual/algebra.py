"""Finite monoids, semirings and lattices with exhaustive validators.

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
    neutral_of,
    preservation_witness,
    relabel,
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


class InvalidLattice(AlgebraError):
    pass


@dataclass(frozen=True)
class Monoid:
    """An associative operation table with its neutral element.

    Catalog-normalised instances have neutral == 0; instances produced from
    other sources (dual lattices, adjoint monoids before relabeling) may
    carry the neutral elsewhere.
    """

    op: CayleyTable
    neutral: int

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
        if self.neutral == 0:
            return self
        perm = list(range(self.order))
        perm[0], perm[self.neutral] = self.neutral, 0
        return Monoid(CayleyTable(relabel(self.op.rows, perm)), 0)


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

    def to_json(self) -> str:
        import json

        return json.dumps({
            "add": {"order": self.order, "table": [list(r) for r in self.add.rows]},
            "mul": {"order": self.order, "table": [list(r) for r in self.mul.rows]},
        })

    @classmethod
    def from_json(cls, text: str) -> "Semiring":
        import json

        obj = json.loads(text)
        return validate_semiring(obj["add"]["table"], obj["mul"]["table"])


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

def _row_profile(rows: Rows, neutral: int):
    """Cheap permutation-invariant fingerprint used to prune the search."""
    n = len(rows)
    per_elem = []
    for x in range(n):
        col = [rows[y][x] for y in range(n)]
        row_counts = tuple(sorted(rows[x].count(v) for v in range(n)))
        col_counts = tuple(sorted(col.count(v) for v in range(n)))
        per_elem.append((x == neutral, rows[x][x] == x, row_counts, col_counts))
    return sorted(per_elem)


def iter_isomorphisms(a: Monoid, b: Monoid):
    """Yield all neutral-preserving bijections carrying a's table onto b's, in lex order."""
    n = a.order
    if b.order != n:
        return
    ra, rb = a.op.rows, b.op.rows
    if _row_profile(ra, a.neutral) != _row_profile(rb, b.neutral):
        return
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


# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True)
class Lattice:
    """A finite lattice given by its order relation; leq[x][y] means x <= y."""

    leq: tuple[tuple[bool, ...], ...]

    @property
    def order(self) -> int:
        return len(self.leq)

    @classmethod
    def from_leq(cls, leq) -> "Lattice":
        rel = tuple(tuple(bool(v) for v in row) for row in leq)
        n = len(rel)
        if any(len(row) != n for row in rel):
            raise InvalidLattice("relation is not square")
        lat = cls(rel)
        lat._validate()
        return lat

    def _validate(self):
        n = self.order
        leq = self.leq
        for x in range(n):
            if not leq[x][x]:
                raise InvalidLattice(f"not reflexive at {x}")
        for x in range(n):
            for y in range(n):
                if x != y and leq[x][y] and leq[y][x]:
                    raise InvalidLattice(f"not antisymmetric at ({x},{y})")
                if leq[x][y]:
                    for z in range(n):
                        if leq[y][z] and not leq[x][z]:
                            raise InvalidLattice(f"not transitive at ({x},{y},{z})")
        # joins and meets must exist and be unique
        self.join_table()
        self.meet_table()
        if len([x for x in range(n) if all(leq[x][y] for y in range(n))]) != 1:
            raise InvalidLattice("no unique minimal element")

    def _bound(self, x: int, y: int, upper: bool) -> int:
        n = self.order
        leq = self.leq
        if upper:
            cands = [z for z in range(n) if leq[x][z] and leq[y][z]]
        else:
            cands = [z for z in range(n) if leq[z][x] and leq[z][y]]
        for z in cands:
            if all((leq[z][w] if upper else leq[w][z]) for w in cands):
                return z
        kind = "least upper" if upper else "greatest lower"
        raise InvalidLattice(f"pair ({x},{y}) has no {kind} bound")

    def join_table(self) -> Rows:
        n = self.order
        return tuple(tuple(self._bound(x, y, True) for y in range(n)) for x in range(n))

    def meet_table(self) -> Rows:
        n = self.order
        return tuple(tuple(self._bound(x, y, False) for y in range(n)) for x in range(n))

    @property
    def bottom(self) -> int:
        return next(x for x in range(self.order) if all(self.leq[x]))

    @property
    def top(self) -> int:
        return next(
            x for x in range(self.order) if all(self.leq[y][x] for y in range(self.order))
        )


def chain(n: int) -> Lattice:
    return Lattice.from_leq([[x <= y for y in range(n)] for x in range(n)])


def diamond() -> Lattice:
    """Bottom, two incomparable middle elements, top."""
    leq = [[True, True, True, True],
           [False, True, False, True],
           [False, False, True, True],
           [False, False, False, True]]
    return Lattice.from_leq(leq)


def lattice_join_monoid(lat: Lattice) -> Monoid:
    """The join operation as a commutative monoid, neutral at the bottom element."""
    return Monoid(CayleyTable(lat.join_table()), lat.bottom)


def dual_lattice(lat: Lattice):
    """Order-reversed lattice plus the star bijection (identity on the carrier)."""
    n = lat.order
    rev = Lattice.from_leq([[lat.leq[y][x] for y in range(n)] for x in range(n)])
    return rev, tuple(range(n))
