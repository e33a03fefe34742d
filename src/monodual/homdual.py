"""Homomorphism sets, adjoint monoids, duality functions and the quadruple census.

A duality function between commutative monoids S and R with values in a
commutative monoid T is an |S| x |R| table psi satisfying four conditions:

  (1) the rows psi(x, .) are pairwise distinct,
  (2) the columns psi(., y) are exactly the homomorphism set H(S, T),
  (3) the columns are pairwise distinct,
  (4) the rows are exactly H(R, T).

Homomorphism sets are computed exactly: candidate values are enumerated on a
generating set of the source (values elsewhere are forced by additivity) and
every candidate is then re-checked on all argument pairs.  The test suite
holds this against the plain filter over all |T|^|S| value tables.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from itertools import product

from . import catalog
from .algebra import Monoid, automorphisms, iter_isomorphisms
from .tables import CayleyTable, Rows, preservation_witness, transpose

QUADRUPLE_ORDERS = range(2, 5)  # the max_order values the census search accepts


class DualityError(ValueError):
    pass


class Condition1Fail(DualityError):
    def __init__(self, x1, x2):
        self.witness = (x1, x2)
        super().__init__(f"rows {x1} and {x2} coincide")


class Condition2Fail(DualityError):
    def __init__(self, detail):
        super().__init__(f"columns do not equal H(S,T): {detail}")


class Condition3Fail(DualityError):
    def __init__(self, y1, y2):
        self.witness = (y1, y2)
        super().__init__(f"columns {y1} and {y2} coincide")


class Condition4Fail(DualityError):
    def __init__(self, detail):
        super().__init__(f"rows do not equal H(R,T): {detail}")


class NotIsomorphism(DualityError):
    pass


class UnmatchedClass(DualityError):
    pass


@dataclass(frozen=True)
class Hom:
    """A homomorphism between monoids, stored as its value table."""

    source: Monoid
    target: Monoid
    values: tuple[int, ...]


def is_homomorphism(source: Monoid, target: Monoid, values) -> bool:
    vals = tuple(values)
    if vals[source.neutral] != target.neutral:
        return False
    return preservation_witness(vals, source.rows, target.rows) is None


@dataclass(frozen=True)
class AdjointMonoid:
    """H(S, T) as its sorted maps; the pointwise-addition table ``op`` is built on first read."""

    source: Monoid
    target: Monoid
    base: tuple[Hom, ...]

    @property
    def size(self) -> int:
        return len(self.base)

    @property
    def op(self) -> CayleyTable:
        if "_op" not in self.__dict__:
            homs, t = self.values(), self.target.rows
            index = {h: i for i, h in enumerate(homs)}
            sums = [[tuple(t[a][b] for a, b in zip(f, g)) for g in homs] for f in homs]
            if any(h not in index for row in sums for h in row):
                raise AssertionError("hom set not closed under pointwise addition")
            object.__setattr__(self, "_op", CayleyTable(tuple(tuple(index[h] for h in row) for row in sums)))
        return self._op

    @property
    def index_of_zero(self) -> int:
        return self.values().index((self.target.neutral,) * self.source.order)

    def monoid(self) -> Monoid:
        return Monoid(self.op, self.index_of_zero)

    def values(self) -> tuple[tuple[int, ...], ...]:
        return tuple(h.values for h in self.base)


def _generating_plan(m: Monoid):
    """A generating set plus, for each non-generator, a sum that produces it.

    Greedy over 0..n-1: an element outside the current span becomes a
    generator and the span is re-closed, recording for every newly reached
    element one pair of already-reached elements whose sum it is.  Assigning
    target values to the generators then forces the value everywhere, and a
    full additivity re-check keeps the search exact.
    """
    rows = m.rows
    generators: list[int] = []
    plan: list[tuple[int, int, int]] = []  # (element, a, b) with element = a + b
    span = {m.neutral}
    for x in range(m.order):
        if x in span:
            continue
        generators.append(x)
        span.add(x)
        grew = True
        while grew:
            grew = False
            for a in list(span):
                for b in list(span):
                    p = rows[a][b]
                    if p not in span:
                        span.add(p)
                        plan.append((p, a, b))
                        grew = True
    return generators, plan


def _all_homs(source: Monoid, target: Monoid):
    """Every homomorphism as a value table, by exhausting generator assignments."""
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


def hom_set(source: Monoid, target: Monoid) -> AdjointMonoid:
    """Every homomorphism source -> target; the addition table is built on first read."""
    if not target.is_commutative():
        raise ValueError("the target monoid must be commutative")
    return AdjointMonoid(source, target, tuple(Hom(source, target, h) for h in _all_homs(source, target)))


def adjoint_embedding(source: Monoid, target: Monoid) -> Hom:
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


def is_reflexive(source: Monoid, target: Monoid) -> bool:
    """Whether the evaluation embedding into the double adjoint is a bijection.

    Decided by counting, without the double adjoint's table: the evaluation
    map x -> (h -> h(x)) is injective and H(H(S,T),T) has exactly |S| maps.
    """
    return _reflexive(hom_set(source, target))


def _reflexive(adj: AdjointMonoid) -> bool:
    """``is_reflexive`` for the source and target of an adjoint already computed."""
    return len(set(zip(*adj.values()))) == adj.source.order == len(_all_homs(adj.monoid(), adj.target))


@dataclass(frozen=True)
class VerificationRecord:
    rows_distinct: bool
    columns_are_hom_set: bool
    columns_distinct: bool
    rows_are_hom_set: bool

    @property
    def all_passed(self) -> bool:
        return (
            self.rows_distinct
            and self.columns_are_hom_set
            and self.columns_distinct
            and self.rows_are_hom_set
        )


@dataclass(frozen=True)
class DualityFunction:
    """An |S| x |R| table into T, rows indexed by S."""

    s: Monoid
    r: Monoid
    t: Monoid
    values: Rows
    verified: VerificationRecord | None = field(default=None, compare=False)

    def row(self, x: int) -> tuple[int, ...]:
        return self.values[x]

    def column(self, y: int) -> tuple[int, ...]:
        return tuple(self.values[x][y] for x in range(self.s.order))

    def transposed(self) -> "DualityFunction":
        return DualityFunction(self.r, self.s, self.t, transpose(self.values), self.verified)

    def checked(self) -> "DualityFunction":
        """This table with the record of ``verify_duality``, which raises on the first failed condition."""
        return replace(self, verified=verify_duality(self))


def verify_duality(psi: DualityFunction) -> VerificationRecord:
    """Exhaustively check the four duality conditions, raising on the first failure."""
    ns, nr = psi.s.order, psi.r.order
    if len(psi.values) != ns or any(len(row) != nr for row in psi.values):
        raise DualityError("table dimensions disagree with the carriers")
    rows = [psi.row(x) for x in range(ns)]
    cols = [psi.column(y) for y in range(nr)]
    seen = {}
    for x, row in enumerate(rows):
        if row in seen:
            raise Condition1Fail(seen[row], x)
        seen[row] = x
    col_set = set(cols)
    hs = set(hom_set(psi.s, psi.t).values())
    if col_set != hs:
        missing = sorted(hs - col_set)
        extra = sorted(col_set - hs)
        raise Condition2Fail(f"missing={missing} extra={extra}")
    seen = {}
    for y, col in enumerate(cols):
        if col in seen:
            raise Condition3Fail(seen[col], y)
        seen[col] = y
    hr = set(hom_set(psi.r, psi.t).values())
    if set(rows) != hr:
        missing = sorted(hr - set(rows))
        extra = sorted(set(rows) - hr)
        raise Condition4Fail(f"missing={missing} extra={extra}")
    return VerificationRecord(True, True, True, True)


def evaluation_duality(source: Monoid, target: Monoid) -> DualityFunction:
    """The table psi(x, h) = h(x) on S x H(S,T); a duality whenever S is T-reflexive."""
    adj = hom_set(source, target)
    return DualityFunction(source, adj.monoid(), target, tuple(zip(*adj.values()))).checked()


def candidate_duality(source: Monoid, target: Monoid, r: Monoid, iso) -> DualityFunction:
    """Build psi(x, y) = f_y(x) from an isomorphism y -> f_y of R onto H(S,T).

    ``iso`` maps R-elements to indices into hom_set(source, target).  The
    candidate is a duality function iff its rows are pairwise distinct; the
    returned table carries the full verification record when they are.
    """
    adj = hom_set(source, target)
    iso = tuple(iso)
    if sorted(iso) != list(range(adj.size)) or r.order != adj.size:
        raise NotIsomorphism("not a bijection onto the hom set")
    w = preservation_witness(iso, r.rows, adj.op.rows)
    if w is not None:
        raise NotIsomorphism("addition not preserved at ({},{})".format(*w))
    if iso[r.neutral] != adj.index_of_zero:
        raise NotIsomorphism("neutral element not mapped to the constant map")
    psi = DualityFunction(source, r, target, tuple(zip(*(adj.base[i].values for i in iso))))
    return psi.checked() if len(set(psi.values)) == source.order else psi


def named_duality(name: str) -> DualityFunction:
    """A verified duality function from the embedded table catalog (psi1, psi2, ...)."""
    if name not in catalog.PSI_TABLES:
        raise KeyError(f"unknown duality name {name!r}")
    s_lab, r_lab, t_lab, values = catalog.PSI_TABLES[name]
    return DualityFunction(catalog.monoid(s_lab), catalog.monoid(r_lab), catalog.monoid(t_lab), values).checked()


def duality_to_dict(psi: DualityFunction) -> dict:
    def mono(m: Monoid) -> dict:
        return {"table": [list(r) for r in m.rows], "neutral": m.neutral}

    return {
        "s": mono(psi.s),
        "r": mono(psi.r),
        "t": mono(psi.t),
        "values": [list(r) for r in psi.values],
    }


def duality_from_dict(obj: dict) -> DualityFunction:
    from .algebra import validate_monoid

    def grid(rows) -> tuple[tuple[int, ...], ...]:
        try:
            return tuple(tuple(map(operator.index, row)) for row in rows)
        except TypeError:
            raise DualityError("tables and values must be lists of lists of integers") from None

    def mono(d: dict) -> Monoid:
        if not isinstance(d, dict):
            raise DualityError("each carrier must be an object with a table")
        m = validate_monoid(grid(d["table"]))
        if d.get("neutral") not in (None, m.neutral):
            raise DualityError("declared neutral element is wrong")
        return m

    if not isinstance(obj, dict):
        raise DualityError("a duality must be an object with keys s, r, t and values")
    return DualityFunction(mono(obj["s"]), mono(obj["r"]), mono(obj["t"]), grid(obj["values"])).checked()


def match_named_duality(psi: DualityFunction) -> str | None:
    """The catalog name whose class contains psi, up to carrier relabeling; None if none.

    Carriers are first relabeled onto their catalog tables (any isomorphism
    works; the ambiguity is absorbed by the class moves), then compared under
    argument relabeling by automorphisms and transposition.
    """
    hits = [catalog.catalog_lookup(m) for m in (psi.s, psi.r, psi.t)]
    if any(h is None for h in hits):
        return None
    (s_e, s_p), (r_e, r_p), (t_e, t_p) = hits
    ns, nr = psi.s.order, psi.r.order
    values = [[0] * nr for _ in range(ns)]
    for x in range(ns):
        for y in range(nr):
            values[s_p[x]][r_p[y]] = t_p[psi.values[x][y]]
    key = _class_key(s_e.label, r_e.label, t_e.label, tuple(tuple(r) for r in values))
    return _named_classes().get(key)


# ---------------------------------------------------------------------------
# the quadruple census

@dataclass(frozen=True)
class Quadruple:
    r_label: str
    s_label: str
    t_label: str
    psi: DualityFunction
    isomorphism_count: int

    def key(self):
        return (self.s_label, self.r_label, self.t_label, self.psi.values)


def find_all_duality_quadruples(max_order: int = 4) -> list[Quadruple]:
    """Every (R, S, T, psi) with carriers of order 2..max_order, one per triple.

    The census is the T-reflexive pairs: for each catalog monoid S (one per
    catalog class) and T, the adjoint H(S, T) is computed once, and the pair
    is kept when 2 <= |H(S, T)| <= max_order and S is T-reflexive.  R is the
    adjoint's catalog class.  Every isomorphism of R onto the adjoint
    produces a candidate table, all of which are required to verify (a
    census-wide sanity law this search re-checks each run).  The quadruple
    recorded for the triple carries the lexicographically smallest candidate.
    """
    if max_order not in QUADRUPLE_ORDERS:
        raise ValueError("max_order must be between 2 and 4")
    labels = [
        lab for lab in catalog.M_LABELS
        if 2 <= catalog.ENTRIES[lab].table.order <= max_order
    ]
    out = []
    for s_lab in labels:
        s = catalog.monoid(s_lab)
        if catalog.catalog_lookup(s)[0].label != s_lab:
            continue  # one S per catalog class
        for t_lab in labels:
            t = catalog.monoid(t_lab)
            adj = hom_set(s, t)
            if not 2 <= adj.size <= max_order or not _reflexive(adj):
                continue
            hit = catalog.catalog_lookup(adj.monoid())
            if hit is None:
                continue
            r_lab, r = hit[0].label, hit[0].monoid()
            cands = [candidate_duality(s, t, r, p) for p in iter_isomorphisms(r, adj.monoid())]
            if not cands:
                raise AssertionError("no isomorphism found onto the adjoint")
            if any(c.verified is None or not c.verified.all_passed for c in cands):
                raise AssertionError(f"candidate failed for ({r_lab},{s_lab},{t_lab})")
            out.append(Quadruple(r_label=r_lab, s_label=s_lab, t_label=t_lab,
                                 psi=min(cands, key=lambda c: c.values), isomorphism_count=len(cands)))
    out.sort(key=Quadruple.key)
    return out


def generated_submonoid(m: Monoid, values) -> set[int]:
    gen = set(values) | {m.neutral}
    rows = m.rows
    while True:
        new = {rows[a][b] for a in gen for b in gen} | gen
        if new == gen:
            return gen
        gen = new


def is_minimal(q: Quadruple) -> bool:
    """Whether the table's values generate all of T."""
    t = q.psi.t
    vals = {v for row in q.psi.values for v in row}
    return generated_submonoid(t, vals) == set(range(t.order))


def _class_key(s_label: str, r_label: str, t_label: str, values: Rows):
    """Canonical key under row/column relabeling by automorphisms and transposition."""
    s = catalog.monoid(s_label)
    r = catalog.monoid(r_label)
    cands = []
    for b in automorphisms(s):
        for a in automorphisms(r):
            m = tuple(
                tuple(values[b[x]][a[y]] for y in range(r.order)) for x in range(s.order)
            )
            cands.append((s_label, r_label, t_label, m))
            cands.append((r_label, s_label, t_label, transpose(m)))
    return min(cands)


def _named_classes() -> dict:
    """{class key: name} over the named catalog tables; the first name of a class wins."""
    named = {}
    for name, (s_lab, r_lab, t_lab, values) in catalog.PSI_TABLES.items():
        named.setdefault(_class_key(s_lab, r_lab, t_lab, values), name)
    return named


@dataclass(frozen=True)
class ReducedClass:
    representative: Quadruple
    members: tuple[Quadruple, ...]
    matched_name: str


def reduce_duality_quadruples(quads) -> list[ReducedClass]:
    """Quotient the census by the three reductions and match against the named tables.

    Non-minimal quadruples (values inside a proper submonoid of T) are
    dropped; the rest are grouped under relabeling of either argument by a
    carrier automorphism and under transposition.  Every class must match a
    named catalog table under the same moves, else UnmatchedClass is raised.
    """
    named = _named_classes()
    groups: dict = {}
    for q in quads:
        if not is_minimal(q):
            continue
        key = _class_key(q.s_label, q.r_label, q.t_label, q.psi.values)
        groups.setdefault(key, []).append(q)
    out = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key], key=Quadruple.key))
        name = named.get(key)
        if name is None:
            raise UnmatchedClass(f"no named table for class of {members[0].key()[:3]}")
        rep = min(members, key=lambda q: q.psi.values)
        out.append(ReducedClass(representative=rep, members=members, matched_name=name))
    out.sort(key=lambda c: (len(c.matched_name), c.matched_name))
    return out
