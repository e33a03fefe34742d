"""Homomorphism sets, adjoint monoids, duality functions and the quadruple census.

A duality function between commutative monoids S and R with values in a
commutative monoid T is an |S| x |R| table psi satisfying four conditions:

  (1) the rows psi(x, .) are pairwise distinct,
  (2) the columns psi(., y) are exactly the homomorphism set H(S, T),
  (3) the columns are pairwise distinct,
  (4) the rows are exactly H(R, T).

Homomorphism sets are computed exactly from restricted generator images,
then additivity on generator rows.  Values are enumerated on a generating
set of the source, each generator g only over the t in T with
i.t = (i + p).t, where i.g = (i + p).g in S (a homomorphism keeps that
relation); the values elsewhere are forced by sums.  A candidate is kept
when f(g + y) = f(g) + f(y) for every generator g and every y, which with
f(0) = 0 is exact: by induction on word length, f(g1 + ... + gk + y) =
f(g1) + ... + f(gk) + f(y), using associativity only.  The test suite holds
this against the search that re-checks all argument pairs and against the
plain filter over all |T|^|S| value tables.  Each pair of tables is searched
once per process: the maps are memoised by the contents of the two monoids,
as the search plan is, so ``hom_set``, the census, the reflexivity test and
``verify_duality`` share them.  The memo keeps the value tables only, not the
``Hom`` objects or the addition tables built from them.

The four conditions are checked in one place, ``check_pairing``; given the
table, ``verify_duality`` searches both hom sets for it.  The quadruple
census searches H(S, T) once per pair of carriers instead, and takes H(R, T)
from the double adjoint its reflexivity test already searched: by (2)-(4),
y -> psi(., y) is an isomorphism of R onto H(S, T), so each candidate is the
adjoint's evaluation table with its columns relabelled by one isomorphism
R -> H(S, T), and each is checked against the same two sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import getitem

from . import catalog
from .algebra import Monoid, iter_isomorphisms, validate_monoid
from .tables import CayleyTable, Rows, SizeBudgetExceeded, as_int, pair_budget, transpose

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


class UnmatchedClass(DualityError):
    pass


@dataclass(frozen=True)
class Hom:
    """A homomorphism between monoids, stored as its value table."""

    source: Monoid
    target: Monoid
    values: tuple[int, ...]


def is_homomorphism(source: Monoid, target: Monoid, values) -> bool:
    """Whether the value table ``values`` (the image of each of 0..|S|-1) is a homomorphism S -> T.

    ValueError if it is no value table: not |S| integers (booleans refused) in 0..|T|-1.
    """
    try:
        vals = tuple(map(as_int, values))
    except TypeError:
        raise ValueError("a value table must list integers") from None
    if len(vals) != source.order or not all(0 <= v < target.order for v in vals):
        raise ValueError(f"a value table must list {source.order} values in 0..{target.order - 1}")
    if vals[source.neutral] != target.neutral:
        return False
    return _additive_on_generator_rows(vals, _search_plan(source)[0], source.rows, target.rows)


@dataclass(frozen=True)
class AdjointMonoid:
    """H(S, T) as its sorted maps; the addition table ``op`` is built on first read, within the pair budget."""

    source: Monoid
    target: Monoid
    base: tuple[Hom, ...]

    @property
    def size(self) -> int:
        return len(self.base)

    @property
    def op(self) -> CayleyTable:
        if "_op" not in self.__dict__:
            if self.size ** 2 > pair_budget():
                raise SizeBudgetExceeded(f"the addition table of {self.size} maps exceeds the pair budget")
            homs, t = self.values(), self.target.rows
            index = {h: i for i, h in enumerate(homs)}
            # (f + g)(x) = t[f(x)][g(x)]: f's rows of t, read at g's values
            sums = [[tuple(map(getitem, rows, g)) for g in homs] for rows in ([t[v] for v in f] for f in homs)]
            if any(h not in index for row in sums for h in row):
                raise AssertionError("hom set not closed under pointwise addition")
            object.__setattr__(self, "_op", CayleyTable(tuple(tuple(index[h] for h in row) for row in sums)))
        return self._op

    @property
    def index_of_zero(self) -> int:
        return self.values().index((self.target.neutral,) * self.source.order)

    def monoid(self) -> Monoid:
        """H(S, T) as a monoid, built once per instance."""
        if "_monoid" not in self.__dict__:
            object.__setattr__(self, "_monoid", Monoid(self.op, self.index_of_zero))
        return self._monoid

    def values(self) -> tuple[tuple[int, ...], ...]:
        """The value tables of the maps, built once per instance."""
        if "_values" not in self.__dict__:
            object.__setattr__(self, "_values", tuple(h.values for h in self.base))
        return self._values


def _generating_plan(m: Monoid):
    """A generating set plus, for each non-generator, a sum that produces it.

    Greedy over 0..n-1: an element outside the current span becomes a
    generator and the span is re-closed, recording for every newly reached
    element one pair of already-reached elements whose sum it is.  Assigning
    target values to the generators then forces the value everywhere, and
    the generator-row check keeps the search exact.
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


def _cycle(m: Monoid, x: int) -> tuple[int, int]:
    """The least index i and period p >= 1 with i.x = (i + p).x, where 0.x is the neutral element."""
    seen: dict[int, int] = {}
    y = m.neutral
    while y not in seen:
        seen[y] = len(seen)
        y = m.rows[x][y]
    return seen[y], len(seen) - seen[y]


def _multiple(m: Monoid, x: int, k: int) -> int:
    y = m.neutral
    for _ in range(k):
        y = m.rows[x][y]
    return y


@cache
def _search_plan(source: Monoid) -> tuple:
    """``_generating_plan`` of the source, with each generator's ``_cycle``."""
    generators, plan = _generating_plan(source)
    return tuple(generators), tuple(plan), tuple(_cycle(source, g) for g in generators)


@cache
def _images_with_cycle(target: Monoid, index: int, period: int) -> tuple[int, ...]:
    """The t in T with index.t = (index + period).t: the images a generator with this cycle may have."""
    return tuple(t for t in range(target.order) if _multiple(target, t, index) == _multiple(target, t, index + period))


def _additive_on_generator_rows(vals, generators, s_rows, t_rows) -> bool:
    """Whether f(g + y) = f(g) + f(y) for every generator g and every y; with f(0) = 0, whether f is additive."""
    for g in generators:
        sg, tg = s_rows[g], t_rows[vals[g]]
        for y, fy in enumerate(vals):
            if vals[sg[y]] != tg[fy]:
                return False
    return True


def _all_homs(source: Monoid, target: Monoid) -> list[tuple[int, ...]]:
    """Every homomorphism as a value table, sorted: restricted generator images, then additivity on generator rows.

    Each generator g with i.g = (i + p).g takes only the images t with
    i.t = (i + p).t (``_images_with_cycle``), which drops no homomorphism;
    the plan forces the other values, and ``_additive_on_generator_rows``
    keeps the candidate exactly when it is additive, since every element is
    a word in the generators and f(g1 + ... + gk + y) = f(g1) + ... + f(gk)
    + f(y) follows by induction on k.
    """
    generators, plan, cycles = _search_plan(source)
    s_rows, t_rows, blank = source.rows, target.rows, [target.neutral] * source.order
    homs = []
    for assignment in product(*(_images_with_cycle(target, i, p) for i, p in cycles)):
        vals = blank.copy()
        for g, v in zip(generators, assignment):
            vals[g] = v
        for elem, a, b in plan:
            vals[elem] = t_rows[vals[a]][vals[b]]
        if _additive_on_generator_rows(vals, generators, s_rows, t_rows):
            homs.append(tuple(vals))
    homs.sort()
    return homs


@cache
def _hom_values(source: Monoid, target: Monoid) -> tuple[tuple[int, ...], ...]:
    """``_all_homs`` into a commutative target, searched once per pair of
    tables: monoids are keyed by their contents, and only the value tables
    are kept."""
    if not target.is_commutative():
        raise ValueError("the target monoid must be commutative")
    return tuple(_all_homs(source, target))


def hom_set(source: Monoid, target: Monoid) -> AdjointMonoid:
    """Every homomorphism source -> target; the addition table is built on first read."""
    return _adjoint(source, target, _hom_values(source, target))


def _adjoint(source: Monoid, target: Monoid, maps) -> AdjointMonoid:
    return AdjointMonoid(source, target, tuple(Hom(source, target, h) for h in maps))


def _separates_points(order: int, maps) -> bool:
    """Whether the evaluation map x -> (h -> h(x)) on a source of this order is injective."""
    return len(set(zip(*maps))) == order


def is_reflexive(source: Monoid, target: Monoid) -> bool:
    """Whether the evaluation embedding into the double adjoint is a bijection.

    Decided by counting, without the double adjoint's table: the evaluation
    map x -> (h -> h(x)) is injective and H(H(S,T),T) has exactly |S| maps.
    """
    return _reflexive(hom_set(source, target)) is not None


def _reflexive(adj: AdjointMonoid) -> tuple[tuple[int, ...], ...] | None:
    """The double adjoint's maps H(H(S, T), T) if S is T-reflexive, else None, for an adjoint already computed."""
    if not _separates_points(adj.source.order, adj.values()):
        return None
    double = _hom_values(adj.monoid(), adj.target)
    return double if len(double) == adj.source.order else None


@dataclass(frozen=True)
class DualityFunction:
    """An |S| x |R| table into T, rows indexed by S: only data, which ``verify_duality`` checks."""

    s: Monoid
    r: Monoid
    t: Monoid
    values: Rows

    def column(self, y: int) -> tuple[int, ...]:
        return tuple(self.values[x][y] for x in range(self.s.order))

    def transposed(self) -> "DualityFunction":
        return DualityFunction(self.r, self.s, self.t, transpose(self.values))


def check_pairing(rows, column_maps, row_maps) -> None:
    """Check the four duality conditions on a table given by its rows, raising the first that fails.

    ``column_maps`` and ``row_maps`` are zero-argument callables giving the
    maps the columns and the rows must be (H(S, T) and H(R, T) for a monoid
    duality).  Each is called only once the conditions before its own pass:
    (1) rows distinct, (2) columns = column_maps(), (3) columns distinct,
    (4) rows = row_maps().
    """
    rows = [tuple(r) for r in rows]
    cols = list(zip(*rows))
    for lines, repeat_fail, images, maps, maps_fail in (
        (rows, Condition1Fail, cols, column_maps, Condition2Fail),
        (cols, Condition3Fail, rows, row_maps, Condition4Fail),
    ):
        seen = {}
        for i, line in enumerate(lines):
            if line in seen:
                raise repeat_fail(seen[line], i)
            seen[line] = i
        have, want = set(images), set(maps())
        if have != want:
            raise maps_fail(f"missing={sorted(want - have)} extra={sorted(have - want)}")


def verify_duality(psi: DualityFunction) -> None:
    """Exhaustively check the four duality conditions (``check_pairing``), raising on the first failure.

    H(S, T) is built only after condition 1 passes, and H(R, T) only after
    conditions 2 and 3 pass.
    """
    if len(psi.values) != psi.s.order or any(len(row) != psi.r.order for row in psi.values):
        raise DualityError("table dimensions disagree with the carriers")
    check_pairing(psi.values, lambda: hom_set(psi.s, psi.t).values(), lambda: hom_set(psi.r, psi.t).values())


def named_duality(name: str) -> DualityFunction:
    """A verified duality function from the embedded table catalog (psi1, psi2, ...), or its transpose (psi5.T)."""
    base = name.removesuffix(".T")
    if base not in catalog.PSI_TABLES:
        raise KeyError(f"unknown duality name {name!r}")
    s_lab, r_lab, t_lab, values = catalog.PSI_TABLES[base]
    psi = DualityFunction(catalog.monoid(s_lab), catalog.monoid(r_lab), catalog.monoid(t_lab), values)
    verify_duality(psi)
    return psi if base == name else psi.transposed()


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
    def grid(rows) -> tuple[tuple[int, ...], ...]:
        try:
            return tuple(tuple(map(as_int, row)) for row in rows)
        except TypeError:
            raise DualityError("tables and values must be lists of lists of integers") from None

    def mono(d: dict) -> Monoid:
        if not isinstance(d, dict):
            raise DualityError("each carrier must be an object with a table")
        m = validate_monoid(grid(d["table"]))
        if d.get("neutral") not in (None, m.neutral) or isinstance(d.get("neutral"), bool):
            raise DualityError("declared neutral element is wrong")
        return m

    if not isinstance(obj, dict):
        raise DualityError("a duality must be an object with keys s, r, t and values")
    psi = DualityFunction(mono(obj["s"]), mono(obj["r"]), mono(obj["t"]), grid(obj["values"]))
    verify_duality(psi)
    return psi


def match_named_duality(psi: DualityFunction) -> str | None:
    """The catalog name of psi's class, under any carrier relabeling; None if none or psi is no duality.

    The class is the catalog classes of the carriers (``_class_key``).  When
    the catalog names tables for that class, psi is verified, on every call,
    and then those tables in catalog order until one passes.
    """
    hits = [catalog.catalog_lookup(m) for m in (psi.s, psi.r, psi.t)]
    if None in hits:
        return None
    names = _catalog_classes().get(_class_key(*(entry.label for entry, _ in hits)), ())
    if names:
        try:
            verify_duality(psi)
        except DualityError:
            return None
    return _named_class(names)


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
    catalog class) and T, the maps of H(S, T) are searched once, and the pair
    is kept when 2 <= |H(S, T)| <= max_order and S is T-reflexive; the
    adjoint is built only for pairs whose maps pass the size test and
    separate the points of S.  R is the
    adjoint's catalog class.  Every isomorphism y -> f_y of R onto the adjoint
    gives a candidate table psi(x, y) = f_y(x), and every candidate must pass
    ``check_pairing`` against the adjoint's maps and H(R, T) (a census-wide
    sanity law this search re-checks each run; a failure raises its
    ``DualityError``).  H(R, T) is {h o iso} for the double adjoint's maps h,
    which the reflexivity test searched, and the first isomorphism iso.  The
    quadruple recorded for the triple carries the lexicographically smallest
    candidate.
    """
    try:
        max_order = as_int(max_order)
    except TypeError:
        raise ValueError(f"max_order must be an integer, got {max_order!r}") from None
    if max_order not in QUADRUPLE_ORDERS:
        raise ValueError("max_order must be between 2 and 4")
    labels = [
        lab for lab in catalog.M_LABELS
        if 2 <= catalog.ENTRIES[lab].table.order <= max_order
    ]
    monoids = {lab: catalog.monoid(lab) for lab in labels}
    out = []
    for s_lab, s in monoids.items():
        if catalog.catalog_lookup(s)[0].label != s_lab:
            continue  # one S per catalog class
        for t_lab, t in monoids.items():
            maps = _hom_values(s, t)
            # the size test and the cheap half of reflexivity come before any Hom is built
            if not 2 <= len(maps) <= max_order or not _separates_points(s.order, maps):
                continue
            adj = _adjoint(s, t, maps)
            if (double := _reflexive(adj)) is None:
                continue
            hit = catalog.catalog_lookup(adj.monoid())
            if hit is None:
                continue
            r_lab, r = hit[0].label, hit[0].monoid()
            isos = list(iter_isomorphisms(r, adj.monoid()))
            if not isos:
                raise AssertionError("no isomorphism found onto the adjoint")
            h_rt = sorted(tuple(h[i] for i in isos[0]) for h in double)
            cands = []
            for iso in isos:
                table = tuple(zip(*(adj.base[i].values for i in iso)))
                check_pairing(table, adj.values, lambda: h_rt)
                cands.append(table)
            out.append(Quadruple(r_label=r_lab, s_label=s_lab, t_label=t_lab,
                                 psi=DualityFunction(s, r, t, min(cands)),
                                 isomorphism_count=len(cands)))
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


def _class_key(s_label: str, r_label: str, t_label: str):
    """The class of a duality S x R -> T under relabeling by automorphisms and transposition.

    The class is its carriers: y -> psi(., y) is a bijection R -> H(S, T) by (2)-(3), additive
    by (4), so two dualities on the same carriers differ by an automorphism of R.
    """
    return (*sorted((s_label, r_label)), t_label)


def _catalog_classes() -> dict:
    """{class key: the catalog table names of that class, in catalog order}; no table is verified."""
    named: dict = {}
    for name, (s_lab, r_lab, t_lab, _) in catalog.PSI_TABLES.items():
        named.setdefault(_class_key(s_lab, r_lab, t_lab), []).append(name)
    return named


def _named_class(names) -> str | None:
    """The first of ``names`` whose catalog table verifies, or None; later names are not verified."""
    for name in names:
        try:
            named_duality(name)
        except DualityError:
            continue
        return name
    return None


@dataclass(frozen=True)
class ReducedClass:
    representative: Quadruple
    members: tuple[Quadruple, ...]
    matched_name: str


def reduce_duality_quadruples(quads) -> list[ReducedClass]:
    """Quotient the census by the three reductions and match against the named tables.

    ``quads`` are the census's quadruples, each of which passed ``check_pairing``.
    Non-minimal quadruples (values inside a proper submonoid of T) are
    dropped; the rest are grouped under relabeling of either argument by a
    carrier automorphism and under transposition, which for dualities is
    grouping by the carriers {S, R} and T (``_class_key``).  Every class must
    have a named catalog table that verifies, else UnmatchedClass is raised;
    only the tables named for a census class are verified (``_named_class``).
    """
    named = _catalog_classes()
    groups: dict = {}
    for q in quads:
        if not is_minimal(q):
            continue
        key = _class_key(q.s_label, q.r_label, q.t_label)
        groups.setdefault(key, []).append(q)
    out = []
    for key in sorted(groups):
        members = tuple(sorted(groups[key], key=Quadruple.key))
        name = _named_class(named.get(key, ()))
        if name is None:
            raise UnmatchedClass(f"no named table for class of {members[0].key()[:3]}")
        rep = min(members, key=lambda q: q.psi.values)
        out.append(ReducedClass(representative=rep, members=members, matched_name=name))
    out.sort(key=lambda c: (len(c.matched_name), c.matched_name))
    return out
