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

from dataclasses import dataclass, field, replace
from itertools import product

from . import catalog
from .algebra import Monoid, iter_isomorphisms
from .tables import CayleyTable, Rows, SizeBudgetExceeded, as_int, pair_budget, preservation_witness, transpose

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
class DualityFunction:
    """An |S| x |R| table into T, rows indexed by S; ``verified`` is set only by ``checked()``."""

    s: Monoid
    r: Monoid
    t: Monoid
    values: Rows
    verified: bool = field(default=False, compare=False)

    def column(self, y: int) -> tuple[int, ...]:
        return tuple(self.values[x][y] for x in range(self.s.order))

    def transposed(self) -> "DualityFunction":
        return DualityFunction(self.r, self.s, self.t, transpose(self.values), self.verified)

    def checked(self) -> "DualityFunction":
        """This table marked verified, after ``verify_duality`` (which raises on the first failed condition)."""
        verify_duality(self)
        return replace(self, verified=True)


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


def evaluation_duality(source: Monoid, target: Monoid) -> DualityFunction:
    """The table psi(x, h) = h(x) on S x H(S,T); a duality whenever S is T-reflexive."""
    adj = hom_set(source, target)
    return DualityFunction(source, adj.monoid(), target, tuple(zip(*adj.values()))).checked()


def candidate_duality(source: Monoid, target: Monoid, r: Monoid, iso) -> DualityFunction:
    """Build psi(x, y) = f_y(x) from an isomorphism y -> f_y of R onto H(S,T).

    ``iso`` maps R-elements to indices into hom_set(source, target).  The
    candidate is a duality function iff its rows are pairwise distinct; the
    returned table is verified (``checked``) when they are.
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
    return DualityFunction(mono(obj["s"]), mono(obj["r"]), mono(obj["t"]), grid(obj["values"])).checked()


def match_named_duality(psi: DualityFunction) -> str | None:
    """The catalog name of psi's class, under any carrier relabeling; None if none or psi is no duality.

    The class is the catalog classes of the carriers (``_class_key``).  psi
    is verified unless ``psi.verified`` is set; then the catalog tables named
    for its class are verified in catalog order until one passes.
    """
    hits = [catalog.catalog_lookup(m) for m in (psi.s, psi.r, psi.t)]
    if None in hits:
        return None
    names = _catalog_classes().get(_class_key(*(entry.label for entry, _ in hits)), ())
    if names and not psi.verified:
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
            if not all(c.verified for c in cands):
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

    ``quads`` are the census's quadruples, each of which has verified.
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
