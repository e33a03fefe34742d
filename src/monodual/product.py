"""Product monoids, matrix site maps, lifted dualities and dual-map construction.

Maps between product spaces are always carried as a matrix of local maps: a
global homomorphism m on S^k is determined by entries M[i][j] in H(S, S) via
m(x)_j = sum_i M[i][j](x_i), with the sum taken in S.  The matrix form is what
makes dual maps cheap: the dual of m has matrix entries dual(M[i][j]) placed
at the transposed position.

Indices: configurations of S^k are numbered in base |S|, site 0 the most
significant digit (``SiteSpace.index_of``/``config_of``); a space whose
indices would overflow int64 is refused when it is built.  Sums over sites
go through two helpers.  ``_sitewise_sums`` folds one local table per site
into the table of sums over a block of sites: Psi over a block, the module
maps S^k -> S, and the output sites of a matrix map over a block of input
sites.  It folds by halves: the table over w sites is the sum table of its
two halves' tables, ceil(log2 w) levels, each written one row of the left
half at a time as one gather from the sums of the right half's values.
``_peel`` splits the sites into the fewest near-equal blocks whose tables
fit a cell cap and peels each block's digits off index arrays.
``LiftedDuality.values_at`` caches its Psi block tables per width, so its
cap is the pair budget, and sums the block values in T;
``_map_images``, behind ``SiteMap.apply_indices`` and ``index_table``,
rebuilds its tables on every call, so the number of indices caps them too.
It maps several maps of one space at once: their output sites form one run
of lines, and it builds the block tables of a group of lines in one fold,
sums them in S for each line and finishes each map's image index by
Horner's rule in place; the group is sized so that its tables hold at most
half the bytes of one map's int64 images (or one PAIR_BLOCK).
``_tabulate`` fills the index tables of a batch of maps from one such
call.  ``LiftedDuality.table`` is the one-block case.  All values stay
uint8; the scalar ``SiteMap.apply`` and ``LiftedDuality.evaluate`` are the
test oracles.  Product monoids are built by the same index arithmetic, on
the digit arrays of ``np.indices``.

Dual maps: ``dual_maps`` builds the duals of a batch of maps and decides
their identity from the local entries alone (its docstring gives the
argument); ``dual_map`` is its one-map case.

Pairs: ``identity_holds`` is the one place that compares Psi(X(x), y) with
Psi(x, Y(y)) on index tables, for the pathwise checks.  It compares at most
PAIR_BLOCK pairs at a time in row-major order (``_blocks``), so the memory a
comparison holds no longer grows with the number of pairs compared; sampled
pairs come as index arrays of any integer dtype, and their images are looked
up one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, product as iproduct
from math import prod

import numpy as np

from . import catalog
from .algebra import Monoid, Semiring
from .homdual import DualityFunction, check_pairing, hom_set, is_homomorphism, verify_duality
from .tables import CayleyTable, SizeBudgetExceeded, as_int, pair_budget


# int64 indices number at most this many configurations of one space
MAX_CONFIGS = 2 ** 63
# configuration pairs one identity check compares at once, 16 KiB of uint8
# Psi values per side; fixed on memory grounds, and no option
PAIR_BLOCK = 2 ** 14


class NoDual(ValueError):
    pass


class NoRealEmbedding(ValueError):
    pass


@dataclass(frozen=True)
class SiteSpace:
    """A finite product S^k of copies of one local monoid."""

    local: Monoid
    sites: int

    def __post_init__(self):
        try:
            k = as_int(self.sites)
        except TypeError:
            k = -1
        if k < 0:
            raise ValueError(f"sites must be a non-negative integer, got {self.sites!r}")
        n = self.local.order
        # past 63 sites n >= 2 overflows, and n ** k need not be computed
        if n > 1 and (k > 63 or n ** k > MAX_CONFIGS):
            raise SizeBudgetExceeded(f"{n}^{k} configurations exceed the {MAX_CONFIGS} int64 indices can number")

    @property
    def n_configs(self) -> int:
        return self.local.order ** self.sites

    def configs(self):
        return iproduct(range(self.local.order), repeat=self.sites)

    def index_of(self, config) -> int:
        """The index of a configuration, site 0 the most significant digit; ValueError on a malformed one."""
        n = self.local.order
        try:
            digits = [as_int(v) for v in config]
        except TypeError:
            raise ValueError(f"a configuration must list integer site values, got {config!r}") from None
        if len(digits) != self.sites:
            raise ValueError(f"a configuration must have {self.sites} sites, got {len(digits)}")
        if not all(0 <= v < n for v in digits):
            raise ValueError(f"site values must lie in 0..{n - 1}")
        return sum(v * n ** (self.sites - 1 - i) for i, v in enumerate(digits))

    def config_of(self, index) -> tuple[int, ...]:
        """The configuration with the given index; ValueError outside 0..n_configs - 1."""
        try:
            index = as_int(index)
        except TypeError:
            raise ValueError(f"a configuration index must be an integer, got {index!r}") from None
        if not 0 <= index < self.n_configs:
            raise ValueError(f"a configuration index must lie in 0..{self.n_configs - 1}, got {index}")
        n = self.local.order
        return tuple(index // n ** (self.sites - 1 - i) % n for i in range(self.sites))

    def neutral_config(self) -> tuple[int, ...]:
        return tuple(self.local.neutral for _ in range(self.sites))


@dataclass(frozen=True)
class SiteMap:
    """A homomorphism S^k -> S^k in matrix form; matrix[i][j] feeds site i into site j."""

    space: SiteSpace
    matrix: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def from_matrix(cls, space: SiteSpace, matrix) -> "SiteMap":
        k, n = space.sites, space.local.order
        try:
            rows = tuple(tuple(tuple(map(as_int, entry)) for entry in row) for row in matrix)
        except TypeError:
            raise ValueError("matrix must be a list of rows of integer value tables") from None
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"matrix must be {k}x{k}")
        entries = list(chain.from_iterable(rows))
        for entry in dict.fromkeys(entries):  # each distinct entry once, in row-major order of first sight
            if len(entry) != n or not all(0 <= v < n for v in entry):
                fault = f"must list {n} values in 0..{n - 1}"
            elif not is_homomorphism(space.local, space.local, entry):
                fault = "is not a local homomorphism"
            else:
                continue
            raise ValueError("matrix entry ({},{}) {}".format(*divmod(entries.index(entry), k), fault))
        return cls(space, rows)

    @classmethod
    def diagonal(cls, space: SiteSpace, entry) -> "SiteMap":
        zero = tuple(space.local.neutral for _ in range(space.local.order))
        k = space.sites
        return cls.from_matrix(
            space,
            [[tuple(entry) if i == j else zero for j in range(k)] for i in range(k)],
        )

    @classmethod
    def identity(cls, space: SiteSpace) -> "SiteMap":
        return cls.diagonal(space, tuple(range(space.local.order)))

    def apply(self, config) -> tuple[int, ...]:
        add = self.space.local.rows
        k = self.space.sites
        out = []
        for j in range(k):
            acc = self.space.local.neutral
            for i in range(k):
                acc = add[acc][self.matrix[i][j][config[i]]]
            out.append(acc)
        return tuple(out)

    def apply_indices(self, idx: np.ndarray) -> np.ndarray:
        """The images of an array of configuration indices, as indices (``_map_images`` for this one map).

        Only the given configurations are mapped, so any side size works.
        """
        return _map_images([self], idx)[0]

    def index_table(self) -> np.ndarray:
        """The map as a read-only table on configuration indices, built once per instance."""
        if "_index_table" not in self.__dict__:
            _tabulate([self])
        return self._index_table


def _map_images(maps, idx) -> np.ndarray:
    """The images of idx under each of maps on one space, as indices shaped (maps, *idx.shape).

    Output site j of map q is sum_i M_q[i][j](x_i) in S, summed over its
    block tables at the peeled digits.  The output sites of all the maps
    form one run of lines, map by map; one ``_sitewise_sums`` call builds the
    block tables of a group of lines side by side, and each line finishes its
    map's image index by Horner's rule in place.  Besides the pair budget, a
    block table is held to max(|S|, number of indices) cells, and a group's
    tables to max(4 x number of indices, PAIR_BLOCK) cells: half the bytes of
    one map's int64 images, or one pair block.
    """
    space = maps[0].space
    local, k = space.local, space.sites
    n, lines = local.order, len(maps) * k
    # entries[i, q k + j] is M_q[i][j]: input site i feeding line q k + j, output site j of map q
    entries = np.asarray([m.matrix for m in maps], dtype=np.uint8).reshape(len(maps), k, k, n)
    entries = entries.swapaxes(0, 1).reshape(k, lines, n)
    add = np.asarray(local.rows, dtype=np.uint8)
    size = max(n, np.size(idx))
    blocks = list(_peel(k, (idx,), (n,), min(pair_budget(), size)))
    group = max(1, max(4 * size, PAIR_BLOCK) // sum(n ** (hi - lo) for lo, hi, _ in blocks))

    def images(c):  # lines c.. of one group at idx, one line at a time
        tables = [(_sitewise_sums(local, entries[lo:hi, None, c:c + group])[0], digits)
                  for lo, hi, digits in blocks]
        for line in range(min(group, lines - c)):
            acc = None
            for table, digits in tables:
                value = table[line][digits]
                acc = value if acc is None else add[acc, value]
            yield acc

    out = np.zeros((len(maps), *np.shape(idx)), dtype=np.int64)
    for c in range(0, lines, group):
        for line, row in enumerate(images(c), c):  # a group's tables are freed before the next group's are built
            image = out[line // k, ...]  # a view, also of a 0-d index
            image *= n
            image += row
    return out


def _tabulate(maps) -> None:
    """Build and keep the read-only index tables of those of maps (on one space) that have none, in one pass."""
    todo = [m for m in maps if "_index_table" not in m.__dict__]
    if todo:
        tables = _map_images(todo, np.arange(todo[0].space.n_configs))
        tables.flags.writeable = False
        for m, table in zip(todo, tables):
            object.__setattr__(m, "_index_table", table)


def product_monoid(local: Monoid, k: int) -> Monoid:
    """The k-fold product with componentwise addition, as an explicit table."""
    return product_monoid_many([local] * k)


def product_monoid_many(locals_) -> Monoid:
    """Componentwise product of possibly different monoids, states numbered like configurations.

    State a has one digit per factor, the first factor most significant; the
    sum of a and b sums each digit pair in its factor and is numbered by
    Horner's rule over the digit arrays of ``np.indices``.  No factors give
    the one-element monoid.
    """
    orders = [m.order for m in locals_]
    size = prod(orders)
    if size * size > pair_budget():
        raise SizeBudgetExceeded(f"product table needs {size * size} cells")
    digits = np.indices(orders).reshape(len(orders), size)
    table = np.zeros((size, size), dtype=np.int64)
    neutral = 0
    for m, d in zip(locals_, digits):
        table *= m.order
        table += np.asarray(m.rows, dtype=np.int64)[d[:, None], d[None, :]]
        neutral = neutral * m.order + m.neutral
    return Monoid(CayleyTable(tuple(map(tuple, table.tolist()))), neutral)


def global_hom_set_matrix_check(space: SiteSpace, f):
    """Recover the matrix form of a map S^k -> S^k, or None if it is no homomorphism.

    ``f`` is a callable on configurations.  The candidate matrix is read off
    from single-site configurations and then required to reproduce f on every
    configuration; any additive defect shows up in one of the two steps.
    """
    local = space.local
    k = space.sites
    zero = space.neutral_config()
    if tuple(f(zero)) != zero:
        return None
    matrix = []
    for i in range(k):
        row = []
        for j in range(k):
            entry = []
            for x in range(local.order):
                cfg = list(zero)
                cfg[i] = x
                entry.append(f(tuple(cfg))[j])
            row.append(tuple(entry))
        matrix.append(tuple(row))
    for i in range(k):
        for j in range(k):
            if not is_homomorphism(local, local, matrix[i][j]):
                return None
    sm = SiteMap(space, tuple(matrix))
    for cfg in space.configs():
        if sm.apply(cfg) != tuple(f(cfg)):
            return None
    return sm


def _sitewise_sums(t: Monoid, local: np.ndarray) -> np.ndarray:
    """The table of sum_i local[i, a_i, b_i] in T over index tuples a, b, ordered like configurations.

    ``local`` stacks one uint8 table over T per site, shaped (sites, a, b).
    Shaped (sites, a, tables, b), it holds several tables per site, and
    their sum tables come side by side, shaped (a^sites, tables, b^sites).
    The table over a run of sites is the sum table of its two halves'
    tables, so ceil(log2 sites) levels build it.  SizeBudgetExceeded past
    the pair budget.
    """
    sites, a, *stack, b = local.shape
    if (a * b) ** sites > pair_budget():
        raise SizeBudgetExceeded(f"a table of {(a * b) ** sites} sitewise sums exceeds the pair budget")
    add = np.asarray(t.rows, dtype=np.uint8)
    tables = prod(stack)
    terms = np.arange(t.order)[:, None]
    offsets = t.order * np.arange(tables)[:, None]  # where table g's rows of sums start

    def over(lo, hi):  # the tables over sites lo..hi-1, shaped (rows, tables, columns)
        if hi - lo < 2:
            site = local[lo] if hi > lo else np.full((1, tables, 1), t.neutral, dtype=np.uint8)
            return site.reshape(len(site), tables, -1)
        mid = (lo + hi + 1) // 2
        left, right = over(lo, mid), over(mid, hi)
        (rows, _, cols), (r_rows, _, r_cols) = left.shape, right.shape
        # sums[x', g |T| + s, y'] = s + right[x', g, y']: each row of left is one gather from it
        sums = add[terms, right[:, :, None, :]].reshape(r_rows, -1, r_cols)
        at = left + offsets
        out = np.empty((rows, r_rows, tables, cols, r_cols), dtype=np.uint8)
        for x in range(rows):
            np.take(sums, at[x], axis=1, out=out[x], mode="clip")  # in range: left holds elements of T
        return out.reshape(rows * r_rows, tables, cols * r_cols)

    return over(0, sites).reshape(a ** sites, *stack, b ** sites)


def _peel(sites: int, indices, orders, cap: int):
    """Yield (lo, hi, digits...) for each block of sites lo..hi-1, the last block first.

    The fewest near-equal blocks of at most h sites, h the widest whose table
    of prod(orders) ** h cells fits ``cap`` (at least 1).  The digits
    number each block's configurations, one array per ``indices`` array over
    a space of the matching local order.  The first block takes the quotients
    the others leave, so no index is divided by its whole space's size.
    """
    cells, h = prod(orders), 1
    while h < sites and cells ** (h + 1) <= cap:
        h += 1
    n_blocks = -(-sites // h)
    hi = sites
    for b in range(n_blocks - 1):
        lo = hi - sites // n_blocks - (b < sites % n_blocks)
        indices, digits = zip(*(np.divmod(i, n ** (hi - lo)) for i, n in zip(indices, orders)))
        yield (lo, hi, *digits)
        hi = lo
    yield (0, hi, *indices)


@dataclass(frozen=True)
class LiftedDuality:
    """A local duality table summed sitewise over a product space.

    The evaluation contract is Psi(x, y) = sum_i psi(x_i, y_i) with the sum in
    T.  The local table is a monoid duality (``lift_duality``) or a semiring's
    multiplication (``semiring_inner_duality``).
    """

    local: DualityFunction
    sites: int
    real_embedding: tuple[float, ...] | None = None

    @property
    def s_space(self) -> SiteSpace:
        return SiteSpace(self.local.s, self.sites)

    @property
    def r_space(self) -> SiteSpace:
        return SiteSpace(self.local.r, self.sites)

    def __post_init__(self):
        for side in (self.local.s, self.local.r):
            SiteSpace(side, self.sites)  # refuses a side past int64 indices

    def evaluate(self, xs, ys) -> int:
        t = self.local.t
        acc = t.neutral
        rows = self.local.values
        for x, y in zip(xs, ys):
            acc = t.add(acc, rows[x][y])
        return acc

    def _block_table(self, width: int) -> np.ndarray:
        """The read-only uint8 Psi table over S^width x R^width, built once per width and instance.

        One site needs no budget: its table is the local one.
        """
        blocks = self.__dict__.setdefault("_block_tables", {})
        if width not in blocks:
            local = np.asarray(self.local.values, dtype=np.uint8)
            table = local if width == 1 else _sitewise_sums(self.local.t, np.repeat(local[None], width, axis=0))
            table.flags.writeable = False
            blocks[width] = table
        return blocks[width]

    def table(self) -> np.ndarray:
        """The read-only uint8 Psi table over S^k x R^k, built once per instance."""
        return self._block_table(self.sites)

    def values_at(self, xi, yi) -> np.ndarray:
        """Psi at paired configuration index arrays (broadcast together) as uint8 values in T.

        Each block of sites (``_peel``) is looked up in its Psi table and the
        block values are summed in T; one block is a single lookup in ``table()``.
        """
        orders = (self.local.s.order, self.local.r.order)
        add = np.asarray(self.local.t.rows, dtype=np.uint8)
        acc = None
        for lo, hi, xd, yd in _peel(self.sites, (xi, yi), orders, pair_budget()):
            value = self._block_table(hi - lo)[xd, yd]
            acc = value if acc is None else add[acc, value]
        return acc

    def evaluate_embedded(self, xs, ys) -> float:
        if self.real_embedding is None:
            raise NoRealEmbedding("no real embedding declared for the value monoid")
        return self.real_embedding[self.evaluate(xs, ys)]

    def local_dual(self, values):
        """The unique local map with psi(M(x), y) = psi(x, Mhat(y)), or None."""
        cols = {self.local.column(y): y for y in range(self.local.r.order)}
        rows = self.local.values
        ns = self.local.s.order
        out = []
        for y in range(self.local.r.order):
            col = tuple(rows[values[x]][y] for x in range(ns))
            w = cols.get(col)
            if w is None:
                return None
            out.append(w)
        return tuple(out)


def _blocks(shape):
    """The blocks, as slices of rows, lines and columns, in which ``_first_failure`` compares pairs.

    Whole rows when a row of ``shape`` = (rows, lines, columns) fits in
    PAIR_BLOCK pairs, else whole lines of one row when a line fits, else
    slices of one line: no block holds more than PAIR_BLOCK pairs, and the
    blocks run in row-major order.
    """
    n_rows, n_lines, width = shape

    def spans(n, size):  # n items in consecutive slices of PAIR_BLOCK // size items, at least one
        step = max(1, PAIR_BLOCK // max(size, 1))
        return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))

    if n_lines * width <= PAIR_BLOCK:
        for rows in spans(n_rows, n_lines * width):
            yield rows, slice(0, n_lines), slice(0, width)
        return
    for r in range(n_rows):
        for lines in spans(n_lines, width):
            for cols in (slice(0, width),) if width <= PAIR_BLOCK else spans(width, 1):
                yield slice(r, r + 1), lines, cols


def _first_failure(shape, bad_at):
    """The (row, line, column) of the first failing pair in row-major order, or None.

    ``bad_at(rows, lines, columns)`` gives the failure mask of one block of
    ``_blocks(shape)``, shaped like the block.
    """
    for block in _blocks(shape):
        bad = bad_at(*block)
        if bad.any():
            return tuple(part.start + int(i) for part, i in zip(block, np.unravel_index(bad.argmax(), bad.shape)))
    return None


def identity_holds(lifted: LiftedDuality, X, Y, pairs=None):
    """None if Psi(X(x), y) == Psi(x, Y(y)), else (position, x, y) for the first failing pair.

    X and Y are maps on S^k and R^k, as configuration index tables with
    matching leading axes of rows if any.  Without ``pairs`` every pair of
    each row is compared through the cached Psi table, and ``position`` is
    (row..., x, y) with x, y indices.  With ``pairs=(xi, yi)``, index arrays
    of shape (rows, pairs), only the pairs (xi[r, j], yi[r, j]) are
    compared, their images looked up in rows r of X and Y and Psi summed by
    ``values_at``; ``position`` is (r, j).  The pairs are compared at most
    PAIR_BLOCK at a time, in row-major order (``_blocks``), so the memory a
    comparison holds does not grow with the number of pairs.  The first
    failure in that order is returned, x and y as configuration tuples.
    """
    if pairs is None:
        psi = lifted.table()
        lead = X.shape[:-1]
        X, Y = X.reshape(-1, psi.shape[0]), Y.reshape(-1, psi.shape[1])

        def bad_at(rows, xs, ys):  # (rows, x, y); psi[xs, Y] is (x, rows, y)
            return psi[X[rows, xs], ys] != psi[xs, Y[rows, ys]].swapaxes(0, 1)

        hit = _first_failure((len(X), *psi.shape), bad_at)
        if hit is None:
            return None
        row, xi, yi = hit
        position = (*np.unravel_index(row, lead), xi, yi)
    else:
        xi, yi = pairs

        def bad_at(rows, _, cols):  # each row one line of pairs
            xb, yb = (np.asarray(p[rows, cols], dtype=np.intp) for p in pairs)
            # one side's images at a time, each freed once its Psi values are summed
            return (lifted.values_at(np.take_along_axis(X[rows], xb, -1), yb)
                    != lifted.values_at(xb, np.take_along_axis(Y[rows], yb, -1)))[:, None]

        hit = _first_failure((xi.shape[0], 1, xi.shape[1]), bad_at)
        if hit is None:
            return None
        position = hit[0], hit[2]
        xi, yi = xi[position], yi[position]
    return tuple(map(int, position)), lifted.s_space.config_of(xi), lifted.r_space.config_of(yi)


def lift_duality(
    local: DualityFunction,
    sites: int,
    real_embedding: tuple[float, ...] | None = None,
) -> LiftedDuality:
    """Lift a local duality to S^k x R^k, verifying it first (``verify_duality`` raises the first failed condition).

    Small instances (k <= 3 with carriers of order <= 3) are also re-checked
    exhaustively at the product level instead of being taken on faith from
    the local verification.
    """
    verify_duality(local)
    if real_embedding is not None:
        _check_real_embedding(local.t, real_embedding)
    lifted = LiftedDuality(local, sites, real_embedding)
    if sites <= 3 and max(local.s.order, local.r.order, local.t.order) <= 3:
        big = DualityFunction(
            product_monoid(local.s, sites),
            product_monoid(local.r, sites),
            local.t,
            tuple(map(tuple, lifted.table().tolist())),
        )
        verify_duality(big)
    return lifted


def _check_real_embedding(t: Monoid, emb) -> None:
    if len(emb) != t.order or len(set(emb)) != t.order:
        raise NoRealEmbedding("embedding must be injective on the value monoid")
    for a in range(t.order):
        for b in range(t.order):
            if abs(emb[t.add(a, b)] - emb[a] * emb[b]) > 1e-12:
                raise NoRealEmbedding(f"embedding not multiplicative at ({a},{b})")


def dual_map(lifted: LiftedDuality, m: SiteMap) -> SiteMap:
    """The unique site map with Psi(m(x), y) = Psi(x, mhat(y)) for all pairs: ``dual_maps`` of one map."""
    return dual_maps(lifted, [m])[0]


def _refuse_first(matrix, holds, fault: str, error=ValueError) -> None:
    """Raise error naming the first entry of matrix, in row-major order, for which ``holds`` is false."""
    entries = list(chain.from_iterable(matrix))
    for entry in dict.fromkeys(entries):  # each distinct entry once
        if not holds(entry):
            raise error("matrix entry ({},{}) {}".format(*divmod(entries.index(entry), len(matrix)), fault))


def dual_maps(lifted: LiftedDuality, maps) -> list[SiteMap]:
    """The dual of each site map, in order: Psi(m(x), y) = Psi(x, mhat(y)) for all pairs.

    mhat's entry (j, i) is the local dual of m's entry M[i][j], and the
    identity is decided exactly from the entries, with no product-space work
    and no random draw.  If psi's rows and columns and the entries of m and
    mhat are homomorphisms, both sides are additive in x and in y, so the
    pairs of single-site configurations, which generate S^k and R^k, decide
    every pair.  For x = a at site i and y = b at site j the sides are
    psi(M[i][j](a), b) and psi(a, Mhat[j][i](b)), as psi sends a neutral
    value paired with anything to the neutral of T.  So the identity holds
    exactly when each distinct entry E and its dual E' satisfy
    psi(E(a), b) = psi(a, E'(b)) for all a, b; each distinct entry is
    checked once per batch, its dual not taken on trust from ``local_dual``.

    A map fails with the first of: ValueError for a row or column of psi
    that is no homomorphism, for m not on S, or for an entry of m that is no
    homomorphism; NoDual for an entry without a local dual; ValueError for a
    dual entry that is no homomorphism; AssertionError naming the first
    failing single-site pair in the order (site of x, value of x, site of y,
    value of y).  A batch raises what ``dual_map`` raises on its first
    failing map, and builds no index table.
    """
    maps = list(maps)
    k, psi, s, r = lifted.sites, lifted.local, lifted.local.s, lifted.local.r
    if maps:
        psi_maps = [(f"row {x} of psi", r, row) for x, row in enumerate(psi.values)]
        psi_maps += [(f"column {y} of psi", s, psi.column(y)) for y in range(r.order)]
        for name, source, values in psi_maps:
            if not is_homomorphism(source, psi.t, values):
                raise ValueError(f"{name} is no homomorphism, so the entries of a map do not decide its dual")
    s_hom, r_hom = (cache(partial(is_homomorphism, side, side)) for side in (s, r))
    local_dual = cache(lifted.local_dual)
    table = np.asarray(psi.values)
    # [a, b] is true where psi(E(a), b) != psi(a, E'(b)) for an entry E and its local dual E'
    fails = cache(lambda entry: table[list(entry)] != table[:, list(local_dual(entry))])
    mhats = []
    for m in maps:
        if m.space.sites != k or m.space.local.op != s.op:
            raise ValueError("site map does not act on the S side of this duality")
        _refuse_first(m.matrix, s_hom, "is not a local homomorphism")
        _refuse_first(m.matrix, lambda entry: local_dual(entry) is not None, "admits no local dual", NoDual)
        rows = tuple(tuple(local_dual(m.matrix[i][j]) for i in range(k)) for j in range(k))
        _refuse_first(rows, r_hom, "is not a local homomorphism")
        if any(fails(entry).any() for entry in set(chain.from_iterable(m.matrix))):
            bad = np.array([[fails(entry) for entry in row] for row in m.matrix])  # [i, j, a, b]
            i, a, j, b = map(int, np.argwhere(bad.transpose(0, 2, 1, 3))[0])
            x, y = list(lifted.s_space.neutral_config()), list(lifted.r_space.neutral_config())
            x[i], y[j] = a, b
            raise AssertionError(f"dual-map identity fails at {tuple(x)}, {tuple(y)}")
        mhats.append(SiteMap(lifted.r_space, rows))
    return mhats


def semiring_inner_duality(
    s: Semiring,
    sites: int,
    real_embedding: tuple[float, ...] | None = None,
) -> LiftedDuality:
    """The pairing Psi(x, y) = sum_i x_i * y_i of a semiring product space.

    This is generally not a monoid duality function (the dualizable maps are
    the left-module maps, which may be a proper subset of the additive
    homomorphisms).  Its four module-level separation and surjectivity
    properties are always checked against the module-map sets
    (``verify_module_duality`` raises the first that fails), raising
    SizeBudgetExceeded past the pair budget.
    """
    add = s.add
    local = DualityFunction(add, add, add, s.mul.rows)
    if real_embedding is not None:
        _check_real_embedding(add, real_embedding)
    lifted = LiftedDuality(local, sites, real_embedding)
    verify_module_duality(lifted, s)
    return lifted


def _module_maps(s: Semiring, sites: int, side: str) -> list[tuple[int, ...]]:
    """The additive maps S^k -> S commuting with scalars on one side, as sorted value tables.

    A value table is indexed like the configurations of S^k.  "left" keeps
    f(a x) == a f(x), "right" keeps f(x a) == f(x) a, for every scalar a.  S^k
    is the coproduct of k copies of S among such modules, so these maps are
    the sitewise sums x -> sum_i h_i(x_i) of local ones, folded by halves.
    """
    homs = np.array(hom_set(s.add, s.add).values(), dtype=np.uint8)
    mul = np.asarray(s.mul.rows, dtype=np.uint8)
    keep = np.ones(len(homs), dtype=bool)
    for a in range(s.order):
        scale = mul[a] if side == "left" else mul[:, a]
        keep &= (homs[:, scale] == scale[homs]).all(axis=1)
    return sorted(map(tuple, _sitewise_sums(s.add, np.repeat(homs[keep][None], sites, axis=0)).tolist()))


def module_maps(s: Semiring, side: str = "left") -> list[tuple[int, ...]]:
    """All maps S -> S that are additive and commute with scalars on one side."""
    return _module_maps(s, 1, side)


def verify_module_duality(lifted: LiftedDuality, s: Semiring) -> None:
    """Exact check of the four module-level pairing properties over the semiring s, raising the first that fails.

    The four duality conditions (``check_pairing``) on the Psi table, with
    the left-module maps S^k -> S in place of H(S, T) for the columns and the
    right-module maps in place of H(R, T) for the rows.
    """
    check_pairing(
        lifted.table().tolist(),
        lambda: _module_maps(s, lifted.sites, "left"),
        lambda: _module_maps(s, lifted.sites, "right"),
    )


def lattice_duality_function(join: Monoid) -> DualityFunction:
    """The indicator table of a lattice's order, a duality into the two-point join monoid.

    A finite lattice is given by its join monoid: a commutative monoid whose
    every element is idempotent (ValueError otherwise), ordered by x <= y iff
    x + y = y, with the bottom as neutral element.  Rows are indexed by the
    join monoid, columns by the meet monoid on the same carrier: the meet of
    x and y is the sum of their common lower bounds, and its neutral element
    is the top, the sum of all elements.  The entry is 0 when x <= y and 1
    otherwise.
    """
    rows, n = join.rows, join.order
    if not join.is_commutative() or any(rows[x][x] != x for x in range(n)):
        raise ValueError("a lattice's join monoid must be commutative with every element idempotent")

    def total(elements):
        return reduce(join.add, elements, join.neutral)

    below = [{z for z in range(n) if rows[z][x] == x} for x in range(n)]
    meet = tuple(tuple(total(below[x] & below[y]) for y in range(n)) for x in range(n))
    values = tuple(tuple(0 if rows[x][y] == y else 1 for y in range(n)) for x in range(n))
    psi = DualityFunction(join, Monoid(CayleyTable(meet), total(range(n))), catalog.monoid("M1"), values)
    verify_duality(psi)
    return psi
