"""Product monoids, matrix site maps, lifted dualities and dual-map construction.

Maps between product spaces are always carried as a matrix of local maps: a
global homomorphism m on S^k is determined by entries M[i][j] in H(S, S) via
m(x)_j = sum_i M[i][j](x_i), with the sum taken in S.  The matrix form is what
makes dual maps cheap: the dual of m has matrix entries dual(M[i][j]) placed
at the transposed position.

Array layout: N configurations of S^k are an (N, k) uint8 digit array with
site 0 the most significant digit, so row r of ``SiteSpace.config_array()``
has index r under ``SiteSpace.index_of``; ``index_array`` inverts it.  The
kernels loop over sites, gathering through the small local tables:
``SiteMap.apply_array`` through the addition table of S,
``LiftedDuality.evaluate_pairs`` and the cached table of all Psi values,
``LiftedDuality.table``, through that of T.  All of them stay uint8.  The
scalar ``SiteMap.apply`` and ``LiftedDuality.evaluate`` are the test oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .algebra import Lattice, Monoid, Semiring, dual_lattice, lattice_join_monoid
from .homdual import DualityFunction, check_pairing, hom_set, is_homomorphism, verify_duality
from .tables import CayleyTable, SizeBudgetExceeded, as_int, pair_budget


class NoDual(ValueError):
    pass


class NoRealEmbedding(ValueError):
    pass


@dataclass(frozen=True)
class SiteSpace:
    """A finite product S^k of copies of one local monoid."""

    local: Monoid
    sites: int

    @property
    def n_configs(self) -> int:
        return self.local.order ** self.sites

    def configs(self):
        return iproduct(range(self.local.order), repeat=self.sites)

    def index_of(self, config) -> int:
        return int(self.index_array([tuple(config)])[0])

    def config_array(self, idx=None) -> np.ndarray:
        """The configurations with the given indices (all of S^k by default) as (N, k) uint8 digits."""
        idx = np.arange(self.n_configs) if idx is None else np.asarray(idx, dtype=np.int64)
        out = np.empty((len(idx), self.sites), dtype=np.uint8)
        for j in reversed(range(self.sites)):
            idx, out[:, j] = np.divmod(idx, self.local.order)
        return out

    def index_array(self, configs) -> np.ndarray:
        """The indices of an (N, k) array of configurations; ValueError on a malformed one."""
        c = np.asarray(configs)
        n = self.local.order
        if c.ndim != 2 or c.shape[1] != self.sites:
            raise ValueError(f"a configuration must have {self.sites} sites, got shape {c.shape[1:]}")
        if c.size and not (0 <= c.min() and c.max() < n):
            raise ValueError(f"site values must lie in 0..{n - 1}")
        idx = np.zeros(len(c), dtype=np.int64)
        for j in range(self.sites):
            idx = idx * n + c[:, j]
        return idx

    def config_of(self, index: int) -> tuple[int, ...]:
        return tuple(self.config_array([index])[0].tolist())

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
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if len(entry) != n or not all(0 <= v < n for v in entry):
                    raise ValueError(f"matrix entry ({i},{j}) must list {n} values in 0..{n - 1}")
                if not is_homomorphism(space.local, space.local, entry):
                    raise ValueError(f"matrix entry ({i},{j}) is not a local homomorphism")
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

    def apply_array(self, configs: np.ndarray) -> np.ndarray:
        """The map on an (N, k) uint8 configuration array, one gather per matrix entry."""
        add = np.asarray(self.space.local.rows, dtype=np.uint8)
        entries = np.asarray(self.matrix, dtype=np.uint8)
        out = np.empty_like(configs)
        for j in range(self.space.sites):
            acc = entries[0, j][configs[:, 0]]
            for i in range(1, self.space.sites):
                acc = add[acc, entries[i, j][configs[:, i]]]
            out[:, j] = acc
        return out

    def index_table(self) -> np.ndarray:
        """The map as a read-only table on configuration indices, built once per instance."""
        if "_index_table" not in self.__dict__:
            table = self.space.index_array(self.apply_array(self.space.config_array()))
            table.flags.writeable = False
            object.__setattr__(self, "_index_table", table)
        return self._index_table

    def to_json(self) -> str:
        return json.dumps([[list(e) for e in row] for row in self.matrix])

    @classmethod
    def from_json(cls, space: SiteSpace, text: str) -> "SiteMap":
        return cls.from_matrix(space, json.loads(text))


def product_monoid(local: Monoid, k: int) -> Monoid:
    """The k-fold product with componentwise addition, as an explicit table."""
    return product_monoid_many([local] * k)


def product_monoid_many(locals_) -> Monoid:
    """Componentwise product of possibly different monoids."""
    size = 1
    for m in locals_:
        size *= m.order
    if size * size > pair_budget():
        raise SizeBudgetExceeded(f"product table needs {size * size} cells")
    states = list(iproduct(*(range(m.order) for m in locals_)))
    index = {s: i for i, s in enumerate(states)}
    rows = tuple(
        tuple(
            index[tuple(m.add(a[i], b[i]) for i, m in enumerate(locals_))]
            for b in states
        )
        for a in states
    )
    neutral = index[tuple(m.neutral for m in locals_)]
    return Monoid(CayleyTable(rows), neutral)


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


def _sitewise_sums(t: Monoid, local: np.ndarray, sites: int) -> np.ndarray:
    """The table of sum_i local[a_i, b_i] in T over index k-tuples a, b, ordered like configurations.

    ``local`` is a uint8 matrix over T; SizeBudgetExceeded past the pair budget.
    """
    if local.size ** sites > pair_budget():
        raise SizeBudgetExceeded(f"a table of {local.size ** sites} sitewise sums exceeds the pair budget")
    add = np.asarray(t.rows, dtype=np.uint8)
    table = np.full((1, 1), t.neutral, dtype=np.uint8)
    for _ in range(sites):
        table = add[table[:, None, :, None], local[None, :, None, :]]
        table = table.reshape(len(table) * len(local), -1)
    return table


@dataclass(frozen=True)
class LiftedDuality:
    """A local duality table summed sitewise over a product space.

    The evaluation contract is Psi(x, y) = sum_i psi(x_i, y_i) with the sum in
    T.  ``module_source`` is set when the table came from a semiring product
    (then the dualizable maps are the left-module maps rather than all of
    H(S, S), and the local table need not be a monoid duality function).
    """

    local: DualityFunction
    sites: int
    real_embedding: tuple[float, ...] | None = None
    module_source: Semiring | None = None

    @property
    def s_space(self) -> SiteSpace:
        return SiteSpace(self.local.s, self.sites)

    @property
    def r_space(self) -> SiteSpace:
        return SiteSpace(self.local.r, self.sites)

    def evaluate(self, xs, ys) -> int:
        t = self.local.t
        acc = t.neutral
        rows = self.local.values
        for x, y in zip(xs, ys):
            acc = t.add(acc, rows[x][y])
        return acc

    def evaluate_pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Psi row by row on paired (N, k) uint8 configuration arrays; a (1, k) array broadcasts."""
        xs, ys = np.broadcast_arrays(xs, ys)
        add = np.asarray(self.local.t.rows, dtype=np.uint8)
        psi = np.asarray(self.local.values, dtype=np.uint8)
        acc = np.full(len(xs), self.local.t.neutral, dtype=np.uint8)
        for i in range(self.sites):
            acc = add[acc, psi[xs[:, i], ys[:, i]]]
        return acc

    def table(self) -> np.ndarray:
        """The read-only uint8 Psi table over S^k x R^k, built once per instance."""
        if "_table" not in self.__dict__:
            table = _sitewise_sums(self.local.t, np.asarray(self.local.values, dtype=np.uint8), self.sites)
            table.flags.writeable = False
            object.__setattr__(self, "_table", table)
        return self._table

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


def identity_holds(lifted: LiftedDuality, X, Y, pairs=None):
    """None if Psi(X(x), y) == Psi(x, Y(y)), else the first failing (x, y) as configuration tuples.

    Without ``pairs``, X and Y are index tables of maps on S^k and R^k and
    every pair is compared through the cached Psi table.  With
    ``pairs=(xs, ys)``, paired configuration arrays, X and Y are their images
    as configuration arrays and only those pairs are compared.
    """
    if pairs is None:
        psi = lifted.table()
        bad = psi[X] != psi[:, Y]
        xi, yi = np.unravel_index(bad.argmax(), bad.shape)
        xs, ys = lifted.s_space.config_array([xi]), lifted.r_space.config_array([yi])
    else:
        xs, ys = pairs
        bad = lifted.evaluate_pairs(X, ys) != lifted.evaluate_pairs(xs, Y)
        xs, ys = xs[bad], ys[bad]
    return (tuple(xs[0].tolist()), tuple(ys[0].tolist())) if bad.any() else None


def lift_duality(
    local: DualityFunction,
    sites: int,
    real_embedding: tuple[float, ...] | None = None,
) -> LiftedDuality:
    """Lift a local duality to S^k x R^k, verifying it first unless ``local.verified`` is set.

    Verification raises the first failed duality condition.  Small
    instances (k <= 3 with carriers of order <= 3) are always re-checked
    exhaustively at the product level instead of being taken on faith from
    the local verification.
    """
    if not local.verified:
        local = local.checked()
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


def sample_pairs(key, n: int, x_space: SiteSpace, y_space: SiteSpace) -> tuple[np.ndarray, np.ndarray]:
    """n configuration index pairs drawn from default_rng(key): all x indices, then all y indices."""
    rng = np.random.default_rng(key)
    return rng.integers(x_space.n_configs, size=n), rng.integers(y_space.n_configs, size=n)


def dual_map(lifted: LiftedDuality, m: SiteMap, samples: int = 100_000) -> SiteMap:
    """The unique site map with Psi(m(x), y) = Psi(x, mhat(y)) for all pairs.

    Built entrywise from local duals and transposed; the defining identity is
    then re-checked on every configuration pair within the budget, and on
    ``samples`` deterministically drawn pairs beyond it.
    """
    k = lifted.sites
    if m.space.sites != k or m.space.local.op != lifted.local.s.op:
        raise ValueError("site map does not act on the S side of this duality")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    duals = [[lifted.local_dual(entry) for entry in row] for row in m.matrix]
    for i, j in iproduct(range(k), repeat=2):
        if duals[i][j] is None:
            raise NoDual(f"matrix entry ({i},{j}) admits no local dual")
    rsp = lifted.r_space
    mhat = SiteMap(rsp, tuple(tuple(duals[i][j] for i in range(k)) for j in range(k)))
    if m.space.n_configs * rsp.n_configs <= pair_budget():
        hit = identity_holds(lifted, m.index_table(), mhat.index_table())
    else:
        xi, yi = sample_pairs(0, samples, m.space, rsp)
        xs, ys = m.space.config_array(xi), rsp.config_array(yi)
        hit = identity_holds(lifted, m.apply_array(xs), mhat.apply_array(ys), pairs=(xs, ys))
    if hit is not None:
        raise AssertionError(f"dual-map identity fails at {hit[0]}, {hit[1]}")
    return mhat


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
    lifted = LiftedDuality(local, sites, real_embedding, module_source=s)
    verify_module_duality(lifted)
    return lifted


def _module_maps(s: Semiring, sites: int, side: str) -> list[tuple[int, ...]]:
    """The additive maps S^k -> S commuting with scalars on one side, as sorted value tables.

    A value table is indexed like ``SiteSpace.config_array``.  "left" keeps
    f(a x) == a f(x), "right" keeps f(x a) == f(x) a, for every scalar a.  S^k
    is the coproduct of k copies of S among such modules, so these maps are
    the sitewise sums x -> sum_i h_i(x_i) of local ones, built site by site.
    """
    homs = np.array(hom_set(s.add, s.add).values(), dtype=np.uint8)
    mul = np.asarray(s.mul.rows, dtype=np.uint8)
    keep = np.ones(len(homs), dtype=bool)
    for a in range(s.order):
        scale = mul[a] if side == "left" else mul[:, a]
        keep &= (homs[:, scale] == scale[homs]).all(axis=1)
    return sorted(map(tuple, _sitewise_sums(s.add, homs[keep], sites).tolist()))


def module_maps(s: Semiring, side: str = "left") -> list[tuple[int, ...]]:
    """All maps S -> S that are additive and commute with scalars on one side."""
    return _module_maps(s, 1, side)


def verify_module_duality(lifted: LiftedDuality) -> None:
    """Exact check of the four module-level pairing properties, raising the first that fails.

    The four duality conditions (``check_pairing``) on the Psi table, with
    the left-module maps S^k -> S in place of H(S, T) for the columns and the
    right-module maps in place of H(R, T) for the rows.
    """
    s = lifted.module_source
    if s is None:
        raise ValueError("not a semiring-derived pairing")
    check_pairing(
        lifted.table().tolist(),
        lambda: _module_maps(s, lifted.sites, "left"),
        lambda: _module_maps(s, lifted.sites, "right"),
    )


def lattice_duality_function(lat: Lattice) -> DualityFunction:
    """The indicator table of the lattice order, a duality into the two-point join monoid.

    Rows are indexed by the lattice, columns by its order-reversed dual (same
    carrier, star bijection the identity); the entry is 0 when x lies below
    the column's image and 1 otherwise.
    """
    from . import catalog

    s = lattice_join_monoid(lat)
    rev, _star = dual_lattice(lat)
    r = lattice_join_monoid(rev)
    t = catalog.monoid("M1")
    n = lat.order
    values = tuple(
        tuple(0 if lat.leq[x][y] else 1 for y in range(n)) for x in range(n)
    )
    return DualityFunction(s, r, t, values).checked()
