"""Reference computations the benchmark checks monodual's outputs against.

Nothing here calls into monodual: every function works on plain Cayley
tables (tuples of rows over 0..n-1) and numpy arrays, by brute force or by a
textbook formula, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

# OEIS A058131: commutative monoids of order n up to isomorphism.
COMMUTATIVE_MONOID_COUNTS = {1: 1, 2: 2, 3: 5, 4: 19, 5: 78}

# The paper's 22 essentially different duality tables (110 quadruples reduced).
PAPER_CLASS_NAMES = frozenset(
    f"psi{i}" for i in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 15, 16, 17, 18, 21, 22, 23, 24, 25, 26, 235)
)
PAPER_QUADRUPLES = 110


def neutral(rows) -> int | None:
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == x == rows[x][e] for x in range(n)):
            return e
    return None


def absorbing(rows) -> int | None:
    n = len(rows)
    for a in range(n):
        if all(rows[a][x] == a == rows[x][a] for x in range(n)):
            return a
    return None


def associative(rows) -> bool:
    r = range(len(rows))
    return all(rows[rows[x][y]][z] == rows[x][rows[y][z]] for x in r for y in r for z in r)


def commutative(rows) -> bool:
    n = len(rows)
    return all(rows[x][y] == rows[y][x] for x in range(n) for y in range(n))


def is_table(rows) -> bool:
    n = len(rows)
    return n > 0 and all(len(row) == n and all(0 <= v < n for v in row) for row in rows)


def is_commutative_monoid_at_0(rows) -> bool:
    return is_table(rows) and neutral(rows) == 0 and commutative(rows) and associative(rows)


def is_semiring(add, mul, one) -> bool:
    """Commutative monoid addition with neutral 0, a monoid multiplication with
    unit ``one``, 0 absorbing for the multiplication, and both distributive laws."""
    n = len(add)
    r = range(n)
    return (
        is_commutative_monoid_at_0(add)
        and is_table(mul)
        and associative(mul)
        and all(mul[one][x] == x == mul[x][one] for x in r)
        and all(mul[0][x] == 0 == mul[x][0] for x in r)
        and all(
            mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
            and mul[add[x][y]][z] == add[mul[x][z]][mul[y][z]]
            for x in r for y in r for z in r
        )
    )


def relabel(rows, perm):
    """The table with element i renamed perm[i]."""
    n = len(rows)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return tuple(tuple(perm[rows[inv[i]][inv[j]]] for j in range(n)) for i in range(n))


def relabelings_fixing_0(n: int):
    """Every permutation of 0..n-1 that keeps 0 in place."""
    return [(0,) + p for p in permutations(range(1, n))]


def is_isomorphism(perm, a_rows, b_rows) -> bool:
    """Whether the bijection x -> perm[x] carries table a onto table b.  Between
    monoids it then maps neutral element to neutral element."""
    n = len(a_rows)
    return sorted(perm) == list(range(n)) and all(
        perm[a_rows[x][y]] == b_rows[perm[x]][perm[y]] for x in range(n) for y in range(n)
    )


def hom_set(s_rows, t_rows) -> frozenset[tuple[int, ...]]:
    """All homomorphisms S -> T: the plain filter over every |T|^|S| value table."""
    n, m = len(s_rows), len(t_rows)
    s, t = np.asarray(s_rows), np.asarray(t_rows)
    vals = np.indices((m,) * n).reshape(n, -1).T  # every value table, one per row
    keep = vals[:, neutral(s_rows)] == neutral(t_rows)
    for x in range(n):
        for y in range(n):
            keep &= vals[:, s[x, y]] == t[vals[:, x], vals[:, y]]
    return frozenset(tuple(int(v) for v in row) for row in vals[keep])


class HomSets:
    """Reference hom sets, each computed once per pair of tables."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, s_rows, t_rows) -> frozenset[tuple[int, ...]]:
        key = (s_rows, t_rows)
        if key not in self._cache:
            self._cache[key] = hom_set(s_rows, t_rows)
        return self._cache[key]


def is_duality(values, s_rows, r_rows, t_rows, homs: HomSets) -> bool:
    """The four conditions: rows distinct, columns are H(S,T), columns distinct,
    rows are H(R,T)."""
    ns, nr = len(s_rows), len(r_rows)
    if len(values) != ns or any(len(row) != nr for row in values):
        return False
    rows = [tuple(row) for row in values]
    cols = [tuple(values[x][y] for x in range(ns)) for y in range(nr)]
    return (
        len(set(rows)) == ns
        and set(cols) == homs(s_rows, t_rows)
        and len(set(cols)) == nr
        and set(rows) == homs(r_rows, t_rows)
    )


# ---------------------------------------------------------------------------
# product spaces S^k; a configuration is a row of an integer array, and its
# index is mixed radix with site 0 most significant

def all_configs(n: int, k: int) -> np.ndarray:
    return np.indices((n,) * k).reshape(k, -1).T


def config_index(configs: np.ndarray, n: int) -> np.ndarray:
    idx = np.zeros(len(configs), dtype=np.int64)
    for i in range(configs.shape[1]):
        idx = idx * n + configs[:, i]
    return idx


def configs_of(index: np.ndarray, n: int, k: int) -> np.ndarray:
    out = np.empty((len(index), k), dtype=np.int64)
    rest = np.asarray(index, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        out[:, i] = rest % n
        rest = rest // n
    return out


def apply_matrix(matrix, add_rows, neutral_elem: int, configs: np.ndarray) -> np.ndarray:
    """m(x)_j = sum_i M[i][j](x_i), the sum taken in the local monoid."""
    add = np.asarray(add_rows)
    k = len(matrix)
    out = np.empty_like(configs)
    for j in range(k):
        acc = np.full(len(configs), neutral_elem)
        for i in range(k):
            acc = add[acc, np.asarray(matrix[i][j])[configs[:, i]]]
        out[:, j] = acc
    return out


def lifted_psi(local_values, t_rows, t_neutral: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Psi(x, y) = sum_i psi(x_i, y_i) in T, for row-aligned pairs of configurations."""
    psi, t = np.asarray(local_values), np.asarray(t_rows)
    acc = np.full(len(xs), t_neutral)
    for i in range(xs.shape[1]):
        acc = t[acc, psi[xs[:, i], ys[:, i]]]
    return acc


def expectation(index_tables, rates, values, start: int, t: float) -> float:
    """E f(X_t) from ``start`` for a jump chain that applies map i at rate rates[i],
    as (exp(tQ) f)(start) with Q = sum_i rate_i (P_i - I), by scaling and squaring
    a Taylor series of the generator matrix."""
    size = len(values)
    q = np.zeros((size, size))
    for table, rate in zip(index_tables, rates):
        q[np.arange(size), np.asarray(table)] += rate
        q[np.arange(size), np.arange(size)] -= rate
    a = q * t
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=1).max(), 1.0))) + 1)
    a = a / 2 ** squarings
    term = np.eye(size)
    e = np.eye(size)
    for j in range(1, 30):
        term = term @ a / j
        e = e + term
    for _ in range(squarings):
        e = e @ e
    return float((e @ np.asarray(values, dtype=float))[start])
