import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from monodual.tables import (
    CayleyTable,
    MalformedTable,
    as_rows,
    associativity_witness,
    canonical_form,
    distributivity_witness,
    orbit,
    preservation_witness,
    relabel,
    relabelings_fixing,
    render_table,
    transpose,
)
from monodual.catalog import MONOID_TABLES


def test_as_rows_rejects_out_of_range_entry():
    # a 2x2 table whose 1+1 cell points at a third, nonexistent element
    with pytest.raises(MalformedTable):
        as_rows([[0, 1], [1, 2]])


def test_as_rows_rejects_non_square():
    with pytest.raises(MalformedTable):
        as_rows([[0, 1], [1]])
    with pytest.raises(MalformedTable):
        as_rows([])


@st.composite
def small_tables(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return tuple(
        tuple(draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(n))
        for _ in range(n)
    )


@given(small_tables())
def test_json_round_trip(rows):
    t = CayleyTable.from_rows(rows)
    assert CayleyTable.from_json(t.to_json()) == t


@given(small_tables())
def test_transpose_involution(rows):
    assert transpose(transpose(rows)) == rows


def test_transpose_of_a_non_square_table():
    assert transpose(((0, 1, 2), (2, 1, 0))) == ((0, 2), (1, 1), (2, 0))


@given(small_tables(), st.randoms())
def test_relabel_by_inverse_is_identity(rows, rnd):
    n = len(rows)
    perm = list(range(n))
    rnd.shuffle(perm)
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    assert relabel(relabel(rows, perm), inv) == rows


@given(st.sampled_from(sorted(MONOID_TABLES)), st.randoms())
def test_canonical_form_invariant_under_relabeling(label, rnd):
    rows = MONOID_TABLES[label]
    n = len(rows)
    from monodual.tables import neutral_of

    e = neutral_of(rows)
    perm = [0] * n
    slots = [s for s in range(n) if s != 0]
    rnd.shuffle(slots)
    others = iter(slots)
    for x in range(n):
        perm[x] = 0 if x == e else next(others)
    shuffled = relabel(rows, perm)
    assert canonical_form(shuffled) == canonical_form(rows, neutral=e)


def test_canonical_form_idempotent():
    for rows in MONOID_TABLES.values():
        from monodual.tables import neutral_of

        c = canonical_form(rows, neutral=neutral_of(rows))
        assert canonical_form(c) == c
        c2 = min(orbit(c, relabelings_fixing(0, len(c)), opposite=True))
        assert min(orbit(c2, relabelings_fixing(0, len(c2)), opposite=True)) == c2


def test_render_table_layout():
    out = render_table("M6", MONOID_TABLES["M6"])
    assert out == "\n".join([
        "M6 | 0 1 2",
        "---+------",
        " 0 | 0 1 2",
        " 1 | 1 2 1",
        " 2 | 2 1 2",
    ])


def _random_table(rnd, n, holes):
    """An n x n list table over 0..n-1 with each cell None with probability ``holes``."""
    return [[None if rnd.random() < holes else rnd.randrange(n) for _ in range(n)] for _ in range(n)]


def _first(failures):
    return min(failures, default=None)


def _brute_associativity(t):
    rng = range(len(t))
    return _first(
        (x, y, z) for x, y, z in product(rng, repeat=3)
        if None not in (t[x][y], t[y][z])
        and None not in (t[t[x][y]][z], t[x][t[y][z]])
        and t[t[x][y]][z] != t[x][t[y][z]]
    )


def _brute_distributivity(add, mul):
    rng = range(len(add))
    fails = []
    for x, y, z in product(rng, repeat=3):
        for side, (v, a, b) in enumerate([
            (mul[x][add[y][z]], mul[x][y], mul[x][z]),
            (mul[add[x][y]][z], mul[x][z], mul[y][z]),
        ]):
            if None not in (v, a, b) and v != add[a][b]:
                fails.append((x, y, z, side))
    w = _first(fails)
    return w if w is None else w[:3] + (("left", "right")[w[3]],)


def _brute_preservation(f, a, b):
    rng = range(len(a))
    return _first(
        (x, y) for x, y in product(rng, repeat=2)
        if None not in (f[x], f[y], a[x][y])
        and None not in (f[a[x][y]], b[f[x]][f[y]])
        and f[a[x][y]] != b[f[x]][f[y]]
    )


@pytest.mark.parametrize("holes", [0.0, 0.3])
def test_witnesses_match_brute_force_scans(holes):
    rnd = random.Random(2108)
    fired = [0, 0, 0]  # draws on which each witness found a failure
    for _ in range(400):
        n, m = rnd.randint(1, 4), rnd.randint(1, 4)
        t = _random_table(rnd, n, holes)
        add = _random_table(rnd, n, 0.0)
        f = [None if rnd.random() < holes else rnd.randrange(m) for _ in range(n)]
        b = _random_table(rnd, m, holes)
        got = (associativity_witness(t), distributivity_witness(add, t), preservation_witness(f, t, b))
        assert got == (_brute_associativity(t), _brute_distributivity(add, t),
                       _brute_preservation(f, t, b)), (t, add, f, b)
        fired = [k + (w is not None) for k, w in zip(fired, got)]
    assert min(fired) > 40, fired
