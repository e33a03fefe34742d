"""Poisson-driven stochastic flows on product spaces and their time-reversed duals.

A model is a finite family of site maps applied at the jump times of
independent Poisson processes.  A realisation of all jump times and marks on
a window is an event stream; composing the maps of the events of X[s,u] in
time order gives the stochastic flow.  The dual flow Y[-u,-s] reads the same
events in reverse order, each map replaced by its dual, and the defining
identity

    Psi(X[s,u](x), y) == Psi(x, Y[-u,-s](y))

holds exactly for every realisation, not just in expectation; any violation
is an implementation bug, never noise.

An ``EventStream`` holds its sorted times and its marks, indices into the
ids of the positive-rate maps, tied times ordered by map id; its ``cut``
bounds the events of a sub-window under either boundary convention.
``check_pathwise_seeds`` checks many seeds at once: each seed's events
under the "+" convention are one row of marks, and the "-" convention adds
a second row only when a window end is an event time, since otherwise one
flow pair decides both (``pairs_checked`` still counts both).  The streams
are drawn and cut at the window ends with no check per seed, as the seeds
and the window are checked once.  The rows are padded with the identity and
composed together (``_compose``): events go in words of w, looked up in a
table of all the words of w maps, FLOW_CHUNK cells of index tables at a
time, by pairwise tree reduction.  One ``identity_holds`` call then compares
the pairs of all the rows, PAIR_BLOCK pairs at a time, so the memory of a
comparison no longer grows with the pairs it compares.  The dual model's
maps come from one ``dual_maps`` call.

Randomness: every draw comes from ``np.random.default_rng(key)``, and there
are three kinds.  The event stream of a pathwise check uses key ``seed``: a
Poisson jump count, then that many sorted uniform times and uniform marks.
Its sampled configuration pairs use key ``(seed, 2)``, all x indices first,
each side's indices stored in the narrowest unsigned dtype that holds them;
``dual_maps`` draws nothing, as the local entries decide its identity
exactly.  A Monte-Carlo side splits its replicates into blocks of
MC_BLOCK; block b of side `side` uses key ``(seed, side, b)``: first every
replicate's jump count, then, step by step, one mark for each replicate still
jumping.  A side counts each walked block's endpoints per configuration, so
its memory does not grow with its replicates.  The draws depend only on their
key, so results are independent of scheduling.  A seed is a non-negative
integer or a sequence of them; any other seed, None (numpy's OS entropy)
included, is refused with ValueError before anything is drawn.  A path
whose expected jump count (total rate times time span) exceeds the pair
budget raises SizeBudgetExceeded before anything is drawn, since the work
and memory of every path grow with that count; so does a Monte-Carlo
estimate or an exact expectation whose replicates or states times that
count exceeds it, since its work grows with that product.  Pathwise checks and Monte-Carlo estimates tabulate whole
sides, so they raise StateSpaceTooLarge, also before anything is drawn, for a
side with more configurations than the pair budget.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .product import (
    LiftedDuality, NoRealEmbedding, SiteMap, SiteSpace, SizeBudgetExceeded, dual_maps,
    identity_holds, pair_budget,
)
from .tables import as_int

MAX_EXACT_STATES = 10 ** 4
# replicates walked in lockstep per generator; fixed on memory grounds, so the
# sampled values depend on it and it is no option
MC_BLOCK = 4096
# cells (rows x events x configurations) of the index tables a flow composes
# at once, 32 KiB; fixed on memory grounds, and no option.  Blocks of 2^16
# cells composed a 10^6-event stream three times faster but raised the peak
# memory of `monodual reproduce` by a quarter of a megabyte.
FLOW_CHUNK = 2 ** 12
# largest Poisson mean of one uniformisation step: exp(-50) is far from
# underflow, and longer times are split by the semigroup property
MAX_STEP_MEAN = 50.0
# certified bound on the truncation error of an exact expectation
UNIFORMISATION_TOL = 1e-12


class WindowViolation(ValueError):
    pass


class StateSpaceTooLarge(ValueError):
    pass


class DualityViolation(AssertionError):
    """The pathwise identity failed; carries the witnessing pair and stream."""

    def __init__(self, x, y, stream):
        self.x, self.y, self.stream = x, y, stream
        super().__init__(f"pathwise identity fails at x={x}, y={y}")


@dataclass(frozen=True)
class RateEntry:
    map_id: str
    site_map: SiteMap
    rate: float


@dataclass(frozen=True)
class RateModel:
    space: SiteSpace
    entries: tuple[RateEntry, ...]

    @classmethod
    def build(cls, space: SiteSpace, maps: dict[str, SiteMap], rates: dict[str, float]) -> "RateModel":
        entries = []
        for map_id in sorted(maps):
            rate = float(rates[map_id])
            if not (rate >= 0.0 and math.isfinite(rate)):
                raise ValueError(f"rate for {map_id!r} must be finite and nonnegative")
            if maps[map_id].space != space:
                raise ValueError(f"map {map_id!r} acts on a different space")
            entries.append(RateEntry(map_id, maps[map_id], rate))
        model = cls(space, tuple(entries))
        if not math.isfinite(model.total_rate):
            raise ValueError("the total rate overflows")
        return model

    @property
    def total_rate(self) -> float:
        return sum(e.rate for e in self.entries)


@dataclass(frozen=True, eq=False)
class EventStream:
    """A finite realisation of the marked Poisson set on a time window.

    Event i is map ``ids[marks[i]]`` at ``times[i]``; the times are sorted,
    tie only at float resolution, and tied events are ordered by map id.
    The flow applies the events of a sub-window in this order and the dual
    flow applies the same events in reverse, tied ones included.  Streams
    compare by identity, as their arrays have no single truth value.
    """

    window: tuple[float, float]
    ids: tuple[str, ...]
    times: np.ndarray
    marks: np.ndarray
    seed: object = None

    def __post_init__(self):
        _checked_window(self.window)

    @property
    def events(self) -> tuple[tuple[str, float], ...]:
        """The (map id, time) pairs in stream order."""
        return tuple(zip([self.ids[i] for i in self.marks.tolist()], self.times.tolist()))

    @property
    def n_events(self) -> int:
        return len(self.times)

    def cut(self, s: float, u: float, convention: str = "+") -> tuple[int, int]:
        """The bounds (a, b) of the events of X[s,u]: events a to b - 1 in stream order.

        Convention "+" takes those with s < t <= u (right closed), "-" those
        with s <= t < u (left closed); the two differ only when s or u is an
        event time.
        """
        if convention not in ("+", "-"):
            raise ValueError("convention must be '+' or '-'")
        lo, hi = self.window
        if not (lo <= s <= u <= hi):
            raise WindowViolation(f"[{s},{u}] not inside stream window [{lo},{hi}]")
        return _bounds(self.times, (s, u), convention)

    def events_in(self, s: float, u: float, convention: str = "+") -> tuple[tuple[str, float], ...]:
        """The events of X[s,u] in stream order, as `cut` bounds them."""
        a, b = self.cut(s, u, convention)
        return self.events[a:b]


def _bounds(times: np.ndarray, window: tuple[float, float], convention: str) -> tuple[int, int]:
    """``EventStream.cut`` of sorted `times` at the ends of `window`, unchecked."""
    return tuple(np.searchsorted(times, window, side="right" if convention == "+" else "left").tolist())


def _checked_window(window) -> tuple[float, float]:
    """The window (s, u) as floats; WindowViolation unless it is two real numbers, finite, with s <= u."""
    try:
        s, u = window
    except (TypeError, ValueError):  # no pair: not iterable, or not two items
        s = u = None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (s, u)):
        raise WindowViolation(f"a window must be two real numbers, got {window!r}")
    s, u = float(s), float(u)
    if not math.isfinite(u - s):  # also when the ends are finite but their distance is not
        raise WindowViolation(f"non-finite window {window}")
    if s > u:
        raise WindowViolation(f"empty window {window}")
    return s, u


def _checked_time(t: float) -> float:
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return t


def _mark_lookup(model: RateModel):
    """The positive-rate entries and a map from uniforms in [0, 1) to indices into them.

    Entry i takes u in [bounds[i-1], bounds[i]) and the last one everything
    above, so rounding in the cumulative rates can never index past the end.
    """
    active = [e for e in model.entries if e.rate > 0.0]
    bounds = np.cumsum([e.rate for e in active])[:-1] / model.total_rate
    return active, lambda u: np.searchsorted(bounds, u, side="right")


def _expected_jumps(model: RateModel, span: float, paths: int = 1) -> float:
    """lambda * span, the mean jump count of one path; SizeBudgetExceeded when `paths` such paths
    (Monte-Carlo replicates, or the states of an exact expectation) exceed the pair budget."""
    lam = model.total_rate * span
    if paths * lam > pair_budget():
        raise SizeBudgetExceeded(f"{paths} path(s) of {lam:.6g} expected jumps exceed the budget of {pair_budget()}")
    return lam


def _stream_sampler(model: RateModel, window: tuple[float, float]):
    """The ids of the positive-rate maps, and a function from a seed to its EventStream on `window`,
    whose marks index those ids.  The caller checks the window and the seeds: the function does not,
    and its streams skip ``EventStream``'s window check.

    Marked Poisson sampling, count first: the number of events is Poisson
    with mean total rate times window length; given the count, the times are
    i.i.d. uniform on the window (sorted) and each mark picks a map with
    probability its share of the total rate.  Tied times are ordered by map id.
    """
    s, u = window
    lam = _expected_jumps(model, u - s)
    active, lookup = _mark_lookup(model)
    ids = tuple(e.map_id for e in active)
    id_rank = np.array([sorted(ids).index(i) for i in ids])

    def sample(seed) -> EventStream:
        rng = np.random.default_rng(seed)
        n = rng.poisson(lam)
        times = np.sort(rng.uniform(s, u, n))
        marks = lookup(rng.random(n))
        if (times[1:] == times[:-1]).any():  # a stable sort of sorted times moves only the ties
            order = np.lexsort((id_rank[marks], times))
            times, marks = times[order], marks[order]
        stream = object.__new__(EventStream)
        stream.__dict__.update(window=window, ids=ids, times=times, marks=marks, seed=seed)
        return stream

    return ids, sample


def _checked_seed(seed):
    """The seed itself, a non-negative integer or a sequence of them (no booleans); ValueError otherwise.

    None is refused too: numpy would fill it from OS entropy.
    """
    if seed is None:
        raise ValueError("a seed is required: None would draw from OS entropy")
    sequence = isinstance(seed, (Sequence, np.ndarray)) and not isinstance(seed, (str, bytes, bytearray))
    try:
        valid = all(as_int(v) >= 0 for v in (seed if sequence else [seed]))
    except TypeError:  # a part that is no integer, or a 0-d array
        valid = False
    if not valid:
        raise ValueError(f"a seed must be a non-negative integer or a sequence of them, got {seed!r}")
    return seed


def sample_event_stream(model: RateModel, window: tuple[float, float], seed) -> EventStream:
    """The event stream of `seed` on `window`, the same draws as every pathwise check of that seed."""
    return _stream_sampler(model, _checked_window(window))[1](_checked_seed(seed))


def _compose_pairs(block: np.ndarray) -> np.ndarray:
    """Each row's index tables composed pairwise along axis 1: (rows, m, n) -> (rows, m // 2, n).

    Table 2j is applied before table 2j+1; an odd last table is applied after
    the last pair.
    """
    rows, m, n = block.shape
    flat = block.ravel()
    row_start = np.arange(rows)[:, None] * m
    second = (row_start + np.arange(1, m, 2)) * n
    out = flat[block[:, 0:m - 1:2] + second[:, :, None]]
    if m % 2:
        out[:, -1] = flat[out[:, -1] + (row_start + m - 1) * n]
    return out


def _word_tables(tables: np.ndarray, w: int) -> np.ndarray:
    """The index tables of all s^w words of w of the s tables, in the narrowest dtype that holds an
    index: word c applies its base-s digits, the most significant first."""
    tables = tables.astype(np.min_scalar_type(tables.shape[1] - 1))
    words = tables
    for _ in range(w - 1):  # each word of i tables followed by each table
        words = tables[np.arange(len(tables))[:, None], words[:, None, :]].reshape(-1, tables.shape[1])
    return words


def _compose(tables: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Row r of the result applies tables[marks[r, 0]], then tables[marks[r, 1]], and so on.

    The last of the s tables must be the identity, as it is in every
    ``_table_stack``.  Events are composed in words of w: w is the largest
    with s^w x configurations <= FLOW_CHUNK (at least 1), and the tables of
    all s^w words are built once (``_word_tables``); with w = 1 a word is one
    event.  The words are taken in chunks of at most FLOW_CHUNK cells of
    (rows, words, configurations) index tables: each chunk's word codes are
    built from its marks, the identity padding its last word, and the chunk
    is reduced by pairwise composition in log2(words) vectorised steps, the
    chunks composed in order.
    """
    (s, n), (rows, events) = tables.shape, marks.shape
    w = 1
    while s > 1 and s ** (w + 1) * n <= FLOW_CHUNK:
        w += 1
    words = _word_tables(tables, w) if w > 1 else tables
    digits = s ** np.arange(w - 1, -1, -1)
    out = np.tile(np.arange(n), (rows, 1))
    offsets = np.arange(rows)[:, None] * n
    step = max(1, FLOW_CHUNK // (rows * n)) * w  # events per chunk
    for lo in range(0, events, step):
        chunk = marks[:, lo:lo + step]
        if w > 1:
            if chunk.shape[1] % w:  # the identity pads the last word
                pad = np.full((rows, -chunk.shape[1] % w), s - 1, dtype=chunk.dtype)
                chunk = np.concatenate([chunk, pad], axis=1)
            chunk = chunk.reshape(rows, -1, w) @ digits
        block = words[chunk]
        while block.shape[1] > 1:
            block = _compose_pairs(block)
        out = block.ravel()[out + offsets]
    return out.astype(tables.dtype, copy=False)


def _table_stack(model: RateModel, ids) -> np.ndarray:
    """The index tables of the maps named by `ids`, in that order, then the identity: last in every
    stack, it pads the rows of marks and the last word of ``_compose``."""
    maps = {e.map_id: e.site_map for e in model.entries}
    return np.stack([maps[i].index_table() for i in ids] + [np.arange(model.space.n_configs)])


def flow_index_table(model: RateModel, stream: EventStream, s: float, u: float, convention: str = "+") -> np.ndarray:
    """X[s,u] of `stream` as an index table over every configuration: the model's maps of the
    events `stream.cut` takes, composed in stream order."""
    a, b = stream.cut(s, u, convention)
    return _compose(_table_stack(model, stream.ids), stream.marks[None, a:b])[0]


def _check_sides(lifted: LiftedDuality) -> None:
    """StateSpaceTooLarge when S^k or R^k alone has more configurations than the pair budget.

    Flows and expectations tabulate every configuration of a side, so this
    runs before any of that work.
    """
    n = max(lifted.s_space.n_configs, lifted.r_space.n_configs)
    if n > pair_budget():
        raise StateSpaceTooLarge(f"one side alone has {n} configurations, beyond the pair budget")


def dual_model(model: RateModel, lifted: LiftedDuality) -> RateModel:
    """The same ids and rates with every site map replaced by its dual, all built by one ``dual_maps`` call."""
    duals = dual_maps(lifted, [e.site_map for e in model.entries])
    return RateModel(lifted.r_space, tuple(RateEntry(e.map_id, d, e.rate) for e, d in zip(model.entries, duals)))


@dataclass(frozen=True)
class PathwiseReport:
    seed: object
    window: tuple[float, float]
    n_events: int
    coverage: str
    pairs_checked: int
    conventions: tuple[str, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "window": list(self.window), "conventions": list(self.conventions)}


def check_pathwise_seeds(
    model: RateModel,
    lifted: LiftedDuality,
    window: tuple[float, float],
    seeds,
    coverage: str = "exhaustive",
    n_samples: int = 100_000,
    dual: RateModel | None = None,
) -> tuple[PathwiseReport, ...]:
    """Verify the pathwise identity for the realised stream of every seed, in order.

    Under each boundary convention, X[s,u] composes the model's maps over the
    window's events and Y[-u,-s] the dual model's maps over the same events
    reversed (reversing time mirrors the convention).  Each seed gives one
    row of marks per convention, and a single row when the two conventions
    cut its stream alike; the rows of a chunk of seeds, rows times pairs
    within the pair budget, are composed together (`_compose`) and their
    identities decided by one `identity_holds` call, which compares
    PAIR_BLOCK pairs at a time in row-major order.  Exhaustive coverage
    checks every configuration pair; sampled coverage draws n_samples index
    pairs per row, stored in the narrowest unsigned dtype, and looks their
    images up in the flows' index tables one block at a time.  Raises
    DualityViolation at the first seed that fails, with the pair a one-seed
    check would report and the stream it composed.  Before any stream or
    dual is built it refuses a seed of None or a bad n_samples (ValueError),
    a side or, for exhaustive coverage, the pairs past the pair budget
    (StateSpaceTooLarge), and a sampled n_samples past it (SizeBudgetExceeded).
    """
    if coverage not in ("exhaustive", "sampled"):
        raise ValueError("coverage must be 'exhaustive' or 'sampled'")
    try:
        n_samples = as_int(n_samples)
    except TypeError:
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    seeds = [_checked_seed(seed) for seed in seeds]
    ssp, rsp = lifted.s_space, lifted.r_space
    if model.space != ssp:
        raise ValueError("model does not act on the S side of this duality")
    window = _checked_window(window)
    _expected_jumps(model, window[1] - window[0])  # the cheap refusals come before any stream, table or dual
    n_pairs = ssp.n_configs * rsp.n_configs
    exhaustive = coverage == "exhaustive"
    if exhaustive and n_pairs > pair_budget():
        raise StateSpaceTooLarge(
            f"{n_pairs} configuration pairs exceed the budget; use coverage='sampled'"
        )
    if not exhaustive and n_samples > pair_budget():
        raise SizeBudgetExceeded(f"{n_samples} sampled pairs per row exceed the pair budget of {pair_budget()}")
    _check_sides(lifted)

    ids, sample = _stream_sampler(model, window)
    dmodel = dual_model(model, lifted) if dual is None else dual
    fwd, back = _table_stack(model, ids), _table_stack(dmodel, ids)
    per_row = n_pairs if exhaustive else n_samples
    per_chunk = max(1, pair_budget() // per_row // 2)  # seeds; each gives one or two rows
    reports = []
    for lo in range(0, len(seeds), per_chunk):
        streams = [sample(seed) for seed in seeds[lo:lo + per_chunk]]
        rows, owner = [], []
        for i, stream in enumerate(streams):
            # the "+" cut, then the "-" cut unless it takes the same events
            for a, b in dict.fromkeys(_bounds(stream.times, window, convention) for convention in "+-"):
                rows.append(stream.marks[a:b])
                owner.append(i)
        # the identity, last in each stack, pads the rows to one length
        padded = np.full((len(rows), max(map(len, rows))), len(ids), dtype=np.min_scalar_type(len(ids)))
        for r, row in enumerate(rows):
            padded[r, :len(row)] = row
        X = _compose(fwd, padded)
        Y = _compose(back, padded[:, ::-1])  # the identity commutes, so padding may lead
        if exhaustive:
            hit = identity_holds(lifted, X, Y)
        else:
            # each row draws from key (seed, 2), all x then all y, kept in the narrowest dtype that holds them
            xi, yi = (np.empty((len(rows), n_samples), np.min_scalar_type(side.n_configs - 1)) for side in (ssp, rsp))
            for r, i in enumerate(owner):
                rng = np.random.default_rng((streams[i].seed, 2))
                xi[r] = rng.integers(ssp.n_configs, size=n_samples)
                yi[r] = rng.integers(rsp.n_configs, size=n_samples)
            hit = identity_holds(lifted, X, Y, pairs=(xi, yi))
        if hit is not None:
            raise DualityViolation(*hit[1:], streams[owner[hit[0][0]]])
        reports += [
            PathwiseReport(
                seed=stream.seed,
                window=window,
                n_events=stream.n_events,
                coverage=coverage,
                pairs_checked=2 * per_row,
                conventions=("+-", "-+"),
                passed=True,
            )
            for stream in streams
        ]
    return tuple(reports)


def check_pathwise_duality(
    model: RateModel,
    lifted: LiftedDuality,
    window: tuple[float, float],
    seed,
    coverage: str = "exhaustive",
    n_samples: int = 100_000,
    dual: RateModel | None = None,
) -> PathwiseReport:
    """check_pathwise_seeds for the one seed `seed`."""
    return check_pathwise_seeds(model, lifted, window, [seed], coverage, n_samples, dual)[0]


@dataclass(frozen=True)
class ExpectationEstimate:
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    replicates: int
    consistent: bool = field(compare=False, default=True)

    @property
    def combined_stderr(self) -> float:
        return math.sqrt(self.lhs_stderr ** 2 + self.rhs_stderr ** 2)

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "lhs_stderr": self.lhs_stderr,
            "rhs": self.rhs,
            "rhs_stderr": self.rhs_stderr,
            "replicates": self.replicates,
            "combined_stderr": self.combined_stderr,
            "consistent": self.consistent,
        }


def _embedded_values(lifted: LiftedDuality, x, y, evolving: str) -> tuple[np.ndarray, int]:
    """Embedded Psi(., y) over S^k (evolving "s") or Psi(x, .) over R^k, and the start index."""
    if lifted.real_embedding is None:
        raise NoRealEmbedding("expectations need a declared real embedding")
    ssp, rsp = lifted.s_space, lifted.r_space
    x_idx, y_idx = ssp.index_of(x), rsp.index_of(y)
    xi = np.arange(ssp.n_configs) if evolving == "s" else x_idx
    yi = y_idx if evolving == "s" else np.arange(rsp.n_configs)
    values = np.asarray(lifted.real_embedding)[lifted.values_at(xi, yi)]
    return values, x_idx if evolving == "s" else y_idx


def _mc_endpoints(model, start_idx, t, replicates, seed, side):
    """The final configuration index of every replicate, yielded one lockstep block at a time."""
    lam = _expected_jumps(model, t)
    active, lookup = _mark_lookup(model)
    tables = np.array([e.site_map.index_table() for e in active])  # empty when no rate is positive, then lam is 0
    for b, lo in enumerate(range(0, replicates, MC_BLOCK)):
        rng = np.random.default_rng((seed, side, b))
        n = rng.poisson(lam, size=min(MC_BLOCK, replicates - lo))
        idx = np.full(n.size, start_idx, dtype=np.intp)
        for j in range(int(n.max())):
            live = np.flatnonzero(n > j)
            idx[live] = tables[lookup(rng.random(live.size)), idx[live]]
        yield idx


def _mc_side(model, values, start_idx, t, replicates, seed, side) -> tuple[float, float]:
    """The mean of `values` at the replicates' endpoints and its standard error, from one count per
    configuration: each block is counted as soon as it is walked, so memory does not grow with replicates."""
    counts = np.zeros(values.size, dtype=np.int64)
    for block in _mc_endpoints(model, start_idx, t, replicates, seed, side):
        counts += np.bincount(block, minlength=values.size)
    mean = float(counts @ values) / replicates
    se = math.sqrt(float(counts @ (values - mean) ** 2) / (replicates - 1) / replicates) if replicates > 1 else 0.0
    return mean, se


def estimate_expectation_duality(
    model: RateModel,
    lifted: LiftedDuality,
    x,
    y,
    t: float,
    replicates: int,
    seed,
    dual: RateModel | None = None,
) -> ExpectationEstimate:
    """Independent Monte-Carlo estimates of E[Psi(X_t^x, y)] and E[Psi(x, Y_t^y)].

    Requires a real embedding on the value monoid.  The two sides use disjoint
    replicate seed namespaces; the estimate is flagged consistent when the
    estimates agree within four combined standard errors; there a side that
    moves but shows no spread takes (max f - min f) / (2 sqrt n), the largest
    standard error its values f allow (Popoviciu's bound).  A seed of None
    and a side past the pair budget are refused first (ValueError, StateSpaceTooLarge).
    """
    t = _checked_time(t)
    seed = _checked_seed(seed)
    try:
        replicates = as_int(replicates)
    except TypeError:
        raise ValueError(f"replicates must be an integer, got {replicates!r}") from None
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    _check_sides(lifted)
    f_lhs, x_idx = _embedded_values(lifted, x, y, "s")
    f_rhs, y_idx = _embedded_values(lifted, x, y, "r")
    dmodel = dual_model(model, lifted) if dual is None else dual
    for m in (model, dmodel):
        _expected_jumps(m, t, replicates)
    lhs, lhs_se = _mc_side(model, f_lhs, x_idx, t, replicates, seed, 0)
    rhs, rhs_se = _mc_side(dmodel, f_rhs, y_idx, t, replicates, seed, 1)
    comb = math.hypot(*(
        (f.max() - f.min()) / (2.0 * math.sqrt(replicates)) if se == 0 and _expected_jumps(m, t) > 0 else se
        for f, se, m in ((f_lhs, lhs_se, model), (f_rhs, rhs_se, dmodel))
    ))
    consistent = abs(lhs - rhs) <= 4.0 * comb if comb > 0 else lhs == rhs
    return ExpectationEstimate(
        lhs=lhs,
        lhs_stderr=lhs_se,
        rhs=rhs,
        rhs_stderr=rhs_se,
        replicates=replicates,
        consistent=consistent,
    )


def _uniformisation_step(v, arrs, weights, lam, fmax, tol) -> np.ndarray:
    """E[v(X)] from every state after a Poisson(lam) number of jump-chain steps.

    The series over jump counts stops once the remaining Poisson tail mass
    times fmax (a bound on |v|) drops below tol.
    """
    w = math.exp(-lam)
    acc = w * v
    mass = w
    k = 0
    while (1.0 - mass) * fmax >= tol:
        k += 1
        if k > 10 ** 7:
            raise RuntimeError("uniformisation failed to converge")
        nv = np.zeros_like(v)
        for arr, wt in zip(arrs, weights):
            nv += wt * v[arr]
        v = nv
        w *= lam / k
        acc += w * v
        mass += w
    return acc


def exact_semigroup_expectation(
    model: RateModel,
    lifted: LiftedDuality,
    x,
    y,
    t: float,
    evolving: str = "s",
) -> float:
    """E[Psi(X_t, y)] by uniformisation of the finite-state jump chain.

    Time is split by the semigroup property, P_t = (P_{t/m})^m, with the
    smallest m that keeps each step's Poisson mean at most MAX_STEP_MEAN.
    Each step's series over jump counts is truncated as soon as its remaining
    Poisson tail mass times max|f| drops below UNIFORMISATION_TOL/m; the steps
    are sup-norm contractions, so the total truncation error is certified
    below UNIFORMISATION_TOL.  With
    evolving="r", the model must act on the R side and the roles of x and y
    swap (the second argument evolves from y).  States times expected jumps
    past the pair budget raise SizeBudgetExceeded before anything is built.
    """
    if evolving not in ("s", "r"):
        raise ValueError("evolving must be 's' or 'r'")
    t = _checked_time(t)
    space = lifted.s_space if evolving == "s" else lifted.r_space
    if model.space != space:
        raise ValueError("model does not act on the evolving side")
    if space.n_configs > MAX_EXACT_STATES:
        raise StateSpaceTooLarge(f"{space.n_configs} states exceed {MAX_EXACT_STATES}")
    lam = _expected_jumps(model, t, space.n_configs)
    values, start = _embedded_values(lifted, x, y, evolving)
    if lam == 0.0:
        return float(values[start])
    arrs = [e.site_map.index_table() for e in model.entries]
    weights = [e.rate / model.total_rate for e in model.entries]
    fmax = float(np.max(np.abs(values))) or 1.0
    steps = max(1, math.ceil(lam / MAX_STEP_MEAN))
    v = values
    for _ in range(steps):
        v = _uniformisation_step(v, arrs, weights, lam / steps, fmax, UNIFORMISATION_TOL / steps)
    return float(v[start])
