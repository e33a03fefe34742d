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

Randomness: every draw comes from ``np.random.default_rng(key)``, and there
are three kinds.  The event stream of a pathwise check uses key ``seed``: a
Poisson jump count, then that many sorted uniform times and uniform marks.
Its sampled configuration pairs use key ``(seed, 2)`` (``dual_map`` uses key
``0``), drawn by ``product.sample_pairs``.  A Monte-Carlo side splits its
replicates into blocks of MC_BLOCK; block b of side `side` uses key
``(seed, side, b)``: first every replicate's jump count, then, step by step,
one mark for each replicate still jumping.  The draws depend only on their
key, so results are independent of scheduling.  A path whose expected jump
count (total rate times time span) exceeds the pair budget raises
SizeBudgetExceeded before anything is drawn, since the work and memory of
every path grow with that count; so does a Monte-Carlo estimate whose
replicates times expected jump count exceeds it, since its work grows with
that product.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .product import (
    LiftedDuality, NoRealEmbedding, SiteMap, SiteSpace, SizeBudgetExceeded, dual_map,
    identity_holds, pair_budget, sample_pairs,
)

MAX_EXACT_STATES = 10 ** 4
# replicates walked in lockstep per generator; fixed on memory grounds, so the
# sampled values depend on it and it is no option
MC_BLOCK = 4096
# largest Poisson mean of one uniformisation step: exp(-50) is far from
# underflow, and longer times are split by the semigroup property
MAX_STEP_MEAN = 50.0


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


@dataclass(frozen=True)
class EventStream:
    """A finite realisation of the marked Poisson set on a time window.

    Events are sorted by (time, map id); times tie only at float resolution.
    The flow applies the events of a sub-window in this order and the dual
    flow applies the same events in reverse, tied ones included.
    """

    window: tuple[float, float]
    events: tuple[tuple[str, float], ...]
    seed: object = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(sorted(self.events, key=lambda e: (e[1], e[0]))))
        s, u = _checked_window(self.window)
        for _, t in self.events:
            if not s <= t <= u:
                raise WindowViolation(f"event time {t} outside window {self.window}")

    @property
    def n_events(self) -> int:
        return len(self.events)

    def events_in(self, s: float, u: float, convention: str = "+") -> tuple[tuple[str, float], ...]:
        """The events of X[s,u] in stream order.

        Convention "+" takes those with s < t <= u (right closed), "-" those
        with s <= t < u (left closed); the two differ only when s or u is an
        event time.
        """
        if convention not in ("+", "-"):
            raise ValueError("convention must be '+' or '-'")
        lo, hi = self.window
        if not (lo <= s <= u <= hi):
            raise WindowViolation(f"[{s},{u}] not inside stream window [{lo},{hi}]")
        cut = bisect_right if convention == "+" else bisect_left
        time = itemgetter(1)
        return self.events[cut(self.events, s, key=time):cut(self.events, u, key=time)]


def _checked_window(window) -> tuple[float, float]:
    s, u = float(window[0]), float(window[1])
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


def _expected_jumps(model: RateModel, span: float) -> float:
    """lambda * span, the mean jump count of one path; SizeBudgetExceeded past the pair budget."""
    lam = model.total_rate * span
    if lam > pair_budget():
        raise SizeBudgetExceeded(f"{lam:.6g} expected jumps exceed the budget of {pair_budget()}")
    return lam


def sample_event_stream(model: RateModel, window: tuple[float, float], seed) -> EventStream:
    """Marked Poisson sampling, count first.

    The number of events is Poisson with mean total rate times window length;
    given the count, the times are i.i.d. uniform on the window (sorted) and
    each mark picks a map with probability its share of the total rate.
    """
    s, u = _checked_window(window)
    lam = _expected_jumps(model, u - s)
    rng = np.random.default_rng(seed)
    n = rng.poisson(lam)
    times = np.sort(rng.uniform(s, u, n))
    active, lookup = _mark_lookup(model)
    ids = [active[i].map_id for i in lookup(rng.random(n)).tolist()]
    return EventStream(window=(s, u), events=tuple(zip(ids, times.tolist())), seed=seed)


def flow_index_table(model: RateModel, events) -> np.ndarray:
    """The maps of `events` composed in the order given, as an index table over every configuration."""
    tables = {e.map_id: e.site_map.index_table() for e in model.entries}
    out = np.arange(model.space.n_configs)
    for map_id, _t in events:
        out = tables[map_id][out]
    return out


def dual_model(model: RateModel, lifted: LiftedDuality) -> RateModel:
    """The same ids and rates with every site map replaced by its dual."""
    rsp = lifted.r_space
    entries = tuple(
        RateEntry(e.map_id, dual_map(lifted, e.site_map), e.rate) for e in model.entries
    )
    return RateModel(rsp, entries)


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
        return {
            "seed": self.seed,
            "window": list(self.window),
            "n_events": self.n_events,
            "coverage": self.coverage,
            "pairs_checked": self.pairs_checked,
            "conventions": list(self.conventions),
            "passed": self.passed,
        }


def check_pathwise_duality(
    model: RateModel,
    lifted: LiftedDuality,
    window: tuple[float, float],
    seed,
    coverage: str = "exhaustive",
    n_samples: int = 100_000,
    dual: RateModel | None = None,
) -> PathwiseReport:
    """Verify the pathwise identity for one realised stream and its dual.

    Under each boundary convention, X[s,u] composes the model's maps over the
    window's events and Y[-u,-s] the dual model's maps over the same events
    reversed (reversing time mirrors the convention).  Exhaustive coverage
    checks every configuration pair (within the pair budget); sampled
    coverage draws n_samples pairs.  Raises DualityViolation on the first
    mismatch.
    """
    if coverage not in ("exhaustive", "sampled"):
        raise ValueError("coverage must be 'exhaustive' or 'sampled'")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    ssp, rsp = lifted.s_space, lifted.r_space
    if model.space != ssp:
        raise ValueError("model does not act on the S side of this duality")
    stream = sample_event_stream(model, window, seed)
    dmodel = dual_model(model, lifted) if dual is None else dual
    s, u = stream.window

    n_pairs = ssp.n_configs * rsp.n_configs
    exhaustive = coverage == "exhaustive"
    if exhaustive and n_pairs > pair_budget():
        raise StateSpaceTooLarge(
            f"{n_pairs} configuration pairs exceed the budget; use coverage='sampled'"
        )
    if max(ssp.n_configs, rsp.n_configs) > pair_budget():
        raise StateSpaceTooLarge("one side alone exceeds the pair budget")

    if not exhaustive:
        xi, yi = sample_pairs((seed, 2), n_samples, ssp, rsp)
        xs, ys = ssp.config_array(xi), rsp.config_array(yi)
    for conv in ("+", "-"):
        events = stream.events_in(s, u, conv)
        X = flow_index_table(model, events)
        Y = flow_index_table(dmodel, events[::-1])
        if exhaustive:
            hit = identity_holds(lifted, X, Y)
        else:
            hit = identity_holds(
                lifted, ssp.config_array(X[xi]), rsp.config_array(Y[yi]), pairs=(xs, ys)
            )
        if hit is not None:
            raise DualityViolation(*hit, stream)
    return PathwiseReport(
        seed=seed,
        window=stream.window,
        n_events=stream.n_events,
        coverage=coverage,
        pairs_checked=2 * (n_pairs if exhaustive else n_samples),
        conventions=("+-", "-+"),
        passed=True,
    )


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
    xs = ssp.config_array(None if evolving == "s" else [x_idx])
    ys = rsp.config_array([y_idx] if evolving == "s" else None)
    values = np.asarray(lifted.real_embedding)[lifted.evaluate_pairs(xs, ys)]
    return values, x_idx if evolving == "s" else y_idx


def _mc_endpoints(model, start_idx, t, replicates, seed, side) -> np.ndarray:
    """Final configuration index of every replicate, walked in lockstep blocks."""
    lam = _expected_jumps(model, t)
    out = np.full(replicates, start_idx, dtype=np.intp)
    if lam == 0.0:
        return out
    active, lookup = _mark_lookup(model)
    tables = np.stack([e.site_map.index_table() for e in active])
    for b, lo in enumerate(range(0, replicates, MC_BLOCK)):
        rng = np.random.default_rng((seed, side, b))
        idx = out[lo:lo + MC_BLOCK]  # a view: the walk writes into out
        n = rng.poisson(lam, size=idx.size)
        for j in range(int(n.max())):
            live = np.flatnonzero(n > j)
            idx[live] = tables[lookup(rng.random(live.size)), idx[live]]
    return out


def _mc_side(model, values, start_idx, t, replicates, seed, side) -> tuple[float, float]:
    out = values[_mc_endpoints(model, start_idx, t, replicates, seed, side)]
    mean = float(out.mean())
    se = float(out.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0
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
    standard error its values f allow (Popoviciu's bound).
    """
    t = _checked_time(t)
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    f_lhs, x_idx = _embedded_values(lifted, x, y, "s")
    f_rhs, y_idx = _embedded_values(lifted, x, y, "r")
    dmodel = dual_model(model, lifted) if dual is None else dual
    for m in (model, dmodel):
        lam = _expected_jumps(m, t)
        if replicates * lam > pair_budget():
            raise SizeBudgetExceeded(
                f"{replicates} replicates of {lam:.6g} expected jumps exceed the budget of {pair_budget()}"
            )
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
    tol: float = 1e-12,
    evolving: str = "s",
) -> float:
    """E[Psi(X_t, y)] by uniformisation of the finite-state jump chain.

    Time is split by the semigroup property, P_t = (P_{t/m})^m, with the
    smallest m that keeps each step's Poisson mean at most MAX_STEP_MEAN.
    Each step's series over jump counts is truncated as soon as its remaining
    Poisson tail mass times max|f| drops below tol/m; the steps are sup-norm
    contractions, so the total truncation error is certified below tol.  With
    evolving="r", the model must act on the R side and the roles of x and y
    swap (the second argument evolves from y).
    """
    if evolving not in ("s", "r"):
        raise ValueError("evolving must be 's' or 'r'")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    t = _checked_time(t)
    space = lifted.s_space if evolving == "s" else lifted.r_space
    if model.space != space:
        raise ValueError("model does not act on the evolving side")
    if space.n_configs > MAX_EXACT_STATES:
        raise StateSpaceTooLarge(f"{space.n_configs} states exceed {MAX_EXACT_STATES}")
    values, start = _embedded_values(lifted, x, y, evolving)

    lam = _expected_jumps(model, t)
    if lam == 0.0:
        return float(values[start])
    arrs = [e.site_map.index_table() for e in model.entries]
    weights = [e.rate / model.total_rate for e in model.entries]
    fmax = float(np.max(np.abs(values))) or 1.0
    steps = max(1, math.ceil(lam / MAX_STEP_MEAN))
    v = values
    for _ in range(steps):
        v = _uniformisation_step(v, arrs, weights, lam / steps, fmax, tol / steps)
    return float(v[start])
