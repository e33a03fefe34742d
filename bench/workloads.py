"""The benchmark's workloads: inputs, the timed calls into monodual, and the checks.

Each workload has three parts.  ``prepare_*`` builds the inputs (it counts as
set-up), ``run_*`` makes the timed calls and keeps every output, and
``verify_*`` checks each output against the references in :mod:`oracle` and
counts one operation per call, failed when its output is wrong.  The traced
pass runs the same ``run_*`` code with a recording tracer, so traced and
untraced passes make the same calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import permutations

import numpy as np

import monodual as md
from monodual import catalog, cli
from monodual import reproduce as rp
from monodual.product import SiteSpace
from monodual.tables import canonical_form

import oracle

# (duality, sites, coverage, pathwise seeds).  psi5 is psi5.T, whose maps act
# on the three-element M6 side; psi2 has two-element carriers.  psi5 at k=7
# is sampled because 3^7 * 3^7 pairs exceed the library's default budget.
SITES = (
    ("psi5", 4, "exhaustive", 3),
    ("psi5", 5, "exhaustive", 2),
    ("psi5", 6, "exhaustive", 1),
    ("psi5", 7, "sampled", 1),
    ("psi2", 8, "exhaustive", 2),
    ("psi2", 9, "exhaustive", 1),
)
# the three pathwise checks inside `monodual reproduce`, timed per seed in
# the traced pass
REPRODUCE_K3 = (
    ("psi1", 3, "exhaustive", 10),
    ("psi2", 3, "exhaustive", 10),
    ("psi5", 3, "exhaustive", 10),
)
WINDOW = (0.0, 32.0)  # the window `monodual reproduce` uses for this model
SAMPLED_PAIRS = 100_000  # pairs per convention for sampled pathwise coverage
ORACLE_PAIRS = 4096  # seeded pairs the benchmark re-checks beyond k = 4
EXHAUSTIVE_ORACLE_MAX_SITES = 4
REPRODUCE_CHECKS = 42
# the expectation check of `monodual reproduce`: psi5.T at k=2, one map at
# rate 0.8, from x=(1,2) and y=(1,0) to t=1, 10^5 replicates per side.  Its
# Monte-Carlo seed stays 2024, so the four-standard-error test cannot fail by
# chance on some benchmark seeds.
EXPECTATION = {"x": (1, 2), "y": (1, 0), "t": 1.0, "rate": 0.8, "replicates": 100_000, "seed": 2024}


class Tally:
    """Operations attempted and failed in one pass, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)


def _np_rows(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# census: exact algebra, every call made once

@dataclass
class CensusInputs:
    monoids: dict  # catalog label -> Monoid, M0..M26
    hom_pairs: list  # (S label, T label), all 27 x 27, in seeded order
    semiring_labels: list  # M1..M26 in seeded order


def prepare_census(seed: int) -> CensusInputs:
    rng = random.Random(seed)
    monoids = {lab: catalog.monoid(lab) for lab in catalog.M_LABELS}
    pairs = [(s, t) for s in catalog.M_LABELS for t in catalog.M_LABELS]
    rng.shuffle(pairs)
    labels = list(catalog.M_LABELS[1:])
    rng.shuffle(labels)
    return CensusInputs(monoids, pairs, labels)


def run_census(inp: CensusInputs, tr) -> dict:
    out = {"commutative": {}, "absorbing": {}, "semiring": {}, "hom": {}}
    for order in range(1, 6):
        with tr.span(f"enumeration.commutative.o{order}"):
            out["commutative"][order] = md.enumerate_commutative_monoids(order)
    for order in (2, 3, 4):
        with tr.span("enumeration.absorbing"):
            out["absorbing"][order] = md.enumerate_monoids_with_absorbing(order)
    for lab in inp.semiring_labels:
        add = inp.monoids[lab]
        with tr.span("enumeration.semiring"):
            out["semiring"][lab] = md.enumerate_semiring_multiplications(add)
    for s, t in inp.hom_pairs:
        source, target = inp.monoids[s], inp.monoids[t]
        with tr.span("homdual.hom_set"):
            out["hom"][s, t] = md.hom_set(source, target)
    with tr.span("homdual.census"):
        out["quadruples"] = md.find_all_duality_quadruples(4)
    with tr.span("homdual.reduce"):
        out["classes"] = md.reduce_duality_quadruples(out["quadruples"])
    return out


def check_commutative(order: int, report) -> bool:
    tables = [t.rows for t in report.representatives]
    return (
        report.count == len(tables) == oracle.COMMUTATIVE_MONOID_COUNTS[order]
        and len(set(tables)) == len(tables)
        and all(oracle.is_commutative_monoid_at_0(t) for t in tables)
    )


def check_absorbing(order: int, report) -> bool:
    commutative = sum(
        1 for lab in catalog.M_LABELS
        if len(catalog.MONOID_TABLES[lab]) == order
        and oracle.absorbing(catalog.MONOID_TABLES[lab]) is not None
    )
    expected = commutative + (2 if order == 4 else 0)  # N1, N2 up to opposite
    tables = [t.rows for t in report.representatives]
    return report.count == len(tables) == expected and all(
        oracle.is_table(t) and oracle.neutral(t) == 0 and oracle.associative(t)
        and oracle.absorbing(t) is not None
        for t in tables
    )


def check_semirings(add_rows, classes) -> bool:
    expected = sum(1 for a, _, _ in catalog.SEMIRING_TABLES if catalog.MONOID_TABLES[a] == add_rows)
    return len(classes) == expected and all(
        c.semiring.add.rows == add_rows
        and oracle.is_semiring(add_rows, c.semiring.mul.rows, c.semiring.one)
        for c in classes
    )


def check_hom_set(adj, s_rows, t_rows, homs: oracle.HomSets) -> bool:
    """The maps are exactly the brute-force hom set, and the table is their
    pointwise sum in T with the constant map as neutral."""
    values = adj.values()
    if len(values) != len(set(values)) or set(values) != homs(s_rows, t_rows):
        return False
    v, t = _np_rows(values), _np_rows(t_rows)
    sums = t[v[:, None, :], v[None, :, :]]
    op = _np_rows(adj.op.rows)
    zero = oracle.neutral(t_rows)
    return bool(np.array_equal(v[op], sums)) and all(x == zero for x in values[adj.index_of_zero])


def check_quadruples(quads, monoids, homs: oracle.HomSets) -> bool:
    return len(quads) == oracle.PAPER_QUADRUPLES and all(
        q.psi.s.rows == monoids[q.s_label].rows
        and q.psi.r.rows == monoids[q.r_label].rows
        and q.psi.t.rows == monoids[q.t_label].rows
        and oracle.is_duality(q.psi.values, q.psi.s.rows, q.psi.r.rows, q.psi.t.rows, homs)
        for q in quads
    )


def check_classes(classes) -> bool:
    names = [c.matched_name for c in classes]
    return len(names) == len(oracle.PAPER_CLASS_NAMES) and set(names) == oracle.PAPER_CLASS_NAMES


def verify_census(inp: CensusInputs, out: dict, tally: Tally, homs: oracle.HomSets) -> None:
    for order, report in out["commutative"].items():
        tally.check(check_commutative(order, report), f"commutative monoids of order {order}")
    for order, report in out["absorbing"].items():
        tally.check(check_absorbing(order, report), f"monoids with absorbing element, order {order}")
    for lab, classes in out["semiring"].items():
        tally.check(check_semirings(inp.monoids[lab].rows, classes), f"semirings on {lab}")
    for (s, t), adj in out["hom"].items():
        tally.check(check_hom_set(adj, inp.monoids[s].rows, inp.monoids[t].rows, homs), f"hom_set({s}, {t})")
    tally.check(check_quadruples(out["quadruples"], inp.monoids, homs), "duality quadruple census")
    tally.check(check_classes(out["classes"]), "reduction to the 22 named classes")


# ---------------------------------------------------------------------------
# sites: dual maps and pathwise checks on product spaces

@dataclass
class SitesCase:
    name: str
    sites: int
    coverage: str
    psi: object  # the verified local DualityFunction
    embedding: tuple
    model: object  # RateModel on S^k
    seeds: list

    @property
    def tag(self) -> str:
        return f"{self.name}.k{self.sites}"


def local_duality(name: str):
    """The local table and real embedding `monodual reproduce` uses for its pathwise checks."""
    if name == "psi5":
        return md.named_duality("psi5").transposed(), catalog.REAL_EMBEDDINGS["M5"]
    t_label = catalog.PSI_TABLES[name][2]
    return md.named_duality(name), catalog.REAL_EMBEDDINGS.get(t_label)


def spread_cycle_model(local, sites: int):
    """The spread + cycle rate model of `monodual reproduce`'s pathwise checks."""
    space = SiteSpace(local, sites)
    homs = [h.values for h in md.hom_set(local, local).base]
    zero = homs[0]
    nontrivial = [h for h in homs if len(set(h)) > 1]
    k = sites
    spread = md.SiteMap.from_matrix(
        space, [[nontrivial[0] if abs(i - j) <= 1 else zero for j in range(k)] for i in range(k)]
    )
    cycle = md.SiteMap.from_matrix(space, [[homs[(i + j) % len(homs)] for j in range(k)] for i in range(k)])
    return md.RateModel.build(space, {"spread": spread, "cycle": cycle}, {"spread": 1.5, "cycle": 1.0})


def prepare_sites(seed: int, settings=SITES) -> list[SitesCase]:
    locals_ = {}
    cases = []
    for i, (name, k, coverage, n_seeds) in enumerate(settings):
        if name not in locals_:
            locals_[name] = local_duality(name)
        psi, emb = locals_[name]
        seeds = [(seed, i, j) for j in range(n_seeds)]
        cases.append(SitesCase(name, k, coverage, psi, emb, spread_cycle_model(psi.s, k), seeds))
    return cases


def run_sites(cases: list[SitesCase], tr) -> list[dict]:
    outs = []
    for c in cases:
        with tr.span(f"product.lift.{c.tag}"):
            lifted = md.lift_duality(c.psi, c.sites, real_embedding=c.embedding)
        with tr.span(f"product.dual_map.{c.tag}"):
            dual = md.dual_model(c.model, lifted)
        maps = [e.site_map for e in c.model.entries + dual.entries]
        with tr.span(f"product.index_table.{c.tag}"):
            tables = [m.index_table() for m in maps]
        reports = []
        for seed in c.seeds:
            with tr.span(f"ips.pathwise_seed.{c.tag}"):
                reports.append(md.check_pathwise_duality(
                    c.model, lifted, WINDOW, seed=seed, coverage=c.coverage,
                    n_samples=SAMPLED_PAIRS, dual=dual,
                ))
            tr.count(f"ips.pairs_checked.{c.tag}", reports[-1].pairs_checked)
            tr.count(f"ips.events.{c.tag}", reports[-1].n_events)
        outs.append({"lifted": lifted, "dual": dual, "maps": maps, "tables": tables, "reports": reports})
    return outs


class ProductSpace:
    """A local duality's tables as arrays, with the pairs the benchmark checks on S^k x R^k."""

    def __init__(self, psi, sites: int, rng: np.random.Generator):
        self.psi = psi
        self.ns, self.nr = psi.s.order, psi.r.order
        if sites <= EXHAUSTIVE_ORACLE_MAX_SITES:
            xi, yi = np.meshgrid(np.arange(self.ns ** sites), np.arange(self.nr ** sites), indexing="ij")
            xi, yi = xi.ravel(), yi.ravel()
        else:
            xi = rng.integers(0, self.ns ** sites, size=ORACLE_PAIRS)
            yi = rng.integers(0, self.nr ** sites, size=ORACLE_PAIRS)
        self.xs = oracle.configs_of(xi, self.ns, sites)
        self.ys = oracle.configs_of(yi, self.nr, sites)

    def big_psi(self, xs, ys) -> np.ndarray:
        return oracle.lifted_psi(self.psi.values, self.psi.t.rows, self.psi.t.neutral, xs, ys)

    def apply_s(self, matrix, xs):
        return oracle.apply_matrix(matrix, self.psi.s.rows, self.psi.s.neutral, xs)

    def apply_r(self, matrix, ys):
        return oracle.apply_matrix(matrix, self.psi.r.rows, self.psi.r.neutral, ys)

    def dual_holds(self, m_matrix, mhat_matrix) -> bool:
        """Psi(m(x), y) == Psi(x, mhat(y)) on every checked pair."""
        lhs = self.big_psi(self.apply_s(m_matrix, self.xs), self.ys)
        rhs = self.big_psi(self.xs, self.apply_r(mhat_matrix, self.ys))
        return bool(np.array_equal(lhs, rhs))

    def flow_holds(self, model, dual, stream) -> bool:
        """Psi(X(x), y) == Psi(x, Y(y)): X applies the maps in time order, Y the
        dual maps in reverse time order."""
        fwd = {e.map_id: e.site_map.matrix for e in model.entries}
        back = {e.map_id: e.site_map.matrix for e in dual.entries}
        xs, ys = self.xs, self.ys
        for map_id, _t in stream.events:
            xs = self.apply_s(fwd[map_id], xs)
        for map_id, _t in reversed(stream.events):
            ys = self.apply_r(back[map_id], ys)
        return bool(np.array_equal(self.big_psi(xs, self.ys), self.big_psi(self.xs, ys)))


def check_index_table(table, matrix, local, sites: int) -> bool:
    configs = oracle.all_configs(local.order, sites)
    image = oracle.apply_matrix(matrix, local.rows, local.neutral, configs)
    return list(table) == oracle.config_index(image, local.order).tolist()


def verify_sites(cases: list[SitesCase], outs: list[dict], tally: Tally, seed: int) -> None:
    for i, (c, out) in enumerate(zip(cases, outs)):
        space = ProductSpace(c.psi, c.sites, np.random.default_rng([seed, i]))
        lifted, dual = out["lifted"], out["dual"]
        tally.check(
            lifted.sites == c.sites and lifted.local.values == c.psi.values
            and lifted.s_space.n_configs == space.ns ** c.sites,
            f"lift_duality {c.tag}",
        )
        tally.check(
            len(dual.entries) == len(c.model.entries)
            and all(
                e.map_id == d.map_id and e.rate == d.rate
                and space.dual_holds(e.site_map.matrix, d.site_map.matrix)
                for e, d in zip(c.model.entries, dual.entries)
            ),
            f"dual_model {c.tag}",
        )
        for m, table in zip(out["maps"], out["tables"]):
            tally.check(check_index_table(table, m.matrix, m.space.local, c.sites), f"index_table {c.tag}")
        n_pairs = space.ns ** c.sites * space.nr ** c.sites
        expected_pairs = 2 * (n_pairs if c.coverage == "exhaustive" else SAMPLED_PAIRS)
        for seed_j, rep in zip(c.seeds, out["reports"]):
            stream = md.sample_event_stream(c.model, WINDOW, seed_j)
            tally.check(
                rep.passed and rep.coverage == c.coverage and rep.pairs_checked == expected_pairs
                and rep.n_events == len(stream.events) > 0
                and space.flow_holds(c.model, dual, stream),
                f"check_pathwise_duality {c.tag} seed {seed_j}",
            )


# ---------------------------------------------------------------------------
# reproduce: the paper's reproduction as users run it

def run_reproduce_cli() -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["reproduce", "--format", "json"])
    return code, buf.getvalue()


def verify_reproduce_cli(code: int, text: str, tally: Tally) -> None:
    """One operation per manifest check; a run that did not exit 0 with a passing
    JSON manifest fails every one."""
    try:
        manifest = json.loads(text)
    except ValueError:
        manifest = None
    checks = manifest.get("checks", []) if isinstance(manifest, dict) else []
    whole = code == 0 and isinstance(manifest, dict) and manifest.get("passed") is True \
        and len(checks) == REPRODUCE_CHECKS
    for i in range(REPRODUCE_CHECKS):
        c = checks[i] if i < len(checks) else {}
        tally.check(whole and c.get("passed") is True and c.get("expected") == c.get("actual"),
                    f"reproduce check {c.get('name', i)}")


def reproduce_calls():
    """Every public check of `reproduce_all`, in its order, as (span name, call)."""
    calls = [("commutative-monoid-counts", rp.check_monoid_counts)]
    calls += [(f"catalog-bijection-order-{n}", lambda n=n: rp.check_catalog_bijection(n)) for n in (1, 2, 3, 4)]
    calls += [("catalog-rendering", rp.check_catalog_rendering),
              ("duality-census", rp.check_duality_census),
              ("duality-reduction", rp.check_duality_reduction)]
    calls += [("semiring-census", lambda lab=lab: rp.check_semiring_census(lab))
              for lab in catalog.M_LABELS if lab != "M0"]
    calls += [("absorbing-monoid-census", rp.check_absorbing_monoids),
              ("f4-nonlinear-homs", rp.check_f4_nonlinear_count),
              ("lattice-duality-bridge", rp.check_lattice_bridge),
              ("dual-map-psi5-exhaustive", rp.check_dual_map_psi5)]
    calls += [(f"pathwise-{name}", lambda name=name: rp.check_pathwise(name)) for name in ("psi1", "psi2", "psi5")]
    calls += [("expectation-psi5", rp.check_expectation_psi5)]
    return calls


REPRODUCE_CHECK_NAMES = tuple(dict.fromkeys(name for name, _ in reproduce_calls()))


# ---------------------------------------------------------------------------
# probes of single layers, run only in the traced pass

def probe_tables(reps5, tr, tally: Tally) -> None:
    """canonical_form on every order-5 representative under every relabeling fixing 0."""
    batch = [(rep, oracle.relabel(rep, p)) for rep in reps5 for p in oracle.relabelings_fixing_0(5)]
    with tr.span("tables.canonical_form"):
        results = [canonical_form(t) for _, t in batch]
    tr.count("tables.canonical_form_calls", len(batch))
    for (rep, _), got in zip(batch, results):
        tally.check(got == rep, "canonical_form of a relabeled representative")


def probe_catalog(census_out: dict, tr, tally: Tally) -> None:
    """catalog_lookup on the order <= 4 representatives and on the census adjoints."""
    queries = [(md.Monoid(t, 0), None) for order in (1, 2, 3, 4)
               for t in census_out["commutative"][order].representatives]
    queries += [(census_out["hom"][q.s_label, q.t_label].monoid(), q.r_label) for q in census_out["quadruples"]]
    with tr.span("catalog.lookup"):
        hits = [md.catalog_lookup(m) for m, _ in queries]
    tr.count("catalog.lookup_calls", len(queries))
    seen = set()
    for (m, want), hit in zip(queries, hits):
        ok = hit is not None and oracle.is_isomorphism(hit[1], m.rows, hit[0].table.rows)
        if ok and want is None:
            ok = hit[0].label not in seen
            seen.add(hit[0].label)
        elif ok:
            ok = hit[0].label == want
        tally.check(ok, "catalog_lookup")


def probe_automorphisms(tr, tally: Tally) -> None:
    entries = [catalog.ENTRIES[lab] for lab in catalog.M_LABELS + catalog.N_LABELS]
    monoids = [e.monoid() for e in entries]
    with tr.span("algebra.automorphisms"):
        found = [md.automorphisms(m) for m in monoids]
    for m, auts in zip(monoids, found):
        want = {p for p in permutations(range(m.order)) if oracle.is_isomorphism(p, m.rows, m.rows)}
        tally.check(len(auts) == len(want) and set(map(tuple, auts)) == want, "automorphisms")


def probe_expectation(tr, tally: Tally) -> None:
    """Monte-Carlo and uniformisation on the model of `reproduce`'s expectation check."""
    e = EXPECTATION
    psi, emb = local_duality("psi5")
    lifted = md.lift_duality(psi, 2, real_embedding=emb)
    space = lifted.s_space
    homs = [h.values for h in md.hom_set(space.local, space.local).base]
    m = md.SiteMap.from_matrix(space, [[homs[2], homs[1]], [homs[0], homs[2]]])
    model = md.RateModel.build(space, {"m": m}, {"m": e["rate"]})
    dual = md.dual_model(model, lifted)
    with tr.span("ips.mc.psi5.k2"):
        est = md.estimate_expectation_duality(
            model, lifted, e["x"], e["y"], e["t"], e["replicates"], seed=e["seed"], dual=dual
        )
    with tr.span("ips.uniformisation.psi5.k2"):
        lhs = md.exact_semigroup_expectation(model, lifted, e["x"], e["y"], e["t"])
        rhs = md.exact_semigroup_expectation(dual, lifted, e["x"], e["y"], e["t"], evolving="r")
    # reference: exp(tQ) on the 9-state chain, with tables from the benchmark's own map code
    ps = ProductSpace(psi, 2, np.random.default_rng(0))
    configs = oracle.all_configs(psi.s.order, 2)
    table = oracle.config_index(ps.apply_s(m.matrix, configs), psi.s.order)
    y = np.tile(np.asarray(e["y"]), (len(configs), 1))
    values = np.asarray(emb)[ps.big_psi(configs, y)]
    start = int(oracle.config_index(np.asarray([e["x"]]), psi.s.order)[0])
    exact = oracle.expectation([table], [e["rate"]], values, start, e["t"])
    tally.check(est.replicates == e["replicates"] and est.consistent
                and abs(est.lhs - exact) <= 1e-9 + 4 * est.lhs_stderr
                and abs(est.rhs - exact) <= 1e-9 + 4 * est.rhs_stderr, "estimate_expectation_duality")
    tally.check(abs(lhs - exact) <= 1e-9, "exact_semigroup_expectation, S side")
    tally.check(abs(rhs - exact) <= 1e-9, "exact_semigroup_expectation, R side")
