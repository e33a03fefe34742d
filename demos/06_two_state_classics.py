"""The two-state case: the classical additive and cancellative dualities.

With two local states the census holds psi1, on the OR monoid M1, and psi2,
on the group Z/2 (M2).  They are the dualities of Griffeath (1979) and
Liggett (1985, ch. II.3): under psi1 the voter model is dual to coalescing
random walks, under psi2 to annihilating random walks, and under psi1 the
contact process is dual to itself.  A local map is a matrix of local
homomorphisms indexed [input site][output site]; with two states these are
the zero map (0, 0) and the identity (0, 1), written 0 and 1 below.  A map
that is no such matrix, such as the majority vote, has no dual.
"""

from collections import Counter

from monodual import (
    RateModel,
    SiteMap,
    check_pathwise_seeds,
    dual_map,
    dual_model,
    global_hom_set_matrix_check,
    lift_duality,
    named_duality,
)

SITES = 3
WINDOW = (0.0, 1.0)
SEEDS = range(20)


def linear_move(space, links):
    """The map whose matrix holds the identity at the (input, output) sites of `links`, the zero map elsewhere."""
    k = space.sites
    return SiteMap.from_matrix(space, [[(0, 1) if (i, j) in links else (0, 0) for j in range(k)] for i in range(k)])


def voter(space, to, source):
    """Site `to` takes the state of site `source`."""
    return linear_move(space, {(i, i) for i in range(space.sites) if i != to} | {(source, to)})


def branching(space, source, to):
    """x_to <- x_to + x_source: in M1, a particle at `source` branches onto `to`."""
    return linear_move(space, {(i, i) for i in range(space.sites)} | {(source, to)})


def death(space, site):
    """x_site <- 0: the particle at `site` dies."""
    return linear_move(space, {(i, i) for i in range(space.sites) if i != site})


def bits(m: SiteMap) -> str:
    return " / ".join(" ".join(str(entry[1]) for entry in row) for row in m.matrix)


def checked(model, lifted) -> str:
    reports = check_pathwise_seeds(model, lifted, WINDOW, SEEDS)
    assert all(r.passed for r in reports)
    return f"{len(reports)} seeds on {WINDOW}, {sum(r.n_events for r in reports)} events, no violation"


print("The voter move 'site 0 takes site 1's state' and its dual, as 0/1 matrices:")
for name, local, walks in (("psi1", "M1", "coalescing"), ("psi2", "M2", "annihilating")):
    lifted = lift_duality(named_duality(name), SITES)
    space = lifted.s_space
    move = voter(space, 0, 1)
    dual = dual_map(lifted, move)
    assert dual.matrix == tuple(zip(*move.matrix))
    print(f"\n{name} on {SITES} sites of {local}")
    print(f"  move {bits(move)}")
    print(f"  dual {bits(dual)}  (the transposed matrix)")
    print(f"  the dual sends (1, 0, 0) to {dual.apply((1, 0, 0))} and (1, 1, 0) to {dual.apply((1, 1, 0))}: "
          f"{walks} random walks")
    model = RateModel.build(space, {"0<-1": move, "1<-2": voter(space, 1, 2)}, {"0<-1": 1.0, "1<-2": 1.5})
    print(f"  voter model, pathwise: {checked(model, lifted)}")

lifted = lift_duality(named_duality("psi1"), SITES)
space = lifted.s_space
maps = {f"{i}>{j}": branching(space, i, j) for i in range(SITES) for j in ((i + 1) % SITES, (i - 1) % SITES)}
rates = dict.fromkeys(maps, 1.0)
maps.update({f"d{i}": death(space, i) for i in range(SITES)})
rates.update(dict.fromkeys((f"d{i}" for i in range(SITES)), 0.7))
contact = RateModel.build(space, maps, rates)


def as_multiset(model):
    return Counter((e.site_map.matrix, e.rate) for e in model.entries)


assert as_multiset(dual_model(contact, lifted)) == as_multiset(contact)
print(f"\ncontact process under psi1 (branching along the {SITES}-cycle at rate 1, death at rate 0.7):")
print("  its dual model is itself, as a multiset of (matrix, rate): each branching's dual branches the other way")
print(f"  pathwise: {checked(contact, lifted)}")

print("\nmajority vote x_0 <- maj(x_0, x_1, x_2):")
for name, local in (("psi1", "M1"), ("psi2", "M2")):
    space = lift_duality(named_duality(name), SITES).s_space
    found = global_hom_set_matrix_check(space, lambda x: (int(sum(x) >= 2), *x[1:]))
    assert found is None
    print(f"  on {local}: no matrix of local homomorphisms, so no dual under {name}")
