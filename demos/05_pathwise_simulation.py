"""Poisson-driven particle systems and their time-reversed duals.

Maps fire at Poisson times; composing them in time order gives the flow of
an interacting particle system.  Replacing every map by its dual and running
time backwards gives the dual flow, and the duality identity holds exactly
for every realisation.  Taking expectations turns this into a numerical
identity that Monte Carlo and uniformisation confirm independently.
"""

from monodual import (
    RateModel,
    catalog,
    check_pathwise_duality,
    dual_model,
    estimate_expectation_duality,
    exact_semigroup_expectation,
    hom_set,
    lift_duality,
    named_duality,
    sample_event_stream,
)
from monodual.product import SiteMap

lifted = lift_duality(
    named_duality("psi5").transposed(), 3, real_embedding=catalog.REAL_EMBEDDINGS["M5"]
)
space = lifted.s_space
homs = [h.values for h in hom_set(space.local, space.local).base]
band = SiteMap.from_matrix(
    space, [[homs[1] if abs(i - j) <= 1 else homs[0] for j in range(3)] for i in range(3)]
)
cycle = SiteMap.from_matrix(space, [[homs[(i + j) % 3] for j in range(3)] for i in range(3)])
model = RateModel.build(space, {"band": band, "cycle": cycle}, {"band": 1.5, "cycle": 1.0})

stream = sample_event_stream(model, (0.0, 8.0), seed=7)
print(f"realised {stream.n_events} events on {stream.window}; first five:")
for mid, t in stream.events[:5]:
    print(f"  t = {t:6.3f}  {mid}")

report = check_pathwise_duality(model, lifted, (0.0, 8.0), seed=7)
print(
    f"\npathwise identity checked on {report.pairs_checked} configuration pairs: "
    f"{'no violations' if report.passed else 'VIOLATED'}"
)

# Expectations: E[psi(X_t, y)] == E[psi(x, Y_t)], estimated by independent
# Monte Carlo on both sides and pinned down exactly by uniformisation.
flat = lift_duality(
    named_duality("psi5").transposed(), 2, real_embedding=catalog.REAL_EMBEDDINGS["M5"]
)
space2 = flat.s_space
m = SiteMap.from_matrix(space2, [[homs[2], homs[1]], [homs[0], homs[2]]])
model2 = RateModel.build(space2, {"m": m}, {"m": 0.8})
x, y, t = (1, 2), (1, 0), 1.0

est = estimate_expectation_duality(model2, flat, x, y, t, replicates=50_000, seed=11)
exact = exact_semigroup_expectation(model2, flat, x, y, t)
exact_dual = exact_semigroup_expectation(
    dual_model(model2, flat), flat, x, y, t, evolving="r"
)
print(f"\nforward estimate  {est.lhs:+.5f} +/- {est.lhs_stderr:.5f}")
print(f"dual estimate     {est.rhs:+.5f} +/- {est.rhs_stderr:.5f}")
print(f"uniformisation    {exact:+.12f} (forward) {exact_dual:+.12f} (dual)")
print("sides consistent within four standard errors:", est.consistent)
