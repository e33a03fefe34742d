"""Finite commutative-monoid and semiring duality for interacting particle systems.

The library covers four layers:

* small finite algebra: validated monoids, semirings and lattices over
  carriers 0..n-1 (:mod:`monodual.algebra`), plus the embedded catalog of
  named tables (:mod:`monodual.catalog`);
* exhaustive enumeration of the small structures up to isomorphism
  (:mod:`monodual.enumeration`);
* homomorphism sets, duality functions and the full duality-quadruple census
  with its reduction to essentially different tables (:mod:`monodual.homdual`);
* product spaces, matrix site maps, lifted dualities, dual maps
  (:mod:`monodual.product`) and Poisson-driven stochastic flows with exact
  pathwise-duality checking and expectation estimators (:mod:`monodual.ips`).
"""

from .tables import CayleyTable, MalformedTable, render_table
from .algebra import (
    AlgebraError,
    InvalidLattice,
    Lattice,
    Monoid,
    Semiring,
    are_isomorphic,
    are_isomorphic_semirings,
    automorphisms,
    chain,
    diamond,
    dual_lattice,
    lattice_join_monoid,
    one_generates_addition,
    validate_monoid,
    validate_semiring,
)
from .catalog import CatalogEntry, catalog_lookup, catalog_to_json, entry, monoid, semiring
from .enumeration import (
    EnumerationReport,
    OrderTooLarge,
    enumerate_commutative_monoids,
    enumerate_commutative_monoids_naive,
    enumerate_monoids_with_absorbing,
    enumerate_semiring_multiplications,
)
from .homdual import (
    AdjointMonoid,
    DualityError,
    DualityFunction,
    Hom,
    Quadruple,
    ReducedClass,
    UnmatchedClass,
    adjoint_embedding,
    candidate_duality,
    check_pairing,
    duality_from_dict,
    duality_to_dict,
    evaluation_duality,
    find_all_duality_quadruples,
    hom_set,
    is_homomorphism,
    is_reflexive,
    match_named_duality,
    named_duality,
    reduce_duality_quadruples,
    verify_duality,
)
from .product import (
    LiftedDuality,
    NoDual,
    NoRealEmbedding,
    SiteMap,
    SiteSpace,
    SizeBudgetExceeded,
    dual_map,
    global_hom_set_matrix_check,
    lattice_duality_function,
    lift_duality,
    module_maps,
    product_monoid,
    product_monoid_many,
    semiring_inner_duality,
    verify_module_duality,
)
from .ips import (
    DualityViolation,
    EventStream,
    ExpectationEstimate,
    PathwiseReport,
    RateEntry,
    RateModel,
    StateSpaceTooLarge,
    WindowViolation,
    check_pathwise_duality,
    dual_model,
    estimate_expectation_duality,
    exact_semigroup_expectation,
    flow_index_table,
    sample_event_stream,
)
from .reproduce import ReproductionManifest, reproduce_all

__version__ = "0.1.0"
