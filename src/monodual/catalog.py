"""The embedded catalog: named small monoids, semirings and duality functions.

The catalog is fixed data, not derived at runtime, so lookups never depend on
the enumeration code being right; the test suite cross-checks the two against
each other.  Carriers are 0..n-1 with 0 the additive neutral element.  Labels:

* M0..M26   -- the commutative monoids of order <= 4 (M0 is the singleton),
* N1, N2    -- the two non-commutative order-4 monoids with an absorbing
               element (listed up to opposite; their opposites are the only
               other such isomorphism classes),
* F4-mult   -- the multiplication table of the four-element field, whose
               multiplicative monoid is isomorphic to M18.

Duality-function entries psi<k> are |S|x|R| tables into T, rows indexed by S.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .algebra import Monoid, Semiring, are_isomorphic, validate_semiring
from .tables import (
    CayleyTable, Rows, absorbing_of, almost_absorbing_of, canonical_form, is_commutative, neutral_of,
    render_table,
)

MONOID_TABLES: dict[str, Rows] = {
    "M0": ((0,),),
    "M1": ((0, 1), (1, 1)),
    "M2": ((0, 1), (1, 0)),
    "M3": ((0, 1, 2), (1, 2, 2), (2, 2, 2)),
    "M4": ((0, 1, 2), (1, 1, 2), (2, 2, 2)),
    "M5": ((0, 1, 2), (1, 0, 2), (2, 2, 2)),
    "M6": ((0, 1, 2), (1, 2, 1), (2, 1, 2)),
    "M7": ((0, 1, 2), (1, 2, 0), (2, 0, 1)),
    "M8": ((0, 1, 2, 3), (1, 3, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3)),
    "M9": ((0, 1, 2, 3), (1, 2, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3)),
    "M10": ((0, 1, 2, 3), (1, 3, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
    "M11": ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)),
    "M12": ((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 3, 3), (3, 3, 3, 3)),
    "M13": ((0, 1, 2, 3), (1, 3, 1, 3), (2, 1, 2, 3), (3, 3, 3, 3)),
    "M14": ((0, 1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)),
    "M15": ((0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)),
    "M16": ((0, 1, 2, 3), (1, 0, 2, 3), (2, 2, 2, 3), (3, 3, 3, 3)),
    "M17": ((0, 1, 2, 3), (1, 2, 1, 3), (2, 1, 2, 3), (3, 3, 3, 3)),
    "M18": ((0, 1, 2, 3), (1, 2, 0, 3), (2, 0, 1, 3), (3, 3, 3, 3)),
    "M19": ((0, 1, 2, 3), (1, 2, 2, 3), (2, 2, 2, 3), (3, 3, 3, 2)),
    "M20": ((0, 1, 2, 3), (1, 3, 1, 1), (2, 1, 2, 3), (3, 1, 3, 3)),
    "M21": ((0, 1, 2, 3), (1, 3, 1, 1), (2, 1, 0, 3), (3, 1, 3, 3)),
    "M22": ((0, 1, 2, 3), (1, 3, 3, 2), (2, 3, 3, 2), (3, 2, 2, 3)),
    "M23": ((0, 1, 2, 3), (1, 3, 3, 1), (2, 3, 0, 1), (3, 1, 1, 3)),
    "M24": ((0, 1, 2, 3), (1, 2, 3, 1), (2, 3, 1, 2), (3, 1, 2, 3)),
    "M25": ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    "M26": ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)),
    "N1": ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 2), (0, 1, 2, 3)),
    "N2": ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 3, 3, 3)),
    "F4-mult": ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)),
}

M_LABELS = tuple(f"M{i}" for i in range(27))
N_LABELS = ("N1", "N2")

# (additive label, multiplication table, label of the multiplicative monoid)
SEMIRING_TABLES: tuple[tuple[str, Rows, str], ...] = (
    ("M1", ((0, 0), (0, 1)), "M1"),
    ("M2", ((0, 0), (0, 1)), "M1"),
    ("M3", ((0, 0, 0), (0, 1, 2), (0, 2, 2)), "M4"),
    ("M4", ((0, 0, 0), (0, 0, 1), (0, 1, 2)), "M3"),
    ("M4", ((0, 0, 0), (0, 1, 2), (0, 2, 2)), "M4"),
    ("M4", ((0, 0, 0), (0, 1, 1), (0, 1, 2)), "M4"),
    ("M6", ((0, 0, 0), (0, 1, 2), (0, 2, 2)), "M4"),
    ("M7", ((0, 0, 0), (0, 1, 2), (0, 2, 1)), "M5"),
    ("M8", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)), "M14"),
    ("M8", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3)), "M15"),
    ("M8", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3)), "M16"),
    ("M9", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)), "M14"),
    ("M10", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 3)), "M13"),
    ("M10", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 2), (0, 3, 2, 3)), "M15"),
    ("M11", ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)), "M11"),
    ("M11", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 3)), "M13"),
    ("M11", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)), "M14"),
    ("M11", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 2), (0, 3, 2, 3)), "M15"),
    ("M11", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3)), "M16"),
    ("M13", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 3)), "M13"),
    ("M13", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 2), (0, 3, 2, 3)), "M15"),
    ("M14", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3)), "M15"),
    ("M15", ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 1, 2, 3)), "M8"),
    ("M15", ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 2, 3)), "M9"),
    ("M15", ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3)), "M10"),
    ("M15", ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)), "M13"),
    ("M15", ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)), "M13"),
    ("M15", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3)), "M14"),
    ("M15", ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 3)), "M14"),
    ("M15", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3)), "M15"),
    ("M15", ((0, 0, 0, 0), (0, 1, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3)), "M15"),
    ("M15", ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 3, 3)), "M15"),
    ("M15", ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 2), (0, 1, 2, 3)), "M15"),
    ("M15", ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 2), (0, 1, 2, 3)), "N1"),
    ("M15", ((0, 0, 0, 0), (0, 1, 1, 1), (0, 1, 2, 3), (0, 3, 3, 3)), "N2"),
    ("M17", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3)), "M15"),
    ("M20", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 3)), "M13"),
    ("M20", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 2), (0, 3, 2, 3)), "M15"),
    ("M21", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 0), (0, 3, 0, 3)), "M10"),
    ("M22", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3)), "M15"),
    ("M23", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 0), (0, 3, 0, 3)), "M11"),
    ("M24", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3)), "M16"),
    ("M25", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 0), (0, 3, 0, 3)), "M11"),
    ("M25", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 0)), "M12"),
    ("M25", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)), "M18"),
    ("M26", ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1)), "M12"),
)

# name -> (S label, R label, T label, |S|x|R| table of T elements)
PSI_TABLES: dict[str, tuple[str, str, str, Rows]] = {
    "psi1": ("M1", "M1", "M1", ((0, 0), (0, 1))),
    "psi2": ("M2", "M2", "M2", ((0, 0), (0, 1))),
    "psi3": ("M3", "M3", "M3", ((0, 0, 0), (0, 1, 2), (0, 2, 2))),
    "psi4": ("M4", "M4", "M1", ((0, 0, 0), (0, 0, 1), (0, 1, 1))),
    "psi5": ("M5", "M6", "M5", ((0, 0, 0), (0, 1, 0), (0, 2, 2))),
    "psi6": ("M6", "M6", "M6", ((0, 0, 0), (0, 1, 2), (0, 2, 2))),
    "psi7": ("M7", "M7", "M7", ((0, 0, 0), (0, 1, 2), (0, 2, 1))),
    "psi9": ("M9", "M9", "M9",
             ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 3))),
    "psi10": ("M10", "M10", "M3",
              ((0, 0, 0, 0), (0, 1, 2, 2), (0, 2, 0, 2), (0, 2, 2, 2))),
    "psi11": ("M11", "M11", "M1",
              ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1))),
    "psi13": ("M13", "M14", "M3",
              ((0, 0, 0, 0), (0, 1, 2, 2), (0, 0, 0, 2), (0, 2, 2, 2))),
    "psi15": ("M15", "M15", "M1",
              ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1))),
    "psi16": ("M16", "M20", "M5",
              ((0, 0, 0, 0), (0, 1, 0, 0), (0, 2, 0, 2), (0, 2, 2, 2))),
    "psi17": ("M17", "M17", "M5",
              ((0, 0, 0, 0), (0, 1, 0, 2), (0, 0, 0, 2), (0, 2, 2, 2))),
    "psi18": ("M18", "M24", "M18",
              ((0, 0, 0, 0), (0, 1, 2, 0), (0, 2, 1, 0), (0, 3, 3, 3))),
    "psi21": ("M21", "M21", "M5",
              ((0, 0, 0, 0), (0, 2, 1, 2), (0, 1, 0, 0), (0, 2, 0, 2))),
    "psi22": ("M22", "M22", "M22",
              ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 3), (0, 3, 3, 3))),
    "psi23": ("M23", "M23", "M23",
              ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 0), (0, 3, 0, 3))),
    "psi235": ("M23", "M23", "M5",
               ((0, 0, 0, 0), (0, 2, 1, 2), (0, 1, 1, 0), (0, 2, 0, 2))),
    "psi24": ("M24", "M24", "M24",
              ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3))),
    "psi25": ("M25", "M25", "M2",
              ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))),
    "psi26": ("M26", "M26", "M26",
              ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1))),
}

# Injective maps emb: T -> R with emb(a + b) = emb(a) * emb(b), so that sums
# computed in T turn into real products.  Only these targets admit one.
REAL_EMBEDDINGS: dict[str, tuple[float, ...]] = {
    "M1": (1.0, 0.0),
    "M2": (1.0, -1.0),
    "M5": (1.0, -1.0, 0.0),
}


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    table: CayleyTable
    neutral: int
    commutative: bool
    absorbing: int | None
    almost_absorbing: int | None

    def monoid(self) -> Monoid:
        return Monoid(self.table, self.neutral)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "order": self.table.order,
            "table": [list(r) for r in self.table.rows],
            "neutral": self.neutral,
            "commutative": self.commutative,
            "absorbing": self.absorbing,
            "almost_absorbing": self.almost_absorbing,
        }


def _build_entries() -> dict[str, CatalogEntry]:
    entries = {}
    for label, rows in MONOID_TABLES.items():
        entries[label] = CatalogEntry(
            label=label,
            table=CayleyTable(rows),
            neutral=neutral_of(rows),
            commutative=is_commutative(rows),
            absorbing=absorbing_of(rows),
            almost_absorbing=almost_absorbing_of(rows),
        )
    return entries


ENTRIES: dict[str, CatalogEntry] = _build_entries()


def entry(label: str) -> CatalogEntry:
    if label not in ENTRIES:
        raise KeyError(f"unknown catalog label {label!r}")
    return ENTRIES[label]


def monoid(label: str) -> Monoid:
    return entry(label).monoid()


def semiring(add_label: str, mult_label: str) -> Semiring:
    """The unique catalog semiring with the given additive carrier and multiplicative class."""
    hits = [
        validate_semiring(MONOID_TABLES[a], m)
        for a, m, lab in SEMIRING_TABLES
        if a == add_label and lab == mult_label
    ]
    if len(hits) != 1:
        raise KeyError(
            f"{len(hits)} catalog semirings on {add_label} with multiplication ~ {mult_label}"
        )
    return hits[0]


# keyed by table contents, so it follows ENTRIES even when they are replaced
_entry_form = cache(canonical_form)


def catalog_lookup(m: Monoid, include_opposite: bool = False):
    """Locate the catalog class of a monoid by comparing canonical forms.

    Returns (entry, bijection) for the first M/N entry with m's canonical
    form, the bijection being the lexicographically smallest isomorphism of m
    onto the entry's table.  With include_opposite, a monoid matching no entry
    is looked up again through its opposite, and the bijection then carries
    the opposite onto the entry.  None if nothing matches (orders > 4 and
    non-commutative classes other than N1/N2 up to opposite).  F4-mult is a
    named table, not a separate class, and is never returned here.
    """
    for cand in (m, m.opposite()) if include_opposite else (m,):
        form = canonical_form(cand.rows, cand.neutral)
        for lab in M_LABELS + N_LABELS:
            e = ENTRIES[lab]
            if e.table.order == m.order and _entry_form(e.table.rows, e.neutral) == form:
                return e, are_isomorphic(cand, e.monoid())
    return None


def catalog_to_json() -> str:
    """The monoid catalog as a JSON array of labeled entries."""
    out = [ENTRIES[label].to_dict() for label in M_LABELS + N_LABELS + ("F4-mult",)]
    return json.dumps(out, indent=2, sort_keys=True)


def render_entry(label: str) -> str:
    return render_table(label, ENTRIES[label].table.rows)
