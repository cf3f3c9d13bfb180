"""Bundled census maps with expected profiles, self-checked at load."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .core import (
    FaceSequence,
    PolyhedralMap,
    semi_equivelar_type,
    surface_profile,
    validate,
)
from .isomorphism import is_vertex_transitive
from .mapio import parse_map


@dataclass(frozen=True)
class ExpectedProfile:
    euler_characteristic: int
    orientable: bool
    type_string: str
    vertex_transitive: bool


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    map: PolyhedralMap
    note: str
    expected: ExpectedProfile


# name -> (file stem, note, expected profile)
_ENTRIES: tuple[tuple[str, str, ExpectedProfile], ...] = (
    ("tetrahedron",
     "boundary of the 3-simplex",
     ExpectedProfile(2, True, "(3^3)", True)),
    ("cube",
     "the cube as a quadrangulated sphere",
     ExpectedProfile(2, True, "(4^3)", True)),
    ("rp2_6",
     "vertex-minimal projective plane, the antipodal quotient of the icosahedron",
     ExpectedProfile(1, False, "(3^5)", True)),
    ("K1",
     "(3^5,4) map on the chi=-1 surface, as published (u=10, v=11)",
     ExpectedProfile(-1, False, "(3^5, 4)", False)),
    ("K2",
     "(3^5,4) map on the chi=-1 surface, as published (u=10, v=11)",
     ExpectedProfile(-1, False, "(3^5, 4)", False)),
    ("K3",
     "(3^5,4) map on the chi=-1 surface, as published (u=10, v=11)",
     ExpectedProfile(-1, False, "(3^5, 4)", False)),
    ("T1",
     "double cover of K1 on the double torus, as published",
     ExpectedProfile(-2, True, "(3^5, 4)", False)),
    ("T2",
     "double cover of K2 on the double torus, as published",
     ExpectedProfile(-2, True, "(3^5, 4)", False)),
    ("T3",
     "double cover of K3; recomputed because the published face list fails "
     "closedness (edges 10-11, 11-17, 17-23, 23-10 occur in one face each)",
     ExpectedProfile(-2, True, "(3^5, 4)", False)),
    ("N",
     "(3^5,4) map on the non-orientable chi=-2 surface; published list "
     "repeats triangle [1,8,5], stored deduplicated",
     ExpectedProfile(-2, False, "(3^5, 4)", False)),
)


class CatalogError(RuntimeError):
    """A bundled map failed its own expected-profile check."""


def _load(name: str) -> PolyhedralMap:
    data = resources.files("semap").joinpath(f"data/{name.lower()}.map")
    return parse_map(data.read_text())


def _check(entry: CatalogEntry) -> None:
    report = validate(entry.map)
    if not report.ok:
        raise CatalogError(f"catalog map {entry.name} is invalid: {report}")
    profile = surface_profile(entry.map)
    want = entry.expected
    got_type = semi_equivelar_type(entry.map)
    checks = [
        (profile.euler_characteristic == want.euler_characteristic, "chi"),
        (profile.orientable == want.orientable, "orientability"),
        (got_type == FaceSequence.from_string(want.type_string), "type"),
        (is_vertex_transitive(entry.map) == want.vertex_transitive, "transitivity"),
    ]
    bad = [label for ok, label in checks if not ok]
    if bad:
        raise CatalogError(f"catalog map {entry.name} fails expected profile: {bad}")


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """All bundled maps, each re-checked against its expected profile."""
    entries = []
    for name, note, expected in _ENTRIES:
        entry = CatalogEntry(name=name, map=_load(name), note=note, expected=expected)
        _check(entry)
        entries.append(entry)
    return tuple(entries)


def catalog_map(name: str) -> PolyhedralMap:
    """Look up a bundled map by (case-insensitive) name."""
    for entry in catalog():
        if entry.name.lower() == name.lower():
            return entry.map
    known = ", ".join(e.name for e in catalog())
    raise KeyError(f"no catalog map named {name!r}; known: {known}")
