"""Exhaustive generation of semi-equivelar maps by link completion.

The search fixes the link of vertex 0 in a normalized form (every map of
the requested type contains a vertex whose link can be relabeled to that
seed, so nothing is lost), then repeatedly picks the most constrained
open edge and tries every face that could be its second face.  Partial
states track per-vertex face-size budgets and the arcs of each link, so
contradictions are caught as early as possible.  The search is not
isomorph-free: it can reach one class through several complete maps (32
for the 3 classes of (3^5,4) on chi=-1), so complete maps are validated
and de-duplicated by canonical form afterwards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations

from .core import (
    Face,
    FaceSequence,
    FlatTypeError,
    ImpossibleTypeError,
    PolyhedralMap,
    VertexLink,
    face_edges,
    normalize_face,
    sem_vertex_count,
    validate,
)
from .isomorphism import canonical_form


PRUNE_REASONS = ("size", "repeat", "range", "duplicate", "slot", "edge", "link",
                 "intersection")


class LinkContradiction(ValueError):
    """A face or link cannot be committed without breaking an invariant.

    ``reason`` names the first invariant that failed, one of
    :data:`PRUNE_REASONS` (the order ``PartialMap.add_face`` checks them in).
    """

    def __init__(self, message: str, reason: str = "link"):
        super().__init__(message)
        self.reason = reason


@dataclass
class SearchStats:
    nodes: int = 0
    solutions: int = 0
    classes: int = 0
    seconds: float = 0.0
    exhausted: bool = True
    reason: str = ""
    # Rejected candidate faces per LinkContradiction reason.
    pruned: dict[str, int] = field(default_factory=lambda: dict.fromkeys(PRUNE_REASONS, 0))


class PartialMap:
    """A growing face set with per-vertex link bookkeeping.

    Invariants checked before every commit: no edge in more than 2 faces,
    per-vertex face-size usage within the target multiplicities, any two
    faces meeting in at most one vertex or one full edge, and every
    vertex's committed corners forming disjoint arcs of its eventual link
    (or the single full cycle once its budget is spent).

    ``arcs[v]`` maps each end of an arc of v's corners to the other end of
    that arc.  A new corner (a, b) at v joins the arcs ending at a and b (a
    label not yet in the link is an arc of its own), or, when a and b end
    the same arc, closes it: allowed only for the only arc and v's
    ``degree``-th corner, which leaves ``arcs[v]`` empty.

    ``add_face`` runs every check before it changes anything, so a refused
    face leaves the state as it was.  A commit pushes its undo record (each
    changed dict entry with its old value) on a trail, and ``pop_face``
    restores the state from before the last commit exactly; the search
    commits and pops in place.  ``copy`` starts an empty trail.
    """

    def __init__(self, n: int, target: FaceSequence):
        self.n = n
        self.target = dict(target.entries)
        self.degree = target.degree
        self.faces: list[Face] = []
        self.edge_use: dict[tuple[int, int], tuple[int, ...]] = {}
        self.vertex_faces: dict[int, tuple[int, ...]] = {}
        self.size_used: dict[int, dict[int, int]] = {}
        self.arcs: dict[int, dict[int, int]] = {}
        self._trail: list[list] = []

    def copy(self) -> "PartialMap":
        out = PartialMap.__new__(PartialMap)
        out.n = self.n
        out.target = self.target
        out.degree = self.degree
        out.faces = list(self.faces)
        out.edge_use = dict(self.edge_use)
        out.vertex_faces = dict(self.vertex_faces)
        out.size_used = {v: dict(c) for v, c in self.size_used.items()}
        out.arcs = {v: dict(e) for v, e in self.arcs.items()}
        out._trail = []
        return out

    # -- queries ----------------------------------------------------------

    @property
    def used_vertices(self) -> list[int]:
        return sorted(self.vertex_faces)

    def is_complete(self) -> bool:
        return bool(self.faces) and all(len(fs) == 2 for fs in self.edge_use.values())

    # -- commits -----------------------------------------------------------

    def add_face(self, face: Face) -> None:
        """Commit one face, or raise :class:`LinkContradiction` and change nothing."""
        face = tuple(face)
        size = len(face)
        if size not in self.target:
            raise LinkContradiction(f"face size {size} not in target type", "size")
        if len(set(face)) != size:
            raise LinkContradiction(f"face {face} repeats a vertex", "repeat")
        if min(face) < 0 or max(face) >= self.n:
            raise LinkContradiction(f"face {face} outside vertex budget {self.n}", "range")
        edge_use = self.edge_use
        edges = face_edges(face)
        uses = [edge_use.get(e, ()) for e in edges]
        # A face whose edges all lie in one committed face is that face.
        for fi in uses[0]:
            if all(fi in fs for fs in uses):
                raise LinkContradiction(f"face {face} already committed", "duplicate")
        for v in face:
            if self.size_used.get(v, {}).get(size, 0) >= self.target[size]:
                raise LinkContradiction(
                    f"vertex {v} has no remaining {size}-gon slot", "slot")

        for e, fs in zip(edges, uses):
            if len(fs) >= 2:
                raise LinkContradiction(f"edge {e} already lies in 2 faces", "edge")
        # The edge check leaves each corner end (a, b) new to v's link or an
        # arc end; x and y are the far ends of their arcs.
        corners = []
        for i, v in enumerate(face):
            a, b = face[i - 1], face[(i + 1) % size]
            ends = self.arcs.get(v, {})
            x, y = ends.get(a, a), ends.get(b, b)
            count = len(self.vertex_faces.get(v, ())) + 1
            if x != b:
                if count >= self.degree:
                    raise LinkContradiction(
                        f"vertex {v} used its {self.degree} corners without closing")
            elif len(ends) > 2:
                raise LinkContradiction(f"link of vertex {v} closed a premature cycle")
            elif count != self.degree:
                raise LinkContradiction(f"link of vertex {v} closed with {count} corners")
            corners.append((v, a, b, x, y))

        # Only faces at the new face's vertices can meet it.
        shared: dict[int, int] = {}
        for v in face:
            for fi in self.vertex_faces.get(v, ()):
                shared[fi] = shared.get(fi, 0) + 1
        on_edges = {fi for fs in uses for fi in fs}
        for fi, count in shared.items():
            g = self.faces[fi]
            if count > 2:
                raise LinkContradiction(
                    f"face {face} shares {sorted(set(face) & set(g))} with {g}",
                    "intersection")
            if count == 2 and fi not in on_edges:
                raise LinkContradiction(
                    f"faces {face} and {g} share two vertices not forming a common edge",
                    "intersection")

        undo: list[tuple[dict, object, object]] = []  # (dict, key, old value or None)

        def put(d: dict, k, value) -> None:
            undo.append((d, k, d.get(k)))
            d[k] = value

        idx = len(self.faces)
        self.faces.append(face)
        for e, fs in zip(edges, uses):
            put(edge_use, e, fs + (idx,))
        for v, a, b, x, y in corners:
            put(self.vertex_faces, v, self.vertex_faces.get(v, ()) + (idx,))
            if v not in self.size_used:
                put(self.size_used, v, {})
                put(self.arcs, v, {})
            counts, ends = self.size_used[v], self.arcs[v]
            put(counts, size, counts.get(size, 0) + 1)
            for k in (a, b):
                if k in ends:
                    undo.append((ends, k, ends.pop(k)))
            if x != b:
                put(ends, x, y)
                put(ends, y, x)
        self._trail.append(undo)

    def pop_face(self) -> Face:
        """Undo the last :meth:`add_face` exactly and return its face."""
        for d, k, old in reversed(self._trail.pop()):
            if old is None:
                del d[k]
            else:
                d[k] = old
        return self.faces.pop()

    def to_map(self, name: str = "") -> PolyhedralMap:
        return PolyhedralMap(self.faces, n=self.n, name=name)


def assume_link(partial: PartialMap, v: int, link: VertexLink) -> PartialMap:
    """Commit all faces a full vertex link implies; pure (returns a copy).

    Already-committed faces are fine as long as the link agrees with them;
    a committed face at ``v`` missing from the link is a contradiction, as
    is any face commit that breaks a partial-map invariant.
    """
    out = partial.copy()
    link_keys = {normalize_face((v,) + c) for c in link.corners}
    committed = set()
    for fi in out.vertex_faces.get(v, ()):
        key = normalize_face(out.faces[fi])
        if key not in link_keys:
            raise LinkContradiction(
                f"committed face {out.faces[fi]} is not part of the asserted link of {v}")
        committed.add(key)
    for face in link.faces():
        if normalize_face(face) not in committed:
            out.add_face(face)
    return out


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

def corner_arrangements(seq: FaceSequence) -> list[tuple[int, ...]]:
    """Distinct cyclic orders of the face-size multiset, up to rotation
    and reflection.  Type (3^5, 4) has one; mixed types can have several,
    and the search must be seeded once per arrangement."""
    sizes = []
    for a, p in seq.entries:
        sizes.extend([a] * p)
    seen = set()
    out = []
    for perm in set(permutations(sizes)):
        d = len(perm)
        rots = [perm[i:] + perm[:i] for i in range(d)]
        rev = perm[::-1]
        rots += [rev[i:] + rev[:i] for i in range(d)]
        # Greatest rotation puts the largest corner on the first labels.
        key = max(rots)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return sorted(out, reverse=True)


def seed_link(arrangement: tuple[int, ...], center: int = 0) -> VertexLink:
    """The normalized starting link: corner sizes in the given cyclic
    order, link vertices labeled 2, 3, ..., L, 1 around the cycle (the
    largest corner first, on the lexicographically first labels)."""
    length = sum(s - 2 for s in arrangement)
    labels = list(range(2, length + 1)) + [1]
    corners = []
    pos = 0
    for s in arrangement:
        corners.append(tuple(labels[(pos + j) % length] for j in range(s - 1)))
        pos += s - 2
    return VertexLink.from_corners(center, corners)


def seed_partial(seq: FaceSequence, chi: int,
                 arrangement: tuple[int, ...] | None = None,
                 seed: str = "link") -> PartialMap:
    """A partial map holding the normalization seed.

    ``seed="link"`` fixes the whole link of vertex 0; ``seed="face"`` only
    commits one largest face on the first labels (a weaker normalization,
    useful for cross-checking that both reach the same classes).
    """
    n = sem_vertex_count(seq, chi)
    partial = PartialMap(n, seq)
    if seed == "face":
        size = max(a for a, _ in seq.entries)
        partial.add_face(tuple(range(size)))
        return partial
    if seed != "link":
        raise ValueError(f"seed must be 'link' or 'face', got {seed!r}")
    if arrangement is None:
        arrangement = corner_arrangements(seq)[0]
    return assume_link(partial, 0, seed_link(arrangement))


# ---------------------------------------------------------------------------
# The search
# ---------------------------------------------------------------------------

def _site(partial: PartialMap) -> tuple[int, int]:
    """Most constrained open site: the vertex with the fewest remaining
    corners (then smallest label), and its smallest open edge."""
    faces_at = partial.vertex_faces
    best = min(((-len(faces_at[v]), v, w) for (a, b), fs in partial.edge_use.items()
                if len(fs) == 1 for v, w in ((a, b), (b, a))), default=None)
    if best is None:
        raise LinkContradiction("no open edges")
    return best[1], best[2]


def _candidate_faces(partial: PartialMap, v: int, w: int):
    """All faces that could become the second face on open edge (v, w).

    A face of size s is the path v, w, x1, ..., x_{s-2} closing back to v.
    New vertices are taken in first-use order (one fresh choice per slot),
    which fixes the labeling symmetry without losing any isomorphism class.
    """
    sizes = sorted(
        s for s in partial.target
        if partial.size_used.get(v, {}).get(s, 0) < partial.target[s]
        and partial.size_used.get(w, {}).get(s, 0) < partial.target[s]
    )
    used = partial.used_vertices
    out: list[Face] = []

    def extend(path: list[int], left: int, size: int) -> None:
        if left == 0:
            out.append(tuple(path))
            return
        fresh = None
        for x in range(partial.n):
            if x not in partial.vertex_faces and x not in path:
                fresh = x
                break
        pool = [x for x in used if x not in path]
        if fresh is not None:
            pool.append(fresh)
        for x in pool:
            if partial.size_used.get(x, {}).get(size, 0) >= partial.target[size]:
                continue
            extend(path + [x], left - 1, size)

    for s in sizes:
        extend([v, w], s - 2, s)
    return out


def _complete(partial: PartialMap, stats: SearchStats, emit, max_nodes: int | None) -> None:
    if max_nodes is not None and stats.nodes >= max_nodes:
        stats.exhausted = False
        return
    stats.nodes += 1
    if partial.is_complete():
        if len(partial.vertex_faces) == partial.n:
            emit(partial)
        return
    v, w = _site(partial)
    for face in _candidate_faces(partial, v, w):
        try:
            partial.add_face(face)
        except LinkContradiction as exc:
            stats.pruned[exc.reason] += 1
            continue
        _complete(partial, stats, emit, max_nodes)
        partial.pop_face()


def complete_search(partial: PartialMap, max_nodes: int | None = None
                    ) -> tuple[list[PolyhedralMap], SearchStats]:
    """Exhaust all completions of a partial map into closed maps.

    Emitted maps pass full validation; no isomorphism de-duplication here.
    """
    stats = SearchStats()
    t0 = time.perf_counter()
    found: list[PolyhedralMap] = []

    def emit(p: PartialMap) -> None:
        m = p.to_map()
        report = validate(m)
        if not report.ok:
            raise RuntimeError(
                f"internal error: completed partial map fails validation: {report}")
        stats.solutions += 1
        found.append(m)

    _complete(partial.copy(), stats, emit, max_nodes)
    stats.seconds = time.perf_counter() - t0
    return found, stats


def enumerate_sems(seq: FaceSequence, chi: int, seed: str = "link",
                   max_nodes: int | None = None,
                   ) -> tuple[list[PolyhedralMap], SearchStats]:
    """All semi-equivelar maps of the given type and Euler characteristic,
    one representative per isomorphism class, with search statistics.

    Returns an empty list when no positive integer vertex count fits.
    ``max_nodes`` bounds the search; ``stats.exhausted`` reports whether
    the whole tree was covered.
    """
    t0 = time.perf_counter()
    stats = SearchStats()
    try:
        sem_vertex_count(seq, chi)
    except (ImpossibleTypeError, FlatTypeError) as exc:
        stats.reason = str(exc)
        stats.seconds = time.perf_counter() - t0
        return [], stats

    classes: list[PolyhedralMap] = []
    seen: set[bytes] = set()
    arrangements = corner_arrangements(seq) if seed == "link" else [None]
    for arrangement in arrangements:
        partial = seed_partial(seq, chi, arrangement=arrangement, seed=seed)
        budget = None if max_nodes is None else max_nodes - stats.nodes
        found, sub = complete_search(partial, max_nodes=budget)
        stats.nodes += sub.nodes
        stats.solutions += sub.solutions
        stats.exhausted = stats.exhausted and sub.exhausted
        for reason, count in sub.pruned.items():
            stats.pruned[reason] += count
        # No type filter: an emitted map has type ``seq``.  It uses every
        # vertex, closes each link at exactly ``degree`` corners and keeps
        # each size count within its budget, so every count meets it.  With
        # n fixed, the type fixes chi.
        for m in found:
            form = canonical_form(m)
            if form not in seen:
                seen.add(form)
                classes.append(PolyhedralMap(
                    m.faces, n=m.n, name=f"{seq}|chi={chi}#{len(classes) + 1}"))
    stats.classes = len(classes)
    stats.seconds = time.perf_counter() - t0
    return classes, stats
