"""Isomorph-free exhaustive generation of semi-equivelar maps.

The search fixes the link of vertex 0 in a normalized form (every map of
the requested type contains a vertex whose link can be relabeled to that
seed, so nothing is lost), then repeatedly picks the most constrained
open edge and tries every face that could be its second face.  Partial
states track per-vertex face-size budgets and the arcs of each link, so
contradictions are caught as early as possible.  Complete maps are
validated and de-duplicated by canonical form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .core import (
    Face,
    FaceSequence,
    FlatTypeError,
    ImpossibleTypeError,
    PolyhedralMap,
    VertexLink,
    normalize_face,
    oriented_edge,
    sem_vertex_count,
    semi_equivelar_type,
    validate,
)
from .isomorphism import canonical_form


class LinkContradiction(ValueError):
    """A face or link cannot be committed without breaking an invariant."""


@dataclass
class SearchStats:
    nodes: int = 0
    solutions: int = 0
    classes: int = 0
    seconds: float = 0.0
    exhausted: bool = True
    reason: str = ""


class PartialMap:
    """A growing face set with per-vertex link bookkeeping.

    Invariants maintained on every commit: no edge in more than 2 faces,
    per-vertex face-size usage within the target multiplicities, any two
    faces meeting in at most one vertex or one full edge, and every
    vertex's committed corners forming disjoint arcs of its eventual link
    (or the single full cycle once its budget is spent).
    """

    def __init__(self, n: int, target: FaceSequence):
        self.n = n
        self.target = dict(target.entries)
        self.degree = target.degree
        self.faces: list[Face] = []
        self.face_keys: set[Face] = set()
        self.edge_use: dict[tuple[int, int], tuple[int, ...]] = {}
        self.vertex_faces: dict[int, tuple[int, ...]] = {}
        self.size_used: dict[int, dict[int, int]] = {}

    def copy(self) -> "PartialMap":
        out = PartialMap.__new__(PartialMap)
        out.n = self.n
        out.target = self.target
        out.degree = self.degree
        out.faces = list(self.faces)
        out.face_keys = set(self.face_keys)
        out.edge_use = dict(self.edge_use)
        out.vertex_faces = dict(self.vertex_faces)
        out.size_used = {v: dict(c) for v, c in self.size_used.items()}
        return out

    # -- queries ----------------------------------------------------------

    @property
    def used_vertices(self) -> list[int]:
        return sorted(self.vertex_faces)

    def corners_at(self, v: int) -> list[tuple[int, int]]:
        """Endpoint pairs (neighbors of v) of each committed face at v."""
        out = []
        for fi in self.vertex_faces.get(v, ()):
            face = self.faces[fi]
            i = face.index(v)
            out.append((face[(i + 1) % len(face)], face[(i - 1) % len(face)]))
        return out

    def open_edges(self) -> list[tuple[int, int]]:
        return sorted(e for e, fs in self.edge_use.items() if len(fs) == 1)

    def is_complete(self) -> bool:
        return bool(self.faces) and all(len(fs) == 2 for fs in self.edge_use.values())

    # -- commits -----------------------------------------------------------

    def add_face(self, face: Face) -> None:
        """Commit one face, or raise :class:`LinkContradiction`."""
        face = tuple(face)
        size = len(face)
        if size not in self.target:
            raise LinkContradiction(f"face size {size} not in target type")
        if len(set(face)) != size:
            raise LinkContradiction(f"face {face} repeats a vertex")
        if any(not 0 <= v < self.n for v in face):
            raise LinkContradiction(f"face {face} outside vertex budget {self.n}")
        key = normalize_face(face)
        if key in self.face_keys:
            raise LinkContradiction(f"face {face} already committed")
        for v in face:
            if self.size_used.get(v, {}).get(size, 0) >= self.target[size]:
                raise LinkContradiction(f"vertex {v} has no remaining {size}-gon slot")

        edges = [oriented_edge(face[i], face[(i + 1) % size]) for i in range(size)]
        face_set = set(face)
        for e in edges:
            fs = self.edge_use.get(e, ())
            if len(fs) >= 2:
                raise LinkContradiction(f"edge {e} already lies in 2 faces")
            if fs:
                other = set(self.faces[fs[0]])
                if len(face_set & other) != 2:
                    raise LinkContradiction(
                        f"faces on edge {e} would share {sorted(face_set & other)}")
        edge_set = set(edges)
        for fi, g in enumerate(self.faces):
            shared = face_set & set(g)
            if len(shared) < 2:
                continue
            if len(shared) > 2:
                raise LinkContradiction(f"face {face} shares {sorted(shared)} with {g}")
            e = oriented_edge(*shared)
            g_edges = {oriented_edge(g[i], g[(i + 1) % len(g)]) for i in range(len(g))}
            if e not in edge_set or e not in g_edges:
                raise LinkContradiction(
                    f"faces {face} and {g} share two vertices not forming a common edge")

        idx = len(self.faces)
        self.faces.append(face)
        self.face_keys.add(key)
        for e in edges:
            self.edge_use[e] = self.edge_use.get(e, ()) + (idx,)
        for v in face:
            self.vertex_faces[v] = self.vertex_faces.get(v, ()) + (idx,)
            counts = self.size_used.setdefault(v, {})
            counts[size] = counts.get(size, 0) + 1
        for v in face:
            self._check_link(v)

    def _check_link(self, v: int) -> None:
        """Corners at v must form disjoint arcs, or one full closing cycle."""
        corners = self.corners_at(v)
        count = len(corners)
        deg: dict[int, int] = {}
        for a, b in corners:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if any(c > 2 for c in deg.values()):
            raise LinkContradiction(f"three faces on one edge at vertex {v}")
        closed = all(c == 2 for c in deg.values())
        # Union-find over link vertices to find corner components.
        parent: dict[int, int] = {x: x for x in deg}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cyclic = 0
        for a, b in corners:
            ra, rb = find(a), find(b)
            if ra == rb:
                cyclic += 1
            else:
                parent[ra] = rb
        components = len({find(x) for x in deg})
        if closed:
            if count != self.degree or components != 1 or cyclic != 1:
                raise LinkContradiction(
                    f"link of vertex {v} closed with {count} corners in "
                    f"{components} component(s)")
        else:
            if cyclic:
                raise LinkContradiction(f"link of vertex {v} closed a premature cycle")
            if count >= self.degree:
                raise LinkContradiction(
                    f"vertex {v} used its {self.degree} corners without closing")

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
    for fi in out.vertex_faces.get(v, ()):
        if normalize_face(out.faces[fi]) not in link_keys:
            raise LinkContradiction(
                f"committed face {out.faces[fi]} is not part of the asserted link of {v}")
    for face in link.faces():
        if normalize_face(face) in out.face_keys:
            continue
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
    best = None
    for a, b in partial.open_edges():
        for v, w in ((a, b), (b, a)):
            remaining = partial.degree - len(partial.vertex_faces.get(v, ()))
            key = (remaining, v, w)
            if best is None or key < best:
                best = key
    if best is None:
        raise LinkContradiction("no open edges")
    _, v, w = best
    return v, w


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
        child = partial.copy()
        try:
            child.add_face(face)
        except LinkContradiction:
            continue
        _complete(child, stats, emit, max_nodes)


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

    _complete(partial, stats, emit, max_nodes)
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
        for m in found:
            # No chi check: valid maps of one type have chi = n * curvature(type).
            if semi_equivelar_type(m) != seq:
                continue
            form = canonical_form(m)
            if form not in seen:
                seen.add(form)
                classes.append(PolyhedralMap(
                    m.faces, n=m.n, name=f"{seq}|chi={chi}#{len(classes) + 1}"))
    stats.classes = len(classes)
    stats.seconds = time.perf_counter() - t0
    return classes, stats
