"""Exhaustive generation of semi-equivelar maps by link completion.

The search fixes the link of vertex 0 in a normalized form (every map of
the requested type contains a vertex whose link can be relabeled to that
seed, so nothing is lost), then repeatedly picks the most constrained
open edge and tries every face that could be its second face.  Partial
states track per-vertex face-size budgets and the arcs of each link, so
contradictions are caught as early as possible.  The candidate generator
already applies the closing rule of the link at the site vertex, so the
pruning statistics count only the faces it offers.  The search is not
isomorph-free: it can reach one class through several complete maps (32
for the 3 classes of (3^5,4) on chi=-1), so each complete map is validated
as it arrives and keyed by its canonical form; the first map of each form
is kept.
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

    The arcs also give the open edges, the sites the search may still
    extend: an edge v-w lies in exactly one face iff w ends an arc at v (a
    corner covers the two edges it touches, and no edge lies in more than
    two faces).  So no edge set is stored: the search reads its sites off
    ``arcs``, and the map is complete once it has a face and no vertex has
    an open arc.

    ``add_face`` runs every check before it changes anything, so a refused
    face leaves the state as it was.  A commit pushes its undo record (each
    changed dict entry with its old value) on a trail, and ``pop_face``
    restores the state from before the last commit exactly; the search and
    :func:`assume_link` commit and pop in place.
    """

    def __init__(self, n: int, target: FaceSequence):
        self.n = n
        self.target = dict(target.entries)
        self.degree = target.degree
        self.faces: list[Face] = []
        self.edge_use: dict[tuple[int, int], tuple[int, ...]] = {}
        self.vertex_faces: dict[int, tuple[int, ...]] = {}
        self.size_used: dict[int, dict[int, int]] = {v: {} for v in range(n)}
        self.arcs: dict[int, dict[int, int]] = {v: {} for v in range(n)}
        self._trail: list[list] = []

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
            if self.size_used[v].get(size, 0) >= self.target[size]:
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
            ends = self.arcs[v]
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

        # (dict, key, old value or None) per write; no stored value is empty or 0
        undo: list[tuple[dict, object, object]] = []
        push = undo.append
        idx = len(self.faces)
        self.faces.append(face)
        for e, fs in zip(edges, uses):
            push((edge_use, e, fs or None))
            edge_use[e] = fs + (idx,)
        vertex_faces, size_used, arcs = self.vertex_faces, self.size_used, self.arcs
        for v, a, b, x, y in corners:
            push((vertex_faces, v, old := vertex_faces.get(v)))
            vertex_faces[v] = (old or ()) + (idx,)
            counts, ends = size_used[v], arcs[v]
            push((counts, size, old := counts.get(size)))
            counts[size] = (old or 0) + 1
            for k in (a, b):
                if k in ends:
                    push((ends, k, ends.pop(k)))
            if x != b:
                push((ends, x, ends.get(x)))
                ends[x] = y
                push((ends, y, ends.get(y)))
                ends[y] = x
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
    """Commit all faces a full vertex link implies, in place; returns ``partial``.

    Already-committed faces are fine as long as the link agrees with them;
    a committed face at ``v`` missing from the link is a contradiction, as
    is any face commit that breaks a partial-map invariant.  A refused link
    pops what it committed, so it leaves ``partial`` as it was.
    """
    link_keys = {normalize_face((v,) + c) for c in link.corners}
    committed = set()
    for fi in partial.vertex_faces.get(v, ()):
        key = normalize_face(partial.faces[fi])
        if key not in link_keys:
            raise LinkContradiction(
                f"committed face {partial.faces[fi]} is not part of the asserted link of {v}")
        committed.add(key)
    depth = len(partial.faces)
    try:
        for face in link.faces():
            if normalize_face(face) not in committed:
                partial.add_face(face)
    except LinkContradiction:
        while len(partial.faces) > depth:
            partial.pop_face()
        raise
    return partial


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

def corner_arrangements(seq: FaceSequence) -> list[tuple[int, ...]]:
    """Distinct cyclic orders of the face-size multiset, up to rotation
    and reflection.  Type (3^5, 4) has one; mixed types can have several,
    and the search must be seeded once per arrangement."""
    sizes = [a for a, p in seq.entries for _ in range(p)]
    # Greatest rotation puts the largest corner on the first labels.
    return sorted({max(r[i:] + r[:i] for r in (perm, perm[::-1]) for i in range(len(r)))
                   for perm in set(permutations(sizes))}, reverse=True)


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

def _site(partial: PartialMap) -> tuple[int, int] | None:
    """Most constrained open site: of the vertices with an open arc, the
    one with the fewest remaining corners (then smallest label), and the
    least end of its arcs, which gives its smallest open edge.  None if no
    vertex has an open arc: a map with a face is then complete."""
    faces_at, arcs = partial.vertex_faces, partial.arcs
    best = min(((-len(faces_at[v]), v) for v, ends in arcs.items() if ends), default=None)
    return None if best is None else (best[1], min(arcs[best[1]]))


def _candidate_faces(partial: PartialMap, v: int, w: int) -> list[Face]:
    """The faces that could become the second face on open edge (v, w).

    A face of size s is the path v, w, x1, ..., x_{s-2} closing back to v.
    New vertices are taken in first-use order (one fresh choice per slot),
    which fixes the labeling symmetry without losing any isomorphism class.
    Labels whose s-gon slots are spent are skipped.

    The generator already applies ``add_face``'s closing rule at v: the
    face's corner at v is (x_{s-2}, w), and it closes v's link exactly when
    x_{s-2} is the far end ``c`` of w's arc at v.  So if this is v's last
    corner, x_{s-2} must be c (and w's arc must be v's only one); otherwise
    it must not be.  Every face this leaves out is one ``add_face``
    refuses, and the faces it keeps come in the same order, so the search
    tree is unchanged and ``pruned`` counts only the faces offered here.
    Other vertices are left to ``add_face``.
    """
    target, size_used, faces_at = partial.target, partial.size_used, partial.vertex_faces
    sizes = sorted(
        s for s in target
        if size_used[v].get(s, 0) < target[s] and size_used[w].get(s, 0) < target[s]
    )
    ends = partial.arcs[v]
    last = len(faces_at[v]) + 1 == partial.degree
    if not sizes or (last and len(ends) > 2):
        return []  # v's last corner can close only its only arc
    c = ends[w]
    # fresh labels in first-use order, as many as one face can take
    fresh = [x for x in range(partial.n) if x not in faces_at][:sizes[-1] - 2]
    out: list[Face] = []

    def extend(path: list[int], left: int, nfresh: int, pool: list[int]) -> None:
        if left == 1:
            if last:
                if c in pool and c not in path:
                    out.append(tuple(path) + (c,))
                return
            out.extend(tuple(path) + (x,) for x in pool if x != c and x not in path)
            if nfresh < len(fresh):
                out.append(tuple(path) + (fresh[nfresh],))
            return
        for x in pool:
            if x not in path:
                extend(path + [x], left - 1, nfresh, pool)
        if nfresh < len(fresh):
            extend(path + [fresh[nfresh]], left - 1, nfresh + 1, pool)

    used = sorted(faces_at)
    for s in sizes:
        # used labels with an s-gon slot left
        pool = [x for x in used if size_used[x].get(s, 0) < target[s]]
        extend([v, w], s - 2, 0, pool)
    return out


def _complete(partial: PartialMap, stats: SearchStats, emit, max_nodes: int | None) -> None:
    """Grow ``partial`` in place (restored on return), counting into
    ``stats`` until ``stats.nodes`` reaches ``max_nodes``; each complete map
    is validated, counted and passed to ``emit`` as it is found."""
    if max_nodes is not None and stats.nodes >= max_nodes:
        stats.exhausted = False
        return
    stats.nodes += 1
    site = _site(partial)  # the one scan of the arcs: None iff complete (there is a face)
    if site is None:
        if len(partial.vertex_faces) == partial.n:
            m = partial.to_map()
            report = validate(m)
            if not report.ok:
                raise RuntimeError(
                    f"internal error: completed partial map fails validation: {report}")
            stats.solutions += 1
            emit(m)
        return
    for face in _candidate_faces(partial, *site):
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
    The search grows ``partial`` in place and restores it on return.  It
    grows the map from its open edges, so ``partial`` must hold at least
    one face; an empty one, or a negative ``max_nodes``, raises
    ``ValueError``.
    """
    if not partial.faces:
        raise ValueError("complete_search needs a partial map with at least one face")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be non-negative, got {max_nodes}")
    stats = SearchStats()
    t0 = time.perf_counter()
    found: list[PolyhedralMap] = []
    _complete(partial, stats, found.append, max_nodes)
    stats.seconds = time.perf_counter() - t0
    return found, stats


def _seeds(seq: FaceSequence, chi: int, seed: str, stats: SearchStats):
    """The seed of each corner arrangement (one for ``seed="face"``).  A
    seed that cannot be committed, such as a link on more vertices than the
    map has, has no completions: it is skipped and named in ``stats.reason``."""
    for arrangement in corner_arrangements(seq) if seed == "link" else [None]:
        try:
            yield seed_partial(seq, chi, arrangement=arrangement, seed=seed)
        except LinkContradiction as exc:
            what = f"seed link {arrangement}" if arrangement else "seed face"
            stats.reason += ("; " if stats.reason else "") + f"{what} does not fit: {exc}"


def enumerate_sems(seq: FaceSequence, chi: int, seed: str = "link",
                   max_nodes: int | None = None,
                   ) -> tuple[list[PolyhedralMap], SearchStats]:
    """All semi-equivelar maps of the given type and Euler characteristic,
    one representative per isomorphism class, with search statistics.

    Returns an empty list when no positive integer vertex count fits, or
    when no seed fits in that many vertices (``stats.reason`` says which).
    ``max_nodes`` bounds the search; ``stats.exhausted`` reports whether
    the whole tree was covered.  A negative ``max_nodes`` raises
    ``ValueError``.

    Each complete map is keyed by its canonical form as it is found; the
    first of each form is kept and named.  No type filter: a complete map
    uses every vertex, closes each link at exactly ``degree`` corners and
    keeps each size count within its budget, so it has type ``seq``, and
    with n fixed the type fixes chi.
    """
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be non-negative, got {max_nodes}")
    t0 = time.perf_counter()
    stats = SearchStats()
    try:
        sem_vertex_count(seq, chi)
    except (ImpossibleTypeError, FlatTypeError) as exc:
        stats.reason = str(exc)
        stats.seconds = time.perf_counter() - t0
        return [], stats

    classes: dict[bytes, PolyhedralMap] = {}

    def keep(m: PolyhedralMap) -> None:
        if classes.setdefault(canonical_form(m), m) is m:
            m.name = f"{seq}|chi={chi}#{len(classes)}"

    for partial in _seeds(seq, chi, seed, stats):  # one budget for all seeds
        _complete(partial, stats, keep, max_nodes)
    stats.classes = len(classes)
    stats.seconds = time.perf_counter() - t0
    return list(classes.values()), stats
