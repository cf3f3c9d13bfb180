"""Relabeling-grade machinery: canonical forms, automorphisms, G_t graphs.

The canonical form is computed by flag-rooted traversal of the flag
system.  A flag is a mutually incident (vertex, edge, face) triple; every
flag admits three moves (swap the vertex, the edge, or the face while
keeping the other two).  A breadth-first walk of the flag graph from a
fixed root visits every flag of a valid map in an order that depends only
on the structure, so the walk's transition code is a relabeling
invariant.  The canonical form is the relabeled, sorted face list read off
a root with the lexicographically least code; two maps get equal forms iff
some flag of one walks exactly like some flag of the other, which is
precisely an isomorphism.  Roots with minimal code are in bijection with
the automorphism group (an automorphism fixing a flag is the identity).

The flags come from one pass over the faces, :func:`semap.core.closed_flags`,
which also checks the map is closed.  The root filter keys each face size
and vertex once, and the walk from each root stops at its first step worse
than the best code so far.

The census and the triangle cylinder search hand their maps to one
:class:`ClassSink`, which asks for a cheap relabeling invariant first,
:func:`class_key`, and a canonical form only when a key is seen again: a
new key is a new class.  The quadrangle cylinder search needs no sink:
each of its gluings is proved a new class.

The canonical data of a map (form, relabeled faces, one labeling per
minimal root) is computed at most once per :class:`PolyhedralMap` object
and stored on that object, so every entry point shares it and it is freed
with the map; no module-level cache holds maps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    Edge, Face, PolyhedralMap, closed_flags, components, normalize_face, oriented_edge,
)


# ---------------------------------------------------------------------------
# Simple graphs (G_t graphs)
# ---------------------------------------------------------------------------

MAX_COMPONENT = 9  # largest component ``unlabeled_key`` brute-forces


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 0..n-1, no loops or multi-edges."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"loop edge {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a}, {b}) outside 0..{self.n - 1}")
            if a > b:
                raise ValueError(f"edge ({a}, {b}) not normalized")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def components(self) -> list[tuple[frozenset[int], frozenset[Edge]]]:
        """Connected components of the edge support (isolated vertices omitted)."""
        label = components(self.n, self.edges)
        verts: dict[int, set[int]] = {}
        for a, b in self.edges:
            verts.setdefault(label[a], set()).update((a, b))
        return [(frozenset(vs), frozenset(e for e in self.edges if label[e[0]] == root))
                for root, vs in verts.items()]

    def unlabeled_key(self):
        """Isomorphism-class key: component shapes by brute force, plus n.

        Only meant for the sparse graphs that show up as G_t invariants;
        refuses components larger than :data:`MAX_COMPONENT`.
        """
        from itertools import permutations

        shapes = []
        for comp, es in self.components():
            verts = sorted(comp)
            if len(verts) > MAX_COMPONENT:
                raise ValueError(f"component with {len(verts)} vertices is too large")
            best = None
            for perm in permutations(range(len(verts))):
                relab = {v: perm[i] for i, v in enumerate(verts)}
                key = tuple(sorted(oriented_edge(relab[a], relab[b]) for a, b in es))
                if best is None or key < best:
                    best = key
            shapes.append((len(verts), best))
        return (self.n, tuple(sorted(shapes)))


def neighbor_set(m: PolyhedralMap, v: int) -> frozenset[int]:
    """Vertices joined to ``v`` by an edge of some face."""
    return m.neighbors[v]


def link_vertex_set(m: PolyhedralMap, v: int) -> frozenset[int]:
    """Vertices of the faces at ``v``, less ``v``: its link cycle's on a
    valid map.  A link that is not one cycle is not refused."""
    return frozenset(u for i in m.vertex_faces[v] for u in m.faces[i]) - {v}


def g_t_graph(m: PolyhedralMap, t: int, sets: str = "link") -> SimpleGraph:
    """Graph joining the vertex pairs whose surrounding vertex sets meet in
    exactly t vertices.  All unordered pairs are considered, adjacent or not.

    ``sets`` picks the per-vertex set: "link" (default) uses the full link
    cycle, which is what reproduces the published distinguishing data for
    the bundled catalog; "neighbor" uses plain edge-graph neighborhoods.
    On triangulations the two coincide.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if sets == "link":
        around = {v: link_vertex_set(m, v) for v in range(m.n)}
    elif sets == "neighbor":
        around = m.neighbors
    else:
        raise ValueError(f"sets must be 'link' or 'neighbor', got {sets!r}")
    edges = set()
    for i in range(m.n):
        ni = around[i]
        for j in range(i + 1, m.n):
            if len(ni & around[j]) == t:
                edges.add((i, j))
    return SimpleGraph(m.n, frozenset(edges))


# ---------------------------------------------------------------------------
# Class keys
# ---------------------------------------------------------------------------

def _meets(neighbours) -> list[tuple[int, ...]]:
    """For each vertex ``v``, the sorted counts ``len(N(v) & N(w))`` over
    its neighbours ``w``."""
    return [tuple(sorted([len(nv & neighbours[w]) for w in nv])) for nv in neighbours]


def class_key(neighbours) -> int:
    """A relabeling-invariant hash of the graph with ``neighbours[v]`` the
    set of vertices joined to ``v`` (``v`` in ``0..n-1``, as
    :func:`semap.core.closed_flags` gives it): colour refinement
    (B. D. McKay, Congr. Numer. 30, 1981).  Each vertex starts with its
    :func:`_meets` profile; four rounds then hash each colour with the sum
    of its neighbours' colours, and the key hashes the sorted colours.

    Isomorphic maps get equal keys, so a key not seen before proves a new
    class; equal keys prove nothing.  Only ints and tuples of ints are
    hashed, whose hashes do not depend on ``PYTHONHASHSEED``, so every
    process computes the same key.
    """
    colour = [hash(meets) for meets in _meets(neighbours)]
    for _ in range(4):
        colour = [hash((c, sum(map(colour.__getitem__, nv)))) for c, nv in zip(colour, neighbours)]
    return hash(tuple(sorted(colour)))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _walk(root: int, moves, best):
    """Breadth-first walk of the flag graph from ``root``, against ``best``.

    The code lists, for each flag in visit order, the visit positions of
    its three neighbours ``(s0, s1, s2)``.  Returns (verdict, code, visit
    order): verdict 1 means lexicographically worse than ``best`` (code and
    order are None: the walk stops at its first worse step), -1 strictly
    better, 0 equal (code is None too: it would equal ``best``).
    """
    order = [-1] * len(moves)
    order[root] = 0
    queue = [root]
    code = [] if best is None else None
    for i, x in enumerate(queue):
        a, b, c = moves[x]  # unrolled: a loop over the three moves is measurably slower
        if order[a] < 0:
            order[a] = len(queue)
            queue.append(a)
        if order[b] < 0:
            order[b] = len(queue)
            queue.append(b)
        if order[c] < 0:
            order[c] = len(queue)
            queue.append(c)
        step = (order[a], order[b], order[c])
        if code is not None:
            code.append(step)
        elif step != best[i]:
            if step > best[i]:
                return 1, None, None
            code = best[:i]
            code.append(step)
    return (0 if code is None else -1), code, queue


@dataclass(frozen=True)
class CanonData:
    form: bytes
    canonical_faces: tuple[Face, ...]
    labelings: tuple[tuple[int, ...], ...]  # original vertex -> canonical label


def _roots(fv, flen, neighbours) -> list[int]:
    """Flags to root the walk at, ascending: those on faces of the rarest
    size (by flag count), then at vertices of the rarest fingerprint among
    them (incident face sizes plus neighbourhood intersection profile).
    Both filters are invariant under relabeling, so isomorphic maps restrict
    to corresponding flag sets, and the automorphism group still acts on the
    result (its minimal flags remain a single free orbit)."""
    flag_count = Counter(flen)
    size = min(flag_count, key=lambda k: (flag_count[k], k))
    sizes: list[list[int]] = [[] for _ in neighbours]
    for v, k in zip(fv[::2], flen[::2]):
        sizes[v].append(k)
    sig = [(tuple(sorted(s)), meets) for s, meets in zip(sizes, _meets(neighbours))]
    sig_count = Counter(sig)
    key = [(sig_count[s], s) for s in sig]
    least = min(key[v] for v, k in zip(fv, flen) if k == size)
    return [x for x, (v, k) in enumerate(zip(fv, flen)) if k == size and key[v] == least]


def _compute_canonical(m: PolyhedralMap) -> CanonData:
    """The canonical data of ``m``; raises :class:`ValueError` unless ``m``
    is closed and connected, with every vertex on a face."""
    moves, fv, flen, neighbours = closed_flags(m)
    best, best_queues = None, []
    for root in _roots(fv, flen, neighbours):
        verdict, code, queue = _walk(root, moves, best)
        if verdict == 1:
            continue
        if len(queue) < len(moves):
            raise ValueError("canonical form needs a connected map")
        if verdict == -1:
            best, best_queues = code, []
        best_queues.append(queue)
    labelings = []  # vertex -> canonical label, by first appearance along the walk
    for queue in best_queues:
        first = dict.fromkeys(map(fv.__getitem__, queue))
        if len(first) < m.n:
            raise ValueError("canonical form needs every vertex on a face")
        label = {v: c for c, v in enumerate(first)}
        labelings.append(tuple(label[v] for v in range(m.n)))
    relabel = labelings[0].__getitem__
    faces = tuple(sorted(normalize_face(tuple(map(relabel, f))) for f in m.faces))
    form = f"{m.n}|" + ";".join(",".join(map(str, f)) for f in faces)
    return CanonData(form=form.encode(), canonical_faces=faces, labelings=tuple(labelings))


def _canonical_data(m: PolyhedralMap) -> CanonData:
    """The canonical data of ``m``, computed once per map object and stored
    in its ``__dict__`` (as :func:`functools.cached_property` stores the
    map's own tables), so it is freed together with the map."""
    data = m.__dict__.get("_canon_data")
    if data is None:
        data = m.__dict__["_canon_data"] = _compute_canonical(m)
    return data


def canonical_form(m: PolyhedralMap) -> bytes:
    """Byte-comparable encoding equal for two maps iff they are isomorphic.

    Raises :class:`ValueError` unless the map is closed and connected, with
    every vertex on a face; :func:`automorphism_group` and
    :func:`is_vertex_transitive` share this precondition.  The result is
    memoised on ``m`` itself, not in a global cache: it lives exactly as
    long as the map object, and an equal but distinct map computes its own.
    """
    return _canonical_data(m).form


def canonical_map(m: PolyhedralMap) -> PolyhedralMap:
    """The canonically relabeled representative of the isomorphism class."""
    data = _canonical_data(m)
    return PolyhedralMap(data.canonical_faces, n=m.n, name=m.name)


def isomorphism(m1: PolyhedralMap, m2: PolyhedralMap) -> dict[int, int] | None:
    """A vertex bijection carrying the faces of m1 onto the faces of m2, or None.

    The witness is re-verified against the raw face sets before being
    returned; a failure there would mean a canonicalization bug.
    """
    if m1.n != m2.n or len(m1.faces) != len(m2.faces):
        return None
    d1 = _canonical_data(m1)
    d2 = _canonical_data(m2)
    if d1.form != d2.form:
        return None
    lab1 = d1.labelings[0]
    inv2 = {c: v for v, c in enumerate(d2.labelings[0])}
    witness = {v: inv2[lab1[v]] for v in range(m1.n)}
    mapped = {normalize_face(tuple(witness[v] for v in f)) for f in m1.faces}
    if mapped != set(m2.face_keys):
        raise RuntimeError("internal error: canonical forms agree but witness fails")
    return witness


def are_isomorphic(m1: PolyhedralMap, m2: PolyhedralMap) -> bool:
    return isomorphism(m1, m2) is not None


class ClassSink:
    """The first map of each isomorphism class to arrive, in order (``maps``).

    :meth:`add` looks up the :func:`class_key` first: a new key is a new
    class.  Canonical forms are compared only with the representatives
    under a repeated key, so a key collision never merges two classes.
    """

    def __init__(self):
        self.maps: list[PolyhedralMap] = []
        self._by_key: dict[int, list[PolyhedralMap]] = {}

    def add(self, m: PolyhedralMap, key: int | None = None) -> bool:
        """Keep ``m`` if it starts a new class, and say whether it did.  ``key``
        is its class key if the caller has it, else it is read off ``m.neighbors``."""
        if key is None:
            key = class_key(list(m.neighbors.values()))
        same_key = self._by_key.setdefault(key, [])
        if any(canonical_form(r) == canonical_form(m) for r in same_key):
            return False
        same_key.append(m)
        self.maps.append(m)
        return True


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismGroup:
    """All face-preserving vertex permutations of a map."""

    elements: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, ...], ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]


def _compose(p, q):
    """x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def _closure(gens: list[tuple[int, ...]], n: int) -> set[tuple[int, ...]]:
    identity = tuple(range(n))
    done = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = _compose(g, cur)
            if nxt not in done:
                done.add(nxt)
                frontier.append(nxt)
    return done


def automorphism_group(m: PolyhedralMap) -> AutomorphismGroup:
    """Vertex permutations preserving the face set, one per minimal flag."""
    data = _canonical_data(m)
    lab0 = data.labelings[0]
    face_keys = set(m.face_keys)
    elements = []
    for lab in data.labelings:
        inv = {c: v for v, c in enumerate(lab)}
        perm = tuple(inv[lab0[v]] for v in range(m.n))
        mapped = {normalize_face(tuple(perm[v] for v in f)) for f in m.faces}
        if mapped != face_keys:
            raise RuntimeError("internal error: minimal-flag relabeling is not an automorphism")
        elements.append(perm)
    elements = sorted(set(elements))
    if len(elements) != len(data.labelings):
        raise RuntimeError("internal error: duplicate automorphisms from distinct minimal flags")

    label = components(m.n, ((v, g[v]) for g in elements for v in range(m.n)))
    orbits: dict[int, list[int]] = {}
    for v in range(m.n):
        orbits.setdefault(label[v], []).append(v)
    gens: list[tuple[int, ...]] = []
    group = _closure(gens, m.n)
    for g in elements:
        if g not in group:  # the closure grows exactly when g lies outside it
            gens.append(g)
            group = _closure(gens, m.n)
    return AutomorphismGroup(
        elements=tuple(elements),
        generators=tuple(gens),
        order=len(elements),
        orbits=tuple(tuple(o) for o in orbits.values()),
    )


def is_vertex_transitive(m: PolyhedralMap) -> bool:
    """Whether the automorphism group has a single vertex orbit."""
    return len(automorphism_group(m).orbits) == 1

