"""Polyhedral maps on closed surfaces, stored as cyclic face lists.

A map is a finite collection of polygonal faces (cyclic vertex sequences)
whose pairwise intersections are empty, a single vertex, or a single edge,
and whose vertex links are single closed cycles.  Every operation here is a
pure function over immutable :class:`PolyhedralMap` instances.

The flag system encodes a closed map as three involutions on its
(vertex, edge, face) flags, and :class:`FlagTemplate` is the one pass over
the faces that builds it: ``validate`` reads edge degrees, links and
connectivity off one template, and :func:`closed_flags` (the flags plus
the check that the map is closed) serves orientability, double covers and
canonical forms.  The cylinder search builds no flags per gluing: its
screen proves each gluing closed.  :func:`components` is the one
union-find for every connectivity question.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, count

Face = tuple[int, ...]
Edge = tuple[int, int]


class ImpossibleTypeError(ValueError):
    """No positive integer vertex count realises the requested type and chi."""


class FlatTypeError(ValueError):
    """The type has zero curvature: chi = 0 admits every vertex count."""


class NotTriangulationError(ValueError):
    """Raised by triangulation-only operations on maps with larger faces."""


def oriented_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def face_edges(face: Face) -> list[Edge]:
    """Unordered edges traversed by the boundary cycle of a face."""
    n = len(face)
    return [oriented_edge(face[i], face[(i + 1) % n]) for i in range(n)]


def normalize_face(face) -> Face:
    """Least representative of a face under rotation and reflection."""
    seq = tuple(face)
    if not seq:
        return seq
    low = min(seq)
    i = seq.index(low)
    if seq.count(low) == 1:  # the least representative starts at ``low``
        fwd = seq[i:] + seq[:i]
        return min(fwd, (low,) + fwd[:0:-1])
    return min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(s)))


def same_face(f: Face, g: Face) -> bool:
    """Whether two vertex sequences denote the same undirected cycle."""
    return len(f) == len(g) and normalize_face(f) == normalize_face(g)


class PolyhedralMap:
    """Vertices ``0..n-1`` plus faces given as cyclic vertex sequences.

    Faces are undirected cycles: any rotation or reflection of the stored
    sequence denotes the same face.  The stored sequences are kept verbatim
    (catalog data stays recognisable); equality and hashing use the
    normalised face set.  Construction coerces labels to ``int`` and raises
    :class:`ValueError` at the first face with a label outside ``0..n-1``
    (``n`` defaults to one more than the largest label), so every consumer
    may read labels as vertices; it checks nothing else -- run
    :func:`validate` for the closed-surface axioms.
    """

    def __init__(self, faces, n: int | None = None, name: str = ""):
        fs = tuple(tuple(int(v) for v in face) for face in faces)
        if n is None:
            n = 1 + max((max(face) for face in fs if face), default=-1)
        self.n = n = int(n)
        for i, face in enumerate(fs):
            for v in face:
                if not 0 <= v < n:
                    raise ValueError(f"face #{i} {face} has a label outside 0..{n - 1}")
        self.faces = fs
        self.name = name

    @cached_property
    def face_keys(self) -> tuple[Face, ...]:
        return tuple(normalize_face(f) for f in self.faces)

    @cached_property
    def vertex_faces(self) -> dict[int, tuple[int, ...]]:
        acc: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for i, face in enumerate(self.faces):
            for v in set(face):
                acc[v].append(i)
        return {v: tuple(ix) for v, ix in acc.items()}

    @cached_property
    def neighbors(self) -> dict[int, frozenset[int]]:
        acc: dict[int, set[int]] = {v: set() for v in range(self.n)}
        for face in self.faces:
            for a, b in zip(face, face[1:] + face[:1]):
                acc[a].add(b)
                acc[b].add(a)
        return {v: frozenset(s) for v, s in acc.items()}

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def relabel(self, perm, name: str = "") -> "PolyhedralMap":
        """Apply a vertex permutation (dict or sequence old->new)."""
        if not isinstance(perm, dict):
            perm = {i: p for i, p in enumerate(perm)}
        faces = [tuple(perm[v] for v in face) for face in self.faces]
        return PolyhedralMap(faces, n=self.n, name=name or self.name)

    def drop_face(self, index: int) -> "PolyhedralMap":
        faces = self.faces[:index] + self.faces[index + 1:]
        return PolyhedralMap(faces, n=self.n, name=self.name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyhedralMap):
            return NotImplemented
        return self.n == other.n and sorted(self.face_keys) == sorted(other.face_keys)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.face_keys)))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<PolyhedralMap{tag} n={self.n} faces={len(self.faces)}>"


# ---------------------------------------------------------------------------
# Flags and components
# ---------------------------------------------------------------------------

class FlagTemplate:
    """The flags of ``faces`` on ``0..n-1``, in one pass over the faces:
    the one place flags are numbered.

    A flag is a mutually incident (vertex, edge, face) triple; ``s0``,
    ``s1`` and ``s2`` swap its vertex, edge and face respectively.  Faces
    contribute flags in order: flag ``b + 2*i`` of the face whose flags
    start at ``b`` sits at boundary position ``i`` and takes the edge to
    the next vertex, flag ``b + 2*i + 1`` the edge to the previous one.
    ``s2`` pairs the flags of the first two faces on an edge and fixes the
    rest, unread where an edge lies in three or more faces (``validate``
    walks no orbit there).  ``fv[x]`` is the vertex of flag ``x``,
    ``flen[x]`` the size of its face, and ``neighbours[v]`` the vertices
    joined to ``v`` by an edge.  ``sides`` holds one state per edge
    ``a*n + b`` (``a < b``), in the order the faces list the edges: its
    flag at ``a`` if it lies in one face, else minus the number of faces
    it lies in.

    The faces are those of a :class:`PolyhedralMap` on ``n`` vertices, so
    their labels lie in ``0..n-1``.  The constructor raises
    :class:`ValueError` only at the first face with fewer than three
    vertices or a repeated one, so it serves maps that are not closed
    (:func:`closed_flags` checks that).
    """

    def __init__(self, faces, n: int):
        for i, face in enumerate(faces):
            k = len(face)
            if k < 3 or len(set(face)) != k:
                raise ValueError(f"not a closed map: face #{i} {face} is not a polygon "
                                 f"on vertices 0..{n - 1}")
        sizes = list(map(len, faces))
        nflags = 2 * sum(sizes)
        s0 = [0] * nflags  # x + 3 at even x, x - 3 at odd x, but where a face wraps round
        s0[::2] = range(3, nflags + 3, 2)
        s0[1::2] = range(-2, nflags - 2, 2)
        b = 0
        for k in sizes:
            s0[b + 2 * k - 2], s0[b + 1] = b + 1, b + 2 * k - 2
            b += 2 * k
        corners = list(chain.from_iterable(faces))
        self.s0, self.s1, self.s2 = s0, [x ^ 1 for x in range(nflags)], list(range(nflags))
        self.fv = list(chain.from_iterable(zip(corners, corners)))
        self.flen = list(chain.from_iterable([k] * (2 * k) for k in sizes))
        self.neighbours: list[set[int]] = [set() for _ in range(n)]
        self.sides: dict[int, int] = {}
        sides, neighbours, s2 = self.sides, self.neighbours, self.s2
        ahead = chain.from_iterable(f[1:] + f[:1] for f in faces)
        for x, v, w in zip(count(0, 2), corners, ahead):
            if v > w:
                v, w, x = w, v, s0[x]
            e = v * n + w
            p = sides.setdefault(e, x)
            if p == x:
                neighbours[v].add(w)
                neighbours[w].add(v)
            elif p >= 0:  # pair the two sides, at both ends of the edge
                sides[e], q, y = -2, s0[p], s0[x]
                s2[p], s2[x], s2[q], s2[y] = x, p, y, q
            else:
                sides[e] = p - 1


def closed_flags(m: PolyhedralMap):
    """``(moves, fv, flen, neighbours)`` of a closed map from its
    :class:`FlagTemplate`, with ``moves[x] = (s0[x], s1[x], s2[x])``.
    Raises :class:`ValueError` unless ``m`` has a face and is closed: at
    the first face that is not a polygon on ``0..n-1``, else at the first
    edge, in the order the faces list them, that does not lie in exactly
    two faces.  Nothing is cached on ``m``."""
    if not m.faces:
        raise ValueError("not a closed map: it has no faces")
    t = FlagTemplate(m.faces, m.n)
    for e, p in t.sides.items():
        if p != -2:
            raise ValueError(f"not a closed map: edge {divmod(e, m.n)} lies in "
                             f"{1 if p >= 0 else -p} face(s)")
    return list(zip(t.s0, t.s1, t.s2)), t.fv, t.flen, t.neighbours


def components(size: int, pairs) -> list[int]:
    """Union-find over ``0..size-1`` joined by ``pairs``: each element's
    label is the least element of its component."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return [find(x) for x in range(size)]


# ---------------------------------------------------------------------------
# Face sequences
# ---------------------------------------------------------------------------

_TYPE_TERM = re.compile(r"^\s*(\d+)\s*(?:\^\s*(\d+))?\s*$")


@dataclass(frozen=True, order=True)
class FaceSequence:
    """The multiset of face sizes around a vertex, e.g. ``(3^5, 4)``.

    Entries are (face size, multiplicity) pairs with strictly increasing
    sizes.  The cyclic arrangement of the faces around a vertex is carried
    separately by :class:`VertexLink`.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sizes = [a for a, _ in self.entries]
        if sizes != sorted(set(sizes)):
            raise ValueError(f"face sizes must be strictly increasing: {self.entries}")
        if any(a < 3 or p < 1 for a, p in self.entries):
            raise ValueError(f"need sizes >= 3 and multiplicities >= 1: {self.entries}")

    @classmethod
    def from_sizes(cls, sizes) -> "FaceSequence":
        counts = Counter(sizes)
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def from_string(cls, text: str) -> "FaceSequence":
        """Parse ``"3^5,4"`` or ``"(3^5, 4^2)"``."""
        body = text.strip().strip("()")
        entries = []
        for term in body.split(","):
            m = _TYPE_TERM.match(term)
            if not m:
                raise ValueError(f"bad face-sequence term {term!r} in {text!r}")
            entries.append((int(m.group(1)), int(m.group(2) or 1)))
        counts: Counter[int] = Counter()
        for a, p in entries:
            counts[a] += p
        return cls(tuple(sorted(counts.items())))

    @property
    def degree(self) -> int:
        """Total number of faces around the vertex."""
        return sum(p for _, p in self.entries)

    def curvature(self) -> Fraction:
        """Per-vertex Euler contribution 1 - d/2 + sum(p_i / a_i)."""
        d = self.degree
        return 1 - Fraction(d, 2) + sum(Fraction(p, a) for a, p in self.entries)

    def __str__(self) -> str:
        terms = [f"{a}^{p}" if p > 1 else f"{a}" for a, p in self.entries]
        return "(" + ", ".join(terms) + ")"


def sem_vertex_count(seq: FaceSequence, chi: int) -> int:
    """Vertex count forced by ``chi = N * curvature`` for a semi-equivelar type.

    Raises :class:`FlatTypeError` for zero-curvature types with chi = 0
    (any count works) and :class:`ImpossibleTypeError` when no positive
    integer count exists.
    """
    if seq.degree < 3:
        raise ValueError(f"a map vertex needs at least 3 faces, got {seq}")
    curv = seq.curvature()
    if curv == 0:
        if chi == 0:
            raise FlatTypeError(f"indeterminate: flat type {seq} admits any vertex count")
        raise ImpossibleTypeError(f"flat type {seq} only lives on chi=0 surfaces")
    count = Fraction(chi) / curv
    if count.denominator != 1 or count <= 0:
        raise ImpossibleTypeError(f"chi={chi} gives vertex count {count} for type {seq}")
    return int(count)


# ---------------------------------------------------------------------------
# Vertex links
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexLink:
    """The cyclic arrangement of faces around a vertex.

    ``corners[i]`` is the boundary path of the i-th face, read around the
    center vertex: ``(a, b)`` for a triangle ``[center, a, b]`` and
    ``(a, m, b)`` for a quadrangle ``[center, a, m, b]``.  Consecutive
    corners share an endpoint; the whole thing closes into one cycle.
    Instances are stored in a canonical rotation/reflection.
    """

    center: int
    corners: tuple[Face, ...]

    @staticmethod
    def _least(corners: tuple[Face, ...]) -> tuple[Face, ...]:
        d = len(corners)
        flipped = tuple(c[::-1] for c in corners[::-1])
        candidates = [corners[i:] + corners[:i] for i in range(d)]
        candidates += [flipped[i:] + flipped[:i] for i in range(d)]
        return min(candidates)

    @classmethod
    def from_corners(cls, center: int, corners) -> "VertexLink":
        corners = tuple(tuple(c) for c in corners)
        for prev, cur in zip(corners, corners[1:] + corners[:1]):
            if prev[-1] != cur[0]:
                raise ValueError(f"corner chain broken between {prev} and {cur}")
        return cls(center, cls._least(corners))

    @classmethod
    def from_notation(cls, center: int, text: str) -> "VertexLink":
        """Parse link notation like ``"C9([2, 3, 4], [4, 5, 6], 7, 8, 9, 1)"``.

        The tokens walk once round the link: a bracket of k >= 3 labels is
        one corner, starting where the walk stands, a plain label the far end
        of a triangle corner (or, first, the start), and the walk closes back
        to its start.  A bad token raises ``ValueError`` naming it, and so
        does a walk of fewer than three corners.
        """
        m = re.fullmatch(r"\s*C_?\d*\s*\((.*)\)\s*", text)
        start = at = None
        corners: list[Face] = []
        for token in re.split(r",(?![^\[]*\])", m.group(1) if m else text):
            token = token.strip()
            bracket = token[:1] == "[" and token[-1:] == "]"
            try:
                labels = [int(t) for t in (token[1:-1] if bracket else token).split(",")]
            except ValueError:
                raise ValueError(f"bad token {token!r} in link {text!r}") from None
            if bracket and (len(labels) < 3 or at not in (None, labels[0])):
                raise ValueError(f"bad corner {token} after {at} in link {text!r}")
            if bracket or at is not None:
                corners.append(tuple(labels) if bracket else (at, labels[0]))
            start = labels[0] if start is None else start
            at = labels[-1]
        if at != start:
            corners.append((at, start))
        if len(corners) < 3:
            raise ValueError(f"link {text!r} has {len(corners) or 'no'} corners, need >= 3")
        return cls.from_corners(center, corners)

    @property
    def degree(self) -> int:
        return len(self.corners)

    @property
    def cycle(self) -> tuple[tuple[int, int], ...]:
        """(first link vertex, face size) per corner, in cyclic order."""
        return tuple((c[0], len(c) + 1) for c in self.corners)

    @property
    def link_vertices(self) -> tuple[int, ...]:
        """The link cycle as a plain vertex sequence."""
        out: list[int] = []
        for c in self.corners:
            out.extend(c[:-1])
        return tuple(out)

    def faces(self) -> tuple[Face, ...]:
        """The faces this link asserts around the center."""
        return tuple((self.center,) + c for c in self.corners)

    def notation(self) -> str:
        """Render as C-notation, the walk :meth:`from_notation` reads: from
        the first larger corner, brackets mark the larger corners, a plain
        label is the far end of a triangle corner, and the walk's return to
        its start is left out."""
        bigs = [i for i, c in enumerate(self.corners) if len(c) > 2]
        i = bigs[0] if bigs else 0
        order = self.corners[i:] + self.corners[:i]
        tokens = [] if bigs else [str(order[0][0])]
        tokens += [str(list(c)) if len(c) > 2 else str(c[1]) for c in order]
        if len(order[-1]) == 2:
            tokens.pop()
        return f"C{len(self.link_vertices)}(" + ", ".join(tokens) + ")"


def vertex_link(m: PolyhedralMap, v: int) -> VertexLink:
    """Cyclic face arrangement around ``v``.

    Raises :class:`KeyError` for a vertex outside ``0..n-1`` and
    :class:`ValueError` unless the map is valid at ``v``: the faces at
    ``v`` repeat no vertex and close into a single cycle around it.
    """
    if not 0 <= v < m.n:
        raise KeyError(f"vertex {v} not in map with n={m.n}")
    paths: dict[int, Face] = {}
    ends: dict[int, list[int]] = {}  # w -> the faces at v on the edge v-w
    for fi in m.vertex_faces[v]:
        face = m.faces[fi]
        if len(face) < 3 or len(set(face)) != len(face):
            raise ValueError(f"face #{fi} {face} at vertex {v} is not a polygon")
        i = face.index(v)
        paths[fi] = path = face[i + 1:] + face[:i]
        ends.setdefault(path[0], []).append(fi)
        ends.setdefault(path[-1], []).append(fi)
    if not paths:
        raise ValueError(f"vertex {v} lies on no face")
    # The s1/s2 walk around v: cross each corner to its far edge (s1), then
    # that edge to the other face on it (s2), until the walk is back.
    start = fi = min(paths, key=paths.get)
    corners = [paths[start]]
    while True:
        w = corners[-1][-1]
        pair = ends[w]
        if len(pair) != 2:
            raise ValueError(f"link of vertex {v} is not a single closed cycle")
        fi = pair[1] if pair[0] == fi else pair[0]
        if fi == start:
            break
        path = paths[fi]
        corners.append(path if path[0] == w else path[::-1])
    if len(corners) != len(paths):
        raise ValueError(f"link of vertex {v} is not a single closed cycle")
    return VertexLink.from_corners(v, corners)


def face_sequence(m: PolyhedralMap, v: int) -> FaceSequence:
    """Multiset of face sizes incident to ``v``."""
    sizes = [len(m.faces[i]) for i in m.vertex_faces[v]]
    if not sizes:
        raise ValueError(f"vertex {v} lies on no face")
    return FaceSequence.from_sizes(sizes)


def face_sequence_classes(m: PolyhedralMap) -> dict[FaceSequence, list[int]]:
    """Group vertices by their face sequence."""
    classes: dict[FaceSequence, list[int]] = {}
    for v in range(m.n):
        classes.setdefault(face_sequence(m, v), []).append(v)
    return classes


def semi_equivelar_type(m: PolyhedralMap) -> FaceSequence | None:
    """The common face sequence, or None when vertices disagree."""
    classes = face_sequence_classes(m)
    if len(classes) == 1:
        return next(iter(classes))
    return None


def is_d_covered(m: PolyhedralMap, d: int) -> bool:
    """Whether every edge of a triangulation meets a vertex of degree ``d``."""
    if any(len(f) != 3 for f in m.faces):
        raise NotTriangulationError("d-covered is defined for triangulations only")
    around = m.neighbors
    return all(len(around[a]) == d or len(around[b]) == d for a in around for b in around[a])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    axiom: str
    message: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"[{self.axiom}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}

    def __iter__(self):
        return iter(self.violations)

    def __len__(self) -> int:
        return len(self.violations)

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate(m: PolyhedralMap) -> ValidationReport:
    """Check every closed-surface axiom; empty report iff the map is valid.

    All violations are collected (not just the first), each naming the
    broken axiom and the witnessing vertices, faces, or edges.  Malformed
    faces are reported and excluded from the later structural checks so a
    single bad face cannot crash the rest of the analysis.
    """
    out: list[Violation] = []
    if not m.faces:
        out.append(Violation("empty", "map has no faces"))
        return ValidationReport(tuple(out))

    wellformed: list[tuple[int, Face]] = []
    for i, face in enumerate(m.faces):
        short, repeats = len(face) < 3, len(set(face)) != len(face)
        if short:
            out.append(Violation("face-size", f"face #{i} {face} has fewer than 3 vertices", (i,)))
        if repeats:
            out.append(Violation("face-repeat", f"face #{i} {face} repeats a vertex", (i,)))
        if not (short or repeats):
            wellformed.append((i, face))

    seen: dict[Face, int] = {}
    for i, face in wellformed:
        key = normalize_face(face)
        if key in seen:
            out.append(Violation(
                "duplicate-face",
                f"faces #{seen[key]} and #{i} are the same cycle {key}",
                (seen[key], i),
            ))
        else:
            seen[key] = i

    # The checks below read the well-formed faces and one flag template of
    # them; ``index`` maps their positions back to face numbers of ``m``.
    index = [i for i, _ in wellformed]
    good = m if len(wellformed) == len(m.faces) else PolyhedralMap(
        [face for _, face in wellformed], n=m.n)
    t = FlagTemplate(good.faces, m.n)

    def joins(face: Face, a: int, b: int) -> bool:  # a, b both on the face
        return (face.index(a) - face.index(b)) % len(face) in (1, len(face) - 1)

    bad_vertices = set()
    for e in sorted(divmod(key, m.n) for key, state in t.sides.items() if state != -2):
        bad_vertices.update(e)
        a, b = e
        where = tuple(index[j] for j in good.vertex_faces[a]
                      if b in good.faces[j] and joins(good.faces[j], a, b))
        message = f"edge {e} lies in {len(where)} face(s) {where}, expected 2"
        out.append(Violation("edge-degree", message, (e, where)))

    # Any two faces meet in nothing, one vertex, or one full edge: only
    # faces sharing a vertex need a look, and faces sharing just two
    # vertices may share the edge between them.
    shared = Counter(chain.from_iterable(
        combinations(fs, 2) for fs in good.vertex_faces.values()))
    for (a, b), count in sorted(pair for pair in shared.items() if pair[1] > 1):
        common = tuple(sorted(set(good.faces[a]) & set(good.faces[b])))
        if count == 2 and all(joins(good.faces[i], *common) for i in (a, b)):
            continue
        ia, ib = index[a], index[b]
        if count == 2:
            message = f"faces #{ia} and #{ib} share {list(common)} which is not an edge of both"
        else:
            message = f"faces #{ia} and #{ib} share {count} vertices {list(common)}"
        out.append(Violation("face-intersection", message, (ia, ib, common)))

    # Link condition: the flags at each vertex form one <s1, s2> orbit, a
    # single closed cycle of faces.  Only defined where the local edges lie
    # in two faces each.
    s1, s2 = t.s1, t.s2
    a_flag_at = {v: x for x, v in enumerate(t.fv)}
    for v in range(m.n):
        count = len(good.vertex_faces[v])
        if count == 0:
            out.append(Violation("link", f"vertex {v} lies on no face", (v,)))
            continue
        if count < 3:
            out.append(Violation(
                "link", f"vertex {v} lies on only {count} face(s), need >= 3", (v,),
            ))
            continue
        if v in bad_vertices:
            continue  # already reported as edge-degree; the orbit is undefined
        start = a_flag_at[v]
        x, orbit = s2[s1[start]], 2
        while x != start:
            x, orbit = s2[s1[x]], orbit + 2
        if orbit != 2 * count:
            out.append(Violation(
                "link", f"link of vertex {v} splits into several cycles", (v,),
            ))

    # Connectivity of the edge graph.
    if t.sides:
        edges = [divmod(e, m.n) for e in t.sides]
        start = min(e[0] for e in edges)
        label = components(m.n, edges)
        unreachable = sum(1 for v in range(m.n) if t.neighbours[v] and label[v] != start)
        if unreachable:
            out.append(Violation(
                "connectivity",
                f"edge graph has {unreachable} vertices unreachable from {start}",
            ))

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# Surface profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceProfile:
    euler_characteristic: int
    orientable: bool
    vertex_count: int
    edge_count: int
    face_count: int

    def __post_init__(self):
        v, e, f = self.vertex_count, self.edge_count, self.face_count
        if self.euler_characteristic != v - e + f:
            raise ValueError("chi must equal V - E + F")

    def __str__(self) -> str:
        o = "orientable" if self.orientable else "non-orientable"
        return (f"chi={self.euler_characteristic} ({o}), "
                f"V={self.vertex_count} E={self.edge_count} F={self.face_count}")


def is_orientable(m: PolyhedralMap) -> bool:
    """Raises :class:`ValueError` unless ``m`` is closed (:func:`closed_flags`)."""
    return orientable(closed_flags(m)[0])


def orientable(moves) -> bool:
    """Whether the flag graph of ``moves`` (from :func:`closed_flags`)
    2-colours with every move changing colour.  The flags of one colour then
    orient every face so that each edge is used once in each direction."""
    colour = [-1] * len(moves)
    for root in range(len(moves)):
        if colour[root] < 0:
            colour[root], queue = 0, [root]
            for x in queue:
                for y in moves[x]:
                    if colour[y] < 0:
                        colour[y] = 1 - colour[x]
                        queue.append(y)
                    elif colour[y] == colour[x]:
                        return False
    return True


def surface_profile(m: PolyhedralMap) -> SurfaceProfile:
    """Counts, Euler characteristic and orientability of a valid map, read
    off its flags: every edge of a closed map carries four.

    Raises :class:`ValueError` for a map that is not closed
    (:func:`closed_flags`), where neither number means anything.
    """
    moves = closed_flags(m)[0]
    v, e, f = m.n, len(moves) // 4, len(m.faces)
    return SurfaceProfile(
        euler_characteristic=v - e + f,
        orientable=orientable(moves),
        vertex_count=v,
        edge_count=e,
        face_count=f,
    )
