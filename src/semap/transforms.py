"""Surgery on maps: orientation double covers, cylinder addition, stacking."""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import (
    accumulate, chain, combinations_with_replacement, groupby, permutations, product, zip_longest,
)
from typing import Iterator, Sequence

from .core import (
    Face,
    FaceSequence,
    FlatTypeError,
    ImpossibleTypeError,
    PolyhedralMap,
    closed_flags,
    components,
    normalize_face,
    orientable,
    sem_vertex_count,
    semi_equivelar_type,
    surface_profile,
    validate,
)
from .isomorphism import automorphism_group, canonical_form, class_key


class TransformError(ValueError):
    """A surgery cannot be performed or would produce an invalid map."""


# ---------------------------------------------------------------------------
# Orientation double cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringWitness:
    """A fold-to-one projection from cover vertices onto base vertices."""

    vertex_map: dict[int, int]
    fold: int


def double_cover(m: PolyhedralMap) -> tuple[PolyhedralMap, CoveringWitness]:
    """Orientation double cover of a non-orientable map.

    The cover's flags are the flags of ``m`` on two sheets, and every flag
    move changes sheet.  Each face lifts to two oppositely oriented copies
    and each vertex to the two <s1, s2> orbits over it; the result is
    orientable and connected, with every count doubled.
    """
    report = validate(m)
    if not report.ok:
        raise TransformError(f"double cover needs a valid map, got: {report}")
    moves, fv, _ = closed_flags(m)
    if orientable(moves):
        raise TransformError(
            "map is already orientable; its orientation cover is the disconnected "
            "disjoint union of two copies, not a map"
        )

    # Flag x on sheet t is 2*x + t.  Cover vertices are numbered by base
    # vertex, then by least flag.
    orbit = components(2 * len(fv), (
        (2 * x + t, 2 * y + 1 - t) for x, move in enumerate(moves) for y in move[1:] for t in (0, 1)
    ))
    roots = sorted(set(orbit), key=lambda r: (fv[r // 2], r))
    cover_id = {r: i for i, r in enumerate(roots)}
    faces: list[Face] = []
    b = 0
    for face in m.faces:
        for t in (0, 1):
            lifted = tuple(cover_id[orbit[2 * (b + 2 * i) + t]] for i in range(len(face)))
            faces.append(lifted[::-1] if t else lifted)
        b += 2 * len(face)
    cover = PolyhedralMap(faces, n=2 * m.n, name=f"{m.name}^2" if m.name else "")

    report = validate(cover)
    if not report.ok:
        raise TransformError(f"internal error: double cover came out invalid: {report}")
    vertex_map = {i: fv[r // 2] for i, r in enumerate(roots)}
    return cover, CoveringWitness(vertex_map=vertex_map, fold=2)


def verify_covering(cover: PolyhedralMap, base: PolyhedralMap,
                    witness: CoveringWitness) -> bool:
    """Check a claimed covering: fold count, face lifting, local bijectivity.
    Face images are read off ``cover.relabel(vm)`` only after the range and
    fold checks, which put every image label below ``base.n`` and make
    ``base.n * fold == cover.n``, so no label falls outside the cover's."""
    vm = witness.vertex_map
    if set(vm) != set(range(cover.n)):
        return False
    if any(not 0 <= b < base.n for b in vm.values()):
        return False
    preimages: dict[int, int] = {}
    for b in vm.values():
        preimages[b] = preimages.get(b, 0) + 1
    if any(preimages.get(v, 0) != witness.fold for v in range(base.n)):
        return False
    base_keys = set(base.face_keys)
    images = cover.relabel(vm).face_keys
    if any(len(set(image)) != len(image) or image not in base_keys for image in images):
        return False
    # Local bijectivity: the faces at each cover vertex map one-to-one onto
    # the faces at its image.
    for x in range(cover.n):
        upstairs = sorted(images[fi] for fi in cover.vertex_faces[x])
        downstairs = sorted(base.face_keys[fi] for fi in base.vertex_faces[vm[x]])
        if upstairs != downstairs:
            return False
    return True


# ---------------------------------------------------------------------------
# Stacking
# ---------------------------------------------------------------------------

def stack_faces(m: PolyhedralMap) -> PolyhedralMap:
    """Subdivide every face by a barycenter joined to all its vertices.

    Each p-gon becomes p triangles; chi is preserved and the result is a
    triangulation on V + F vertices.
    """
    faces: list[Face] = []
    for fi, face in enumerate(m.faces):
        bary = m.n + fi
        k = len(face)
        for i in range(k):
            faces.append((face[i], face[(i + 1) % k], bary))
    return PolyhedralMap(faces, n=m.n + len(m.faces),
                         name=f"stacked({m.name})" if m.name else "")


# ---------------------------------------------------------------------------
# Cylinder addition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderSpec:
    """One cylinder gluing between two equal-size, vertex-disjoint faces.

    ``kind`` is "quad" (4 quadrangles between two quadrangle boundaries) or
    "tri" (a 6-triangle band between two triangle boundaries).  ``offset``
    rotates and ``reflect`` flips the second boundary before the walls are
    attached; together they realise every boundary matching (8 for quads,
    6 for triangles).  For two-map gluings ``face_b`` refers to the second
    map; its labels are shifted past the first map's vertices when glued.
    """

    kind: str
    face_a: Face
    face_b: Face
    offset: int = 0
    reflect: bool = False

    def __post_init__(self):
        size = {"quad": 4, "tri": 3}.get(self.kind)
        if size is None:
            raise ValueError(f"kind must be 'quad' or 'tri', got {self.kind!r}")
        if len(self.face_a) != size or len(self.face_b) != size:
            raise ValueError(f"{self.kind} cylinder needs two {size}-gons")
        if not 0 <= self.offset < size:
            raise ValueError(f"offset must be in 0..{size - 1}")


def _wall_faces(a: Face, b: Face, offset: int, reflect: bool) -> list[Face]:
    """Faces of the cylinder between boundary cycles ``a`` and ``b``."""
    k = len(a)
    if reflect:
        b = b[::-1]
    c = tuple(b[(offset + i) % k] for i in range(k))
    if k == 4:
        return [(a[i], a[(i + 1) % 4], c[(i + 1) % 4], c[i]) for i in range(4)]
    return [
        (a[0], a[1], c[1]), (a[0], c[1], c[0]),
        (a[1], a[2], c[2]), (a[1], c[2], c[1]),
        (a[2], a[0], c[0]), (a[2], c[0], c[2]),
    ]


def _find_face(m: PolyhedralMap, face) -> Face:
    """The first face of ``m`` that is a rotation or reflection of ``face``."""
    turns = _turns(face)
    for f in m.faces:
        if f in turns:
            return f
    raise TransformError(f"face {tuple(face)} not present in {m!r}")


def add_cylinder(map_a: PolyhedralMap, spec: CylinderSpec,
                 map_b: PolyhedralMap | None = None) -> PolyhedralMap:
    """Remove two faces and glue a cylinder between their boundary cycles.

    With ``map_b`` the second face lives there and the two vertex sets are
    made disjoint by shifting the second map's labels.  The result is
    validated before being returned; an invalid gluing raises instead, so
    callers never see a broken map.
    """
    fa = _find_face(map_a, spec.face_a)
    if map_b is None:
        fb = _find_face(map_a, spec.face_b)
        all_faces = list(map_a.faces)
        n = map_a.n
    else:
        fb_local = _find_face(map_b, spec.face_b)
        fb = tuple(v + map_a.n for v in fb_local)
        all_faces = list(map_a.faces) + [
            tuple(v + map_a.n for v in f) for f in map_b.faces
        ]
        n = map_a.n + map_b.n
    if fa == fb:  # ``_find_face`` gives the first face of a cycle: one cycle named twice
        raise TransformError("cannot glue a face to itself")
    if set(fa) & set(fb):
        raise TransformError(f"faces {fa} and {fb} share vertices {sorted(set(fa) & set(fb))}")

    glued = replace(spec, face_a=fa, face_b=fb)
    out = PolyhedralMap(_apply_bundle(all_faces, [glued]), n=n, name=map_a.name)
    report = validate(out)
    if not report.ok:
        raise TransformError(f"gluing produced an invalid map: {report}")
    return out


# ---------------------------------------------------------------------------
# Search over cylinder bundles
# ---------------------------------------------------------------------------

@dataclass
class CylinderSearchStats:
    bundles: int = 0
    covered_units: int = 0   # bundles not run: a symmetry maps them onto a lesser one
    candidates: int = 0      # gluing combinations examined
    built: int = 0           # orbit-least gluings constructed
    valid: int = 0           # always equals ``built``: every screened gluing is valid
    classes: int = 0
    exhausted: bool = True
    seconds: float = 0.0


@dataclass(frozen=True)
class CylinderProvenance:
    """Which bases and cylinder specs produced a search result.

    Spec faces are given in the labels of the disjoint union of the bases
    (the i-th base's vertices shifted by the combined count of its
    predecessors).
    """

    bases: tuple[str, ...]
    specs: tuple[CylinderSpec, ...]


def _perfect_matchings(items: list) -> Iterator[tuple]:
    """All ways to split an even list into unordered pairs."""
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in _perfect_matchings(rest):
            yield ((first, items[i]),) + sub


def _triangle_partitions(m: PolyhedralMap) -> list[tuple[Face, ...]]:
    """Sets of vertex-disjoint triangle faces covering every vertex once."""
    tris = sorted(f for f in m.face_keys if len(f) == 3)
    out: list[tuple[Face, ...]] = []

    def extend(chosen: list[Face], covered: set[int]) -> None:
        if len(covered) == m.n:
            out.append(tuple(chosen))
            return
        pivot = min(v for v in range(m.n) if v not in covered)
        for t in tris:
            if pivot in t and not set(t) & covered:
                chosen.append(t)
                extend(chosen, covered | set(t))
                chosen.pop()

    extend([], set())
    return out


def _gluings(kind: str) -> list[tuple[int, bool]]:
    size = 4 if kind == "quad" else 3
    return [(o, r) for r in (False, True) for o in range(size)]


def _infer_kind(base_type: FaceSequence, target_type: FaceSequence) -> str | None:
    """"quad" if the target type has one more quadrangle, "tri" if two more triangles."""
    for kind, size, extra in (("quad", 4, 1), ("tri", 3, 2)):
        up = dict(base_type.entries)
        up[size] = up.get(size, 0) + extra
        if up == dict(target_type.entries):
            return kind
    return None


def _turns(face) -> set[Face]:
    """Every rotation and reflection of ``face``."""
    g = tuple(face)
    return {h[i:] + h[:i] for h in (g, g[::-1]) for i in range(len(h))}


def _without(faces, removed) -> list[Face]:
    """``faces`` less every rotation or reflection of a face in ``removed``;
    only the removed faces are turned, no face of ``faces`` is normalised."""
    turns = set().union(*map(_turns, removed))
    return [f for f in faces if f not in turns]


def _apply_bundle(faces, specs) -> list[Face]:
    """The faces after every spec's two faces are removed and its walls added.

    ``add_cylinder`` and provenance replay pass whole maps; the search
    puts each result's walls after the faces its unit keeps, which is the
    same list.
    """
    out = _without(faces, chain.from_iterable((s.face_a, s.face_b) for s in specs))
    for s in specs:
        out.extend(_wall_faces(s.face_a, s.face_b, s.offset, s.reflect))
    return out


def _image(perm, faces) -> frozenset:
    """The normalised images of ``faces`` under the vertex map ``perm``."""
    return frozenset(normalize_face(tuple(perm[v] for v in f)) for f in faces)


class _Multiset:
    """One base multiset of the cylinder search, shared by all its units.

    ``combo`` is a sorted tuple of indices into the search's bases.  The
    multiset holds the disjoint union of those bases (the i-th copy's
    labels shifted past its predecessors'), the copy of each vertex, the
    faces at each vertex and its symmetry group; it keeps no record of units.

    The group acts on the labels of the union: an automorphism on every
    copy, then any permutation of the copies of one base.  A symmetry maps
    every gluing of a unit onto a gluing of the image unit, and validity,
    type and canonical form do not depend on labels, so a unit whose
    pairing a symmetry maps onto a lesser one can only repeat classes, and
    so can a gluing that a symmetry fixing its pairing maps onto a lesser
    gluing of the same unit; only orbit-least ones are kept (orderly
    generation: R. C. Read, 1978; B. D. McKay, J. Algorithms 26, 1998).

    On the quad kind the converse holds too: distinct orbit-least gluings
    are non-isomorphic, so every one is a new class.  Assume the bases are
    valid, pairwise non-isomorphic (``cylinder_search`` merges bases with
    equal canonical forms) and of a type with one quadrangle at each
    vertex (m4 = 1, which :meth:`screen` shows every quad unit forces).
    Let ``f`` be an isomorphism from a result R of a unit of multiset M
    onto a result R' of a unit of M'.

    - A unit consumes every quadrangle of the union, so the quadrangles of
      a result are exactly its walls and its triangles are the union's.
    - ``f`` keeps face sizes, so it maps the triangles of R onto those of
      R', and the edges in exactly one triangle onto those of R'.  Those
      are the site edges (a site's neighbour across an edge is a triangle:
      every quadrangle is a site and sites are disjoint); they form the
      boundary 4-cycles, one per site.  Capping the cycles, ``f`` is an
      isomorphism of M's union onto M''s.
    - It maps each copy onto a copy of an isomorphic base, so M = M' (the
      bases are pairwise non-isomorphic), and ``f`` is an automorphism on
      each copy followed by a permutation of the copies of one base: one
      of :attr:`elements`.
    - ``f`` maps walls onto walls, hence the pairing of R onto that of R'.
      :meth:`admit` admits only the least pairing of each orbit, so the
      units are one, and ``f`` fixes its pairing.  The walls of a pair fix
      its gluing, so ``f`` maps the choice of R onto that of R' by a move of
      the unit's stabiliser (or the identity).  Both choices are the least
      of that orbit (:func:`_orbit_least`), so they are equal: R = R'.
    """

    def __init__(self, base_maps, combo):
        self.combo = combo
        self.bases = [base_maps[i] for i in combo]
        self.names = tuple(b.name or f"base{c}" for c, b in enumerate(self.bases))
        self.copy_of = [c for c, b in enumerate(self.bases) for _ in range(b.n)]
        self.n = len(self.copy_of)
        self.offsets = list(accumulate((b.n for b in self.bases), initial=0))
        self.union = PolyhedralMap([tuple(v + o for v in f)
                                    for b, o in zip(self.bases, self.offsets) for f in b.faces],
                                   n=self.n)
        self.faces = self.union.faces
        self.at = {v: set(fs) for v, fs in self.union.vertex_faces.items()}

    @cached_property
    def elements(self) -> list[list[int]]:
        """The symmetry group, as vertex maps of the union.  Computed at the
        first :meth:`admit`, once the search has validated the bases."""
        offsets, combo = self.offsets, self.combo
        autos = [automorphism_group(b).elements for b in self.bases]
        # copies of one base are consecutive in ``combo``: permute each block
        blocks = [list(g) for _, g in groupby(range(len(combo)), key=combo.__getitem__)]
        out = []
        for dest in product(*(permutations(b) for b in blocks)):
            dest = tuple(chain.from_iterable(dest))
            for alphas in product(*autos):
                perm = [0] * self.n
                for c, alpha in enumerate(alphas):
                    for x, y in enumerate(alpha):
                        perm[offsets[c] + x] = offsets[dest[c]] + y
                out.append(perm)
        return out

    def pairings(self, n_cyl: int, kind: str) -> list[tuple]:
        """The admissible pairings of ``n_cyl`` cylinders: site pairs joining
        every copy to the first.  Sites are all quadrangles (quad) or a vertex
        partition into triangles (tri), pairwise disjoint (:meth:`screen`).

        Pairs are sorted tuples of normalised sites, in sorted order, and
        the list is sorted by (same-copy pair count, pairing): same-copy
        pairs are heavily constrained (their walls tend to hit existing
        edges), so a truncated search reaches productive gluings early.
        Symmetries keep site sets, that count and a connected copy graph, so
        the list is closed under them, and the first of an orbit in any
        prefix of it is its least: the one :meth:`admit` admits.
        """
        if kind == "quad":
            site_sets = [sorted(f for f in self.union.face_keys if len(f) == 4)]
        else:
            site_sets = [sorted(p) for p in _triangle_partitions(self.union)]
        copy_of = self.copy_of
        out = []
        for sites in (s for s in site_sets if len(s) == 2 * n_cyl):
            for pairing in _perfect_matchings(sites):
                joined = components(len(self.bases), ((copy_of[a[0]], copy_of[b[0]])
                                                      for a, b in pairing))
                if not any(joined):  # every copy is joined to the first one
                    out.append(pairing)
        out.sort(key=lambda p: (sum(copy_of[a[0]] == copy_of[b[0]] for a, b in p), p))
        return out

    def admit(self, pairing, kind: str) -> list[tuple] | None:
        """None if a symmetry maps ``pairing`` below itself (compared as
        :meth:`pairings` lists them); otherwise its stabiliser's gluing moves.

        A move gives, for each site pair ``i``, the pair ``j`` the symmetry
        sends it to and where each gluing index of ``i`` lands on ``j``;
        it is read off by matching normalised wall sets.
        """
        identity = list(range(self.n))
        stabiliser = []
        for perm in self.elements:
            if perm == identity:
                continue
            image = tuple(sorted(tuple(sorted(_image(perm, p))) for p in pairing))
            if image < pairing:
                return None
            if image == pairing:
                stabiliser.append(perm)
        walls = [[_image(identity, _wall_faces(a, b, o, r)) for o, r in _gluings(kind)]
                 for a, b in pairing]
        where = {w: (i, g) for i, ws in enumerate(walls) for g, w in enumerate(ws)}
        moves = []
        for perm in stabiliser:
            move = []
            for ws in walls:
                images = [where[_image(perm, w)] for w in ws]
                move.append((images[0][0], tuple(g for _, g in images)))
            moves.append(tuple(move))
        return moves

    def screen(self, pairing, kind: str) -> list[dict[int, list[Face]]]:
        """For each site pair of ``pairing``, the walls of each gluing that
        fits the faces that survive the surgery, keyed by its index into
        :func:`_gluings`; the search builds its results from these walls.

        A wall face joins vertices of ``a`` to vertices of ``b``.  If a
        surviving face also holds such a cross pair, it meets the wall face
        in two vertices that are not a shared edge, or puts an edge in three
        faces, so validation must fail.  No site holds a cross pair (sites
        are disjoint, below), so the faces of the bases are read whole.

        The screen is also sufficient: every combination of screened
        gluings gives a valid map of the target type.  Assume the bases are
        valid maps of the base type, the sites are pairwise vertex-disjoint,
        the pairing joins every base to the first, and no surviving face
        holds a cross pair of a wall of its own pair.  Walls of different
        pairs then share no vertex, and each axiom ``validate`` checks
        holds:

        - Edge degree.  An edge on no site keeps its two faces of the bases.
          A site edge keeps its neighbour across it (not a site: sites are
          disjoint) and lies in exactly one wall.  A cross edge lies in
          exactly two walls of its pair, and in no surviving face or site.
        - Face intersection.  A surviving face meets a wall on one side only
          (the screen), so inside the wall's part on that side: a vertex, or
          an edge of both the wall and the site.  The face met the site in
          nothing, a vertex or a common edge (the bases are valid), so it
          meets the wall in nothing, a vertex or a common edge.  Walls of
          one pair meet as in a cylinder; walls of different pairs are
          disjoint.
        - Links.  At a vertex on no site nothing changes.  At a site vertex
          the walls replace the removed corner by one path of walls between
          the same two site edges; its inner edges are cross edges, which
          lie in walls only, so the faces around the vertex still form one
          cycle.
        - Connectivity.  Each valid base is connected, keeps all its edges,
          and the cross edges join the bases as the pairing does.
        - Type.  Every vertex lies on exactly one site (below), so it loses
          one face and gains two quadrangles (one net) or three triangles
          (two net): the base type becomes the target type.

        Disjoint sites, one at every vertex, are forced, not assumed.
        Triangle sites are vertex partitions.  A quad unit uses all
        quadrangles.  Each quad cylinder lowers chi by 2, and on n vertices
        the target type has chi lower than the base type by n/4 (curvature
        1/4 less per vertex), so a unit has n/4 sites; the bases hold
        m4 * n/4 quadrangles when each vertex lies on m4.  Units therefore
        exist only for m4 = 1, one quadrangle at every vertex.
        """
        at = self.at
        out = []
        for a, b in pairing:
            side = set(a)
            walls = {g: _wall_faces(a, b, o, r) for g, (o, r) in enumerate(_gluings(kind))}
            out.append({g: ws for g, ws in walls.items() if not any(
                at[x] & at[y] for w in ws for x in w if x in side for y in w if y not in side)})
        return out


def _combo_units(base_maps, target_type, target_chi, kind) -> Iterator[tuple[_Multiset, tuple]]:
    """Deterministic stream of work units ``(multiset, pairing)``: one
    :class:`_Multiset` per base multiset, shared by all its units, and one
    of its admissible pairings of cylinder sites; the gluing choices remain
    to be enumerated.  Units from different base multisets are interleaved
    round-robin so truncated searches still sample every combination of
    bases.
    """
    per_multiset: list[tuple[_Multiset, list[tuple]]] = []
    target_n = sem_vertex_count(target_type, target_chi)
    chis = [surface_profile(b).euler_characteristic for b in base_maps]
    max_copies = max(1, target_n // min(b.n for b in base_maps))
    for count in range(1, max_copies + 1):
        for combo in combinations_with_replacement(range(len(base_maps)), count):
            if sum(base_maps[i].n for i in combo) != target_n:
                continue
            twice = sum(chis[i] for i in combo) - target_chi
            if twice <= 0 or twice % 2:
                continue
            multiset = _Multiset(base_maps, combo)
            pairings = multiset.pairings(twice // 2, kind)
            if pairings:
                per_multiset.append((multiset, pairings))
    for batch in zip_longest(*(pairings for _, pairings in per_multiset)):
        for (multiset, _), pairing in zip(per_multiset, batch):
            if pairing is not None:
                yield multiset, pairing


def _orbit_least(choice: tuple, moves) -> bool:
    """Whether no move maps the gluing-index tuple ``choice`` below itself."""
    for move in moves:
        image = list(choice)
        for g, (j, gmap) in zip(choice, move):
            image[j] = gmap[g]
        if tuple(image) < choice:
            return False
    return True


def _glued(neighbours, walls) -> list[tuple[int, tuple[int, tuple[int, ...]]]]:
    """Each vertex of the triangle ``walls`` with its neighbours once they
    are glued, the union's ``neighbours`` and the walls' other vertices, as
    :func:`class_key` reads them: ``(v, (mask, members))``."""
    glued = [(v, neighbours[v].union(*(w for w in walls if v in w)) - {v})
             for v in sorted(set(chain.from_iterable(walls)))]
    return [(v, (sum(1 << w for w in nv), tuple(sorted(nv)))) for v, nv in glued]


def _run_unit(sets, moves, feasible) -> list[tuple]:
    """The orbit-least gluings of one slice of a unit, each as ``(key,
    choice)``: its gluing choice, with its :func:`class_key` on the triangle
    kind and None on the quad kind (``sets`` is None), whose gluings are
    each a new class (:class:`_Multiset`).

    A slice fixes the gluing of the first site pair: ``feasible`` lists the
    gluing indices it allows per pair, all screened
    (:meth:`_Multiset.screen`), which makes every combination a valid map
    of the target type.  Only those that no symmetry in ``moves`` maps onto
    a lesser one are kept, and nothing is built for them: no walls, no
    flags, no spec, no map and no canonical form.  The key reads one list
    per gluing, filled from ``sets[i][g]`` (None on the quad kind): the six
    vertices of pair ``i``, each with the ``(mask, members)`` of its
    neighbours once gluing ``g`` is made (:func:`_glued`).  The sites
    partition the vertices, so the chosen pairs' entries fill the vertex
    graph, and it is the built map's: removing the sites loses no edge, as
    each site edge keeps the face across it (:meth:`_Multiset.screen`).
    """
    found = []
    for choice in product(*feasible):
        if not _orbit_least(choice, moves):
            continue
        if sets is None:
            found.append((None, choice))
            continue
        glued = [None] * (6 * len(sets))
        for table, g in zip(sets, choice):
            for v, nv in table[g]:
                glued[v] = nv
        found.append((class_key(glued), choice))
    return found


def cylinder_search(
    base_maps: Sequence[PolyhedralMap],
    target_type: FaceSequence,
    target_chi: int,
    max_candidates: int | None = None,
    jobs: int = 1,
) -> tuple[list[PolyhedralMap], list[CylinderProvenance], CylinderSearchStats]:
    """Search cylinder additions over the bases for SEMs of the target type.

    Combines copies of the base maps whose vertex counts sum to the count
    forced by (type, chi) and enumerates admissible cylinder bundles:
    every quadrangle consumed when the target gains one quadrangle per
    vertex, or a perfect matching of vertex-disjoint triangles consuming
    every vertex once when it gains two triangles.  Bases with equal
    canonical forms are merged up front, keeping the first.  Symmetries of
    the bases (automorphisms of each copy, swaps of copies of one base)
    skip every bundle and every gluing they map onto a lesser one
    (:class:`_Multiset`), and each remaining gluing that passes the
    per-cylinder screen is applied: the faces its unit keeps, then its
    walls.  Walls and specs are made once per unit for each (site pair,
    screened gluing), and results hold those tuples and the kept ones as
    they are: no walls, specs or flags are built per gluing.  On the quad
    kind every such gluing is a new class, proved in :class:`_Multiset`,
    so each is a result, with no class key and no canonical form.  On the
    triangle kind each comes with the :func:`class_key` its slice read off
    per-pair glued neighbour masks and tuples (:func:`_run_unit`), colour
    refinement run to a stable partition: a new key is a new class, and a
    gluing under a repeated key is dropped only if a result under that key
    has its canonical form.  The first gluing to reach a
    class is never skipped, so the result list and its provenance are
    those of the unreduced search.

    Every built gluing is a valid map of the target type, with chi fixed
    by the vertex count: the bases are validated once, up front, and the
    screen is proved sufficient for valid bases in
    :meth:`_Multiset.screen`.  So ``stats.valid`` equals ``stats.built``,
    and on the quad kind so does ``stats.classes``.  An invalid base, or
    bases of different types, raise :class:`TransformError`.

    ``max_candidates`` truncates the deterministic candidate stream (at
    work-unit granularity, skipped bundles included); ``stats.exhausted``
    records whether the whole space was covered; a negative budget raises
    ``ValueError``.  Each admitted unit is split into slices, one per
    screened gluing of its first site pair, which concatenated in order
    give the unit's gluings in order.  ``jobs > 1`` spreads the slices over
    ``min(jobs, units)`` processes and takes their results in slice order;
    the result list does not depend on ``jobs``, and ``jobs < 1`` raises
    ``ValueError``.
    """
    if max_candidates is not None and max_candidates < 0:
        raise ValueError(f"max_candidates must be non-negative, got {max_candidates}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    t0 = time.perf_counter()
    stats = CylinderSearchStats()
    maps: list[PolyhedralMap] = []
    notes: list[CylinderProvenance] = []

    for i, b in enumerate(base_maps):
        report = validate(b)
        if not report.ok:
            raise TransformError(
                f"base {b.name or f'#{i}'} is not a valid map: {report.violations[0]}")

    try:
        sem_vertex_count(target_type, target_chi)
    except (ImpossibleTypeError, FlatTypeError):
        stats.seconds = time.perf_counter() - t0
        return maps, notes, stats

    base_types = {semi_equivelar_type(b) for b in base_maps}
    if len(base_types) != 1 or None in base_types:
        raise TransformError("all base maps must share one semi-equivelar type")
    kind = _infer_kind(base_types.pop(), target_type)
    if kind is None:
        stats.seconds = time.perf_counter() - t0
        return maps, notes, stats

    # the first base of each isomorphism class (the quad proof in _Multiset needs
    # no two isomorphic); the forms stay on the bases, for their symmetry groups
    firsts: dict[bytes, PolyhedralMap] = {}
    for b in base_maps:
        firsts.setdefault(canonical_form(b), b)
    base_maps = list(firsts.values())

    gluings = _gluings(kind)
    admitted = 0
    slices = []  # (multiset, kept, tables, sets, moves, feasible) per slice
    for multiset, pairing in _combo_units(base_maps, target_type, target_chi, kind):
        cost = len(gluings) ** len(pairing)
        if max_candidates is not None and stats.candidates + cost > max_candidates:
            stats.exhausted = False
            break
        stats.candidates += cost
        stats.bundles += 1
        moves = multiset.admit(pairing, kind)
        if moves is None:
            stats.covered_units += 1
            continue
        admitted += 1
        kept = _without(multiset.faces, chain.from_iterable(pairing))
        ok = multiset.screen(pairing, kind)
        # once per unit and (site pair, screened gluing): walls and spec, and glued neighbours
        tables = [{g: (walls, CylinderSpec(kind, a, b, *gluings[g])) for g, walls in pair.items()}
                  for (a, b), pair in zip(pairing, ok)]
        sets = None if kind == "quad" else [
            {g: _glued(multiset.union.neighbors, walls) for g, walls in pair.items()}
            for pair in ok]
        rest = [list(pair) for pair in ok[1:]]  # indices only: no walls go to a worker
        # ``product`` varies the first pair slowest
        slices.extend((multiset, kept, tables, sets, moves, [[first]] + rest) for first in ok[0])

    work = [[s[i] for s in slices] for i in range(3, 6)]  # what a worker receives
    by_key: dict[int, list[PolyhedralMap]] = {}  # triangle kind: the results per key
    with ExitStack() as stack:
        spread = map
        if jobs > 1 and admitted > 1:
            import concurrent.futures as cf

            pool = cf.ProcessPoolExecutor(max_workers=min(jobs, admitted))
            spread = stack.enter_context(pool).map
        for (multiset, kept, tables, *_), found in zip(slices, spread(_run_unit, *work)):
            stats.built += len(found)  # slices arrive in order
            for key, choice in found:
                walls, specs = zip(*(table[g] for table, g in zip(tables, choice)))
                name = "+".join(multiset.names) + f"#{len(maps) + 1}"
                m = PolyhedralMap(kept + [*chain.from_iterable(walls)], n=multiset.n, name=name)
                if key is not None:
                    rivals = by_key.setdefault(key, [])
                    if any(canonical_form(r) == canonical_form(m) for r in rivals):
                        continue
                    rivals.append(m)
                maps.append(m)
                notes.append(CylinderProvenance(bases=multiset.names, specs=specs))
    stats.valid = stats.built
    stats.classes = len(maps)
    stats.seconds = time.perf_counter() - t0
    return maps, notes, stats
