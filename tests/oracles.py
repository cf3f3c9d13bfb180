"""Independent brute-force oracles, deliberately dumber than the package.

These never share code paths with the implementations they check: the
isomorphism oracle tries every vertex bijection, the orientability oracle
tries every assignment of boundary directions, and the counting oracles
read the raw face lists directly.
"""

from __future__ import annotations

from itertools import permutations

from semap import PolyhedralMap, normalize_face


def face_set(m: PolyhedralMap) -> frozenset:
    return frozenset(normalize_face(f) for f in m.faces)


def brute_force_isomorphism(m1: PolyhedralMap, m2: PolyhedralMap):
    """First vertex bijection carrying faces onto faces, or None.

    All n! permutations; keep n <= 9 or so.
    """
    if m1.n != m2.n or sorted(map(len, m1.faces)) != sorted(map(len, m2.faces)):
        return None
    target = face_set(m2)
    deg2 = sorted(len(m2.vertex_faces[v]) for v in range(m2.n))
    if sorted(len(m1.vertex_faces[v]) for v in range(m1.n)) != deg2:
        return None
    for perm in permutations(range(m2.n)):
        mapped = frozenset(
            normalize_face(tuple(perm[v] for v in f)) for f in m1.faces)
        if mapped == target:
            return dict(enumerate(perm))
    return None


def brute_force_automorphisms(m: PolyhedralMap) -> list[tuple[int, ...]]:
    """Every vertex permutation preserving the face set (n <= 9 or so)."""
    target = face_set(m)
    out = []
    for perm in permutations(range(m.n)):
        mapped = frozenset(
            normalize_face(tuple(perm[v] for v in f)) for f in m.faces)
        if mapped == target:
            out.append(perm)
    return out


def brute_force_orientable(m: PolyhedralMap) -> bool:
    """Try all 2^F choices of boundary direction (F <= ~16)."""
    nf = len(m.faces)
    for mask in range(1 << nf):
        directed: dict[tuple[int, int], int] = {}
        good = True
        for fi, face in enumerate(m.faces):
            seq = face if not (mask >> fi) & 1 else face[::-1]
            k = len(seq)
            for i in range(k):
                e = (seq[i], seq[(i + 1) % k])
                directed[e] = directed.get(e, 0) + 1
        for (a, b), count in directed.items():
            if count != 1 or directed.get((b, a), 0) != 1:
                good = False
                break
        if good:
            return True
    return False


def degree_by_faces(m: PolyhedralMap, v: int) -> int:
    """Vertex degree read straight off the face list."""
    return sum(v in f for f in m.faces)


def neighbor_oracle(m: PolyhedralMap, v: int) -> set[int]:
    """Neighbors of v by scanning consecutive pairs in every face."""
    out = set()
    for face in m.faces:
        k = len(face)
        for i in range(k):
            a, b = face[i], face[(i + 1) % k]
            if a == v:
                out.add(b)
            if b == v:
                out.add(a)
    return out


def edge_count_oracle(m: PolyhedralMap) -> int:
    pairs = set()
    for face in m.faces:
        k = len(face)
        for i in range(k):
            a, b = face[i], face[(i + 1) % k]
            pairs.add((min(a, b), max(a, b)))
    return len(pairs)


def partial_map_admits(faces, face, n: int, target) -> bool:
    """Whether ``faces`` plus ``face`` is still a partial map of type
    ``target`` on labels ``0..n-1``, read off the raw face lists.

    Every face has a size of the type, distinct labels in range; no edge
    lies in more than two faces; two faces share at most one vertex, or
    exactly the two ends of an edge of both; no vertex exceeds its count
    of faces of any size; and the corners at each vertex (the two
    neighbours of the vertex in each face) form disjoint paths of fewer
    than ``degree`` corners, or one cycle of exactly ``degree`` corners.
    """
    sizes = dict(target.entries)
    degree = sum(sizes.values())
    every = [tuple(f) for f in faces] + [tuple(face)]

    def edges_of(f):
        return {frozenset((f[i], f[(i + 1) % len(f)])) for i in range(len(f))}

    use: dict[frozenset, int] = {}
    for f in every:
        if len(f) not in sizes or len(set(f)) != len(f):
            return False
        if any(v < 0 or v >= n for v in f):
            return False
        for e in edges_of(f):
            use[e] = use.get(e, 0) + 1
    if any(count > 2 for count in use.values()):
        return False
    for i, f in enumerate(every):
        for g in every[:i]:
            shared = set(f) & set(g)
            if len(shared) > 2:
                return False
            if len(shared) == 2 and frozenset(shared) not in edges_of(f) & edges_of(g):
                return False
    for v in range(n):
        at_v = [f for f in every if v in f]
        if any(sum(len(f) == s for f in at_v) > mult for s, mult in sizes.items()):
            return False
        corners = [(f[f.index(v) - 1], f[(f.index(v) + 1) % len(f)]) for f in at_v]
        neighbours: dict[int, set] = {}
        for a, b in corners:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        cycles = 0
        unseen = set(neighbours)
        while unseen:
            stack = [unseen.pop()]
            part = set(stack)
            while stack:
                for y in neighbours[stack.pop()]:
                    if y not in part:
                        part.add(y)
                        stack.append(y)
            unseen -= part
            corner_count = sum(a in part for a, _ in corners)
            if corner_count == len(part):
                cycles += 1
            elif corner_count != len(part) - 1:
                return False
        if cycles and (cycles > 1 or len(corners) != degree or len(neighbours) != degree):
            return False
        if not cycles and len(corners) >= degree:
            return False
    return True


def link_oracle(m: PolyhedralMap) -> set[int]:
    """Vertices whose link is broken, read off the raw face list.

    Only well-formed faces count: at least 3 labels, none repeated, all
    below ``n``.  A vertex on fewer than three of them is broken.  A vertex
    with an edge in other than two of them is skipped: there the link is
    undefined.  Otherwise the faces at the vertex, joined when they share
    an edge at it, must be connected; each has two edges at the vertex and
    each edge two faces, so connected means one cycle.
    """
    good = [f for f in m.faces
            if len(f) >= 3 and len(set(f)) == len(f) and max(f) < m.n]
    on_edge: dict[frozenset, list[int]] = {}
    for i, f in enumerate(good):
        for j in range(len(f)):
            on_edge.setdefault(frozenset((f[j - 1], f[j])), []).append(i)
    broken = set()
    for v in range(m.n):
        at = [i for i, f in enumerate(good) if v in f]
        if len(at) < 3:
            broken.add(v)
            continue
        edges = [fs for e, fs in on_edge.items() if v in e]
        if any(len(fs) != 2 for fs in edges):
            continue
        reached = {at[0]}
        grew = True
        while grew:
            grew = False
            for a, b in edges:
                if (a in reached) != (b in reached):
                    reached.update((a, b))
                    grew = True
        if len(reached) != len(at):
            broken.add(v)
    return broken
