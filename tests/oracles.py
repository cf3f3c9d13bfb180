"""Independent brute-force oracles, deliberately dumber than the package.

These never share code paths with the implementations they check: the
isomorphism oracle tries every vertex bijection, the orientability oracle
tries every assignment of boundary directions, and the counting oracles
read the raw face lists directly.
"""

from __future__ import annotations

from itertools import permutations

from semap import PolyhedralMap


def face_key(face) -> tuple[int, ...]:
    """The least of every rotation of the face and of its reverse."""
    seq = tuple(face)
    return min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(seq)))


def face_set(m: PolyhedralMap) -> frozenset:
    return frozenset(face_key(f) for f in m.faces)


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
            face_key(tuple(perm[v] for v in f)) for f in m1.faces)
        if mapped == target:
            return dict(enumerate(perm))
    return None


def brute_force_automorphisms(m: PolyhedralMap) -> list[tuple[int, ...]]:
    """Every vertex permutation preserving the face set (n <= 9 or so)."""
    target = face_set(m)
    out = []
    for perm in permutations(range(m.n)):
        mapped = frozenset(
            face_key(tuple(perm[v] for v in f)) for f in m.faces)
        if mapped == target:
            out.append(perm)
    return out


def is_covering(cover_faces, base_faces, vertex_map, fold: int) -> bool:
    """Whether ``vertex_map`` projects the cover onto the base ``fold``-to-one
    as a covering, read off the raw face lists: it is defined on exactly the
    cover's vertices, every base vertex has ``fold`` preimages and no other
    label is hit, every cover face goes onto a base face (no two of its
    vertices onto one), and at each cover vertex ``x`` the faces through
    ``x`` go one-to-one onto the faces through its image.
    """
    cover_vertices = {v for f in cover_faces for v in f}
    base_vertices = {v for f in base_faces for v in f}
    if set(vertex_map) != cover_vertices:
        return False
    hits = [vertex_map[x] for x in sorted(cover_vertices)]
    if set(hits) - base_vertices or any(hits.count(b) != fold for b in base_vertices):
        return False
    base_keys = [face_key(f) for f in base_faces]
    for x in cover_vertices:
        images = []
        for f in cover_faces:
            if x in f:
                image = [vertex_map[v] for v in f]
                if len(set(image)) != len(image) or face_key(image) not in base_keys:
                    return False
                images.append(face_key(image))
        below = [k for k in base_keys if vertex_map[x] in k]
        if sorted(images) != sorted(below):
            return False
    return True


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


def automorphism_count(m: PolyhedralMap) -> int:
    """|Aut(m)| of a connected closed map, without trying n! permutations.

    An automorphism is fixed by the image of face 0 read from its first
    vertex towards its second.  For each possible image, a face read from
    a towards b, the map is propagated across edges: the other face on an
    edge a-b must go to the other face on its image edge, read from the
    image of a towards the image of b.  An image counts if every face is
    reached and the vertex map is a consistent bijection.
    """
    faces = m.faces
    on_edge: dict[frozenset, list[int]] = {}
    for i, f in enumerate(faces):
        for j in range(len(f)):
            on_edge.setdefault(frozenset((f[j - 1], f[j])), []).append(i)

    def read(f, a, b):
        """The vertices of face ``f`` from ``a``, stepping first to ``b``."""
        i = f.index(a)
        out = f[i:] + f[:i]
        return out if out[1] == b else (a,) + out[:0:-1]

    def extends(image: int, a: int, b: int) -> bool:
        phi: dict[int, int] = {}
        face_image = {0: image}
        queue = [(0, faces[0], read(faces[image], a, b))]
        for i, src, dst in queue:
            if len(src) != len(dst):
                return False
            for u, w in zip(src, dst):
                if phi.setdefault(u, w) != w:
                    return False
            for j in range(len(src)):
                x, y = src[j - 1], src[j]
                others = [k for k in on_edge[frozenset((x, y))] if k != i]
                targets = [k for k in on_edge.get(frozenset((phi[x], phi[y])), [])
                           if k != face_image[i]]
                if len(others) != 1 or len(targets) != 1:
                    return False
                k, t = others[0], targets[0]
                if k in face_image:
                    if face_image[k] != t:
                        return False
                    continue
                face_image[k] = t
                queue.append((k, read(faces[k], x, y), read(faces[t], phi[x], phi[y])))
        return (len(face_image) == len(faces) == len(set(face_image.values()))
                and len(phi) == m.n == len(set(phi.values())))

    return sum(extends(j, f[i], f[(i + s) % len(f)])
               for j, f in enumerate(faces) if len(f) == len(faces[0])
               for i in range(len(f)) for s in (1, -1))


def vertex_arrangement(m: PolyhedralMap, v: int) -> tuple[int, ...]:
    """The sizes of the faces round ``v`` in cyclic order: each face at
    ``v`` is followed by the other face on its edge from ``v`` to the
    neighbour it has not come from."""
    at = [f for f in m.faces if v in f]
    f = at[0]
    i = f.index(v)
    w = f[(i + 1) % len(f)]
    sizes = []
    for _ in at:
        sizes.append(len(f))
        f = next(g for g in at if g is not f and w in g
                 and w in (g[g.index(v) - 1], g[(g.index(v) + 1) % len(g)]))
        i = f.index(v)
        w = f[i - 1] if f[(i + 1) % len(f)] == w else f[(i + 1) % len(f)]
    return tuple(sizes)


def rooting_count(m: PolyhedralMap, seed: str) -> int:
    """The ways to lay a census seed on ``m``.  A ``"link"`` seed is the
    link of a vertex in that vertex's arrangement, so each vertex counts the
    rotations and reflections that keep its arrangement.  A ``"face"`` seed
    is one largest face, read from any vertex in either direction."""
    if seed == "face":
        size = max(map(len, m.faces))
        return 2 * size * sum(len(f) == size for f in m.faces)
    total = 0
    for v in range(m.n):
        sizes = vertex_arrangement(m, v)
        total += sum(r[i:] + r[:i] == sizes for r in (sizes, sizes[::-1])
                     for i in range(len(sizes)))
    return total
