"""Malformed input: mutated catalog maps never crash the entry points.

``validate`` must report, never raise; the other entry points either
answer or raise their documented ``ValueError`` (``TransformError`` is
one).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from semap import (
    CylinderSpec,
    PolyhedralMap,
    add_cylinder,
    automorphism_group,
    canonical_form,
    catalog,
    catalog_map,
    double_cover,
    is_d_covered,
    map_to_json,
    stack_faces,
    surface_profile,
    validate,
    vertex_link,
)
from semap.cli import main
from semap.isomorphism import link_vertex_set
from oracles import link_oracle

MUTATIONS = ("drop", "duplicate", "swap", "out-of-range", "repeat")


@st.composite
def mutated_maps(draw, min_mutations=1):
    base = draw(st.sampled_from(catalog())).map
    faces = [list(f) for f in base.faces]
    i = 0
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=min_mutations,
                              max_size=4)):
        # Mutations often hit the face the previous one hit: a face
        # duplicated twice puts its edges in four faces each.
        if not draw(st.booleans()) or i >= len(faces):
            i = draw(st.integers(0, len(faces) - 1))
        face = faces[i]
        a, b = draw(st.lists(st.integers(0, len(face) - 1), min_size=2, max_size=2,
                             unique=True))
        if kind == "drop" and len(faces) > 1:
            del faces[i]
        elif kind == "duplicate":
            faces.append(list(face))
        elif kind == "swap":
            face[a], face[b] = face[b], face[a]
        elif kind == "out-of-range":
            face[a] = base.n + draw(st.integers(0, 3))
        elif kind == "repeat":
            face[a] = face[b]
    # an out-of-range label adds vertices past the base, so the map can be made
    n = max(base.n, 1 + max(max(f) for f in faces))
    return PolyhedralMap([tuple(f) for f in faces], n=n)


def duplicated_twice(name: str, index: int) -> PolyhedralMap:
    m = catalog_map(name)
    return PolyhedralMap(m.faces + (m.faces[index],) * 2, n=m.n)


def answers_or_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        pass


@given(mutated_maps())
@example(duplicated_twice("K3", 20))  # a quadrangle whose edges lie in 4 faces
@settings(max_examples=300, deadline=None)
def test_mutated_maps_are_reported_or_refused(m):
    report = validate(m)
    assert all(v.axiom and v.message for v in report)
    answers_or_value_error(surface_profile, m)
    answers_or_value_error(canonical_form, m)
    answers_or_value_error(automorphism_group, m)
    answers_or_value_error(double_cover, m)
    answers_or_value_error(stack_faces, m)
    answers_or_value_error(is_d_covered, m, 6)
    for v in range(m.n):
        answers_or_value_error(vertex_link, m, v)


@st.composite
def pinched_unions(draw):
    """Two catalog maps glued at one vertex: every edge lies in two faces,
    but the faces at the glued vertex form two cycles."""
    a, b = (draw(st.sampled_from(catalog())).map for _ in range(2))
    label = [draw(st.integers(0, a.n - 1))] + list(range(a.n, a.n + b.n - 1))
    return PolyhedralMap(a.faces + tuple(tuple(label[v] for v in f) for f in b.faces),
                         n=a.n + b.n - 1)


@given(st.one_of(mutated_maps(), pinched_unions()))
@settings(max_examples=300, deadline=None)
def test_link_verdicts_match_the_oracle(m):
    reported = {v.witness[0] for v in validate(m) if v.axiom == "link"}
    assert reported == link_oracle(m)


def reference_validate(m: PolyhedralMap) -> list[tuple]:
    """(axiom, message, witness) of each violation, by the algorithm as
    first written, sharing no code with the library: an edge -> faces table
    of the raw well-formed faces for edge degrees, face pairs and the
    connectivity search, and a search round each vertex, across edges at
    it, for its link."""
    if not m.faces:
        return [("empty", "map has no faces", ())]
    out, good = [], {}  # good: face number -> well-formed face
    for i, face in enumerate(m.faces):
        if len(face) < 3:
            out.append(("face-size", f"face #{i} {face} has fewer than 3 vertices", (i,)))
        if len(set(face)) != len(face):
            out.append(("face-repeat", f"face #{i} {face} repeats a vertex", (i,)))
        undeclared = [v for v in face if v >= m.n]
        if undeclared:
            out.append(("undeclared-vertex",
                        f"face #{i} {face} references vertices {undeclared} >= n={m.n}",
                        (i, tuple(undeclared))))
        if len(face) >= 3 and len(set(face)) == len(face) and not undeclared:
            good[i] = face
    seen = {}
    for i, face in good.items():
        key = min(f[j:] + f[:j] for f in (face, face[::-1]) for j in range(len(f)))
        if key in seen:
            out.append(("duplicate-face", f"faces #{seen[key]} and #{i} are the same cycle {key}",
                        (seen[key], i)))
        else:
            seen[key] = i
    edge_faces = {}
    for i, face in good.items():
        for a, b in zip(face, face[1:] + face[:1]):
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(i)
    bad_vertices = set()
    for e, fs in sorted(edge_faces.items()):
        if len(fs) != 2:
            bad_vertices.update(e)
            out.append(("edge-degree", f"edge {e} lies in {len(fs)} face(s) {tuple(fs)}, expected 2",
                        (e, tuple(fs))))
    on_edge = {pair for fs in edge_faces.values() for pair in combinations(fs, 2)}
    for (i, f), (j, g) in combinations(good.items(), 2):
        common = tuple(sorted(set(f) & set(g)))
        if len(common) < 2 or len(common) == 2 and (i, j) in on_edge:
            continue
        if len(common) == 2:
            message = f"faces #{i} and #{j} share {list(common)} which is not an edge of both"
        else:
            message = f"faces #{i} and #{j} share {len(common)} vertices {list(common)}"
        out.append(("face-intersection", message, (i, j, common)))
    for v in range(m.n):
        at = [i for i, face in good.items() if v in face]
        if len(at) < 3:
            message = (f"vertex {v} lies on no face" if not at else
                       f"vertex {v} lies on only {len(at)} face(s), need >= 3")
            out.append(("link", message, (v,)))
            continue
        if v in bad_vertices:
            continue
        reached = [at[0]]
        for i in reached:
            k = good[i].index(v)
            for w in (good[i][k - 1], good[i][(k + 1) % len(good[i])]):
                reached += [j for j in edge_faces[min(v, w), max(v, w)] if j not in reached]
        if len(reached) != len(at):
            out.append(("link", f"link of vertex {v} splits into several cycles", (v,)))
    if edge_faces:
        verts = {v for e in edge_faces for v in e}
        start = min(verts)
        reached = [start]
        for v in reached:
            reached += [w for e in edge_faces if v in e for w in e
                        if w != v and w not in reached]
        if len(verts) > len(reached):
            out.append(("connectivity", f"edge graph has {len(verts) - len(reached)} vertices "
                                        f"unreachable from {start}", ()))
    return out


def reference_vertex_link(m: PolyhedralMap, v: int):
    """The corners round ``v`` in their least rotation or reflection, or
    the refusal, by the walk as first written over its own edge -> faces
    table of the raw faces."""
    edge_faces = {}
    for i, face in enumerate(m.faces):
        for a, b in zip(face, face[1:] + face[:1]):
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(i)
    paths = {}
    for fi, face in enumerate(m.faces):
        if v in face:
            if len(face) < 3 or len(set(face)) != len(face):
                return f"face #{fi} {face} at vertex {v} is not a polygon"
            k = face.index(v)
            paths[fi] = face[k + 1:] + face[:k]
    if not paths:
        return f"vertex {v} lies on no face"
    start = fi = min(paths, key=paths.get)
    corners = [paths[start]]
    while True:
        w = corners[-1][-1]
        pair = edge_faces[min(v, w), max(v, w)]
        if len(pair) != 2:
            return f"link of vertex {v} is not a single closed cycle"
        fi = pair[1] if pair[0] == fi else pair[0]
        if fi == start:
            break
        corners.append(paths[fi] if paths[fi][0] == w else paths[fi][::-1])
    if len(corners) != len(paths):
        return f"link of vertex {v} is not a single closed cycle"
    if len(corners) < 3:
        return f"link of vertex {v} has {len(corners)} corners, need >= 3"
    flipped = [c[::-1] for c in corners[::-1]]
    return min(tuple(c[j:] + c[:j]) for c in (corners, flipped) for j in range(len(c)))


def agrees_with_the_references(m: PolyhedralMap) -> None:
    assert [(x.axiom, x.message, x.witness) for x in validate(m)] == reference_validate(m)
    for v in range(m.n):
        try:
            got = vertex_link(m, v).corners
        except ValueError as exc:
            got = str(exc)
        want = reference_vertex_link(m, v)
        assert got == want, v
        if not isinstance(want, str):  # the link is one cycle: its vertices are the set
            assert link_vertex_set(m, v) == {u for c in want for u in c}, v


@given(st.one_of(mutated_maps(), pinched_unions()))
@example(duplicated_twice("K3", 20))
@example(PolyhedralMap(catalog_map("tetrahedron").faces, n=5))  # vertex 4 on no face
@example(PolyhedralMap([(0, 1, 2), (0, 2, 1), (1, 2, 3)], n=4))  # two corners at 0, 1 and 2
@settings(max_examples=200, deadline=None)
def test_validate_and_links_match_the_reference(m):
    agrees_with_the_references(m)


def test_catalog_validates_and_links_like_the_reference():
    for entry in catalog():
        agrees_with_the_references(entry.map)


def spec_face(draw, m: PolyhedralMap, size: int) -> tuple[int, ...]:
    """A face of ``m`` with ``size`` vertices, or made-up labels."""
    own = [f for f in m.faces if len(f) == size]
    if own and draw(st.booleans()):
        return draw(st.sampled_from(own))
    return tuple(draw(st.lists(st.integers(0, m.n + 1), min_size=size, max_size=size)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_add_cylinder_validates_or_refuses(data):
    draw = data.draw
    map_a = draw(mutated_maps(min_mutations=0))
    map_b = draw(st.one_of(st.none(), mutated_maps(min_mutations=0)))
    kind = draw(st.sampled_from(("quad", "tri")))
    size = 4 if kind == "quad" else 3
    spec = CylinderSpec(kind=kind, face_a=spec_face(draw, map_a, size),
                        face_b=spec_face(draw, map_b or map_a, size),
                        offset=draw(st.integers(0, size - 1)), reflect=draw(st.booleans()))
    try:
        glued = add_cylinder(map_a, spec, map_b)
    except ValueError:
        return
    assert validate(glued).ok
    assert glued.n == map_a.n + (map_b.n if map_b else 0)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cli_answers_or_exits_2_on_mutated_maps(tmp_path_factory, data):
    draw = data.draw
    m = draw(mutated_maps(min_mutations=0))
    path = tmp_path_factory.mktemp("cli") / "m.json"
    path.write_text(json.dumps(map_to_json(m)))
    p = str(path)
    kind = draw(st.sampled_from(("quad", "tri")))
    size = 4 if kind == "quad" else 3
    faces = ";".join(",".join(map(str, spec_face(draw, m, size))) for _ in range(2))
    for argv in (["validate", p], ["profile", p], ["aut", p], ["gt", p, "--t", "2"],
                 ["cover", p], ["stack", p], ["d-covered", p, "--d", "6"], ["iso", p, p],
                 ["cylinder", p, "--kind", kind, "--faces", faces]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
