"""Malformed input: mutated catalog maps never crash the entry points.

``validate`` must report, never raise; the other entry points either
answer or raise their documented ``ValueError`` (``TransformError`` is
one).
"""

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
    surface_profile,
    validate,
    vertex_link,
)
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
    return PolyhedralMap([tuple(f) for f in faces], n=base.n)


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
