import json

import pytest

from semap import (
    MapFormatError,
    load_map,
    map_from_json,
    map_to_json,
    parse_map,
    serialize_map,
    validate,
)

K1_TEXT = """\
# census entry with letter aliases
map K1 vertices=12
f 0 1 2
f 0 1 7
f 0 4 5
f 0 5 6
f 0 6 7
f 1 2 8
f 1 5 8
f 1 5 u
f 2 3 6
f 2 6 7
f 2 7 8
f 3 4 v
f 3 6 9
f 3 9 u
f 3 u v
f 4 5 u
f 4 9 u
f 4 9 v
f 7 8 v
f 8 9 v
f 0 2 3 4
f 1 7 v u
f 5 6 9 8
"""


def test_parse_k1_with_aliases(k1):
    m = parse_map(K1_TEXT)
    assert m.n == 12
    assert len(m.faces) == 23
    assert m == k1


def test_round_trip_is_identity_on_normalized_text():
    m = parse_map(K1_TEXT)
    once = serialize_map(m)
    again = serialize_map(parse_map(once))
    assert once == again
    assert parse_map(once) == m


def test_aliases_rejected_for_large_maps():
    text = "map big vertices=13\nf 0 1 u\n"
    with pytest.raises(MapFormatError, match="bad vertex label"):
        parse_map(text)


def test_header_required_and_line_numbers_reported():
    with pytest.raises(MapFormatError, match="line 1"):
        parse_map("f 0 1 2\n")
    with pytest.raises(MapFormatError) as err:
        parse_map("map x vertices=3\nf 0 1 2\nnot-a-face\n")
    assert err.value.line == 3


def test_undeclared_vertex_is_a_parse_error():
    with pytest.raises(MapFormatError, match="exceeds declared"):
        parse_map("map x vertices=3\nf 0 1 5\n")


def test_duplicate_face_error_and_dedupe_override():
    text = "map x vertices=3\nf 0 1 2\nf 2 0 1\n"
    with pytest.raises(MapFormatError, match="duplicates"):
        parse_map(text)
    m = parse_map(text, dedupe=True)
    assert len(m.faces) == 1


def test_published_n_list_needs_dedupe(n_map):
    lines = [f"map N vertices=24"]
    for face in n_map.faces:
        lines.append("f " + " ".join(map(str, face)))
    # reinsert the duplicate the published list carries
    lines.insert(8, "f 5 1 8")
    raw = "\n".join(lines) + "\n"
    with pytest.raises(MapFormatError, match="duplicates"):
        parse_map(raw)
    fixed = parse_map(raw, dedupe=True)
    assert len(fixed.faces) == 46
    assert validate(fixed).ok
    assert fixed == n_map


def test_load_map_passes_dedupe_on(tmp_path):
    path = tmp_path / "x.map"
    path.write_text("map x vertices=3\nf 0 1 2\nf 2 0 1\n")
    with pytest.raises(MapFormatError, match="duplicates"):
        load_map(path)
    assert len(load_map(path, dedupe=True).faces) == 1


def test_json_mirror_round_trip(k1):
    obj = map_to_json(k1)
    assert set(obj) == {"name", "vertices", "faces"}
    assert obj["vertices"] == list(range(12))
    back = map_from_json(json.dumps(obj))
    assert back == k1


def test_json_mirror_validates_shape():
    with pytest.raises(MapFormatError):
        map_from_json({"name": "x", "faces": [[0, 1, 2]]})
    with pytest.raises(MapFormatError):
        map_from_json({"name": "x", "vertices": [1, 2, 3], "faces": []})
    with pytest.raises(MapFormatError):
        map_from_json({"name": "x", "vertices": [0, 1, 2], "faces": [[0, 1, None]]})
    with pytest.raises(MapFormatError, match="exceeds declared"):
        map_from_json({"name": "k", "vertices": [0, 1, 2], "faces": [[0, 5, 1]]})
    with pytest.raises(MapFormatError, match=r"face #0 \[0, -1, 2\] has a vertex that is negative"):
        map_from_json({"name": "x", "vertices": [0, 1, 2], "faces": [[0, -1, 2]]})
    # labels that compare or coerce as integers are not integers
    tetra = [[0, 1, 2], [0, 3, 1], [1, 3, 2], [0, 2, 3]]
    for bad in ([[0, 1.9, 2], [0, "3", 1], [True, 2, 3], [0, 2, 3]],
                [[0, 1.0, 2]] + tetra[1:], ["012"] + tetra[1:]):
        with pytest.raises(MapFormatError, match="non-integer label"):
            map_from_json({"name": "x", "vertices": [0, 1, 2, 3], "faces": bad})
    for vertices in ([0, 1.0, 2, 3], [False, True, 2, 3], [0, 1, 2, "3"]):
        with pytest.raises(MapFormatError, match="non-integer label"):
            map_from_json({"name": "x", "vertices": vertices, "faces": tetra})
    assert validate(map_from_json({"name": "x", "vertices": [0, 1, 2, 3], "faces": tetra})).ok


def test_comments_and_blank_lines_ignored():
    text = "# leading\n\nmap x vertices=3  # trailing comment\nf 0 1 2 # face\n"
    m = parse_map(text)
    assert m.faces == ((0, 1, 2),)
