"""The map text format and its JSON mirror.

Text format, bit-exact::

    map <name> vertices=<n>
    f v0 v1 ... vk

One face per line, whitespace-separated labels, ``#`` starts a comment.
Labels are decimal integers; the aliases ``u`` (= 10) and ``v`` (= 11) are
accepted on input when the declared vertex count is at most 12.  The JSON
mirror is an object with "name", "vertices" and "faces" arrays.
"""

from __future__ import annotations

import json
import re

from .core import PolyhedralMap, normalize_face

_HEADER = re.compile(r"^map\s+(\S+)\s+vertices\s*=\s*(\d+)\s*$")
_ALIASES = {"u": 10, "v": 11}


class MapFormatError(ValueError):
    """Syntax or structural error in map input, with a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_map(text: str, dedupe: bool = False) -> PolyhedralMap:
    """Parse the map text format.

    Duplicate faces (equal as cycles up to rotation and reflection) are an
    error unless ``dedupe`` is set, in which case later copies are dropped;
    this supports the documented duplicate in the published N face list.
    """
    name = None
    n = None
    faces: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if name is None:
            m = _HEADER.match(line)
            if not m:
                raise MapFormatError(
                    f"expected header 'map <name> vertices=<n>', got {line!r}", lineno)
            name = m.group(1)
            n = int(m.group(2))
            continue
        parts = line.split()
        if parts[0] != "f":
            raise MapFormatError(f"expected a face line 'f v0 v1 ...', got {line!r}", lineno)
        verts = []
        for tok in parts[1:]:
            if tok in _ALIASES and n is not None and n <= 12:
                verts.append(_ALIASES[tok])
            elif re.fullmatch(r"\d+", tok):
                verts.append(int(tok))
            else:
                raise MapFormatError(f"bad vertex label {tok!r}", lineno)
        for v in verts:
            if n is not None and v >= n:
                raise MapFormatError(
                    f"vertex {v} exceeds declared count vertices={n}", lineno)
        face = tuple(verts)
        key = normalize_face(face)
        if len(set(face)) == len(face) and key in seen:
            if dedupe:
                continue
            raise MapFormatError(
                f"face {face} duplicates the face on line {seen[key]} "
                "(use dedupe to drop repeats)", lineno)
        seen[key] = lineno
        faces.append(face)
    if name is None:
        raise MapFormatError("no map header found")
    return PolyhedralMap(faces, n=n, name=name)


def serialize_map(m: PolyhedralMap) -> str:
    """Render a map in the text format (integer labels, stored face order)."""
    name = m.name if m.name and not re.search(r"\s", m.name) else "unnamed"
    lines = [f"map {name} vertices={m.n}"]
    for face in m.faces:
        lines.append("f " + " ".join(str(v) for v in face))
    return "\n".join(lines) + "\n"


def map_to_json(m: PolyhedralMap) -> dict:
    return {
        "name": m.name or "unnamed",
        "vertices": list(range(m.n)),
        "faces": [list(face) for face in m.faces],
    }


def _int_labels(seq, what: str) -> tuple[int, ...]:
    """``seq`` as a tuple of labels, each a plain ``int`` (not a bool, float
    or string, which Python would otherwise compare or coerce as one)."""
    labels = tuple(seq)
    for v in labels:
        if type(v) is not int:
            raise MapFormatError(f"JSON {what} has a non-integer label {v!r}")
    return labels


def map_from_json(obj) -> PolyhedralMap:
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        name = obj["name"]
        vertices = obj["vertices"]
        faces = obj["faces"]
    except (TypeError, KeyError) as exc:
        raise MapFormatError(f"JSON map needs name/vertices/faces: {exc}") from exc
    try:
        vertices = _int_labels(vertices, "'vertices'")
        if sorted(vertices) != list(range(len(vertices))):
            raise MapFormatError("JSON 'vertices' must be the labels 0..n-1")
        faces = [_int_labels(f, f"face #{i}") for i, f in enumerate(faces)]
        for i, face in enumerate(faces):
            if any(v < 0 or v >= len(vertices) for v in face):
                raise MapFormatError(f"JSON face #{i} {list(face)} has a vertex that is negative "
                                     f"or exceeds declared count vertices={len(vertices)}")
        return PolyhedralMap(faces, n=len(vertices), name=str(name))
    except TypeError as exc:
        raise MapFormatError(f"JSON map has a field of the wrong type: {exc}") from exc


def load_map(path, dedupe: bool = False) -> PolyhedralMap:
    """Read a map from a ``.map`` text file or a ``.json`` mirror file;
    ``dedupe`` is passed on to :func:`parse_map`."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text()
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        return map_from_json(text)
    return parse_map(text, dedupe=dedupe)
