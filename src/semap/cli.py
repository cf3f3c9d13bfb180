"""Command-line front end.

Exit codes: 0 on success, 1 when the mathematical answer is negative
(validation violations, non-isomorphic, refused transform), 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import census, transforms
from .catalog import CatalogError, catalog, catalog_map
from .core import (
    FaceSequence,
    NotTriangulationError,
    PolyhedralMap,
    is_d_covered,
    semi_equivelar_type,
    surface_profile,
    validate,
)
from .isomorphism import automorphism_group, g_t_graph, isomorphism
from .mapio import MapFormatError, load_map, map_to_json, serialize_map

USAGE_ERROR = 2
NEGATIVE = 1


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _map_arg(token: str, dedupe: bool = False) -> PolyhedralMap:
    """A catalog name, or else the path of a map file."""
    if token.lower() in {e.name.lower() for e in catalog()}:
        return catalog_map(token)
    return load_map(token, dedupe=dedupe)


def _emit_map(m: PolyhedralMap, fmt: str, provenance: dict) -> None:
    if fmt == "json":
        print(json.dumps({"map": map_to_json(m), "provenance": provenance}, indent=2))
    else:
        sys.stdout.write(serialize_map(m))
        print("# provenance: " + json.dumps(provenance))


def _emit(payload: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_validate(args) -> int:
    m = _map_arg(args.map, dedupe=args.dedupe)
    report = validate(m)
    payload = {
        "map": m.name,
        "valid": report.ok,
        "violations": [
            {"axiom": v.axiom, "message": v.message} for v in report
        ],
    }
    _emit(payload, args.format,
          f"{m.name}: valid" if report.ok else f"{m.name}: INVALID\n{report}")
    return 0 if report.ok else NEGATIVE


def cmd_profile(args) -> int:
    m = _map_arg(args.map, dedupe=args.dedupe)
    report = validate(m)
    if not report.ok:
        _emit({"map": m.name, "valid": False}, args.format,
              f"{m.name}: INVALID\n{report}")
        return NEGATIVE
    p = surface_profile(m)
    t = semi_equivelar_type(m)
    payload = {
        "map": m.name,
        "euler_characteristic": p.euler_characteristic,
        "orientable": p.orientable,
        "vertices": p.vertex_count,
        "edges": p.edge_count,
        "faces": p.face_count,
        "semi_equivelar_type": str(t) if t else None,
    }
    extra = f", type {t}" if t else ", not semi-equivelar"
    _emit(payload, args.format, f"{m.name}: {p}{extra}")
    return 0


def cmd_iso(args) -> int:
    m1 = _map_arg(args.map1)
    m2 = _map_arg(args.map2)
    witness = isomorphism(m1, m2)
    payload = {
        "map1": m1.name,
        "map2": m2.name,
        "isomorphic": witness is not None,
        "witness": witness and {str(k): v for k, v in sorted(witness.items())},
    }
    _emit(payload, args.format,
          "isomorphic: " + ("yes " + str(sorted(witness.items())) if witness else "no"))
    return 0 if witness is not None else NEGATIVE


def cmd_aut(args) -> int:
    m = _map_arg(args.map)
    group = automorphism_group(m)
    payload = {
        "map": m.name,
        "order": group.order,
        "orbits": [list(o) for o in group.orbits],
        "vertex_transitive": len(group.orbits) == 1,
        "generators": [list(g) for g in group.generators],
    }
    _emit(payload, args.format,
          f"{m.name}: |Aut| = {group.order}, orbits = {[list(o) for o in group.orbits]}")
    return 0


def cmd_gt(args) -> int:
    m = _map_arg(args.map)
    graph = g_t_graph(m, args.t, sets=args.sets)
    edges = [list(e) for e in graph.sorted_edges()]
    payload = {"map": m.name, "t": args.t, "edge_count": graph.edge_count,
               "edges": edges}
    _emit(payload, args.format,
          f"G_{args.t}({m.name}): {graph.edge_count} edge(s) {edges}")
    return 0


def _emit_search(maps, stats, fmt: str, provenance: list | None = None) -> None:
    """A search's classes, each with its provenance if given, then its stats:
    every field in order, ``seconds`` rounded, ``reason`` last and if set."""
    stats_payload = {k: round(v, 3) if k == "seconds" else v
                     for k, v in vars(stats).items() if k != "reason"}
    if getattr(stats, "reason", ""):
        stats_payload["reason"] = stats.reason
    if fmt == "json":
        payload: dict = {"classes": [map_to_json(m) for m in maps]}
        if provenance is not None:
            payload["provenance"] = provenance
        payload["stats"] = stats_payload
        print(json.dumps(payload, indent=2))
        return
    for i, m in enumerate(maps):
        sys.stdout.write(serialize_map(m))
        if provenance is not None:
            print("# provenance: " + json.dumps(provenance[i]))
        print()
    print("# stats: " + json.dumps(stats_payload))


def cmd_enumerate(args) -> int:
    seq = FaceSequence.from_string(args.type)  # a ValueError exits 2 in ``main``
    maps, stats = census.enumerate_sems(seq, args.chi, max_nodes=args.max_nodes)
    _emit_search(maps, stats, args.format)
    return 0


def cmd_cover(args) -> int:
    m = _map_arg(args.map)
    try:
        cover, witness = transforms.double_cover(m)
    except transforms.TransformError as exc:
        _emit({"error": str(exc)}, args.format, f"refused: {exc}")
        return NEGATIVE
    provenance = {
        "operation": "double_cover",
        "base": m.name,
        "fold": witness.fold,
        "vertex_map": {str(k): v for k, v in sorted(witness.vertex_map.items())},
    }
    _emit_map(cover, args.format, provenance)
    return 0


def cmd_stack(args) -> int:
    m = _map_arg(args.map)
    stacked = transforms.stack_faces(m)
    _emit_map(stacked, args.format, {"operation": "stack_faces", "base": m.name})
    return 0


def _parse_faces_arg(text: str):
    try:
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError("expected two faces separated by ';'")
        return tuple(tuple(int(v) for v in part.replace(",", " ").split())
                     for part in parts)
    except ValueError as exc:
        raise MapFormatError(f"bad --faces value {text!r}: {exc}") from exc


def cmd_cylinder(args) -> int:
    m1 = _map_arg(args.map)
    m2 = _map_arg(args.map2) if args.map2 else None
    face_a, face_b = _parse_faces_arg(args.faces)
    spec = transforms.CylinderSpec(kind=args.kind, face_a=face_a, face_b=face_b,
                                   offset=args.offset, reflect=args.reflect)
    try:
        out = transforms.add_cylinder(m1, spec, m2)
    except transforms.TransformError as exc:
        _emit({"error": str(exc)}, args.format, f"refused: {exc}")
        return NEGATIVE
    provenance = {
        "operation": "add_cylinder",
        "bases": [m1.name] + ([m2.name] if m2 else []),
        "spec": asdict(spec),
    }
    _emit_map(out, args.format, provenance)
    return 0


def cmd_cylinder_search(args) -> int:
    seq = FaceSequence.from_string(args.type)  # a ValueError exits 2 in ``main``
    bases = [_map_arg(tok) for tok in args.bases.split(",")]
    maps, notes, stats = transforms.cylinder_search(
        bases, seq, args.chi, max_candidates=args.max_candidates, jobs=args.jobs)
    provenance = [asdict(note) for note in notes]
    _emit_search(maps, stats, args.format, provenance)
    return 0


def cmd_catalog(args) -> int:
    entries = catalog()
    if args.name:
        entries = [e for e in entries if e.name.lower() == args.name.lower()]
        if not entries:
            return _fail_usage(f"no catalog entry named {args.name!r}")
    if args.format == "json":
        print(json.dumps([
            {
                "name": e.name,
                "note": e.note,
                "expected": {
                    "euler_characteristic": e.expected.euler_characteristic,
                    "orientable": e.expected.orientable,
                    "type": e.expected.type_string,
                    "vertex_transitive": e.expected.vertex_transitive,
                },
                "map": map_to_json(e.map),
            } for e in entries
        ], indent=2))
    else:
        for e in entries:
            x = e.expected
            print(f"{e.name:12s} chi={x.euler_characteristic:>3d} "
                  f"{'orientable    ' if x.orientable else 'non-orientable'} "
                  f"type {x.type_string:10s} "
                  f"{'vertex-transitive' if x.vertex_transitive else 'not transitive'}")
            if args.verbose:
                print(f"    {e.note}")
    return 0


def cmd_dcheck(args) -> int:
    m = _map_arg(args.map)
    try:
        ok = is_d_covered(m, args.d)
    except NotTriangulationError as exc:
        _emit({"error": str(exc)}, args.format, f"refused: {exc}")
        return NEGATIVE
    _emit({"map": m.name, "d": args.d, "d_covered": ok}, args.format,
          f"{m.name}: {args.d}-covered: {ok}")
    return 0 if ok else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semap",
        description="Semi-equivelar maps: validation, invariants, surgery, census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("validate", cmd_validate, "check the closed-surface axioms")
    p.add_argument("map", help="catalog name or path to a .map/.json file")
    p.add_argument("--dedupe", action="store_true",
                   help="drop duplicate faces while parsing")

    p = add("profile", cmd_profile, "counts, chi, orientability, type")
    p.add_argument("map")
    p.add_argument("--dedupe", action="store_true")

    p = add("iso", cmd_iso, "isomorphism test with witness")
    p.add_argument("map1")
    p.add_argument("map2")

    p = add("aut", cmd_aut, "automorphism group and vertex orbits")
    p.add_argument("map")

    p = add("gt", cmd_gt, "the G_t distinguishing graph")
    p.add_argument("map")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sets", choices=("link", "neighbor"), default="link")

    p = add("enumerate", cmd_enumerate, "exhaustive census for a type and chi")
    p.add_argument("--type", required=True, help='face sequence, e.g. "3^5,4"')
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None,
                   help="node budget; partial coverage is reported in stats")

    p = add("cover", cmd_cover, "orientation double cover")
    p.add_argument("map")

    p = add("stack", cmd_stack, "stack a barycenter into every face")
    p.add_argument("map")

    p = add("cylinder", cmd_cylinder, "glue one cylinder between two faces")
    p.add_argument("map")
    p.add_argument("map2", nargs="?", default=None)
    p.add_argument("--kind", choices=("quad", "tri"), required=True)
    p.add_argument("--faces", required=True,
                   help="two faces, e.g. '0,2,3,4;5,6,9,8'")
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--reflect", action="store_true")

    p = add("cylinder-search", cmd_cylinder_search,
            "search cylinder additions for a target type and chi")
    p.add_argument("--type", required=True)
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--bases", required=True,
                   help="comma-separated catalog names or file paths")
    p.add_argument("--max-candidates", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = add("catalog", cmd_catalog, "list the bundled census maps")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--verbose", action="store_true")

    p = add("d-covered", cmd_dcheck, "test the d-covered property of a triangulation")
    p.add_argument("map")
    p.add_argument("--d", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MapFormatError, OSError, CatalogError, ValueError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
