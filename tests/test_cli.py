import hashlib
import json
import re
import subprocess
import sys

import pytest

from semap import parse_map, validate, are_isomorphic
from semap.census import PRUNE_REASONS
from semap.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_catalog_map(capsys):
    code, out, _ = run(capsys, "validate", "K1")
    assert code == 0
    assert "valid" in out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("map broken vertices=3\nf 0 1 2\n")
    code, out, _ = run(capsys, "validate", str(bad), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"]


def test_profile_json(capsys):
    code, out, _ = run(capsys, "profile", "T1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_characteristic"] == -2
    assert payload["orientable"] is True
    assert payload["semi_equivelar_type"] == "(3^5, 4)"


def test_iso_exit_codes(capsys):
    code, out, _ = run(capsys, "iso", "K1", "K2")
    assert code == 1
    code, out, _ = run(capsys, "iso", "K1", "K1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True
    assert payload["witness"]


def test_aut_json(capsys):
    code, out, _ = run(capsys, "aut", "tetrahedron", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 24
    assert payload["vertex_transitive"] is True


# sha256 of `aut <name> --format json`: order, orbits and the generator
# list itself are pinned byte for byte.
AUT_OUTPUT_PINS = [
    ("tetrahedron", "cdb506e8c36cbdf428cbc8a458342576ab1d9f865795e87499e8c52165b2b065"),
    ("cube", "507dea9cb5d7e93b68fd310bee30915ce8468c56e3938ac9445fff075af9ed68"),
    ("rp2_6", "ca0738d9b27622ed90bfea023bdfb849cf9fe47c5511f07d98086c47c8eb6872"),
    ("K1", "89be9f15135e85a451b99b35d1c5dfbc43a7de60f54714d392dc7127d9637786"),
    ("K2", "ea2d7662922ef642ba8884cceb8887b6552e7494b3839f1cb9ed3393cc09716d"),
    ("K3", "37210cd90e0a778ad25d028692e266b902144d763af2d6225189dfe44e76d209"),
    ("T1", "4bea788ad9a4645ae80a3c1711eb3ed620601709dd400256b1cb97bdd4eb3c38"),
    ("T2", "a5392508b1eb54a60127b2d1b88bbe1f453fc04fbfdef5cb56979a992a5abbcb"),
    ("T3", "13b73121565005df33bc8b2e3fcf4648382a17ffb9869118b83dfb7936d93f0c"),
    ("N", "6c5f2d4325ecc602e3aed380cd482cfc0625a7ba0469ab5926712f4cd407f95d"),
]


@pytest.mark.parametrize("name, digest", AUT_OUTPUT_PINS, ids=[n for n, _ in AUT_OUTPUT_PINS])
def test_aut_output_is_pinned(capsys, name, digest):
    code, out, _ = run(capsys, "aut", name, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gt_counts(capsys):
    code, out, _ = run(capsys, "gt", "K1", "--t", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edge_count"] == 2
    assert payload["edges"] == [[2, 4], [7, 10]]
    code, out, _ = run(capsys, "gt", "K1", "--t", "2", "--sets", "neighbor",
                       "--format", "json")
    assert json.loads(out)["edge_count"] == 14


def test_enumerate_text_output(capsys, k1, k2, k3):
    code, out, _ = run(capsys, "enumerate", "--type", "3^5,4", "--chi", "-1")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip().startswith("map")]
    maps = [parse_map(b) for b in blocks]
    assert len(maps) == 3
    for m in maps:
        assert any(are_isomorphic(m, cat) for cat in (k1, k2, k3))
    stats_line = [l for l in out.splitlines() if l.startswith("# stats:")]
    assert stats_line
    stats = json.loads(stats_line[0].split(":", 1)[1])
    assert stats["classes"] == 3
    assert list(stats["pruned"]) == list(PRUNE_REASONS)
    assert sum(stats["pruned"].values()) > 0


def test_enumerate_json_stats_count_prune_reasons(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "3^5,4", "--chi", "-1",
                       "--max-nodes", "50", "--format", "json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert not stats["exhausted"]
    assert list(stats["pruned"]) == list(PRUNE_REASONS)
    assert stats["pruned"]["link"] > 0


def test_enumerate_impossible(capsys):
    code, out, _ = run(capsys, "enumerate", "--type", "3^7,4", "--chi", "-1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["classes"] == []


def test_enumerate_seed_that_does_not_fit_has_no_maps(capsys):
    # the (4^3) link needs 7 vertices and chi=1 gives 4: no map, and no crash
    code, out, _ = run(capsys, "enumerate", "--type", "4^3", "--chi", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == []
    assert payload["stats"]["exhausted"] is True
    assert "outside vertex budget 4" in payload["stats"]["reason"]
    proc = subprocess.run(
        [sys.executable, "-m", "semap.cli", "enumerate", "--type", "3^2,4^2", "--chi", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    stats = json.loads(proc.stdout.splitlines()[-1].removeprefix("# stats: "))
    assert (stats["classes"], stats["exhausted"]) == (0, True)
    assert stats["reason"].count("does not fit") == 2  # both corner arrangements


# sha256 of the JSON output with every "seconds" figure set to 0: names,
# faces, order, provenance and stats are pinned byte for byte.
SEARCH_OUTPUT_PINS = [
    (("enumerate", "--type", "3^5,4", "--chi", "-1"),
     "3d5e4618d204f0a057b21664a1a087a368020a4e4bd54cffe9fc1c065be91eed"),
    (("enumerate", "--type", "3^5,4", "--chi", "-2", "--max-nodes", "10000"),
     "f8e35d46b5046216cc4da4349238d9f65c99d3f60207ebc0daf34220bafbd547"),
    (("cylinder-search", "--type", "3^5,4^2", "--chi", "-8", "--bases", "k1", "--jobs", "1"),
     "108fb028b1111c9998b0c5952698de8136103ed920847da01e5931bd9c5be3cb"),
    (("cylinder-search", "--type", "3^5,4^2", "--chi", "-8", "--bases", "k1", "--jobs", "2"),
     "108fb028b1111c9998b0c5952698de8136103ed920847da01e5931bd9c5be3cb"),
    # several base multisets: round-robin, covered units, a pool across multisets
    (("cylinder-search", "--type", "3^5,4^2", "--chi", "-8", "--bases", "k1,k2,k3"),
     "3c09bd7e61e5236b0bc403b11d6d9ab02f4f27a7a295a1c823c03fec8a4a8a81"),
    (("cylinder-search", "--type", "3^7,4", "--chi", "-10", "--bases", "k1,k2,k3",
      "--max-candidates", "2592", "--jobs", "2"),
     "ee2bdd24f6924ce9b6b65ffa292e07db0008ea2a2aa29248d57426f1deaa8cab"),
    # four chi=-2 bases, orientable and not: 844 classes
    (("cylinder-search", "--type", "3^5,4^2", "--chi", "-8", "--bases", "t1,t2,t3,n"),
     "21cc7daf3cf270de8aa3596683c493a574fccb94bfe5df8a021dbd2e541342af"),
]


@pytest.mark.parametrize("argv, digest", SEARCH_OUTPUT_PINS,
                         ids=["census-chi-1", "census-chi-2", "quad-k1-jobs1", "quad-k1-jobs2",
                              "quad-k123", "tri-k123-2592-jobs2", "quad-t123n"])
def test_search_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    out = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cover_text_and_refusal(capsys, k1, t1):
    code, out, _ = run(capsys, "cover", "K1")
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("# provenance"))
    cover = parse_map(body)
    assert cover.n == 24
    assert are_isomorphic(cover, t1)
    code, _, _ = run(capsys, "cover", "T1")
    assert code == 1


def test_stack_output(capsys):
    code, out, _ = run(capsys, "stack", "tetrahedron", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["map"]["vertices"]) == 8
    assert payload["provenance"]["operation"] == "stack_faces"


def test_cylinder_two_maps(capsys):
    code, out, _ = run(capsys, "cylinder", "K1", "K2", "--kind", "quad",
                       "--faces", "0,2,3,4;0,2,3,4", "--offset", "1")
    assert code == 0
    body = "\n".join(l for l in out.splitlines() if not l.startswith("# provenance"))
    m = parse_map(body)
    assert m.n == 24
    assert validate(m).ok


def test_cylinder_refusal_exit_code(capsys):
    code, _, _ = run(capsys, "cylinder", "K1", "--kind", "quad",
                     "--faces", "0,2,3,4;5,6,9,8")
    assert code == 1


def test_cylinder_search_json(capsys):
    code, out, _ = run(capsys, "cylinder-search", "--type", "3^5,4^2",
                       "--chi", "-8", "--bases", "k1,k2",
                       "--max-candidates", "1024", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["classes"] == len(payload["classes"]) >= 1
    assert payload["provenance"][0]["specs"]


def test_cylinder_search_refuses_an_invalid_base(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("map broken vertices=3\nf 0 1 2\n")
    code, out, err = run(capsys, "cylinder-search", "--type", "3^5,4^2",
                         "--chi", "-8", "--bases", f"k1,{bad}")
    assert code == 2
    assert out == ""
    assert "base broken is not a valid map: [edge-degree]" in err


def test_cylinder_search_text_stats_count_covered_units(capsys):
    # one of the first three [K1] bundles is the image of an earlier one
    code, out, _ = run(capsys, "cylinder-search", "--type", "3^5,4^2",
                       "--chi", "-8", "--bases", "k1", "--max-candidates", "1536")
    assert code == 0
    stats = json.loads(out.splitlines()[-1].removeprefix("# stats: "))
    assert (stats["bundles"], stats["covered_units"], stats["candidates"]) == (3, 1, 1536)


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "K1" in out and "T3" in out
    code, out, _ = run(capsys, "catalog", "N", "--format", "json")
    payload = json.loads(out)
    assert payload[0]["expected"]["euler_characteristic"] == -2


def test_d_covered_command(capsys, tmp_path, k1):
    from semap import stack_faces, serialize_map

    stacked = tmp_path / "stacked.map"
    stacked.write_text(serialize_map(stack_faces(k1)))
    code, _, _ = run(capsys, "d-covered", str(stacked), "--d", "12")
    assert code == 0
    code, _, _ = run(capsys, "d-covered", str(stacked), "--d", "11")
    assert code == 1
    code, _, _ = run(capsys, "d-covered", "cube", "--d", "3")
    assert code == 1  # refused: not a triangulation


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "validate", "no-such-map")[0] == 2
    assert run(capsys, "validate", str(tmp_path))[0] == 2  # a directory
    assert run(capsys, "enumerate", "--type", "junk", "--chi", "-1")[0] == 2
    assert run(capsys, "cylinder", "K1", "--kind", "quad", "--faces", "zzz")[0] == 2


def test_negative_budgets_exit_2(capsys):
    code, out, err = run(capsys, "enumerate", "--type", "3^5,4", "--chi", "-1",
                         "--max-nodes", "-5")
    assert (code, out) == (2, "") and "max_nodes" in err
    code, out, err = run(capsys, "cylinder-search", "--type", "3^5,4^2", "--chi", "-8",
                         "--bases", "k1", "--max-candidates", "-1")
    assert (code, out) == (2, "") and "max_candidates" in err


def test_fewer_than_one_job_exits_2(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "cylinder-search", "--type", "3^5,4^2", "--chi", "-8",
                             "--bases", "k1", "--jobs", jobs)
        assert (code, out) == (2, "") and "jobs" in err


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "semap.cli", "profile", "K2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "chi=-1" in proc.stdout


def test_json_face_label_outside_vertices_exits_2(tmp_path):
    # the JSON mirror refuses it as the text format does, before any command runs
    bad = tmp_path / "k.json"
    bad.write_text(json.dumps({"name": "k", "vertices": [0, 1, 2], "faces": [[0, 5, 1]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "semap.cli", "d-covered", str(bad), "--d", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "exceeds declared" in proc.stderr
    assert "Traceback" not in proc.stderr
