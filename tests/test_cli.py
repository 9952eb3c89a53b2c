"""Tests for the command-line surface, run in-process."""

import hashlib
import io
import json

import pytest

from kitelink import constructor
from kitelink.cli import main
from kitelink.errors import FlowerResolutionExhausted
from kitelink.generators import gen_complete_minus_matching
from kitelink.graphs import Graph, format_graph, graph_as_json


def _write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bare_flower_graph(extra=()):
    edges = [
        (2, 4), (0, 4), (0, 2),
        (4, 6), (4, 8), (6, 8),
        (1, 3), (3, 7), (5, 7), (1, 5),
        (1, 2), (3, 4), (6, 7),
    ]
    return Graph(9, sorted(set(edges) | set(extra)))


def test_conn_reports_complete_graph(tmp_path, capsys):
    path = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    code, out, _ = _run(capsys, "conn", path)
    assert code == 0
    assert json.loads(out) == {"n": 8, "m": 28, "connectivity": 7, "cut": None}


def test_conn_reports_a_cut(tmp_path, capsys):
    path = _write_graph(tmp_path, gen_complete_minus_matching(8, 1))
    code, out, _ = _run(capsys, "conn", path)
    assert code == 0
    obj = json.loads(out)
    assert obj["connectivity"] == 6
    assert isinstance(obj["cut"], list) and len(obj["cut"]) == 6


def test_conn_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(gen_complete_minus_matching(8, 0))))
    code, out, _ = _run(capsys, "conn", "-")
    assert code == 0
    assert json.loads(out)["connectivity"] == 7


def test_conn_accepts_json_graph(tmp_path, capsys):
    g = gen_complete_minus_matching(8, 2)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_as_json(g)))
    code, out, _ = _run(capsys, "conn", str(path))
    assert code == 0
    assert json.loads(out)["m"] == g.m


def test_malformed_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a graph\n")
    code, _, err = _run(capsys, "conn", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "payload",
    [
        '{"n": 3, "edges": null}',
        '{"n": 3, "edges": 7}',
        '{"n": 3, "edges": [[0, 1], [true, 2]]}',
    ],
)
def test_malformed_json_graph_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, out, err = _run(capsys, "conn", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_vertex_count_over_the_cap_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("100000000 0\n")
    code, out, err = _run(capsys, "conn", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "100000000" in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe")
    code, out, err = _run(capsys, "conn", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "conn", "/nonexistent/graph.txt")
    assert code == 2
    assert "error:" in err


def test_fan_finds_and_reports_arms(tmp_path, capsys):
    path = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    code, out, _ = _run(capsys, "fan", path, "0", "1,2,3", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] and len(obj["arms"]) == 3
    assert all(arm[0] == 0 for arm in obj["arms"])


def test_fan_reports_absence(tmp_path, capsys):
    # Vertex 3 is a cut vertex toward {4, 5}: no two disjoint arms exist.
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    path = _write_graph(tmp_path, g)
    code, out, _ = _run(capsys, "fan", path, "0", "4,5", "2")
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_fan_rejects_non_integer_targets(tmp_path, capsys):
    path = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    code, out, err = _run(capsys, "fan", path, "0", "a,b", "3")
    assert (code, out) == (2, "")
    assert err == "error: targets 'a,b' are not comma-separated integers\n"


def test_link2_finds_disjoint_paths(tmp_path, capsys):
    path = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    code, out, _ = _run(capsys, "link2", path, "0", "1", "2", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["path1"][0] == 0 and obj["path1"][-1] == 1
    assert obj["path2"][0] == 2 and obj["path2"][-1] == 3
    assert not set(obj["path1"]) & set(obj["path2"])


def test_link2_reports_crossing_pairs(tmp_path, capsys):
    ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = _write_graph(tmp_path, ring)
    code, out, _ = _run(capsys, "link2", path, "0", "2", "1", "3")
    assert code == 1
    assert json.loads(out) == {"found": False}


def test_kite_find_verify_roundtrip(tmp_path, capsys):
    gpath = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    code, out, _ = _run(capsys, "kite", "find", gpath, "0", "1", "2", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["stage"] == "direct"
    kpath = tmp_path / "kite.json"
    kpath.write_text(out)
    code, out, _ = _run(capsys, "kite", "verify", gpath, str(kpath))
    assert code == 0
    assert json.loads(out)["valid"] is True


@pytest.mark.parametrize(
    "payload",
    [
        "{not json",
        "5",
        '{"roots": [0, 1, 2, 3], "cycle": null, "pendant": [1, 3]}',
        '{"roots": [0, 1, 2, 3], "cycle": ["x", 1, 2], "pendant": [1, 3]}',
        '{"roots": [0, 1, 2, 3.9], "cycle": [0, 1, 2], "pendant": [1, 3]}',
        '{"roots": [0, true, 2, 3], "cycle": [0, 1, 2], "pendant": [1, 3]}',
        '{"roots": [0, 1, 2, 3], "cycle": [0, true, 2], "pendant": [true, 3]}',
    ],
)
def test_kite_verify_malformed_kite_file_exits_2(tmp_path, capsys, payload):
    gpath = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    kpath = tmp_path / "kite.json"
    kpath.write_text(payload)
    code, out, err = _run(capsys, "kite", "verify", gpath, str(kpath))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_kite_verify_rejects_corrupted_witness(tmp_path, capsys):
    gpath = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    _, out, _ = _run(capsys, "kite", "find", gpath, "0", "1", "2", "3")
    obj = json.loads(out)
    obj["pendant"] = [1, 7]
    kpath = tmp_path / "kite.json"
    kpath.write_text(json.dumps(obj))
    code, out, _ = _run(capsys, "kite", "verify", gpath, str(kpath))
    assert code == 1
    assert json.loads(out)["valid"] is False
    assert json.loads(out)["reason"]


def test_kite_oracle_finds_and_respects_budget(tmp_path, capsys):
    gpath = _write_graph(tmp_path, gen_complete_minus_matching(8, 0))
    code, out, _ = _run(capsys, "kite", "oracle", gpath, "0", "1", "2", "3")
    assert code == 0
    assert json.loads(out)["cycle"]
    code, _, err = _run(capsys, "kite", "oracle", gpath, "0", "1", "2", "3", "--budget", "1")
    assert code == 3
    assert "budget" in err


def test_kite_find_exit_codes_without_kite(tmp_path, capsys):
    gpath = _write_graph(tmp_path, _bare_flower_graph())
    code, _, err = _run(capsys, "kite", "find", gpath, "2", "4", "6", "5")
    assert code == 1
    assert "not found" in err
    code, _, err = _run(capsys, "kite", "find", gpath, "2", "4", "6", "5", "--budget", "1")
    assert code == 3
    code, _, err = _run(
        capsys, "kite", "find", gpath, "2", "4", "6", "5", "--no-fallback"
    )
    assert code == 1
    assert "stage failure" in err


def test_kite_find_reports_unresolved_flower_as_stage_failure(tmp_path, capsys, monkeypatch):
    # More budget cannot resolve a flower, so this is exit 1, not 3.
    def unresolved(*args):
        raise FlowerResolutionExhausted("every cycle of the flower cuts x2 off from x4")

    monkeypatch.setattr(constructor, "assemble", unresolved)
    gpath = _write_graph(tmp_path, gen_complete_minus_matching(9, 1))
    code, out, err = _run(capsys, "kite", "find", gpath, "0", "2", "1", "3", "--no-fallback")
    assert code == 1
    assert out == "" and err.startswith("stage failure:")
    assert "cuts x2 off" in err


def test_kite_find_rejects_zero_budget_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    code, out, err = _run(capsys, "kite", "find", missing, "0", "1", "2", "3", "--budget", "0")
    assert code == 2
    assert out == "" and "budget" in err


def test_kite_find_connectivity_gate(tmp_path, capsys):
    ring = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    gpath = _write_graph(tmp_path, ring)
    code, _, err = _run(capsys, "kite", "find", gpath, "0", "1", "2", "3", "--check-connectivity")
    assert code == 2
    assert err == "error: connectivity 2 < 7\n"


def test_kite_linked_decides_families(tmp_path, capsys):
    k5 = _write_graph(tmp_path, gen_complete_minus_matching(5, 0), "k5.txt")
    code, out, _ = _run(capsys, "kite", "linked", k5)
    assert code == 0
    assert json.loads(out) == {"linked": True, "witness": None}
    c5 = _write_graph(tmp_path, Graph(5, [(i, (i + 1) % 5) for i in range(5)]), "c5.txt")
    code, out, _ = _run(capsys, "kite", "linked", c5)
    assert code == 1
    obj = json.loads(out)
    assert obj["linked"] is False and len(obj["witness"]) == 4


def test_gen_text_roundtrip(capsys):
    code, out, _ = _run(capsys, "gen", "kminusmatching", "9", "2")
    assert code == 0
    header = out.splitlines()[0].split()
    assert header == ["9", "34"]


def test_gen_json_roundtrip(capsys):
    code, out, _ = _run(capsys, "gen", "kminusmatching", "9", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 9 and len(obj["edges"]) == 34


def test_gen_random_honours_seed(capsys):
    code, out1, _ = _run(capsys, "gen", "random", "10", "7", "3")
    assert code == 0
    code, out2, _ = _run(capsys, "gen", "random", "10", "7", "3")
    assert out1 == out2


def test_gen_rejects_bad_matching(capsys):
    code, _, err = _run(capsys, "gen", "kminusmatching", "5", "3")
    assert code == 2
    assert "error:" in err


def test_trials_emits_json_lines(capsys):
    code, out, err = _run(
        capsys, "trials", "--generator", "kminusmatching", "--n", "8",
        "--trials", "4", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        obj = json.loads(line)
        assert obj["outcome"] == "success" and obj["verified"] is True
    assert "stages:" in err


def test_trials_quiet_keeps_reports_only(capsys):
    code, out, err = _run(
        capsys, "--quiet", "trials", "--generator", "kminusmatching", "--n", "8",
        "--trials", "2", "--seed", "1",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    assert err == ""


def test_trials_rejects_zero_budget_before_running(capsys):
    code, out, err = _run(capsys, "trials", "--n", "10", "--trials", "3", "--budget", "0")
    assert code == 2
    assert out == "" and "budget" in err


def test_trials_stream_matches_golden_digests(capsys):
    # The sha256 of each campaign's stdout, pinned so that a change which
    # alters any report byte fails here, not only between repeat runs.
    golden = {
        ("--n", "12", "--trials", "40", "--seed", "11", "--oracle-fraction", "0.15"):
            "d871918cd1714d8b0f0c9438653bc2beff76846108083099d81c45f512fb04dc",
        ("--generator", "kminusmatching", "--n", "9", "--matching", "4",
         "--roots", "exhaustive", "--oracle-fraction", "0.05"):
            "dd64c5a8ae1d9df8c1382e2028d525999a80f7fa41894a61dfa78756f20f4afb",
    }
    for args, digest in golden.items():
        code, out, _ = _run(capsys, "trials", *args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_selftest_passes(capsys):
    code, out, _ = _run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.startswith("ok") for line in lines)
