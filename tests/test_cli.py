"""Command line surface: exit codes, JSON shapes, output files."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep import cli
from specrep.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rootdata_json(capsys):
    code, out, _ = run(capsys, ["rootdata", "--type", "D4"])
    assert code == 0
    d = json.loads(out)
    assert d["type"] == "D4"
    assert d["rank"] == 4
    assert d["group_order"] == 192
    assert d["mark_one_simples"] == [1, 3, 4]
    assert len(d["simple_roots"]) == 4


def test_vj_shapes(capsys):
    code, out, _ = run(capsys, ["vj", "--type", "A2"])
    assert code == 0
    d = json.loads(out)
    assert len(d) == 4  # every subset of the simples
    sizes = {tuple(rec["j"]): rec["vj_size"] for rec in d}
    assert sizes == {(): 1, (1,): 2, (2,): 2, (1, 2): 1}
    for rec in d:
        assert len(rec["vj"]) == rec["vj_size"]


def test_qp_counts(capsys):
    code, out, _ = run(capsys, ["qp", "--type", "A2"])
    assert code == 0
    d = json.loads(out)
    assert sum(rec["count"] for rec in d) == 28
    for rec in d:
        assert len(rec["sets"]) == rec["count"]


def test_module_ok(capsys):
    code, out, _ = run(capsys, ["module", "--type", "B2"])
    assert code == 0
    d = json.loads(out)
    assert all(rec["ok"] for rec in d)
    assert all(rec["ring"] == "Z" for rec in d)


def test_exactness_single_j(capsys):
    code, out, _ = run(capsys, ["exactness", "--type", "A2", "--j", "1",
                                "--ring", "F2"])
    assert code == 0
    d = json.loads(out)
    assert d == [{"j": [1], "ring": "F2", "sets": 4, "ok": True}]


def test_exactness_over_z(capsys):
    """The Z certificate end to end: every J of A3 is exact over Z."""
    code, out, _ = run(capsys, ["exactness", "--type", "A3", "--ring", "Z"])
    assert code == 0
    d = json.loads(out)
    assert len(d) == 8
    assert all(rec["ring"] == "Z" and rec["ok"] for rec in d)


def test_parser_is_shared_and_keeps_no_state(capsys):
    """main builds its parser once per process; a --ring given to one call
    must not carry over to the next, which checks Q, F2 and F3."""
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, ["exactness", "--type", "A2", "--ring", "F2"])
    assert code == 0 and {rec["ring"] for rec in json.loads(out)} == {"F2"}
    code, out, _ = run(capsys, ["exactness", "--type", "A2"])
    assert code == 0 and [rec["ring"] for rec in json.loads(out)] == 4 * ["Q", "F2", "F3"]


def test_chain_and_omega(capsys):
    code, out, _ = run(capsys, ["chain", "--type", "B3"])
    assert code == 0
    d = json.loads(out)
    assert d["ok"] and d["steps"]
    code, out, _ = run(capsys, ["omega", "--type", "A3"])
    assert code == 0
    d = json.loads(out)
    assert d["order"] == 4
    assert len(d["table"]) == 4


def test_hecke_frozen(capsys):
    code, out, _ = run(capsys, ["hecke", "--type", "A2", "--j", "1", "--p", "2"])
    assert code == 0
    d = json.loads(out)
    assert d[0]["ts"]["1"] == [[0, 1], [0, 1]]
    assert d[0]["ts"]["2"] == [[1, 0], [0, 0]]
    assert len(d[0]["omega"]) == 2  # the two nontrivial rotations


def test_irreducible_pass(capsys):
    code, out, _ = run(capsys, ["irreducible", "--type", "A2", "--p", "3"])
    assert code == 0
    d = json.loads(out)
    assert all(rec["is_simple"] for rec in d)


def test_oracle_pass(capsys):
    code, out, _ = run(capsys, ["oracle", "--n", "2", "--q", "2"])
    assert code == 0
    d = json.loads(out)
    assert d["group_order"] == 6
    assert all(rec["ok"] for rec in d["checks"])


# sha256 of `specrep oracle --n N --q Q` stdout: the oracle's output must
# not change with the representation of its group elements
ORACLE_SHA256 = {
    (2, 2): "ce50a08a46601d619ce2c12b3b2286689500b351c730b4075af6eaa1ab8ca10a",
    (3, 2): "c112abaf8344f804e09b6b4c3715f3eaf7edaa86be9179db8346ae7b01f404d1",
    (2, 3): "71afab7dfbfdcae3a7d6c6dc1c01b1631618d9e6813f0076cf6c86d5bc3afce7",
    (3, 3): "d46b4eb5396b41e6126beb5327691aa4c2489ef32f8d636ebd1c974c66216791",
    (2, 7): "b268bd3f5a33be857e329c90c8e15297dbe3f92ea5a026a301709998b9474808",
}


@pytest.mark.parametrize("nq", sorted(ORACLE_SHA256))
def test_oracle_output_bytes(capsys, nq):
    code, out, _ = run(capsys, ["oracle", "--n", str(nq[0]), "--q", str(nq[1])])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_SHA256[nq]


# sha256 of `specrep module --type T --ring R` stdout: the report must not
# depend on how the module verdict is reached
MODULE_SHA256 = {
    ("A3", "Z"): "97d25c349496d6693fb66276a5d7587f76e24707b9f0cfa489e18d1afc0c729d",
    ("A3", "Q"): "fcfa6e0cedc15d9ae89a5beeb806f228423f8183a0fdd0e68675da0e5cfd810a",
    ("A3", "F2"): "6dd16e61d75dcad8bd89bfba337d99a009a1f2aa1b5b65bb7bbec39185754225",
    ("A3", "F3"): "43b5b4d06fd69c6ea31424fb35eb9024a2885836db0fe10d269d70b313797ef5",
    ("B3", "Z"): "f6d97d54f2b906c04c4be872fbb5ce73227e2f33afb7d3b119db807cc7cf640a",
    ("B3", "Q"): "99047767e470fa36c35e4987235643c9ea5c5dc838b9dc8ae70711a628c1661f",
    ("B3", "F2"): "e17181e152c7468ce4a0f4e960ba02499696082c7df1ebee92a5d87947251c21",
    ("B3", "F3"): "93d28cc8f7cc2bdbebfaa484bb25c8f34ab666f414fa6ac78a4ea8f2c5b7e16a",
    ("C3", "Z"): "f6d97d54f2b906c04c4be872fbb5ce73227e2f33afb7d3b119db807cc7cf640a",
    ("C3", "Q"): "99047767e470fa36c35e4987235643c9ea5c5dc838b9dc8ae70711a628c1661f",
    ("C3", "F2"): "e17181e152c7468ce4a0f4e960ba02499696082c7df1ebee92a5d87947251c21",
    ("C3", "F3"): "93d28cc8f7cc2bdbebfaa484bb25c8f34ab666f414fa6ac78a4ea8f2c5b7e16a",
    ("D4", "Z"): "38ccdf762d08e8cc42d4f10588d966d420b5367a61e4566cd3709f770596df1e",
    ("D4", "Q"): "22a7748052cc15613908cbd36873e1741cebb4048c88a9b1550fab61bf6b7d19",
    ("D4", "F2"): "4aac284675e1f6c8ade9b9adeeeab3611f90d63317bc6b0e4bb5a88254423387",
    ("D4", "F3"): "65b8bfeabda7ce6092ab19933005dff271cf0c81d0e29a9f4100991bc7489e6b",
    ("B4", "Z"): "a2b812925c90f4eecff7d1ef67cacf763e4aaa3b0a1609be67d047ae6c332ae2",
    ("B4", "Q"): "e723b673ffacdf1697ff10249d932ff8f359c0b464fd3aa48cf5c2471aff30cd",
}


@pytest.mark.parametrize("tr", sorted(MODULE_SHA256))
def test_module_output_bytes(capsys, tr):
    code, out, _ = run(capsys, ["module", "--type", tr[0], "--ring", tr[1]])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODULE_SHA256[tr]


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
    | st.text() | st.floats(),
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple) | st.lists(st.integers())
                  | st.lists(st.integers() | st.booleans())
                  | st.dictionaries(st.text(), kids) | st.dictionaries(st.integers(), kids)
                  | st.dictionaries(st.floats(), kids) | st.dictionaries(st.booleans(), kids)
                  | st.dictionaries(st.none(), kids)
                  | st.dictionaries(st.text(), kids).map(OrderedDict)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
def test_writer_is_json_dumps_indent_2(tree):
    """The CLI's writer gives json.dumps(x, sort_keys=True, indent=2) byte for
    byte: None, bools, big ints, non-ASCII text, floats with NaN and inf,
    lists, tuples, dicts keyed by str, int, float, bool or None, a dict subclass,
    empty containers."""
    assert cli._indented(tree, "") == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("argv", [["hecke", "--type", "B3", "--j", "1", "--p", "3"],
                                  ["chain", "--type", "B4"], ["omega", "--type", "D4"],
                                  ["rootdata", "--type", "A1xB3"]])
def test_written_bytes_round_trip(tmp_path, argv):
    """A command's file is json.dumps(json.loads(text), sort_keys=True,
    indent=2) plus a newline, byte for byte."""
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    want = json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n"
    assert data == want.encode()


def test_oracle_rank_below_one_is_usage_error(capsys):
    """GL_n with n < 2 has no A_{n-1} system; it is refused before any
    enumeration, not crashed on."""
    for n in ("0", "-1"):
        code, out, err = run(capsys, ["oracle", "--n", n, "--q", "2"])
        assert code == 2 and out == "" and err.startswith("error:")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "root.json"
    code, out, _ = run(capsys, ["rootdata", "--type", "A1", "--out", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["rank"] == 1


def test_usage_errors(capsys):
    assert run(capsys, ["rootdata", "--type", "H3"])[0] == 2
    assert run(capsys, ["vj", "--type", "A2", "--j", "7"])[0] == 2
    assert run(capsys, ["vj", "--type", "A2", "--j", "1,1"])[0] == 2
    assert run(capsys, ["module", "--type", "A2", "--ring", "F9"])[0] == 2
    assert run(capsys, ["hecke", "--type", "A2", "--p", "9"])[0] == 2
    assert run(capsys, ["suite", "--primes", "8", "--types", "A1"])[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cmd", ["module", "exactness"])
@pytest.mark.parametrize("ring", ["F", "Fx", "Fp"])
def test_ring_without_a_prime_exits_2(capsys, cmd, ring):
    """--ring F followed by no prime is a usage error, not a traceback."""
    code, out, err = run(capsys, [cmd, "--type", "A2", "--ring", ring])
    assert (code, out, err) == (2, "", f"error: unknown ring {ring!r}\n")


def test_large_prime_usage_errors(capsys):
    """Primes at or above 2^31 are refused at once, not answered wrongly."""
    start = time.perf_counter()
    assert run(capsys, ["hecke", "--type", "A1", "--p", "4294967311"])[0] == 2
    # the prime check comes before the int64 guard, which would give exit 3
    assert run(capsys, ["irreducible", "--type", "A3", "--p", "4294967311",
                        "--j", "1"])[0] == 2
    assert run(capsys, ["module", "--type", "A1",
                        "--ring", "F1000000000000000003"])[0] == 2
    assert run(capsys, ["suite", "--primes", "4294967311", "--types", "A1"])[0] == 2
    assert time.perf_counter() - start < 10


def test_check_failed_exit(monkeypatch, capsys):
    """A verification step that raises CheckFailed maps to exit 1."""
    monkeypatch.setattr(cli.glnq, "flag_count", lambda n, q: 0)
    code, _, err = run(capsys, ["oracle", "--n", "2", "--q", "2"])
    assert code == 1 and "flag count" in err


def test_cap_exits(capsys):
    assert run(capsys, ["oracle", "--n", "4", "--q", "2"])[0] == 3
    assert run(capsys, ["irreducible", "--type", "D4", "--p", "3",
                        "--j", "1,3,4"])[0] == 0
    # dim 3 at p = 2^31 - 1: the int64 guard, the only capacity miss left
    assert run(capsys, ["irreducible", "--type", "A3", "--p", "2147483647",
                        "--j", "1"])[0] == 3


def test_vj_enumeration_cap(capsys):
    """W^J is walked without enumerating W, but |W| over the cap still exits 3
    before the walk starts."""
    code, out, err = run(capsys, ["vj", "--type", "A10", "--j", "1,2,3,4,5,6,7,8,9"])
    assert code == 3 and out == ""
    assert "|W| = 39916800 exceeds cap" in err


def test_check_failure_exit(monkeypatch, capsys):
    """Exit 1 plumbing, forced through a stubbed simplicity report."""
    from specrep.hecke import SimplicityReport

    def fake(rs, j, p, include_omega=True):
        return SimplicityReport(j, p, 1, True, False, False, None)

    monkeypatch.setattr(cli.hecke, "check_simple", fake)
    code, out, _ = run(capsys, ["irreducible", "--type", "A1", "--p", "2"])
    assert code == 1
    d = json.loads(out)
    assert any(rec["status"] == "fail" for rec in d)


def test_suite_exit_and_output(tmp_path, capsys):
    path = tmp_path / "suite.jsonl"
    code, out, _ = run(capsys, ["suite", "--types", "A1",
                                "--out", str(path)])
    assert code == 0 and out == ""
    lines = path.read_text().strip().split("\n")
    assert all(json.loads(ln)["status"] == "pass" for ln in lines)
    # a run over an unknown type is reported, not crashed; the oracle
    # models are independent of --types and still pass
    code, out, _ = run(capsys, ["suite", "--types", "E8"])
    assert code == 1
    records = [json.loads(ln) for ln in out.strip().split("\n")]
    assert all(r["status"] == "fail" for r in records
               if r["instance"].startswith("E8"))
    assert any(r["status"] == "fail" for r in records)


def test_suite_tsv(capsys):
    code, out, _ = run(capsys, ["suite", "--types", "A1", "--tsv"])
    assert code == 0
    assert out.startswith("check_id\tinstance\tstatus\tdetail\n")


def test_suite_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, ["suite", "--types", "A2,B2", "--out", str(p1)])
    run(capsys, ["suite", "--types", "A2,B2", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_point_commands_build_no_index_core():
    """rootdata, chain and omega on B6 enumerate nothing and build no
    whole-group table, and vj, module and hecke on B5 walk only the cosets
    they need: neither W nor any parabolic subgroup W_K.  Every coset table
    either type caches holds fewer than |W| elements.  Each walk is cached
    as ("coset_table", K, J), and W's own table also as ("w_table",)."""
    script = (
        "import json, os\n"
        "from specrep import cli\n"
        "from specrep.roots import root_system\n"
        "from specrep.weyl import CosetTable, group_order\n"
        "codes = [cli.main([c, '--type', 'B6', '--out', os.devnull])\n"
        "         for c in ('rootdata', 'chain', 'omega')]\n"
        "codes += [cli.main([c[0], '--type', 'B5', '--j', '1,2,3,4', '--out', os.devnull, *c[1:]])\n"
        "          for c in (['vj'], ['module'], ['hecke', '--p', '3'])]\n"
        "out = [codes]\n"
        "for rs in map(root_system, ('B6', 'B5')):\n"
        "    sizes = [len(v.elements) for v in rs.cache.values() if isinstance(v, CosetTable)]\n"
        "    walks = [[len(k[1]), len(k[2])] for k in rs.cache if k[0] == 'coset_table']\n"
        "    out.append([sorted({k[0] for k in rs.cache}), walks, sizes, group_order(rs)])\n"
        "print(json.dumps(out))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, b6, b5 = json.loads(proc.stdout)
    (b6_names, b6_walks, b6_sizes, b6_order), (b5_names, b5_walks, b5_sizes, b5_order) = b6, b5
    assert codes == [0] * 6
    assert "longest_element" not in b6_names and "_longest" in b6_names  # keys are read
    assert "w_table" not in b6_names and [6, 0] not in b6_walks
    # every B5 walk is a W_K^J with J nonempty: neither W nor a subgroup W_K
    assert "w_table" not in b5_names and b5_walks and all(j for _, j in b5_walks)
    assert b5_sizes and max(b5_sizes) < b5_order
    assert max(b6_sizes, default=0) < b6_order


def test_suite_timings_leave_report_unchanged(tmp_path, capsys):
    plain, timed, times = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "t.jsonl"))
    assert run(capsys, ["suite", "--types", "A2,B2", "--out", str(plain)])[0] == 0
    assert run(capsys, ["suite", "--types", "A2,B2", "--out", str(timed),
                        "--timings", str(times)])[0] == 0
    assert plain.read_bytes() == timed.read_bytes()
    code, out, _ = run(capsys, ["suite", "--types", "A2,B2", "--timings", str(times)])
    assert code == 0 and out.encode() == plain.read_bytes()
    records = [json.loads(ln) for ln in plain.read_text().splitlines()]
    rows = [json.loads(ln) for ln in times.read_text().splitlines()]
    per_record = [r for r in rows if "check_id" in r]
    totals = [r for r in rows if "battery" in r]
    assert sorted((r["check_id"], r["instance"]) for r in per_record) == \
        [(r["check_id"], r["instance"]) for r in records]
    assert [t["battery"] for t in totals] == ["weyl", "module", "exactness",
                                              "chains", "hecke", "oracle"]
    assert sum(t["records"] for t in totals) == len(records)
    assert all(r["elapsed_s"] >= 0 for r in rows)


def test_module_dense_cap_exits_3(monkeypatch, capsys):
    """With a planted tiny cap, `specrep module` exits 3 through the dense
    guard before the boundary matrix is allocated."""
    import numpy as np

    from specrep import roots, vjmod

    rs = roots.RootSystem(roots.CartanType.parse("A3"))  # nothing cached
    monkeypatch.setitem(roots._SYSTEMS, rs.ct, rs)
    monkeypatch.setattr(vjmod, "DENSE_CAP", 64)
    real, shapes = np.zeros, []

    def zeros(shape, *args, **kwargs):
        shapes.append(shape)
        return real(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    code, _, err = run(capsys, ["module", "--type", "A3"])
    assert code == 3 and "exceeds the cap of 64 bytes" in err
    assert not [s for s in shapes if len(np.shape(s)) == 2]
    names = {k[0] for k in rs.cache}
    assert "coset_table" in names and "boundary_columns" not in names
