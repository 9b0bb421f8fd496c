"""Suite behavior: record shape, canonical order, skips, error surfacing."""

import json

import pytest

from specrep.errors import NonPrimeCharacteristic, SpecrepError
from specrep.suite import SuiteConfig, oracle_battery, run_suite, to_jsonl, to_tsv
from specrep.roots import root_system
from specrep.weyl import all_j, enumerate_VJ, enumerate_WJ, flat, simple


@pytest.fixture(scope="module")
def small_run():
    cfg = SuiteConfig(types=("A1", "A2"), oracle_models=((2, 2),))
    return run_suite(cfg)


def test_all_pass_small(small_run):
    status, records = small_run
    assert status == 0
    assert records
    assert all(r["status"] == "pass" for r in records)


def test_record_shape_and_order(small_run):
    _, records = small_run
    for r in records:
        assert set(r) == {"check_id", "instance", "status", "detail"}
    keys = [(r["check_id"], r["instance"]) for r in records]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_expected_check_ids(small_run):
    _, records = small_run
    ids = {r["check_id"] for r in records}
    assert {"weyl.group_order", "weyl.vj_sum", "module.rank",
            "module.steinberg", "module.exactness", "chains.weylem",
            "chains.weyllem1", "chains.weyllem2", "chains.weyllem3",
            "hecke.trichotomy", "hecke.indeco", "hecke.simple",
            "hecke.pwdiff", "hecke.negative_control",
            "oracle.build", "oracle.dims", "oracle.ts_match",
            "oracle.brudec"} <= ids


def test_jsonl_roundtrip(small_run):
    _, records = small_run
    text = to_jsonl(records)
    lines = text.strip().split("\n")
    assert len(lines) == len(records)
    assert [json.loads(ln) for ln in lines] == records


def test_tsv_shape(small_run):
    _, records = small_run
    lines = to_tsv(records).strip().split("\n")
    assert lines[0] == "check_id\tinstance\tstatus\tdetail"
    assert len(lines) == len(records) + 1
    assert all(len(ln.split("\t")) == 4 for ln in lines)


def test_determinism():
    cfg = SuiteConfig(types=("B2",), oracle_models=())
    out1 = to_jsonl(run_suite(cfg)[1])
    out2 = to_jsonl(run_suite(cfg)[1])
    assert out1 == out2


def test_unsupported_type_becomes_fail_records():
    cfg = SuiteConfig(types=("E8",), oracle_models=())
    status, records = run_suite(cfg)
    assert status == 1
    assert records
    assert all(r["status"] == "fail" for r in records)
    assert all("UnsupportedType" in r["detail"] for r in records)


def test_cap_becomes_skip():
    """At p = 2^31 - 1, dim >= 3 dense Omega products would overflow int64:
    hecke.simple skips there, and the p-free hecke.indeco verdict passes."""
    cfg = SuiteConfig(types=("A3",), primes=(2147483647,), oracle_models=())
    status, records = run_suite(cfg)
    assert status == 0  # skips do not fail the run
    skipped = [r for r in records if r["status"] == "skip"]
    rs = root_system("A3")
    big = sum(len(enumerate_VJ(rs, j)) >= 3 for j in all_j(rs.rank))
    assert big and len(skipped) == big
    assert all(r["check_id"] == "hecke.simple"
               and "overflow int64" in r["detail"] for r in skipped)
    indeco = [r for r in records if r["check_id"] == "hecke.indeco"]
    assert len(indeco) == len(all_j(rs.rank)) and {r["status"] for r in indeco} == {"pass"}


def test_oracle_too_large_is_skip():
    cfg = SuiteConfig(types=("A1",), oracle_models=((4, 2),))
    status, records = run_suite(cfg)
    assert status == 0
    builds = [r for r in records if r["check_id"] == "oracle.build"]
    assert len(builds) == 1 and builds[0]["status"] == "skip"


def test_oracle_self_check_failure_is_fail_record(monkeypatch):
    """A GL_n(F_q) model whose own consistency check fails is reported."""
    from specrep import glnq

    monkeypatch.setattr(glnq, "flag_count", lambda n, q: 0)
    status, records = run_suite(SuiteConfig(types=(), oracle_models=((2, 2),)))
    assert status == 1
    assert [(r["check_id"], r["status"]) for r in records] == [("oracle.build", "fail")]
    assert "flag count" in records[0]["detail"]


def test_oracle_rank_below_one_is_fail_record():
    """An oracle model without an A_{n-1} system is one oracle.build fail record."""
    records = oracle_battery(SuiteConfig(types=(), oracle_models=((0, 2),)))
    assert [(r["check_id"], r["status"]) for r in records] == [("oracle.build", "fail")]
    assert "A-1" in records[0]["detail"]


def test_config_validation():
    with pytest.raises(NonPrimeCharacteristic):
        SuiteConfig(primes=(6,)).validate()
    with pytest.raises(NonPrimeCharacteristic):
        SuiteConfig(primes=(4294967311,)).validate()
    with pytest.raises(SpecrepError):
        SuiteConfig(exactness_max_rank=0).validate()


def test_prime_five_pattern():
    """Another prime shows the same structural pass pattern."""
    cfg = SuiteConfig(types=("A2",), primes=(5,), oracle_models=())
    status, records = run_suite(cfg)
    assert status == 0
    assert {r["status"] for r in records} == {"pass"}


def _fresh(monkeypatch, name):
    """A new RootSystem that root_system(name) returns during this test, so
    that corrupting its tables leaves the shared instance alone."""
    from specrep import roots

    rs = roots.RootSystem(roots.CartanType.parse(name))
    monkeypatch.setitem(roots._SYSTEMS, rs.ct, rs)
    return rs


def test_warmup_names_counterexample(monkeypatch):
    """A length one too large at a simple reflection breaks l(wDelta w) there first."""
    from specrep import suite
    from specrep.weyl import w_table

    rs = _fresh(monkeypatch, "A2")
    table = w_table(rs)
    target = table.elements[1]
    table.lengths[1] += 1
    want = ("counterexample A2 w=(" + ",".join(map(str, flat(target)))
            + "): l(wDelta w) != l(wDelta) - l(w)")
    assert suite.check_warmup(rs) == (False, want)
    rec = next(r for r in suite.chains_battery(SuiteConfig(types=("A2",)))
               if r["check_id"] == "chains.warmup")
    assert (rec["status"], rec["detail"]) == ("fail", want)


def test_hilfe_names_counterexample(monkeypatch, a2):
    """Positive roots added to every row of the Phi_empty table leave
    Phi_empty(1) - Phi_{1}(1); without them the check passes."""
    from specrep import jsets, suite

    assert suite.check_hilfe(a2) == (True, "exhaustive")

    def planted(rs, j, perms):
        got = jsets.phi_j_table(rs, j, perms)
        if not j:
            got[:, :rs.num_positive] = True
        return got

    monkeypatch.setattr(suite, "phi_j_table", planted)
    assert suite.check_hilfe(a2) == (
        False, "counterexample A2 J={} w=(1,2,3): Phi_J(w) - Phi_J'(w) has a positive root, J'={1}")


def test_weylem_names_counterexample(monkeypatch):
    """A projection onto W^{} that sends s1s2 = (2,3,1) to s2s1 = (3,1,2)
    breaks part (b): (sw)^J must be w or sw."""
    from specrep import suite
    from specrep.weyl import projection_table, w_table

    rs = _fresh(monkeypatch, "A2")
    index = w_table(rs).index
    table = projection_table(rs, frozenset())
    table[index[((2, 3, 1),)]] = index[((3, 1, 2),)]
    assert suite.check_weylem(rs) == (False, "counterexample A2 J={} w=(1,3,2) s=1: part (b)")


def test_length_inversions_reads_the_rows(monkeypatch):
    """weyl.length_inversions counts each element's inversions on its row
    of W's table: a simple reflection's row planted as the identity's
    (no inversions) is one mismatch with the family length formula."""
    from specrep.suite import weyl_battery
    from specrep.weyl import w_table

    def record():
        return next((r["status"], r["detail"]) for r in weyl_battery(SuiteConfig(types=("B3",)))
                    if r["check_id"] == "weyl.length_inversions")

    assert record() == ("pass", "mismatches=0")
    rs = _fresh(monkeypatch, "B3")
    perms = w_table(rs).perms
    perms[1] = perms[0]
    assert record() == ("fail", "mismatches=1")


def _details(records, check_id):
    return {r["instance"]: (r["status"], r["detail"])
            for r in records if r["check_id"] == check_id}


def test_rank_names_counterexample(monkeypatch):
    """A rank off by one, or a V^J set that is not a basis, is named in the
    failing record; the passing details stay as they were."""
    import dataclasses

    from specrep import suite, vjmod

    def fake(rs, j):
        rep = vjmod.build_mj(rs, j)
        if j == frozenset({0}):
            return dataclasses.replace(rep, basis_ok=False)
        if j == frozenset({1}):
            return dataclasses.replace(rep, rank=rep.rank + 1)
        return rep

    monkeypatch.setattr(suite, "build_mj", fake)
    got = _details(suite.module_battery(SuiteConfig(types=("A2",))), "module.rank")
    assert got == {
        "A2 J={}": ("pass", "rank=1 torsion=0"),
        "A2 J={1}": ("fail", "counterexample A2 J={1}: the V^J classes are not a basis"),
        "A2 J={2}": ("fail", "counterexample A2 J={2}: rank 3 != |V^J| = 2"),
        "A2 J={1,2}": ("pass", "rank=1 torsion=0"),
    }


def test_exactness_names_counterexample(monkeypatch, a2):
    """The first quasi-parabolic set that fails is named with its ring."""
    from specrep import suite, vjmod
    from specrep.jsets import quasi_parabolic_sets

    j = frozenset({0})
    sets = quasi_parabolic_sets(a2, j)
    bad = {sets[2].mask, sets[3].mask}

    def fake(rs, j_, mask, ring):
        if j_ == j and str(ring) == "F2" and mask in bad:
            return False
        return vjmod.restricted_exactness(rs, j_, mask, ring)

    monkeypatch.setattr(suite, "restricted_exactness", fake)
    got = _details(suite.exactness_battery(SuiteConfig(types=("A2",))), "module.exactness")
    want = f"counterexample A2 J={{1}}: not exact over F2 at D={list(sets[2].roots)}"
    assert got["A2 J={1} ring=F2"] == ("fail", want)
    assert got["A2 J={1} ring=F3"] == ("pass", f"{len(sets)} sets")


def test_oracle_dims_names_counterexample(monkeypatch):
    """A wrong invariant dimension and a failed basis check are both named."""
    import dataclasses

    from specrep import glnq, suite

    real = glnq.special_invariants

    def fake(model, j):
        rep = real(model, j)
        if j == frozenset():
            return dataclasses.replace(rep, dim=rep.dim + 1)
        return dataclasses.replace(rep, basis_ok=False)

    monkeypatch.setattr(glnq, "special_invariants", fake)
    got = _details(suite.oracle_battery(SuiteConfig(oracle_models=((2, 2),))),
                   "oracle.dims")
    assert got == {
        "n=2 q=2 J={}": ("fail", "counterexample A1 J={}: invariants dim 2 != |V^J| = 1"),
        "n=2 q=2 J={1}": ("fail", "counterexample A1 J={1}: the V^J cell classes are not a basis"),
    }


def test_oracle_ts_match_names_operator(monkeypatch):
    """A coset-sum T_2 with one entry changed is named as s=2."""
    from specrep import glnq, suite

    real = glnq.hecke_via_sum

    def fake(model, j, n_elt):
        out = real(model, j, n_elt)
        if n_elt == simple(model.rs, 1):
            out[0, 0] = (out[0, 0] + 1) % model.q
        return out

    monkeypatch.setattr(glnq, "hecke_via_sum", fake)
    got = _details(suite.oracle_battery(SuiteConfig(oracle_models=((3, 2),))),
                   "oracle.ts_match")
    assert got["n=3 q=2 J={}"] == (
        "fail", "counterexample A2 J={} s=2: coset-sum T_s != combinatorial T_s")


def test_oracle_brudec_names_identity(monkeypatch):
    """A trichotomy that always answers case (a) breaks the case-(a) cell
    identity at the first (w, s) that is really case (b)."""
    from specrep import hecke, suite
    from specrep.roots import root_system

    # nothing built while ts_case is broken may stay in A1's shared cache
    monkeypatch.setattr(root_system("A1"), "cache", {})
    monkeypatch.setattr(hecke, "ts_case", lambda rs, j, w, s: "a")
    got = _details(suite.oracle_battery(SuiteConfig(oracle_models=((2, 2),))),
                   "oracle.brudec")
    assert got["n=2 q=2 J={}"] == (
        "fail", "counterexample A1 J={} w=(1,2) s=1:"
                " case (a): u s U^w w P_J is not P w P_J, direct")



def test_trichotomy_walk_runs_once_per_j(monkeypatch, count_builds):
    """The p-independent case table is built once per (type, J), however
    many primes the battery checks and however many records read it."""
    from specrep import hecke, suite

    fresh = [_fresh(monkeypatch, t) for t in ("A2", "B2")]
    calls = count_builds(hecke, "case_table")
    records = suite.hecke_battery(SuiteConfig(types=("A2", "B2"), primes=(2, 3, 5)))
    assert {r["status"] for r in records} == {"pass"}
    assert calls == [(rs, j) for rs in fresh for j in all_j(rs.rank)]


def test_trichotomy_walk_failure_fails_every_prime(monkeypatch, count_builds):
    """A case-table build that fails is run once by the trichotomy walk, and
    every prime's trichotomy record of that J fails with the same detail,
    replayed: a build that fails only the first time still fails them all."""
    from specrep import hecke, suite
    from specrep.errors import CheckFailed

    rs = _fresh(monkeypatch, "A2")
    real = hecke.case_table.__wrapped__
    failing = {j for j in all_j(rs.rank) if len(enumerate_VJ(rs, j)) < len(enumerate_WJ(rs, j))}
    calls = []

    def broken_once(rs_, j):
        calls.append(j)
        if j in failing and calls.count(j) == 1:
            raise CheckFailed("action trichotomy violated")
        return real(rs_, j)

    count_builds(hecke, "case_table", broken_once)
    records = [r for r in suite.hecke_battery(SuiteConfig(types=("A2",), primes=(2, 3)))
               if r["check_id"] == "hecke.trichotomy"]
    assert len(records) == 2 * len(all_j(rs.rank))
    assert sorted(set(calls), key=sorted) == sorted(all_j(rs.rank), key=sorted)
    assert all(calls.count(j) == (2 if j in failing else 1) for j in calls)
    for r in records:
        if r["instance"].split(" p=")[0] in {f"A2 J={suite.jlabel(j)}" for j in failing}:
            assert (r["status"], r["detail"]) == ("fail", "CheckFailed: action trichotomy violated")
        else:
            assert r["status"] == "pass"
