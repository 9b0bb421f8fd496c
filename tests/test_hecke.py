"""Mod-p operators on the V^J basis: frozen matrices and verdict machinery."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specrep.chains import multiply as wmul
from specrep.chains import omega_group
from specrep.errors import CapExceeded, CheckFailed, NonPrimeCharacteristic
from specrep.hecke import (Monomial, check_indeco, check_simple, fingerprint_j,
                           omega_matrix, operator_set, recover_j, span_closure,
                           ts_case, ts_matrix)
from specrep import hecke
from specrep.chains import z_j
from specrep.roots import CartanType, RootSystem, root_system
from specrep.weyl import (all_j, enumerate_VJ, enumerate_WJ, flat, length, multiply,
                          simple, wj_table)

from coset_oracles import project
from hecke_oracles import case_by_projection, eigenspaces_by_descent
from line_scan import full_scan, line_reps

RANK3 = ["A1", "A2", "A3", "B2", "B3", "C3"]
SCAN_TYPES = RANK3
# every J of these is checked against the oracles of hecke_oracles.py
ORACLE_TYPES = RANK3 + ["A4", "B4", "C4", "D4", "A1xA1", "A1xA2", "A2xB2", "A1xB3"]


def test_frozen_a2_matrices(a2):
    """A2, J={1}: basis (s2, s1s2); integer entries hand-derived."""
    j = frozenset({0})
    t1 = ts_matrix(a2, j, 0, 3)
    t2 = ts_matrix(a2, j, 1, 3)
    assert t1.tolist() == [[0, 1], [0, 2]]   # = [[0,1],[0,-1]] mod 3
    assert t2.tolist() == [[2, 0], [0, 0]]   # = [[-1,0],[0,0]] mod 3
    assert ts_matrix(a2, j, 0, 2).tolist() == [[0, 1], [0, 1]]
    assert ts_matrix(a2, j, 1, 2).tolist() == [[1, 0], [0, 0]]


def test_ts_matrix_cached_read_only(count_builds):
    """One case table per (type, J) serves every s and p, and no caller can
    write into a T_s or an Omega matrix."""
    rs = RootSystem(CartanType.parse("B2"))  # fresh cache
    j = frozenset({0})
    calls = count_builds(hecke, "case_table")
    first = ts_matrix(rs, j, 1, 3)
    for p in (2, 3, 5):
        for s in range(rs.rank):
            ts_matrix(rs, j, s, p)
        assert check_indeco(rs, j, p) and check_simple(rs, j, p).is_simple
        assert ts_case(rs, j, enumerate_WJ(rs, j)[0], 0) in "abc"
    assert calls == [(rs, j)]
    with pytest.raises(ValueError):
        first[0, 0] = 1
    assert ts_matrix(rs, j, 1, 2).tolist() != first.tolist()
    with pytest.raises(ValueError):
        omega_matrix(rs, j, omega_group(rs)[-1], 3)[0, 0] = 1


@pytest.mark.parametrize("t", RANK3 + ["D4"])
def test_steinberg_operator(t):
    """J empty: one basis vector and every T_s acts as -1."""
    rs = root_system(t)
    for p in (2, 3):
        for s in range(rs.rank):
            m = ts_matrix(rs, frozenset(), s, p)
            assert m.tolist() == [[(-1) % p]]


def test_ts_case_requires_prime(a2):
    with pytest.raises(NonPrimeCharacteristic):
        ts_matrix(a2, frozenset(), 0, 6)


@pytest.mark.parametrize("t", RANK3)
def test_trichotomy_partition(t):
    """Cases a/b/c partition W^J x S and agree with raw length comparison."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        for w in enumerate_WJ(rs, j):
            for s in range(rs.rank):
                case = ts_case(rs, j, w, s)
                sw = multiply(simple(rs, s), w)
                v = project(rs, sw, j)
                if case == "a":
                    assert v == w
                elif case == "b":
                    assert v == sw and length(rs, v) > length(rs, w)
                else:
                    assert length(rs, v) < length(rs, w)


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_case_table_matches_projection(t):
    """The case table agrees on every (J, w, s) with the case read off the
    projection (sw)^J, and every T_s matrix row holds the entry that case
    gives it."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        vj = enumerate_VJ(rs, j)
        mats = [ts_matrix(rs, j, s, 5) for s in range(rs.rank)]
        for w in enumerate_WJ(rs, j):
            for s in range(rs.rank):
                case = case_by_projection(rs, j, w, s)
                assert ts_case(rs, j, w, s) == case, (t, j, w, s)
                if w in vj:
                    want = [0] * len(vj)
                    if case == "b":
                        want[vj.index(multiply(simple(rs, s), w))] = 1
                    elif case == "c":
                        want[vj.index(w)] = 4  # -1 mod 5
                    assert mats[s][vj.index(w)].tolist() == want
        v = np.arange(len(vj), dtype=np.int64) * 3 + 1  # v T_s by the index map
        for s in range(rs.rank):
            assert (hecke.ts_maps(rs, j)[s].apply(v, 5) == (v @ mats[s]) % 5).all()


@pytest.mark.parametrize("t", ORACLE_TYPES)
def test_class_merging_matches_descent(t):
    """The class-indicator bases of the joint eigenspaces are the bases the
    mod-p elimination descent finds, entry for entry, at p = 2, 3, 5."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        merged = [b.tolist() for b in hecke._joint_eigenspaces(rs, j)]
        for p in (2, 3, 5):
            descent = [b.tolist() for b in eigenspaces_by_descent(rs, j, p)]
            assert merged == descent, (t, j, p)


@pytest.mark.parametrize("t", RANK3)
@pytest.mark.parametrize("p", [2, 3])
def test_quadratic_relation(t, p):
    """T_s T_s = -T_s on every V^J basis."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        for s in range(rs.rank):
            m = ts_matrix(rs, j, s, p)
            assert ((m @ m) % p == (-m) % p).all()


@pytest.mark.parametrize("t", ["A3", "D4"])
def test_omega_product_law(t):
    """Row-vector action composes contravariantly: M(u)M(u') = M(u'u)."""
    rs = root_system(t)
    p = 3
    for j in (frozenset(), frozenset({0}), frozenset(range(rs.rank))):
        elts = omega_group(rs)
        mats = {u: omega_matrix(rs, j, u, p) for u in elts}
        for u in elts:
            for v in elts:
                prod = (mats[u] @ mats[v]) % p
                assert (prod == mats[wmul(v, u)]).all()


def test_omega_matrix_invertible(b3):
    p = 2
    for j in all_j(b3.rank):
        for u in omega_group(b3):
            m = omega_matrix(b3, j, u, p)
            from specrep.linalg import modp_rank
            assert modp_rank(m, p) == m.shape[0]


def test_omega_matrix_rejects_planted_singular_rows():
    """A non-invertible M(u) fails the check over Z, so at every prime."""
    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    j = frozenset({0})
    u = omega_group(rs)[1]
    rows = hecke._omega_rows(rs, j, u).copy()
    rows[0] = 0
    rs.cache[("_omega_rows", j, u)] = rows
    for p in (2, 3, 5, 7):
        with pytest.raises(CheckFailed, match="invertible"):
            omega_matrix(rs, j, u, p)


def test_omega_matrix_runs_no_modp_rank(monkeypatch):
    """Invertibility is one integer product per (J, u), not an elimination per p."""
    from specrep import linalg

    calls = []
    real = linalg.modp_rank
    monkeypatch.setattr(linalg, "modp_rank", lambda *a, **k: calls.append(a) or real(*a, **k))
    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    for j in all_j(rs.rank):
        for u in omega_group(rs):
            for p in (2, 3):
                omega_matrix(rs, j, u, p)
    assert calls == []


@pytest.mark.parametrize("t", RANK3 + ["D4"])
def test_fingerprints(t):
    """Descent sets of the z^J are pairwise distinct and invert to J."""
    rs = root_system(t)
    seen = set()
    for j in all_j(rs.rank):
        fp = fingerprint_j(rs, j)
        assert fp not in seen
        seen.add(fp)
        assert recover_j(rs, fp) == j


def test_line_reps_counts():
    for p, dim in ((2, 3), (3, 2), (5, 2)):
        reps = line_reps(dim, p)
        assert len(reps) == (p ** dim - 1) // (p - 1)
        arr = np.array(reps)
        # leading nonzero coefficient is 1 in every representative
        for row in arr:
            nz = row[row != 0]
            assert nz[0] == 1
        assert len({tuple(r) for r in reps}) == len(reps)


def test_span_closure_basics():
    # row-vector action: e1 @ op = e2, e2 @ op = 0
    ops = [np.array([[0, 1], [0, 0]])]
    assert span_closure([np.array([0, 1])], ops, 2, 2).rank == 1  # e2 is killed
    assert span_closure([np.array([1, 0])], ops, 2, 2).rank == 2  # e1 sweeps out everything


@pytest.mark.parametrize("t", SCAN_TYPES)
@pytest.mark.parametrize("p", [2, 3])
def test_indeco_battery(t, p):
    rs = root_system(t)
    for j in all_j(rs.rank):
        assert check_indeco(rs, j, p)


@pytest.mark.parametrize("t", SCAN_TYPES)
@pytest.mark.parametrize("p", [2, 3])
def test_simple_battery(t, p):
    rs = root_system(t)
    for j in all_j(rs.rank):
        rep = check_simple(rs, j, p)
        assert rep.zj_in_every_orbit and rep.generation_ok and rep.is_simple
        assert rep.counterexample is None
        assert rep.dim == len(enumerate_VJ(rs, j))


def test_simple_reuses_ts_scan(monkeypatch):
    """check_simple after check_indeco decides nothing again: more operators
    only enlarge orbit spans, so the T_s verdict carries over to T_s+Omega,
    and it is the same verdict at every prime."""
    rs = RootSystem(CartanType.parse("B2"))  # fresh cache
    j = frozenset({0})
    real = hecke._joint_eigenspaces
    certs, scans = [], []

    def spy(*args):
        certs.append(args[1:])
        return real(*args)

    monkeypatch.setattr(hecke, "_joint_eigenspaces", spy)
    monkeypatch.setattr(hecke, "_indeco_scan",
                        lambda *args: scans.append(args[1:]) or (True, None))
    assert check_indeco(rs, j, 3) and check_indeco(rs, j, 2)
    assert check_simple(rs, j, 3).is_simple
    assert check_simple(rs, j, 3, include_omega=False).zj_in_every_orbit
    assert certs == [(j,)] and scans == []  # one T_s verdict, no search
    # only a failed T_s verdict sends check_simple on to the T_s+Omega search
    monkeypatch.setattr(hecke, "_socle_certificate", lambda *args: (False, (0, 1, 0)))
    rep = check_simple(RootSystem(CartanType.parse("B2")), j, 3)
    assert scans == [(j, 3, True)] and rep.zj_in_every_orbit
    assert rep.counterexample is None


def _with_cases(monkeypatch, rs, j, edit):
    """case_table(rs, J) returns its real (ups, cases) with the case letters
    replaced by edit(cases); rs must be a fresh RootSystem."""
    real = hecke.case_table

    def fake(rs_, j_):
        ups, cases = real(rs_, j_)
        return (ups, edit(list(cases))) if (rs_, j_) == (rs, j) else (ups, cases)

    monkeypatch.setattr(hecke, "case_table", fake)


def _doubled(m: Monomial) -> Monomial:
    n = len(m.tgt)
    return Monomial(np.concatenate([m.tgt, m.tgt + n]), np.concatenate([m.coef, m.coef]))


def test_direct_sum_fails_with_scan_counterexample(monkeypatch):
    """M + M, with each monomial T_s map doubled, has two copies of the z^J
    eigenline: the certificate says no and names the second copy, whose
    T_s-span misses g_{z^J}.  With Omega doubled too, the eigenspace search
    and the full line scan say no."""
    rs = RootSystem(CartanType.parse("B2"))
    j = frozenset({0})
    p = 3
    vj = enumerate_VJ(rs, j)
    zi = vj.index(z_j(rs, j))
    assert hecke._socle_certificate(rs, j) == (True, None)
    maps = tuple(_doubled(m) for m in hecke.ts_maps(rs, j))
    hecke._check_zero_hecke(rs, maps)  # M + M is still a 0-Hecke module
    omega = {u: np.kron(np.eye(2, dtype=np.int64), omega_matrix(rs, j, u, p))
             for u in omega_group(rs)}
    monkeypatch.setattr(hecke, "ts_maps", lambda rs_, j_: maps)
    monkeypatch.setattr(hecke, "omega_matrix",
                        lambda rs_, j_, u, p_: omega[u])
    monkeypatch.setattr(hecke, "enumerate_VJ", lambda rs_, j_: vj + vj)
    del rs.cache[("_socle_certificate", j)]  # the verdict memoized for M
    ok, bad = hecke._socle_certificate(rs, j)
    assert not ok and bad == tuple(int(i == len(vj) + zi) for i in range(2 * len(vj)))
    target = np.zeros(2 * len(vj), dtype=np.int64)
    target[zi] = 1
    closure = span_closure([np.array(bad)], hecke.operator_set(rs, j, p), p, len(target))
    assert closure.append(target)  # g_{z^J} is outside
    scan_ok, scan_bad = full_scan(rs, j, p, False)
    assert not scan_ok and any(scan_bad)
    assert not check_indeco(rs, j, p)
    rep = check_simple(rs, j, p, include_omega=False)
    assert not rep.zj_in_every_orbit and rep.counterexample == bad
    ok, bad = hecke._indeco_scan(rs, j, p, True)
    assert not ok and not full_scan(rs, j, p, True)[0]
    assert check_simple(rs, j, p).counterexample == bad
    # the z^J eigenspace is 2-dimensional: 3^2 vectors
    monkeypatch.setattr(hecke, "LINE_CAP", 8)
    with pytest.raises(CapExceeded, match="line cap"):
        hecke._indeco_scan(rs, j, p, True)


def test_socle_line_off_g_zj_fails(monkeypatch):
    """Relabelled T_s (rows permuted so that g_{z^J} and g_k swap) still
    define a 0-Hecke module, but its socle line is g_k: the certificate
    fails and names that line, and the full line scan agrees."""
    rs = RootSystem(CartanType.parse("B2"))
    j = frozenset({0})
    p = 3
    vj = enumerate_VJ(rs, j)
    zi = vj.index(z_j(rs, j))
    k = (zi + 1) % len(vj)
    perm = np.arange(len(vj))
    perm[[zi, k]] = perm[[k, zi]]
    maps = tuple(Monomial(perm[m.tgt][perm], m.coef[perm]) for m in hecke.ts_maps(rs, j))
    hecke._check_zero_hecke(rs, maps)
    monkeypatch.setattr(hecke, "ts_maps", lambda rs_, j_: maps)
    line = tuple(int(i == k) for i in range(len(vj)))
    assert hecke._socle_certificate(rs, j) == (False, line)
    assert not full_scan(rs, j, p, False)[0]


def test_quadratic_relation_premise(monkeypatch):
    """One corrupted monomial entry (a case (c) row of T_1 read as case (a),
    so its coefficient -1 becomes 0) breaks T_s^2 = -T_s: an error, not a
    verdict, in every Hecke record of that J."""
    from specrep import roots
    from specrep.suite import SuiteConfig, hecke_battery

    rs = RootSystem(CartanType.parse("A2"))
    monkeypatch.setitem(roots._SYSTEMS, rs.ct, rs)
    j = frozenset({0})
    assert hecke.case_table(rs, j)[1][0] == "abc"
    _with_cases(monkeypatch, rs, j, lambda cases: ["aba"] + cases[1:])
    with pytest.raises(CheckFailed, match="T_s\\^2 != -T_s for s=1"):
        hecke._socle_certificate(rs, j)
    recs = {(r["check_id"], r["instance"]): r
            for r in hecke_battery(SuiteConfig(types=("A2",), primes=(3,)))}
    for cid in ("hecke.trichotomy", "hecke.indeco", "hecke.simple"):
        rec = recs[(cid, "A2 J={1} p=3")]
        assert rec["status"] == "fail" and rec["detail"].startswith("CheckFailed: T_s^2")
    assert recs[("hecke.indeco", "A2 J={} p=3")]["status"] == "pass"


def test_braid_relation_premise(monkeypatch):
    """T_2 = diag(-1, 0) on A2 J={1} replaced by diag(0, -1) still squares
    to -T_2, but T_1 T_2 T_1 != T_2 T_1 T_2: an error, not a verdict."""
    rs = RootSystem(CartanType.parse("A2"))
    j = frozenset({0})
    assert hecke.case_table(rs, j)[1][1] == "bca"
    _with_cases(monkeypatch, rs, j, lambda cases: [cases[0], "bac"] + cases[2:])
    with pytest.raises(CheckFailed, match="braid relation of length 3"):
        check_indeco(rs, j, 3)
    with pytest.raises(CheckFailed, match="braid"):
        check_simple(rs, j, 3)


def _spelled(w):
    """A counterexample's element as the messages print it: (1,2,3)."""
    return "(" + ",".join(map(str, flat(w))) + ")"


def _redirect(rs, j, s, w, x):
    """The left product s_s w in W^J's table gives x (None: s_s w leaves
    W^J); every other product is the real one.  rs has its own tables."""
    table = wj_table(rs, j)
    table.lmul[s][table.index[w]] = -1 if x is None else table.index[x]


def test_case_b_target_premise():
    """A product sw redirected to a longer element of W^J that is not a
    case (c) row of s: the table build fails and names type, J, w and s."""
    rs = RootSystem(CartanType.parse("A2"))
    j = frozenset({0})
    wj = enumerate_WJ(rs, j)
    w, s, x = wj[0], 1, wj[2]  # s_2 * 1 = s_2 is case (b); s_1 s_2 is case (a) for s_2
    assert [case_by_projection(rs, j, v, s) for v in wj] == ["b", "c", "a"]
    _redirect(rs, j, s, w, x)
    with pytest.raises(CheckFailed, match=re.escape(
            f"A2 J={{1}} w={_spelled(w)} s=2: case (b) target is not a case (c) row")):
        hecke.case_table(rs, j)


def test_trichotomy_premise():
    """s_2 s_1 redirected to s_2, an element of W^J = W of the same length
    as s_1: no case holds, and the table build names w and s."""
    rs = RootSystem(CartanType.parse("A2"))
    j = frozenset()
    w, x = simple(rs, 0), simple(rs, 1)
    _redirect(rs, j, 1, w, x)
    with pytest.raises(CheckFailed, match=re.escape(
            f"A2 J={{}} w={_spelled(w)} s=2: action trichotomy violated")):
        hecke.case_table(rs, j)


def test_case_b_keeps_vj_premise():
    """A product s w, w in V^J, redirected to a longer element of W^J
    outside V^J: the table build fails on the V^J premise of case (b)."""
    rs = RootSystem(CartanType.parse("A3"))
    j = frozenset({0})
    vj, wj = enumerate_VJ(rs, j), enumerate_WJ(rs, j)
    w, x = next((w, x) for w in vj for x in wj
                if x not in vj and length(rs, x) > length(rs, w))
    _redirect(rs, j, 0, w, x)
    with pytest.raises(CheckFailed, match=re.escape(
            f"A3 J={{1}} w={_spelled(w)} s=1: case (b) must preserve V^J")):
        hecke.case_table(rs, j)


def test_merge_conditions():
    """x_0 = x_1 merges two rows into the class of row 0, x_0 = 0 kills the
    class of row 0, and a condition x_0 + x_1 = 0 (a merge only at p = 2) is
    a CheckFailed, never a p-dependent answer."""
    fixed = Monomial(np.array([1, 1]), np.array([1, -1]))  # g_0 -> g_1, g_1 -> -g_1
    assert hecke._merge([0, 1], fixed, 0) == [0, 0]        # v T = 0: x_1 = x_0
    assert hecke._merge([0, 1], fixed, 1) == [-1, 1]       # v T = -v: x_0 = 0
    signed = Monomial(np.array([1, 1]), np.array([-1, -1]))
    assert signed.then(signed) == Monomial(signed.tgt, -signed.coef)  # still T^2 = -T
    with pytest.raises(CheckFailed, match="eigenvector condition at row 1"):
        hecke._merge([0, 1], signed, 0)


def test_socle_certificate_line_test(monkeypatch):
    """An eigenvector that touches g_{z^J} but is not on its line, such as
    g_{z^J} + g_k, fails the certificate and is named; no eigenvector at
    all is a CheckFailed."""
    rs = RootSystem(CartanType.parse("B2"))
    j = frozenset({0})
    vj = enumerate_VJ(rs, j)
    zi = vj.index(z_j(rs, j))
    v = np.zeros(len(vj), dtype=np.int64)
    v[[zi, (zi + 1) % len(vj)]] = 1
    monkeypatch.setattr(hecke, "_joint_eigenspaces", lambda rs_, j_: [v[None, :]])
    assert hecke._socle_certificate(rs, j) == (False, tuple(int(x) for x in v))
    monkeypatch.setattr(hecke, "_joint_eigenspaces", lambda rs_, j_: [])
    with pytest.raises(CheckFailed, match="off the g_\\{z\\^J\\} line"):
        hecke._socle_certificate(RootSystem(CartanType.parse("B2")), j)


def test_deodhar_premise():
    """A product sw reported as leaving W^J although w^-1 sw = s_2 is not a
    simple reflection of J breaks Deodhar's lemma: the table build fails
    and names w and s."""
    rs = RootSystem(CartanType.parse("A2"))
    j = frozenset({0})
    w = rs.identity  # s_2 * 1 = s_2 lies in W^J
    _redirect(rs, j, 1, w, None)
    with pytest.raises(CheckFailed, match=re.escape(
            f"A2 J={{1}} w={_spelled(w)} s=2: sw leaves W^J but w^-1 sw")):
        hecke.case_table(rs, j)


@pytest.mark.parametrize("t", ["A2", "A3", "B2"])
def test_omega_scan_agrees(t):
    """The T_s+Omega eigenspace search, which check_simple runs only after a
    failed T_s verdict, equals the full T_s+Omega line scan."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        for p in (2, 3):
            assert hecke._indeco_scan(rs, j, p, True) == full_scan(rs, j, p, True) \
                == (True, None)


def test_negative_control(a2):
    """Without the Omega operators the A2, J={1} module is visibly smaller."""
    rep = check_simple(a2, frozenset({0}), 2, include_omega=False)
    assert rep.zj_in_every_orbit
    assert not rep.generation_ok
    assert not rep.is_simple


def test_large_d4_is_decided(d4):
    """D4 J={1,3,4} has 3^23 vectors; the certificate needs no line scan."""
    j = frozenset({0, 2, 3})
    assert len(enumerate_VJ(d4, j)) == 23
    for p in (2, 3):
        assert check_indeco(d4, j, p)
        assert check_simple(d4, j, p).is_simple


def test_int64_overflow_is_capped(a2, b2):
    """At dim 3 and p = 2^31 - 1 the dense Omega products of check_simple
    would overflow int64, so it is a capacity miss, not a verdict; at dim 2
    they still fit.  The p-free T_s verdict of check_indeco is exact."""
    p = (1 << 31) - 1
    assert check_indeco(b2, frozenset({0}), p)
    with pytest.raises(CapExceeded, match="overflow"):
        check_simple(b2, frozenset({0}), p)
    assert check_simple(b2, frozenset({0}), p, include_omega=False).zj_in_every_orbit
    assert check_indeco(a2, frozenset({0}), p)
    assert check_simple(a2, frozenset({0}), p).is_simple


def test_operator_set_contents(b2):
    j = frozenset({0})
    ops = operator_set(b2, j, 2)
    assert len(ops) == b2.rank
    ops_full = operator_set(b2, j, 2, include_omega=True)
    assert len(ops_full) == b2.rank + len(omega_group(b2)) - 1


def test_check_simple_leaves_numpy_ma_unloaded():
    """Plain np.unique imports numpy.ma on first use; the joint eigenspaces
    of check_simple take their class labels without it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys\n"
            "from specrep.hecke import check_simple\n"
            "from specrep.roots import root_system\n"
            "assert check_simple(root_system('B3'), frozenset({0}), 3).is_simple\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
