"""Mod-p operators on the V^J basis: frozen matrices and verdict machinery."""

import numpy as np
import pytest

from specrep.chains import multiply as wmul
from specrep.chains import omega_group
from specrep.errors import CapExceeded, NonPrimeCharacteristic
from specrep.hecke import (check_indeco, check_simple, fingerprint_j,
                           omega_matrix, operator_set, recover_j, span_closure,
                           ts_case, ts_matrix)
from specrep import hecke
from specrep.chains import z_j
from specrep.roots import CartanType, RootSystem, root_system
from specrep.weyl import (all_j, enumerate_VJ, enumerate_WJ, length, multiply, project,
                          simple)

from line_scan import full_scan, line_reps

RANK3 = ["A1", "A2", "A3", "B2", "B3", "C3"]
SCAN_TYPES = RANK3


def test_frozen_a2_matrices(a2):
    """A2, J={1}: basis (s2, s1s2); integer entries hand-derived."""
    j = frozenset({0})
    t1 = ts_matrix(a2, j, 0, 3).mat
    t2 = ts_matrix(a2, j, 1, 3).mat
    assert t1.tolist() == [[0, 1], [0, 2]]   # = [[0,1],[0,-1]] mod 3
    assert t2.tolist() == [[2, 0], [0, 0]]   # = [[-1,0],[0,0]] mod 3
    assert ts_matrix(a2, j, 0, 2).mat.tolist() == [[0, 1], [0, 1]]
    assert ts_matrix(a2, j, 1, 2).mat.tolist() == [[1, 0], [0, 0]]


def test_ts_matrix_cached_read_only(monkeypatch):
    """Each (J, s, p) is built once, and no caller can write into it."""
    rs = RootSystem(CartanType.parse("B2"))  # fresh cache
    j = frozenset({0})
    real = hecke.ts_case
    calls = []
    monkeypatch.setattr(hecke, "ts_case",
                        lambda *args: calls.append(args[2:]) or real(*args))
    first = ts_matrix(rs, j, 1, 3)
    assert ts_matrix(rs, j, 1, 3) is first
    assert check_indeco(rs, j, 3) and check_simple(rs, j, 3).is_simple
    assert len(calls) == rs.rank * len(enumerate_VJ(rs, j))  # one build per s
    with pytest.raises(ValueError):
        first.mat[0, 0] = 1
    assert ts_matrix(rs, j, 1, 2).mat.tolist() != first.mat.tolist()


@pytest.mark.parametrize("t", RANK3 + ["D4"])
def test_steinberg_operator(t):
    """J empty: one basis vector and every T_s acts as -1."""
    rs = root_system(t)
    for p in (2, 3):
        for s in range(rs.rank):
            m = ts_matrix(rs, frozenset(), s, p).mat
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


@pytest.mark.parametrize("t", RANK3)
@pytest.mark.parametrize("p", [2, 3])
def test_quadratic_relation(t, p):
    """T_s T_s = -T_s on every V^J basis."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        for s in range(rs.rank):
            m = ts_matrix(rs, j, s, p).mat
            assert ((m @ m) % p == (-m) % p).all()


@pytest.mark.parametrize("t", ["A3", "D4"])
def test_omega_product_law(t):
    """Row-vector action composes contravariantly: M(u)M(u') = M(u'u)."""
    rs = root_system(t)
    p = 3
    for j in (frozenset(), frozenset({0}), frozenset(range(rs.rank))):
        elts = omega_group(rs)
        mats = {u: omega_matrix(rs, j, u, p).mat for u in elts}
        for u in elts:
            for v in elts:
                prod = (mats[u] @ mats[v]) % p
                assert (prod == mats[wmul(v, u)]).all()


def test_omega_matrix_invertible(b3):
    p = 2
    for j in all_j(b3.rank):
        for u in omega_group(b3):
            m = omega_matrix(b3, j, u, p).mat
            from specrep.linalg import modp_rank
            assert modp_rank(m, p) == m.shape[0]


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
    basis, _ = span_closure([np.array([0, 1])], ops, 2, 2)
    assert len(basis) == 1  # e2 is killed by the nilpotent op
    basis, _ = span_closure([np.array([1, 0])], ops, 2, 2)
    assert len(basis) == 2  # e1 sweeps out everything


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
    only enlarge orbit spans, so the T_s verdict carries over to T_s+Omega."""
    rs = RootSystem(CartanType.parse("B2"))  # fresh cache
    j = frozenset({0})
    real = hecke._socle_certificate
    certs, scans = [], []

    def spy(*args):
        certs.append(args[1:])
        return real(*args)

    monkeypatch.setattr(hecke, "_socle_certificate", spy)
    monkeypatch.setattr(hecke, "_indeco_scan",
                        lambda *args: scans.append(args[1:]) or (True, None))
    assert check_indeco(rs, j, 3)
    assert check_simple(rs, j, 3).is_simple
    assert check_simple(rs, j, 3, include_omega=False).zj_in_every_orbit
    assert certs == [(j, 3)] and scans == []  # one T_s verdict, no search
    # only a failed T_s verdict sends check_simple on to the T_s+Omega search
    monkeypatch.setattr(hecke, "_socle_certificate", lambda *args: (False, (0, 1, 0)))
    rep = check_simple(RootSystem(CartanType.parse("B2")), j, 3)
    assert scans == [(j, 3, True)] and rep.zj_in_every_orbit
    assert rep.counterexample is None


def _tamper(monkeypatch, rs, j, p, edit):
    """operator_set at (J, p) returns edit(its real operators)."""
    real = hecke.operator_set
    ops = {flag: real(rs, j, p, flag) for flag in (False, True)}

    def fake(rs_, j_, p_, include_omega=False):
        if (rs_, j_, p_) == (rs, j, p):
            return edit(ops[include_omega])
        return real(rs_, j_, p_, include_omega)

    monkeypatch.setattr(hecke, "operator_set", fake)


def test_direct_sum_fails_with_scan_counterexample(monkeypatch):
    """M + M has two copies of the z^J eigenline: the certificate says no and
    names a joint eigenvector whose T_s-span misses g_{z^J}.  With Omega
    doubled too, the eigenspace search and the full line scan say no."""
    rs = RootSystem(CartanType.parse("B2"))
    j = frozenset({0})
    p = 3
    vj = enumerate_VJ(rs, j)
    assert hecke._socle_certificate(rs, j, p) == (True, None)
    _tamper(monkeypatch, rs, j, p,
            lambda ops: [np.kron(np.eye(2, dtype=np.int64), m) for m in ops])
    monkeypatch.setattr(hecke, "enumerate_VJ", lambda rs_, j_: vj + vj)
    ok, bad = hecke._socle_certificate(rs, j, p)
    assert not ok and any(bad)
    target = np.zeros(2 * len(vj), dtype=np.int64)
    target[vj.index(z_j(rs, j))] = 1
    basis, pivots = span_closure([np.array(bad)], hecke.operator_set(rs, j, p),
                                 p, len(target))
    assert hecke._echelon_append(basis, pivots, target, p)  # g_{z^J} is outside
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
    """Conjugated T_s still define a 0-Hecke module, but its socle line is
    g_{z^J} + g_k: the certificate fails and names that line."""
    rs = RootSystem(CartanType.parse("B2"))
    j = frozenset({0})
    p = 3
    vj = enumerate_VJ(rs, j)
    zi = vj.index(z_j(rs, j))
    k = (zi + 1) % len(vj)
    shear = np.eye(len(vj), dtype=np.int64)
    shear[zi, k] = 1
    unshear = 2 * np.eye(len(vj), dtype=np.int64) - shear  # its inverse
    _tamper(monkeypatch, rs, j, p,
            lambda ops: [(unshear @ m @ shear) % p for m in ops])
    line = tuple(int(i in (zi, k)) for i in range(len(vj)))
    assert hecke._socle_certificate(rs, j, p) == (False, line)
    assert not full_scan(rs, j, p, False)[0]


def test_quadratic_relation_premise(monkeypatch):
    """T_1 = identity breaks T_s^2 = -T_s mod 3: an error, not a verdict."""
    from specrep.errors import CheckFailed
    from specrep.suite import SuiteConfig, hecke_battery

    rs = root_system("A2")
    j = frozenset({0})
    _tamper(monkeypatch, rs, j, 3,
            lambda ops: [np.eye(len(ops[0]), dtype=np.int64)] + ops[1:])
    with pytest.raises(CheckFailed, match="T_s\\^2"):
        hecke._socle_certificate(rs, j, 3)
    # drop a verdict that earlier tests memoized on the shared A2 system
    monkeypatch.delitem(rs.cache, ("indeco", j, 3), raising=False)
    recs = {(r["check_id"], r["instance"]): r
            for r in hecke_battery(SuiteConfig(types=("A2",), primes=(3,)))}
    for cid in ("hecke.indeco", "hecke.simple"):
        rec = recs[(cid, "A2 J={1} p=3")]
        assert rec["status"] == "fail" and rec["detail"].startswith("CheckFailed")


def test_braid_relation_premise(monkeypatch):
    """T_2 replaced by the transpose of T_1 still squares to -T_2, but
    T_1 T_2 T_1 != T_2 T_1 T_2: an error, not a verdict."""
    from specrep.errors import CheckFailed

    rs = RootSystem(CartanType.parse("A2"))
    j = frozenset({0})
    t1 = ts_matrix(rs, j, 0, 3).mat
    assert ((t1.T @ t1.T) % 3 == (-t1.T) % 3).all()
    _tamper(monkeypatch, rs, j, 3, lambda ops: [ops[0], ops[0].T] + ops[2:])
    with pytest.raises(CheckFailed, match="braid relation of length 3"):
        check_indeco(rs, j, 3)
    with pytest.raises(CheckFailed, match="braid"):
        check_simple(rs, j, 3)


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
    """At dim 3 and p = 2^31 - 1 the int64 matrix products would overflow,
    so it is a capacity miss, not a verdict; at dim 2 they still fit."""
    p = (1 << 31) - 1
    with pytest.raises(CapExceeded, match="overflow"):
        check_indeco(b2, frozenset({0}), p)
    with pytest.raises(CapExceeded, match="overflow"):
        check_simple(b2, frozenset({0}), p)
    assert check_indeco(a2, frozenset({0}), p)


def test_operator_set_contents(b2):
    j = frozenset({0})
    ops = operator_set(b2, j, 2)
    assert len(ops) == b2.rank
    ops_full = operator_set(b2, j, 2, include_omega=True)
    assert len(ops_full) == b2.rank + len(omega_group(b2)) - 1
