"""Exact linear algebra against sympy and hand-checked examples."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from integer_kernel import integer_kernel
from specrep.errors import NonPrimeCharacteristic
from specrep.linalg import (P_BOUND, Echelon, check_prime, is_prime, modp_nullspace,
                            modp_rank, rank_z, snf_invariants, solve)

LARGEST_PRIME = P_BOUND - 1  # a Mersenne prime, the largest p accepted


def sympy_snf(mat):
    from sympy.matrices.normalforms import smith_normal_form
    s = smith_normal_form(sympy.Matrix(mat.tolist()))
    diag = [abs(s[i, i]) for i in range(min(s.shape)) if s[i, i] != 0]
    return sorted(diag, key=abs)


small_mats = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in [-2, 0, 1, 4, 6, 9, 15, 91])
    assert is_prime(LARGEST_PRIME)
    assert check_prime(LARGEST_PRIME) == LARGEST_PRIME
    with pytest.raises(NonPrimeCharacteristic):
        check_prime(6)
    # primes at or above 2^31 are refused before any trial division
    for p in (4294967311, 1000000000000000003):
        with pytest.raises(NonPrimeCharacteristic):
            check_prime(p)


def test_large_prime_rejected():
    """int64 residues would overflow: the true rank here is 1, not 2."""
    p = 4294967311
    with pytest.raises(NonPrimeCharacteristic):
        modp_rank([[1, p - 1], [p - 1, 1]], p)
    with pytest.raises(NonPrimeCharacteristic):
        Echelon(2, p)


def _gf(mat, p):
    """The matrix over sympy's GF(p)."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    mat = np.asarray(mat).tolist()
    return DomainMatrix([[GF(p)(x) for x in row] for row in mat],
                        (len(mat), len(mat[0])), GF(p))


def _residues(dm, p):
    """A GF(p) DomainMatrix as int64 residues in [0, p)."""
    return np.array([[int(x) % p for x in row] for row in dm.to_list()],
                    dtype=np.int64).reshape(dm.shape)


@settings(max_examples=60, deadline=None)
@given(small_mats, st.sampled_from([2, 3, LARGEST_PRIME]))
def test_modp_rank_matches_sympy(rows, p):
    # entries near p stress the int64 products at the top of the range
    big = [[(x * (p // 7 + 1)) % p for x in row] for row in rows]
    for mat in (rows, big):
        assert modp_rank(mat, p) == _gf(mat, p).rank()


def test_snf_hand_examples():
    assert snf_invariants(np.array([[2, 0], [0, 3]])) == [1, 6]
    assert snf_invariants(np.array([[2, 4], [6, 8]])) == [2, 4]
    assert snf_invariants(np.zeros((2, 3), dtype=np.int64)) == []
    assert snf_invariants(np.array([[6]])) == [6]
    # the leftover row [2, 2] is cleared by the pivot found after it
    assert snf_invariants([[2, 2], [1, 1]]) == [1]


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_snf_matches_sympy(rows):
    mat = np.array(rows, dtype=np.int64)
    assert snf_invariants(mat) == sympy_snf(mat)


# no entry +-1, so every nonzero example goes through the leftover Smith step
no_unit_mats = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9]),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(no_unit_mats)
def test_snf_without_unit_entries_matches_sympy(rows):
    mat = np.array(rows, dtype=np.int64)
    assert snf_invariants(mat) == sympy_snf(mat)


def test_snf_divisibility_repair():
    """Pivots whose row and column are clear but that do not divide the
    rest: the divisibility step must merge them."""
    assert snf_invariants([[4, 0], [0, 6]]) == [2, 12]
    assert snf_invariants([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == [1, 1, 30]


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_rank_matches_sympy(rows):
    mat = np.array(rows, dtype=np.int64)
    assert rank_z(mat) == sympy.Matrix(rows).rank()


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_integer_kernel(rows):
    mat = np.array(rows, dtype=np.int64)
    ker = integer_kernel(mat)  # kernel vectors are columns
    assert ker.shape[1] == mat.shape[1] - rank_z(mat)
    if ker.size:
        assert not (mat @ ker).any()


@settings(max_examples=60, deadline=None)
@given(small_mats, st.sampled_from([2, 3, 5, 7]))
def test_modp_rref_properties(rows, p):
    """Rows appended one at a time give the RREF of sympy's GF(p) DomainMatrix:
    a 1 in each pivot column, 0 in the other pivot columns and left of the pivot."""
    ech = Echelon(len(rows[0]), p)
    for row in rows:
        ech.append(row)
    red, piv = ech.rref()
    assert (red[:, piv] == np.eye(len(piv), dtype=np.int64)).all()
    for k, c in enumerate(piv):
        assert not red[k, :c].any()
    want, want_piv = _gf(rows, p).rref()
    assert piv == list(want_piv)
    assert (red == _residues(want, p)[:len(piv)]).all()
    assert modp_rank(rows, p) == ech.rank <= rank_z(np.array(rows))


@settings(max_examples=60, deadline=None)
@given(small_mats, st.sampled_from([2, 3, 5, 7]))
def test_modp_nullspace(rows, p):
    mat = np.array(rows, dtype=np.int64)
    ns, free = modp_nullspace(mat, p)
    want = _residues(_gf(rows, p).nullspace(), p)
    assert ns.shape[0] == mat.shape[1] - modp_rank(mat, p) == want.shape[0]
    assert (ns[:, free] == np.eye(len(free), dtype=np.int64)).all()
    if ns.size:  # the same space: sympy's rows are combinations of ours
        assert not ((mat @ ns.T) % p).any()
        assert ((want[:, free] @ ns - want) % p == 0).all()
    assert modp_rank(ns, p) == ns.shape[0]


@settings(max_examples=60, deadline=None)
@given(small_mats, st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.sampled_from([2, 3, 5, 7]))
def test_solve_matches_sympy(rows, rhs, p):
    """solve sets the free unknowns to 0, so its solution is the last
    column of sympy's RREF of [a | b] on the pivots, when one exists."""
    a = np.array(rows, dtype=np.int64)
    b = np.array(rhs[:len(rows)], dtype=np.int64)[:, None]
    x = solve(a, b, p)
    red, piv = _gf(np.hstack([a, b]), p).rref()
    n = a.shape[1]
    if piv and piv[-1] == n:
        assert x is None
    else:
        want = np.zeros((n, 1), dtype=np.int64)
        want[list(piv)] = _residues(red, p)[:len(piv), n:]
        assert (x == want).all()
        assert not ((a @ x - b) % p).any()


def test_modp_solve():
    a = np.array([[1, 2], [3, 4]])
    b = np.array([[1], [0]])
    x = solve(a, b, 5)
    assert ((a @ x - b) % 5 == 0).all()
    # inconsistent system mod 2: [1 1 | 0] with target parity 1
    bad = solve(np.array([[1, 1], [1, 1]]), np.array([[0], [1]]), 2)
    assert bad is None
    # several right-hand sides at once, one column per system
    x = solve(np.array([[2, 0], [0, 4]]), np.array([[1, 2], [1, 0]]), 7)
    assert x.tolist() == [[4, 1], [2, 0]]


def _python_rref(rows, p):
    """Gauss-Jordan on Python ints mod p: (nonzero rows, pivot columns)."""
    rows, piv = [[x % p for x in r] for r in rows], []
    for c in range(len(rows[0])):
        r = len(piv)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = [x * pow(rows[r][c], p - 2, p) % p for x in rows[r]]
        rows = [top if i == r else [(x - row[c] * y) % p for x, y in zip(row, top)]
                for i, row in enumerate(rows)]
        piv.append(c)
    return rows[:len(piv)], piv


def test_echelon_exact_at_largest_prime():
    """At p = 2^31 - 1 one chunk holds 2 rows, because (p-1)^2 is just
    below 2^62; entries p - 1 make every term of the reduction maximal, and
    eight independent rows reduce the later ones over several chunks."""
    p = LARGEST_PRIME
    rng = np.random.default_rng(31)
    mat = np.where(rng.random((10, 12)) < 0.5, p - 1,
                   rng.integers(p - 9, p, size=(10, 12)))
    mat[8] = (mat[0] + mat[1]) % p  # two dependent rows past the chunk size
    mat[9] = (3 * mat[2] + mat[7]) % p
    assert Echelon(12, p)._chunk == 2
    ech = Echelon(12, p)
    indep = [ech.append(row) for row in mat]
    red, piv = _python_rref(mat.tolist(), p)
    assert indep == 8 * [True] + [False, False]
    assert ech.rref()[1] == piv and ech.rref()[0].tolist() == red
    assert modp_rank(mat, p) == 8
    ns, free = modp_nullspace(mat, p)
    assert [[int(x) for x in row] for row in ns] == [
        [1 if c == f else 0 if c in free else -red[piv.index(c)][f] % p for c in range(12)]
        for f in free]
    x = solve(mat.T, mat[8][:, None], p)
    assert x[:, 0].tolist() == [1, 1] + 8 * [0]


def test_snf_divisibility_chain():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = rng.integers(-20, 20, size=(4, 5))
        inv = snf_invariants(mat)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


sparse_unit_mats = st.integers(1, 10).flatmap(
    lambda r: st.integers(1, 14).flatmap(
        lambda c: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2]), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(sparse_unit_mats)
def test_snf_unit_pivots_match_sympy(rows):
    """Long runs of +-1 pivots with row and column swaps, plus a leftover
    block for the classic elimination when 2s survive."""
    mat = np.array(rows, dtype=np.int64)
    assert snf_invariants(mat) == sympy_snf(mat)
    assert (mat == np.array(rows)).all()  # the input is not modified


near_bound_mats = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(st.sampled_from([0, 1, -1]),
                               st.integers((1 << 30) - 9, 1 << 30),
                               st.integers(-(1 << 30), 9 - (1 << 30))),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(near_bound_mats)
def test_snf_promotion_matches_sympy(rows):
    """Entries within the int64 budget whose updates leave it: the rows
    hold Python ints, so no update wraps."""
    mat = np.array(rows, dtype=np.int64)
    assert snf_invariants(mat) == sympy_snf(mat)


def test_snf_promotes_partway():
    big = 1 << 30
    # the first unit pivot turns the corner into 1 - 2^60
    assert snf_invariants(np.array([[1, big], [big, 1]])) == [1, big * big - 1]
    # 2^60 - 1 is odd, so the leftover 2 merges with it
    assert snf_invariants([[1, big, 0], [big, 1, 0], [0, 0, 2]]) == [1, 1, 2 * (big * big - 1)]


def test_snf_b4_boundary_frozen():
    """B4, J = {}: rank 384 - |V^J| over Z, cokernel free."""
    from module_oracles import dense_boundary
    from specrep.roots import root_system
    from specrep.weyl import enumerate_VJ

    rs = root_system("B4")
    d = dense_boundary(rs, frozenset())
    assert d.shape == (384, 768)
    assert len(enumerate_VJ(rs, frozenset())) == 1
    assert snf_invariants(d) == 383 * [1]


def test_echelon_stops_at_full_rank(monkeypatch):
    """The F_3 stacks of the GL_3(F_3) oracle (nullspaces, solves, ranks)
    give the same echelon when _echelon stops at full rank as when every
    row is appended, with no more appends; a tall stack whose first rows
    already span everything takes only those rows."""
    from specrep import glnq, linalg
    from specrep.weyl import all_j

    stacks, appends = [], []
    real_echelon, real_append = linalg._echelon, Echelon.append
    monkeypatch.setattr(linalg, "_echelon",
                        lambda mat, p: stacks.append((np.array(mat), p)) or real_echelon(mat, p))
    model = glnq.build_model(3, 3)
    for j in all_j(model.rs.rank):
        assert glnq.special_invariants(model, j).basis_ok
        assert all(glnq.certify_ts(model, j).values())
    monkeypatch.undo()
    monkeypatch.setattr(Echelon, "append",
                        lambda self, vec: appends.append(1) or real_append(self, vec))
    tall = np.vstack([np.eye(4, dtype=np.int64), np.arange(144).reshape(36, 4) % 3])
    for mat, p in stacks + [(tall, 3)]:
        full = Echelon(mat.shape[1], p)
        for row in mat:
            real_append(full, row)
        before = len(appends)
        ech = linalg._echelon(mat, p)
        assert ech.rank == full.rank and len(appends) - before <= len(mat)
        (red, piv), (want, want_piv) = ech.rref(), full.rref()
        assert piv == want_piv and (red == want).all()
    assert len(stacks) == 20 and len(appends) - before == 4
