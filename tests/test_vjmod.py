"""Module construction: boundary, normal form, sigma vectors, exactness."""

import functools
import json
import os
import re

import numpy as np
import pytest

from coset_oracles import phi_j_mask
from integer_kernel import integer_kernel
from module_oracles import (boundary_fiber, boundary_labels, dense_boundary, densify,
                            dual_boundary_component, normal_form, sigma_vector)
from specrep.errors import BadAlpha, CheckFailed, NotQuasiParabolic, SpecrepError
from specrep.jsets import mask_array, phi_j_masks, quasi_parabolic_sets
from specrep.roots import root_system
from specrep.suite import DEFAULT_TYPES
from specrep import cli, vjmod
from specrep.vjmod import (Ring, boundary_columns, build_mj,
                           normal_form_matrix, restricted_exactness)
from specrep.weyl import all_j, enumerate_VJ, enumerate_WJ, flat, subgroup


def test_ring_parse():
    assert Ring.parse("Z").kind == "Z"
    assert Ring.parse("q").kind == "Q"
    r = Ring.parse("F5")
    assert (r.kind, r.p) == ("Fp", 5)
    assert str(r) == "F5"
    with pytest.raises(SpecrepError):
        Ring.parse("R")
    with pytest.raises(SpecrepError):
        Ring.parse("F6")


def test_boundary_fiber_alpha_validation(a2):
    """A bad alpha is named 1-based, with the type and J."""
    for alpha, label in ((0, "1"), (2, "3"), (-1, "0")):
        with pytest.raises(BadAlpha) as exc:
            vjmod._fibers(a2, frozenset({0}), alpha)
        assert str(exc.value) == f"A2 J={{1}}: alpha={label} is not a simple index outside J"


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_boundary_fibers_partition(t):
    """For fixed alpha the fibers partition W^J with constant index size,
    and vjmod._fibers finds each one from the rows."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        for alpha in range(rs.rank):
            if alpha in j:
                continue
            k = j | {alpha}
            size = len(subgroup(rs, k)) // len(subgroup(rs, j))
            fibers = vjmod._fibers(rs, j, alpha)
            seen = []
            for u, row in zip(enumerate_WJ(rs, k), fibers, strict=True):
                fib = boundary_fiber(rs, j, alpha, u)
                assert len(fib) == size
                assert tuple(wj[i] for i in np.sort(row)) == fib
                # membership matches the dual component map
                for x in wj:
                    inside = dual_boundary_component(rs, j, alpha, x) == u
                    assert (x in fib) == inside
                seen += list(fib)
            assert sorted(seen) == sorted(wj)


@pytest.mark.parametrize("t", ["A2", "B2", "A3"])
def test_boundary_columns_shape(t):
    """One pair (row, column) per fiber element, columns in order, and no
    pair twice: the entry list densifies to the oracle's 0/1 boundary."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        rows, cols = boundary_columns(rs, j)
        assert len(rows) == len(cols) == len(enumerate_WJ(rs, j)) * (rs.rank - len(j))
        assert (np.diff(cols) >= 0).all()
        assert np.array_equal(densify(rs, j, rows, cols), dense_boundary(rs, j))


@pytest.mark.parametrize("t", ["B3", "C3", "D4"])
def test_boundary_entries_and_bad_bits_match_dense_oracle(plant, t):
    """On every J the entries are the nonzeros of the oracle's dense d, and
    the certificate's bad bits are the nonzero rows of d.T @ n; also on a
    complex with one entry doubled and two normal-form rows swapped, where
    some bits are set."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        d, (rows, cols) = dense_boundary(rs, j), boundary_columns(rs, j)
        assert sorted(zip(rows.tolist(), cols.tolist())) == list(zip(*np.nonzero(d)))
        want = (d.T @ normal_form_matrix(rs, j)).any(axis=1)
        assert np.array_equal(vjmod._certificate(rs, j).bad, want)
    rs = plant(t, boundary=_double_fiber_entry, normal_form=_swap_nf_rows)
    seen = 0
    for j in all_j(rs.rank):
        d = densify(rs, j, *boundary_columns(rs, j))
        want = (d.T @ normal_form_matrix(rs, j)).any(axis=1)
        assert np.array_equal(vjmod._certificate(rs, j).bad, want), j
        seen += int(want.sum())
    assert seen


def test_normal_form_a2_frozen(a2):
    """A2, J={1}: W^J = {e, s2, s1s2}, V^J = {s2, s1s2}.

    The only rewrite is g_e = -g_{s2} - g_{s1s2} (hand computation)."""
    nf = normal_form_matrix(a2, frozenset({0}))
    assert nf.tolist() == [[-1, -1], [1, 0], [0, 1]]


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_normal_form_unit_rows(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        vj = enumerate_VJ(rs, j)
        vidx = {w: i for i, w in enumerate(vj)}
        nf = normal_form_matrix(rs, j)
        assert nf.shape == (len(wj), len(vj))
        for r, w in enumerate(wj):
            if w in vidx:
                expect = np.zeros(len(vj), dtype=np.int64)
                expect[vidx[w]] = 1
                assert (nf[r] == expect).all()


def _q_solve(a, b):
    """One solution of a @ x = b over Q, from sympy's RREF of [a | b] with
    the free unknowns 0, as rows of sympy rationals; None if there is none."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    ab = np.hstack([a, b])
    red, piv = DomainMatrix([[QQ(int(v)) for v in row] for row in ab], ab.shape, QQ).rref()
    n = np.shape(a)[1]
    if piv and piv[-1] >= n:
        return None
    x = [[QQ(0)] * np.shape(b)[1] for _ in range(n)]
    for row, c in zip(red.to_list(), piv):
        x[c] = row[n:]
    return x


@pytest.mark.parametrize("t", ["A2", "B2", "A3"])
def test_normal_form_is_boundary_reduction(t):
    """g_w minus its normal form lies in the boundary image over Q."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        vj = enumerate_VJ(rs, j)
        widx = {w: i for i, w in enumerate(wj)}
        nf = normal_form_matrix(rs, j)
        d = dense_boundary(rs, j)
        # column r: g_w minus its normal form, for w the r-th element of W^J
        vecs = np.eye(len(wj), dtype=np.int64)
        vecs[[widx[v] for v in vj]] -= nf.T
        zero = ~vecs.any(axis=0)
        assert {w for w, z in zip(wj, zero) if z} == set(vj)
        if not zero.all():
            assert _q_solve(d, vecs[:, ~zero]) is not None


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_sigma_in_dual_kernel(t):
    """Alternating sums vanish under every dual boundary component."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        widx = {w: i for i, w in enumerate(wj)}
        mat = dense_boundary(rs, j)
        for wprime in wj:
            sig = sigma_vector(rs, j, wprime)
            vec = np.zeros(len(wj), dtype=np.int64)
            for w, c in sig.items():
                vec[widx[w]] = c
            assert not (vec @ mat).any()


def test_normal_form_vector_api(a2):
    j = frozenset({0})
    wj = enumerate_WJ(a2, j)
    out = normal_form(a2, j, {wj[0]: 2, wj[1]: 1})
    assert out.tolist() == [-1, -2]  # 2*(-1,-1) + (1,0)


@pytest.mark.parametrize("ring", ["Z", "Q", "F2", "F3"])
def test_build_mj_a2_frozen(a2, ring):
    """The one report is the module's over each ring: the boundary has no
    torsion over Z, and the rank is |W^J| less its rank over the ring."""
    from specrep import linalg

    j = frozenset({0})
    rep = build_mj(a2, j)
    assert (rep.wj_size, rep.vj_size, rep.rank) == (3, 2, 2)
    assert rep.basis_ok
    d, p = densify(a2, j, *boundary_columns(a2, j)), Ring.parse(ring).p
    inv = linalg.snf_invariants(d)
    assert set(inv) <= {1}
    assert rep.wj_size - (len(inv) if p is None else linalg.modp_rank(d, p)) == rep.rank


@pytest.mark.parametrize("t", ["A1", "A2", "B2"])
def test_build_mj_identity_small(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        rep = build_mj(rs, j)
        assert rep.rank == rep.vj_size
        assert rep.basis_ok


def test_build_mj_runs_no_elimination(monkeypatch):
    """The module verdict reads the D = {} certificate alone: no Smith
    form, rank or Phi mask is computed."""
    from specrep import jsets, linalg
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("B3"))  # fresh cache

    def refuse(*args):
        raise AssertionError("build_mj ran an elimination or built a Phi mask")

    for mod, name in ((linalg, "snf_invariants"), (linalg, "modp_rank"),
                      (linalg, "rank_z"), (linalg.Echelon, "append"),
                      (jsets, "phi_j_masks"), (vjmod, "phi_j_masks")):
        monkeypatch.setattr(mod, name, refuse)
    for j in all_j(rs.rank):
        rep = build_mj(rs, j)
        assert rep.basis_ok and rep.rank == rep.vj_size


def test_module_paths_build_no_tuple_index(monkeypatch):
    """build_mj, restricted_exactness, ts_maps and check_simple over every
    J of a fresh B3 match elements between coset tables by position: none
    of them builds a table's tuple index."""
    from specrep import hecke
    from specrep.roots import CartanType, RootSystem
    from specrep.weyl import CosetTable

    monkeypatch.setattr(CosetTable, "index",
                        property(lambda self: pytest.fail("built a CosetTable.index")))
    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    for j in all_j(rs.rank):
        assert build_mj(rs, j).basis_ok
        for ring in ("Z", "Q", "F2"):
            assert all(restricted_exactness(rs, j, d.mask, Ring.parse(ring))
                       for d in quasi_parabolic_sets(rs, j))
        assert len(hecke.ts_maps(rs, j)) == rs.rank
        assert hecke.check_simple(rs, j, 2).is_simple


@pytest.mark.parametrize("t,rings", [(t, "Z Q F2 F3") for t in DEFAULT_TYPES]
                         + [("A4", "Z"), ("B4", "Z")])
def test_build_mj_agrees_with_eliminations(t, rings):
    """The certificate's rank is the cokernel rank of the dense boundary:
    by its Smith invariants over Z and Q, all of them 1, and by modp_rank
    over F_p."""
    from specrep import linalg

    rs = root_system(t)
    for j in all_j(rs.rank):
        d = densify(rs, j, *boundary_columns(rs, j))
        inv = linalg.snf_invariants(d)
        assert set(inv) <= {1}
        rep = build_mj(rs, j)
        assert rep.basis_ok
        for ring in map(Ring.parse, rings.split()):
            rank_d = len(inv) if ring.p is None else linalg.modp_rank(d, ring.p)
            assert rep.rank == rep.wj_size - rank_d == rep.vj_size, (j, ring)


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_restricted_exactness_small(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        for d in quasi_parabolic_sets(rs, j):
            for ring in (Ring("Z"), Ring("Q"), Ring("Fp", 2), Ring("Fp", 3)):
                assert restricted_exactness(rs, j, d.mask, ring)


@pytest.mark.parametrize("ring", ["Z", "Q", "F2", "F3"])
def test_restricted_exactness_checks_composite(plant, tmp_path, ring):
    """Swapping two normal-form rows of A2, J={} keeps every rank (the rows
    are +-1) but breaks d.T @ n = 0, so the rank equation alone says exact."""
    plant("A2", normal_form=_swap_nf_rows)
    out = tmp_path / "exact.json"
    code = cli.main(["exactness", "--type", "A2", "--j", "", "--ring", ring,
                     "--out", str(out)])
    assert code == 1
    assert [rec["ok"] for rec in json.loads(out.read_text())] == [False]


def test_restricted_exactness_rejects_bad_mask(a2):
    taken = {d.mask for d in quasi_parabolic_sets(a2, frozenset())}
    bad = next(m for m in range(1, 1 << 6) if m not in taken)
    with pytest.raises(NotQuasiParabolic,
                       match=re.escape(f"A2 J={{}}: mask {bad:#x} is not quasi-parabolic")):
        restricted_exactness(a2, frozenset(), bad, Ring("Q"))


def test_restricted_exactness_checks_containment(plant, a2):
    """A boundary column of W^{J+alpha}(D) that reaches a row outside W^J(D)
    must be refused, not silently cut off by the row selection."""
    j = frozenset()
    wj = enumerate_WJ(a2, j)
    for qp in quasi_parabolic_sets(a2, j):
        rows, cols = _plain_selection(a2, j, qp.mask)
        if cols and len(rows) < len(wj):
            break
    outside = next(i for i in range(len(wj)) if i not in rows)
    rs = plant("A2", boundary=lambda r, c: (np.append(r, outside), np.append(c, cols[0])),
               js=[j])
    for ring in (Ring("Q"), Ring("Fp", 2)):
        with pytest.raises(CheckFailed, match="leaves W"):
            restricted_exactness(rs, j, qp.mask, ring)


@functools.cache
def _oracle_masks(rs, j):
    """Phi_J(w) per row and Phi_{J+alpha}(u) per column (alpha, u) of the
    boundary, by the root action."""
    labels = boundary_labels(rs, j)
    return ([phi_j_mask(rs, j, w) for w in enumerate_WJ(rs, j)],
            [phi_j_mask(rs, j | {alpha}, u) for alpha, u in labels])


def _plain_selection(rs, j, mask):
    """The rows W^J(D) and the columns of D, selected on the oracle masks."""
    return tuple([i for i, m in enumerate(masks) if m & mask == mask]
                 for masks in _oracle_masks(rs, j))


def _two_eliminations(rs, j, mask, ring):
    """Restricted exactness without the certificate table: restrict both
    maps to D, check the composite, then compare full ranks (Smith forms
    over Q) or, over Z, the kernel of n_sub with the image of d_sub."""
    from specrep import linalg

    d = densify(rs, j, *vjmod.boundary_columns(rs, j))
    n = vjmod.normal_form_matrix(rs, j)
    rows, cols = _plain_selection(rs, j, mask)
    d_sub = d[np.ix_(rows, cols)]
    n_sub = n[rows]
    dim = len(rows)
    if (d_sub.T @ n_sub).any():
        return False
    if dim == 0:
        return True
    if ring.kind == "Fp":
        return linalg.modp_rank(d_sub, ring.p) + linalg.modp_rank(n_sub, ring.p) == dim
    if ring.kind == "Q":
        return linalg.rank_z(d_sub) + linalg.rank_z(n_sub) == dim
    kern = integer_kernel(n_sub.T)
    if kern.shape[1] == 0:
        return not d_sub.any()
    x = _q_solve(kern, d_sub)
    if x is None or any(v.denominator != 1 for row in x for v in row):
        return False
    inv = linalg.snf_invariants([[v.numerator for v in row] for row in x])
    return len(inv) == kern.shape[1] and all(v == 1 for v in inv)


@pytest.mark.parametrize("t,rings", [
    ("A1", "Z Q F2 F3"), ("A2", "Z Q F2 F3"), ("B2", "Z Q F2 F3"),
    ("A3", "Z Q F2 F3"), ("B3", "Q F2 F3"), ("C3", "Q F2 F3")])
def test_certificate_table_agrees_with_two_eliminations(t, rings):
    """Every (J, D) of the type gets the same verdict from the table and
    from the full two-elimination path."""
    rs = root_system(t)
    for ring in map(Ring.parse, rings.split()):
        for j in all_j(rs.rank):
            for d in quasi_parabolic_sets(rs, j):
                want = _two_eliminations(rs, j, d.mask, ring)
                assert restricted_exactness(rs, j, d.mask, ring) == want, (j, d.roots, ring)


def _drop_boundary_column(rows, cols):
    """Column 0 with its entries dropped; its slot stays, since the columns
    are the positions of the W^{J+alpha} tables."""
    return rows[cols != 0], cols[cols != 0]


def _repeat_entry(rows, cols, pick):
    """The entries with the pair (pick of column 0's rows, 0) added once
    more, which makes that entry 2; unchanged without a column 0."""
    if not (cols == 0).any():
        return rows, cols
    return np.append(rows, pick(rows[cols == 0])), np.append(cols, 0)


def _double_fiber_entry(rows, cols):
    """The last entry of column 0, below its label row, doubled: the
    premises hold, but the column no longer composes to zero."""
    return _repeat_entry(rows, cols, np.max)


def _zero_nf_column(n):
    out = n.copy()
    out[:, -1] = 0
    return out


def _double_nf_column(n):
    out = n.copy()
    out[:, -1] *= 2
    return out


@pytest.mark.parametrize("t", ["A2", "B2"])
@pytest.mark.parametrize("broken", ["boundary", "zero", "double"])
def test_certificate_table_agrees_on_broken_complexes(plant, t, broken):
    """Complexes that keep every premise but lose exactness somewhere: one
    boundary entry below a label row doubled (the composite is no longer
    zero), or one normal-form column zeroed or doubled (the composite stays
    zero, but its V^J row is no longer a unit row).  The table must not
    count what is not there."""
    if broken == "boundary":
        rs = plant(t, boundary=_double_fiber_entry)
    else:
        rs = plant(t, normal_form=_zero_nf_column if broken == "zero" else _double_nf_column)
    seen = set()
    for ring in map(Ring.parse, ("Z", "Q", "F2", "F3")):
        for j in all_j(rs.rank):
            if not len(vjmod.boundary_columns(rs, j)[1]):
                continue
            for d in quasi_parabolic_sets(rs, j):
                want = _two_eliminations(rs, j, d.mask, ring)
                assert restricted_exactness(rs, j, d.mask, ring) == want, (j, d.roots, ring)
                seen.add((str(ring), want))
    assert ("F2", False) in seen
    assert ("Q", False) in seen or broken == "double"


def _verdict_calls(monkeypatch, seen):
    """Wrap vjmod._verdict, the only step that eliminates: each call
    appends (inside, colin, c, the entries it added to seen) to the list
    returned."""
    real = vjmod._verdict
    calls = []

    def verdict(cert, inside, colin, c):
        before = len(seen)
        got = real(cert, inside, colin, c)
        calls.append((inside, colin, c, seen[before:]))
        return got

    monkeypatch.setattr(vjmod, "_verdict", verdict)
    return calls


def test_certificate_table_skips_eliminations(monkeypatch):
    """On A3 the table decides some D with no elimination at all (c + v =
    dim) and some with one Smith form of n_sub (c + its unit invariants
    = dim); every Smith form runs in the _verdict of one D."""
    from specrep import linalg
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("A3"))  # fresh cache
    real = linalg.snf_invariants
    calls = []
    monkeypatch.setattr(linalg, "snf_invariants",
                        lambda mat: calls.append(np.shape(mat)) or real(mat))
    opened = _verdict_calls(monkeypatch, calls)
    sets = 0
    for j in all_j(rs.rank):
        for d in quasi_parabolic_sets(rs, j):
            assert restricted_exactness(rs, j, d.mask, Ring("Fp", 2))
            sets += 1
    per_d = [len(ran) for *_, ran in opened] + [0] * (sets - len(opened))
    assert sum(per_d) == len(calls)
    assert per_d.count(0) > 0 and per_d.count(1) > 0
    assert len(calls) < len(per_d)


def test_one_elimination_per_d_serves_every_ring(monkeypatch):
    """Q, F2, F3 and Z over every D of B3 together run at most one
    elimination of n_sub and one of d_sub per D: the verdict memo is
    ring-free."""
    from specrep import linalg
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    seen = []
    real = linalg.snf_invariants
    monkeypatch.setattr(linalg, "snf_invariants",
                        lambda mat: seen.append(np.array(mat, dtype=object)) or real(mat))
    append = linalg.Echelon.append  # an F_p elimination shows up as its rows
    monkeypatch.setattr(linalg.Echelon, "append",
                        lambda self, vec: seen.append(np.array(vec, dtype=object))
                        or append(self, vec))
    opened = _verdict_calls(monkeypatch, seen)
    both = 0
    for j in all_j(rs.rank):
        before = len(opened)
        sets = quasi_parabolic_sets(rs, j)
        for d in sets:
            for ring in ("Q", "F2", "F3", "Z"):
                restricted_exactness(rs, j, d.mask, Ring.parse(ring))
        assert len(opened) - before <= len(sets)  # at most one _verdict per D
        n, d = vjmod.normal_form_matrix(rs, j), densify(rs, j, *vjmod.boundary_columns(rs, j))
        for inside, colin, _, calls in opened[before:]:
            n_calls = sum(np.array_equal(m, n[inside]) for m in calls)
            d_calls = sum(np.array_equal(m, d[inside][:, colin]) for m in calls)
            assert n_calls <= 1 and d_calls <= 1, (j, n_calls, d_calls)
            assert len(calls) == n_calls + d_calls, j
            both += d_calls
    assert len(seen) == sum(len(calls) for *_, calls in opened)  # none outside _verdict
    assert both > 0  # some D of B3 reach the Smith form of d_sub


def test_verdict_counts_a_repeated_pair_as_2():
    """d_sub is built from the entry list with each pair adding 1: a column
    holding the pair (0, 0) twice is the 1 x 1 matrix (2), whose Smith
    invariant 2 is torsion over Z and F2."""
    one = np.ones(1, dtype=bool)
    cert = vjmod._Certificate(n=np.zeros((1, 1), dtype=np.int64), rows=np.array([0, 0]),
                              cols=np.array([0, 0]), label_rows=np.array([0]),
                              col_alphas=np.array([0]), bad=~one, vunit=~one)
    assert vjmod._verdict(cert, one, one, 0) == ((2,), ())


def test_exactness_reads_each_ring_from_torsion():
    """A memo entry (Smith invariants above 1 of d_sub, then of n_sub) is
    read per ring: exact over Q, over Z iff d_sub has none, over F_p iff p
    divides none of either."""
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("A2"))  # fresh cache
    j = frozenset()
    mask = quasi_parabolic_sets(rs, j)[0].mask
    table = vjmod._exact_table(rs, j)
    for torsion, want in ((((2,), ()), {"Q": True, "Z": False, "F2": False, "F3": True}),
                          (((), (3, 6)), {"Q": True, "Z": True, "F2": False, "F3": False}),
                          (((), (5,)), {"Q": True, "Z": True, "F2": True, "F3": True})):
        table[mask] = torsion
        assert {r: restricted_exactness(rs, j, mask, Ring.parse(r)) for r in want} == want


def _selected(rs, j, mask):
    """Rows W^J(D), the columns of D and their pivot rows by plain
    selection, with d_sub and n_sub cut out of the dense matrices."""
    labels, d = boundary_labels(rs, j), densify(rs, j, *vjmod.boundary_columns(rs, j))
    n = vjmod.normal_form_matrix(rs, j)
    wj = enumerate_WJ(rs, j)
    rows, cols = _plain_selection(rs, j, mask)
    pivots = {wj.index(labels[c][1]) for c in cols}
    return rows, cols, pivots, d[np.ix_(rows, cols)], n[rows]


def _reference_memo(rs, j, mask):
    """The memo entry of D from the selected maps and their Smith forms
    alone: False if the composite is nonzero or the ranks over Q fall
    short, else the invariants above 1 of d_sub and n_sub (True if none)."""
    from specrep import linalg

    rows, _, _, d_sub, n_sub = _selected(rs, j, mask)
    if (d_sub.T @ n_sub).any():
        return False
    inv_d, inv_n = linalg.snf_invariants(d_sub), linalg.snf_invariants(n_sub)
    if len(inv_d) + len(inv_n) < len(rows):
        return False
    torsion = tuple(v for v in inv_d if v > 1), tuple(v for v in inv_n if v > 1)
    return torsion if any(torsion) else True


@pytest.mark.parametrize("t", ["A3", "B3", "C3"])
def test_batched_memo_matches_per_d_smith_forms(monkeypatch, t):
    """The built table holds a verdict for every D, a bool or a torsion
    pair, and each, torsion included, is the per-D reference's.  The D
    the array pass leaves open reach _verdict with the rows and columns of
    their plain selection and its pivot count c."""
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse(t))  # fresh cache
    opened = _verdict_calls(monkeypatch, [])
    for j in all_j(rs.rank):
        before = len(opened)
        table = vjmod._exact_table(rs, j)
        sets = quasi_parabolic_sets(rs, j)
        assert set(table) == {d.mask for d in sets}
        pivots = {}
        for d in sets:
            want = _reference_memo(rs, j, d.mask)
            got = table[d.mask]
            assert type(got) in (bool, tuple) and got == want, (j, d.roots, got, want)
            rows, cols, piv = _selected(rs, j, d.mask)[:3]
            pivots[tuple(rows), tuple(cols)] = len(piv)
        for inside, colin, c, _ in opened[before:]:
            key = tuple(np.flatnonzero(inside)), tuple(np.flatnonzero(colin))
            assert pivots[key] == c, (j, key)
    assert opened


def test_block_size_leaves_memo_unchanged(monkeypatch):
    """Classifying D three at a time gives the same memo on every J of B3
    as the default block."""
    from specrep.roots import CartanType, RootSystem

    def memos():
        rs = RootSystem(CartanType.parse("B3"))  # fresh cache
        return [vjmod._exact_table(rs, j) for j in all_j(rs.rank)]

    want = memos()
    monkeypatch.setattr(vjmod, "EXACT_BLOCK", 3)
    assert memos() == want


def test_unit_row_outside_vj_closes_d(monkeypatch):
    """A2, J = {}, D = {root 3}: no V^J row lies in W^J(D), so c + v
    leaves D open, but rows of W^J(D) with normal form +-e_k, for one k,
    make c + u = dim.  That closes D in the array pass, with no Smith form,
    and every ring reads it."""
    from specrep import linalg
    from specrep.roots import CartanType, RootSystem
    from specrep.weyl import vj_rows

    rs = RootSystem(CartanType.parse("A2"))  # fresh cache
    j = frozenset()
    qp = next(d for d in quasi_parabolic_sets(rs, j) if d.roots == (3,))
    rows, cols, pivots, _, n_sub = _selected(rs, j, qp.mask)
    v = len(set(rows) & set(vj_rows(rs, j).tolist()))
    units = {int(np.flatnonzero(row)[0]) for row in n_sub if np.abs(row).sum() == 1}
    assert v == 0 and len(pivots) + v < len(rows)
    assert len(pivots) + len(units) == len(rows)
    opened = _verdict_calls(monkeypatch, [])
    assert vjmod._exact_table(rs, j)[qp.mask] is True
    assert (rows, cols) not in [(np.flatnonzero(inside).tolist(), np.flatnonzero(colin).tolist())
                                for inside, colin, *_ in opened]
    monkeypatch.setattr(linalg, "snf_invariants", lambda mat: pytest.fail("ran a Smith form"))
    for ring in ("Z", "Q", "F2", "F3"):
        assert restricted_exactness(rs, j, qp.mask, Ring.parse(ring))


def _two_at_label_row(rows, cols):
    """Column 0 with a 2 in place of its first nonzero (if there is a column)."""
    return _repeat_entry(rows, cols, np.min)


def test_pivot_premise_top_entry(plant):
    """A boundary column whose label-row entry is 2 breaks the unitriangular
    minor; the table build refuses it."""
    rs = plant("A2", boundary=_two_at_label_row)
    qp = quasi_parabolic_sets(rs, frozenset())[0]
    for ring in (Ring("Z"), Ring("Q"), Ring("Fp", 2)):
        with pytest.raises(CheckFailed, match="first nonzero"):
            restricted_exactness(rs, frozenset(), qp.mask, ring)


def test_pivot_premise_entry_above_label_row(plant):
    """A 1 planted above the label row of a column (alpha, u), in the row
    of a shorter element: the module certificate refuses the column and
    names u, and restricted exactness refuses it too, since no row above
    u holds Phi_{J+alpha}(u) and the entry leaves W^J(D)."""
    j = frozenset()
    labels = boundary_labels(root_system("A2"), j)

    def corrupt(rows, cols):
        c = min(set(cols.tolist()) - set(cols[rows == 0].tolist()))
        corrupt.u = labels[c][1]
        return np.append(rows, 0), np.append(cols, c)

    rs = plant("A2", boundary=corrupt, js=[j])
    w = ",".join(map(str, flat(corrupt.u)))
    with pytest.raises(CheckFailed, match=re.escape(f"label row, alpha=1: A2 J={{}} w=({w})")):
        build_mj(rs, j)
    qp = quasi_parabolic_sets(rs, j)[0]
    with pytest.raises(CheckFailed, match="leaves W"):
        restricted_exactness(rs, j, qp.mask, Ring("Q"))


def test_pivot_premise_is_fail_record(plant):
    """A broken premise reaches the suite as a module.exactness fail record."""
    from specrep import suite

    plant("A2", boundary=_two_at_label_row)
    recs = suite.exactness_battery(suite.SuiteConfig(types=("A2",)))
    by = {r["instance"]: r for r in recs}
    assert len(by) == 12
    for inst, rec in by.items():
        if "J={1,2}" in inst:  # no boundary columns, nothing to corrupt
            assert rec["status"] == "pass"
        else:
            assert rec["status"] == "fail"
            assert rec["detail"].startswith("CheckFailed: a boundary column's first nonzero")


def test_boundary_must_line_up_with_the_tables(plant):
    """A boundary whose entries are moved one column on no longer lines up
    with the W^{J+alpha} tables its columns are positions of (its last
    column lies past them): the module certificate and the exactness table
    refuse it."""
    j = frozenset()
    rs = plant("A2", boundary=lambda rows, cols: (rows, cols + 1), js=[j])
    with pytest.raises(CheckFailed, match="A2: the boundary does not line up"):
        build_mj(rs, j)
    qp = quasi_parabolic_sets(rs, j)[0]
    with pytest.raises(CheckFailed, match="A2: the boundary does not line up"):
        restricted_exactness(rs, j, qp.mask, Ring("Q"))


def _swap_nf_rows(n):
    """Normal-form rows 0 and 1 swapped, when there are two."""
    out = n.copy()
    if len(out) > 1:
        out[[0, 1]] = out[[1, 0]]
    return out


_CORRUPTIONS = {
    "two_at_label_row": {"boundary": _two_at_label_row},
    "drop_boundary_column": {"boundary": _drop_boundary_column},
    "zero_nf_column": {"normal_form": _zero_nf_column},
    "swap_nf_rows": {"normal_form": _swap_nf_rows},
}


@pytest.mark.parametrize("name", sorted(_CORRUPTIONS))
def test_corrupted_complex_is_never_a_module_pass(plant, name):
    """A corrupted boundary or normal form either makes build_mj raise
    CheckFailed naming the type, J and an element, or leaves a report that
    the dense Smith form of the corrupted boundary confirms.  At each J with
    one simple root outside it every corruption leaves the certificate
    open, so there build_mj raises, module.rank is a fail record naming the
    counterexample, and `specrep module` exits 1."""
    from specrep import linalg, suite

    rs = plant("B3", **_CORRUPTIONS[name])
    raised = set()
    for j in all_j(rs.rank):
        where = "B3 J={" + ",".join(str(i + 1) for i in sorted(j)) + "}"
        try:
            rep = build_mj(rs, j)
        except CheckFailed as e:
            assert where in str(e) and " w=(" in str(e), str(e)
            raised.add(where)
            continue
        d = densify(rs, j, *vjmod.boundary_columns(rs, j))
        n = vjmod.normal_form_matrix(rs, j)
        inv = linalg.snf_invariants(d)
        assert rep.rank == rep.wj_size - len(inv) and set(inv) <= {1}, where
        assert not (d.T @ n).any(), where
    maximal = {"B3 J={1,2}", "B3 J={1,3}", "B3 J={2,3}"}
    assert maximal <= raised
    by = {r["instance"]: r for r in suite.module_battery(suite.SuiteConfig(types=("B3",)))
          if r["check_id"] == "module.rank"}
    for where in maximal:
        assert by[where]["status"] == "fail"
        assert by[where]["detail"].startswith("CheckFailed: ")
        assert where in by[where]["detail"] and " w=(" in by[where]["detail"]
    assert {w for w, rec in by.items() if rec["status"] == "fail"} == raised
    assert cli.main(["module", "--type", "B3", "--out", os.devnull]) == 1


def test_mask_array_never_wraps(a2):
    """Root-set masks keep every bit: uint64 up to 64 roots, Python ints
    beyond.  B6 has 72 roots, and its Phi_J masks at J = {1,...,5} reach
    past bit 64 and equal the root action's."""
    assert mask_array(a2, [0b100001]).dtype == np.uint64
    b6 = root_system("B6")
    top = 1 << (len(b6.roots) - 1)
    masks = mask_array(b6, [top | 1, 1])
    assert masks.dtype == object and ((masks & top) == top).tolist() == [True, False]
    j = frozenset(range(5))
    table = phi_j_masks(b6, j)
    assert table.dtype == object
    assert table.tolist() == [phi_j_mask(b6, j, w) for w in enumerate_WJ(b6, j)]
    assert max(table.tolist()).bit_length() > 64


def test_dense_cap_shapes():
    """The cap bounds the dense normal form n, |W^J| x |V^J| int64 (the
    boundary is an entry list).  It admits the largest rank-6 n, B6 at
    J = {2,5}: 11,520 x 1,669, about 154 MB.  It refuses n of B7 at the
    same J: 161,280 x 5,965, about 7.7 GB.  The rows come from group
    orders (W_J is A1 x A1, of order 4) and the |V^J| are frozen; nothing
    is built."""
    from specrep.vjmod import DENSE_CAP
    from specrep.weyl import group_order

    b6, b7 = [(group_order(root_system(t)) // 4, v) for t, v in (("B6", 1669), ("B7", 5965))]
    assert b6 == (11520, 1669) and b7 == (161280, 5965)
    assert b6[0] * b6[1] * 8 <= DENSE_CAP < b7[0] * b7[1] * 8


def test_dense_cap_sizes_no_boundary(monkeypatch):
    """With the cap planted at the bytes of B4's largest n, build_mj passes
    on every J of B4: no dense boundary is sized (at J = {} it would be
    384 x 768, far above that cap).  One byte less refuses that n, naming
    its J and shape."""
    from specrep.errors import CapExceeded
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("B4"))  # fresh cache
    js = all_j(rs.rank)
    cap, j, shape = max((len(enumerate_WJ(rs, j)) * len(enumerate_VJ(rs, j)) * 8, sorted(j),
                         (len(enumerate_WJ(rs, j)), len(enumerate_VJ(rs, j)))) for j in js)
    assert cap < 384 * 768 * 8
    monkeypatch.setattr(vjmod, "DENSE_CAP", cap)
    for k in js:
        rep = build_mj(rs, k)
        assert rep.basis_ok and rep.rank == rep.vj_size
    monkeypatch.setattr(vjmod, "DENSE_CAP", cap - 1)
    rs = RootSystem(CartanType.parse("B4"))
    where = "B4 J={" + ",".join(str(i + 1) for i in j) + "}"
    with pytest.raises(CapExceeded, match=re.escape(
            f"{where}: the dense normal form, {shape[0]} x {shape[1]} int64 ({cap} bytes)")):
        build_mj(rs, frozenset(j))
