"""Module construction: boundary, normal form, sigma vectors, exactness."""

import json

import numpy as np
import pytest

from specrep.errors import BadAlpha, CheckFailed, NotQuasiParabolic, SpecrepError
from specrep.jsets import phi_j_mask, quasi_parabolic_sets
from specrep.roots import root_system
from specrep import cli, vjmod
from specrep.vjmod import (Ring, boundary_columns, boundary_fiber, build_mj,
                           dual_boundary_component, normal_form, normal_form_matrix,
                           restricted_exactness, sigma_vector)
from specrep.linalg import solve
from specrep.weyl import all_j, enumerate_VJ, enumerate_WJ, subgroup


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
    with pytest.raises(BadAlpha):
        boundary_fiber(a2, frozenset({0}), 0, a2.identity)


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_boundary_fibers_partition(t):
    """For fixed alpha the fibers partition W^J with constant index size."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        for alpha in range(rs.rank):
            if alpha in j:
                continue
            k = j | {alpha}
            size = len(subgroup(rs, k)) // len(subgroup(rs, j))
            seen = []
            for u in enumerate_WJ(rs, k):
                fib = boundary_fiber(rs, j, alpha, u)
                assert len(fib) == size
                # membership matches the dual component map
                for x in wj:
                    inside = dual_boundary_component(rs, j, alpha, x) == u
                    assert (x in fib) == inside
                seen += list(fib)
            assert sorted(seen) == sorted(wj)


@pytest.mark.parametrize("t", ["A2", "B2", "A3"])
def test_boundary_columns_shape(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        labels, mat = boundary_columns(rs, j)
        wj = enumerate_WJ(rs, j)
        assert mat.shape == (len(wj), len(labels))
        assert set(np.unique(mat)) <= {0, 1}
        for c, (alpha, u) in enumerate(labels):
            assert mat[:, c].sum() == len(boundary_fiber(rs, j, alpha, u))


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


@pytest.mark.parametrize("t", ["A2", "B2", "A3"])
def test_normal_form_is_boundary_reduction(t):
    """g_w minus its normal form lies in the boundary image over Q."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        vj = enumerate_VJ(rs, j)
        widx = {w: i for i, w in enumerate(wj)}
        nf = normal_form_matrix(rs, j)
        _, d = boundary_columns(rs, j)
        for r, w in enumerate(wj):
            vec = np.zeros((len(wj), 1), dtype=np.int64)
            vec[r, 0] = 1
            for k, v in enumerate(vj):
                vec[widx[v], 0] -= nf[r, k]
            if vec.any():
                assert solve(d, vec) is not None
            else:
                assert w in set(vj)


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_sigma_in_dual_kernel(t):
    """Alternating sums vanish under every dual boundary component."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        widx = {w: i for i, w in enumerate(wj)}
        labels, mat = boundary_columns(rs, j)
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
    rep = build_mj(a2, frozenset({0}), Ring.parse(ring))
    assert (rep.wj_size, rep.vj_size, rep.rank) == (3, 2, 2)
    assert rep.torsion == ()
    assert rep.basis_ok


@pytest.mark.parametrize("t", ["A1", "A2", "B2"])
def test_build_mj_identity_small(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        for ring in (Ring("Z"), Ring("Q"), Ring("Fp", 2), Ring("Fp", 3)):
            rep = build_mj(rs, j, ring)
            assert rep.rank == rep.vj_size
            assert not rep.torsion
            assert rep.basis_ok


def test_build_mj_boundary_snf_once(monkeypatch):
    """Z and Q share one Smith form of the boundary per (type, J)."""
    from specrep import linalg
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    real = linalg.snf_invariants
    calls = []
    monkeypatch.setattr(linalg, "snf_invariants",
                        lambda mat: calls.append(np.shape(mat)) or real(mat))
    for ring in ("Z", "Q", "F3", "Z"):
        for j in all_j(rs.rank):
            rep = build_mj(rs, j, Ring.parse(ring))
            assert rep.basis_ok and rep.rank == rep.vj_size and not rep.torsion
    assert calls == [boundary_columns(rs, j)[1].shape for j in all_j(rs.rank)]


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_restricted_exactness_small(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        for d in quasi_parabolic_sets(rs, j):
            for ring in (Ring("Z"), Ring("Q"), Ring("Fp", 2), Ring("Fp", 3)):
                assert restricted_exactness(rs, j, d.mask, ring)


@pytest.mark.parametrize("ring", ["Z", "Q", "F2", "F3"])
def test_restricted_exactness_checks_composite(monkeypatch, tmp_path, ring):
    """Swapping two normal-form rows of A2, J={} keeps every rank (the rows
    are +-1) but breaks d.T @ n = 0, so the rank equation alone says exact."""
    real = vjmod.normal_form_matrix

    def swapped(rs, j):
        n = real(rs, j).copy()
        n[[0, 1]] = n[[1, 0]]
        return n

    monkeypatch.setattr(vjmod, "normal_form_matrix", swapped)
    out = tmp_path / "exact.json"
    code = cli.main(["exactness", "--type", "A2", "--j", "", "--ring", ring,
                     "--out", str(out)])
    assert code == 1
    assert [rec["ok"] for rec in json.loads(out.read_text())] == [False]


def test_restricted_exactness_rejects_bad_mask(a2):
    taken = {d.mask for d in quasi_parabolic_sets(a2, frozenset())}
    bad = next(m for m in range(1, 1 << 6) if m not in taken)
    with pytest.raises(NotQuasiParabolic):
        restricted_exactness(a2, frozenset(), bad, Ring("Q"))


def test_restricted_exactness_checks_containment(monkeypatch, a2):
    """A boundary column of W^{J+alpha}(D) that reaches a row outside W^J(D)
    must be refused, not silently cut off by the row selection."""
    j = frozenset()
    wj = enumerate_WJ(a2, j)
    labels, d = boundary_columns(a2, j)
    for qp in quasi_parabolic_sets(a2, j):
        rows = [i for i, w in enumerate(wj) if phi_j_mask(a2, j, w) & qp.mask == qp.mask]
        cols = [c for c, (alpha, w) in enumerate(labels)
                if phi_j_mask(a2, j | {alpha}, w) & qp.mask == qp.mask]
        if cols and len(rows) < len(wj):
            break
    outside = next(i for i in range(len(wj)) if i not in rows)
    bad = d.copy()
    bad[outside, cols[0]] = 1
    monkeypatch.setattr(vjmod, "boundary_columns", lambda rs, j: (labels, bad))
    for ring in (Ring("Q"), Ring("Fp", 2)):
        with pytest.raises(CheckFailed, match="leaves W"):
            restricted_exactness(a2, j, qp.mask, ring)
