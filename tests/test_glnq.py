"""Finite matrix group oracle: orders, cells, invariants and operator sums."""

import numpy as np
import pytest

from specrep.errors import TooLarge
from specrep.glnq import (build_model, certify_ts, check_brudec, flag_count,
                          group_order, hecke_via_sum, special_invariants)
from specrep.weyl import all_j, enumerate_VJ, enumerate_WJ, length

# |GL_n(F_q)| and the flag count [n]_q!, both classical closed forms
FROZEN = {(2, 2): (6, 3), (3, 2): (168, 21), (2, 3): (48, 4)}


@pytest.fixture(scope="module")
def models():
    return {nq: build_model(*nq) for nq in FROZEN}


def test_group_order_formula():
    assert group_order(2, 2) == 6
    assert group_order(3, 2) == 168
    assert group_order(2, 3) == 48
    assert group_order(4, 2) == 20160


def test_flag_count_formula():
    assert flag_count(2, 2) == 3
    assert flag_count(3, 2) == 21
    assert flag_count(2, 3) == 4


def test_too_large():
    with pytest.raises(TooLarge):
        build_model(4, 2)


@pytest.mark.parametrize("nq", sorted(FROZEN))
def test_model_counts(models, nq):
    model = models[nq]
    order, flags = FROZEN[nq]
    assert len(model.elements) == order
    reps, ids = model.coset_table(frozenset())
    assert len(reps) == flags
    assert sorted(set(ids.values())) == list(range(flags))
    assert len(ids) == order  # every group element is assigned a coset


@pytest.mark.parametrize("nq", sorted(FROZEN))
def test_unipotent_cell_sizes(models, nq):
    """|U^w| = q^{l(w)} and the cells tile the flag count."""
    model = models[nq]
    q = model.q
    total = 0
    for w in enumerate_WJ(model.rs, frozenset()):
        u = model.u_of_w(w)
        assert len(u) == q ** length(model.rs, w)
        total += len(u)
    assert total == flag_count(model.n, q)


@pytest.mark.parametrize("nq", sorted(FROZEN))
def test_invariants_dims(models, nq):
    model = models[nq]
    for j in all_j(model.rs.rank):
        rep = special_invariants(model, j)
        assert rep.dim == rep.vj_size == len(enumerate_VJ(model.rs, j))
        assert rep.basis_ok


@pytest.mark.parametrize("nq", sorted(FROZEN))
def test_ts_certified(models, nq):
    """The group-side operator sums match the combinatorial matrices."""
    model = models[nq]
    for j in all_j(model.rs.rank):
        res = certify_ts(model, j)
        assert res and all(res.values())


def test_hecke_via_sum_frozen(models):
    """n=3, q=2, J={1}: both operator sums happen to infect the same rows."""
    model = models[(3, 2)]
    j = frozenset({0})
    rs = model.rs
    from specrep.weyl import simple
    m1 = hecke_via_sum(model, j, simple(rs, 0))
    m2 = hecke_via_sum(model, j, simple(rs, 1))
    assert m1.tolist() == [[0, 1], [0, 1]]
    assert m2.tolist() == [[1, 0], [0, 0]]


def test_identity_operator(models):
    model = models[(2, 3)]
    for j in all_j(model.rs.rank):
        m = hecke_via_sum(model, j, model.rs.identity)
        assert (m == np.eye(m.shape[0], dtype=m.dtype)).all()


@pytest.mark.parametrize("nq", sorted(FROZEN))
def test_brudec(models, nq):
    model = models[nq]
    for j in all_j(model.rs.rank):
        assert check_brudec(model, j)


def test_parabolic_sizes(models):
    """|P_J| counts: block upper-triangular matrices with invertible blocks."""
    model = models[(3, 2)]
    q = model.q
    full = model.parabolic(frozenset({0, 1}))
    assert len(full) == len(model.elements)
    borel = model.parabolic(frozenset())
    assert len(borel) == (q - 1) ** 3 * q ** 3
    mid = model.parabolic(frozenset({0}))
    # |P| = |L| * |U_P|: GL2 x GL1 Levi times q^2 unipotent radical
    assert len(mid) == group_order(2, q) * (q - 1) * q ** 2
