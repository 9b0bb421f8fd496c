"""Finite matrix group oracle: orders, cells, invariants and operator sums."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep import glnq
from specrep.errors import CapExceeded, CheckFailed
from specrep.glnq import (build_model, certify_ts, check_brudec, flag_count, group_order,
                          hecke_via_sum, special_invariants)
from specrep.suite import SuiteConfig, oracle_battery
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
    with pytest.raises(CapExceeded):
        build_model(4, 2)


@pytest.mark.parametrize("nq", sorted(FROZEN))
def test_model_counts(models, nq):
    model = models[nq]
    order, flags = FROZEN[nq]
    assert len(model.elements) == order
    ids = model.coset_ids(frozenset())
    assert len(model.coset_reps(frozenset())) == flags
    assert sorted(set(ids.tolist())) == list(range(flags))
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
    full = model.parabolic_index(frozenset({0, 1}))
    assert len(full) == len(model.elements)
    borel = model.parabolic_index(frozenset())
    assert len(borel) == (q - 1) ** 3 * q ** 3
    mid = model.parabolic_index(frozenset({0}))
    # |P| = |L| * |U_P|: GL2 x GL1 Levi times q^2 unipotent radical
    assert len(mid) == group_order(2, q) * (q - 1) * q ** 2


# ------------------------------------------------ product-based reference

def _leibniz_det(m, q):
    """Determinant mod q by the permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total % q


def _matmul(a, b, q):
    """Product of two nested-tuple matrices mod q, entry by entry."""
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q
                       for j in range(n)) for i in range(n))


def _product_elements(n, q):
    """GL_n(F_q) in itertools.product order, filtered by the Leibniz formula."""
    mats = (tuple(tuple(bits[i * n:(i + 1) * n]) for i in range(n))
            for bits in itertools.product(range(q), repeat=n * n))
    return tuple(m for m in mats if _leibniz_det(m, q) != 0)


def _product_coset_table(elements, n, q, j, cls):
    """Representatives and coset ids (in element order) built by multiplying
    each new representative by every element of P_J, with P_J filtered from
    the elements."""
    par = [g for g in elements
           if all(g[i][c] == 0 for i in range(n) for c in range(i) if cls[i] != cls[c])]
    ids, reps = {}, []
    for g in elements:
        if g in ids:
            continue
        reps.append(elements.index(g))
        for x in par:
            ids[_matmul(g, x, q)] = len(reps) - 1
    return np.array(reps), np.array([ids[g] for g in elements])


@pytest.mark.parametrize("nq", [(2, 2), (3, 2), (2, 3), (2, 7)])
def test_flag_table_matches_products(nq):
    model = build_model(*nq)
    elements = _product_elements(*nq)
    assert (model.elements == np.array(elements)).all()
    for j in all_j(model.rs.rank):
        reps, ids = _product_coset_table(elements, *nq, j, model.block_classes(j))
        assert (model.coset_reps(j) == reps).all()
        assert (model.coset_ids(j) == ids).all()


@pytest.mark.parametrize("nq", [(2, 2), (3, 2), (2, 3), (2, 7), (3, 3)])
def test_batched_product_matches_reference(nq):
    """mul on index arrays agrees with the entry-by-entry product."""
    model = build_model(*nq)
    rng = np.random.default_rng(sum(nq))
    a, b = rng.integers(len(model.elements), size=(2, 200))
    got = model.mul(a, b)
    mats = [tuple(map(tuple, m)) for m in model.elements.tolist()]
    for x, y, z in zip(a, b, got):
        assert mats[z] == _matmul(mats[x], mats[y], model.q)


def test_flag_classes_are_cosets_gl3_f3():
    """On GL_3(F_3), the first and last class of each J is rep . P_J."""
    model = build_model(3, 3)
    for j in all_j(model.rs.rank):
        reps, ids = model.coset_reps(j), model.coset_ids(j)
        for c in {0, len(reps) - 1}:
            coset = model.mul(reps[c], model.parabolic_index(j))
            assert sorted(coset.tolist()) == np.flatnonzero(ids == c).tolist()


@st.composite
def square_stacks(draw):
    """(matrices, q); in some, one row is made a multiple of another, so
    singular matrices are drawn often."""
    n = draw(st.integers(1, 4))
    q = draw(st.sampled_from([2, 3, 5, 7]))
    entry = st.integers(0, q - 1)
    mats = []
    for _ in range(draw(st.integers(1, 8))):
        m = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if n > 1 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n)))[:2]
            c = draw(entry)
            m[a] = [c * x % q for x in m[b]]
        mats.append(m)
    return mats, q


def _zero_column(mats, q):
    """Whether the B form of each matrix has a zero column."""
    forms = glnq._flag_forms(np.array(mats, dtype=np.int64), q, list(range(len(mats[0]))))
    return (~forms.any(axis=1)).any(axis=1).tolist()


@settings(max_examples=80, deadline=None)
@given(square_stacks())
def test_b_form_zero_column_matches_leibniz(case):
    mats, q = case
    assert _zero_column(mats, q) == [_leibniz_det(m, q) == 0 for m in mats]


def test_b_form_sees_singular_matrices():
    mats = [[[1, 2], [2, 4]], [[0, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert _zero_column(mats, 5) == [True, True, False]


# ------------------------------------------------ premise checks

def _merge_two_spans(monkeypatch):
    """The canonical forms map the invertible form of largest code onto the
    invertible form of smallest code, so two cosets share one key."""
    real = glnq._flag_forms

    def merged(mats, q, cls):
        forms = real(mats, q, cls)
        codes = glnq.matrix_codes(forms, q)
        unit = np.flatnonzero(forms.any(axis=1).all(axis=1))
        lo, hi = unit[codes[unit].argmin()], unit[codes[unit].argmax()]
        forms[codes == codes[hi]] = forms[lo]
        return forms
    monkeypatch.setattr(glnq, "_flag_forms", merged)


def _split_cosets(monkeypatch):
    """Every J gets the B forms, so P_J classes split into B cosets."""
    real = glnq._flag_forms
    monkeypatch.setattr(glnq, "_flag_forms",
                        lambda mats, q, cls: real(mats, q, list(range(len(cls)))))


def _outside_generator(monkeypatch):
    """A lower root element joins the generators of every P_J, B included."""
    real = glnq.FiniteGroupModel.parabolic_generators

    def gens(self, j):
        low = tuple(tuple(int(a == b or (a, b) == (1, 0)) for b in range(self.n))
                    for a in range(self.n))
        return real(self, j) + [low]
    monkeypatch.setattr(glnq.FiniteGroupModel, "parabolic_generators", gens)


def _missing_generator(monkeypatch):
    """The lower root elements are left out, so only B is generated."""
    monkeypatch.setattr(glnq.FiniteGroupModel, "parabolic_generators",
                        lambda self, j: self.borel_generators())


@pytest.mark.parametrize("fault, nq, check", [
    (_merge_two_spans, (2, 2), "(d)"),
    (_split_cosets, (3, 2), "(b)"),
    (_outside_generator, (2, 2), "(a)"),
    (_missing_generator, (2, 2), "(c)"),
])
def test_premise_check_failure(monkeypatch, fault, nq, check):
    """Each broken premise raises CheckFailed and is an oracle.build fail record."""
    fault(monkeypatch)
    with pytest.raises(CheckFailed) as err:
        build_model(*nq)
    assert str(err.value).startswith(check)
    records = oracle_battery(SuiteConfig(types=(), oracle_models=(nq,)))
    assert [(r["check_id"], r["status"]) for r in records] == [("oracle.build", "fail")]
    assert records[0]["detail"] == str(err.value)


def test_oracle_leaves_numpy_ma_unloaded():
    """Plain np.unique imports numpy.ma on first use (about 1 MB of peak
    memory), and so does np.isin where it sorts; the oracle's distinct-index
    sets and membership masks avoid both.  numpy takes its table path in
    np.isin on the (2, 2) model and sorts on GL_3(F_3) and GL_2(F_7), so
    each model runs in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for nq in [(2, 2), (3, 3), (2, 7)]:
        code = ("import sys\n"
                "from specrep.suite import SuiteConfig, oracle_battery\n"
                f"recs = oracle_battery(SuiteConfig(types=(), oracle_models=({nq},)))\n"
                "assert {r['status'] for r in recs} == {'pass'}, recs\n"
                "print('numpy.ma' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, (nq, proc.stderr)
        assert proc.stdout.strip() == "False", nq
