"""Phi_J(w) and the quasi-parabolic family, with definition-level oracles."""

import functools
import itertools
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrep.errors import CapExceeded, NotQuasiParabolic
from specrep.jsets import (check_quasi_parabolic, indices_of, phi_j_masks, phi_j_one_mask,
                           quasi_parabolic_sets, sub_root_mask)
from specrep.roots import root_system
from specrep.weyl import all_j, enumerate_VJ, enumerate_W, enumerate_WJ, multiply, subgroup

from coset_oracles import mask_of, phi_j_mask, project, vj_of_d, wj_of_d

# total number of quasi-parabolic sets over all J, frozen after one
# enumeration; the rank-2 values are re-derived by brute closure below
QP_TOTALS = {"A1": 4, "A2": 28, "A3": 388, "B2": 52, "B3": 1812, "C3": 1812,
             "A4": 10456}
QP_B4_J1 = 20273  # quasi_parabolic_sets(B4, J={1}), a single-J scaling case


def pairwise_closure(rs, j):
    """Reference closure: intersect every pair of family members until
    nothing new appears, from generators computed straight from the action."""
    base = indices_of(phi_j_one_mask(rs, j))
    family = {mask_of(rs.act_root(w, r) for r in base) for w in enumerate_WJ(rs, j)}
    frontier = set(family)
    while frontier:
        new = {a & b for a in frontier for b in family} - family
        family |= new
        frontier = new
    return family


def test_mask_roundtrip():
    assert indices_of(mask_of([0, 3, 5])) == (0, 3, 5)
    assert mask_of(indices_of(0b101101)) == 0b101101
    assert indices_of(0) == ()


def test_sub_root_mask_counts(b2, a3):
    # span of one simple root holds exactly that root and its negative
    for rs in (b2, a3):
        for i in range(rs.rank):
            assert len(indices_of(sub_root_mask(rs, frozenset({i})))) == 2
        assert len(indices_of(sub_root_mask(rs, frozenset()))) == 0
        full = sub_root_mask(rs, frozenset(range(rs.rank)))
        assert len(indices_of(full)) == len(rs.roots)


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_phi_j_oracle(t):
    """Phi_J(w) = w . (negatives outside span J), recomputed from scratch."""
    rs = root_system(t)
    neg = set(range(rs.num_positive, 2 * rs.num_positive))
    for j in all_j(rs.rank):
        span = set(indices_of(sub_root_mask(rs, j)))
        base = neg - span
        assert phi_j_one_mask(rs, j) == mask_of(base)
        for w in enumerate_WJ(rs, j):
            expect = mask_of(rs.act_root(w, r) for r in base)
            assert phi_j_mask(rs, j, w) == expect


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_phi_j_coset_invariance(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        for w in enumerate_W(rs):
            rep = project(rs, w, j)
            for v in subgroup(rs, j):
                assert phi_j_mask(rs, j, multiply(w, v)) == phi_j_mask(rs, j, rep)


@pytest.mark.parametrize("t", sorted(QP_TOTALS))
def test_qp_counts_frozen(t):
    rs = root_system(t)
    total = sum(len(quasi_parabolic_sets(rs, j)) for j in all_j(rs.rank))
    assert total == QP_TOTALS[t]
    if t == "A2":
        assert len(quasi_parabolic_sets(rs, frozenset())) == 19


def test_qp_count_frozen_b4_j1():
    assert len(quasi_parabolic_sets(root_system("B4"), frozenset({0}))) == QP_B4_J1


def _jid(v):
    return ("J={" + ",".join(str(i + 1) for i in sorted(v)) + "}"
            if isinstance(v, frozenset) else None)


@pytest.mark.parametrize("t,j", [(t, j) for t in ("A3", "B3", "C3")
                                 for j in all_j(3)] + [("A4", frozenset({0}))], ids=_jid)
def test_qp_generator_closure_matches_pairwise(t, j):
    rs = root_system(t)
    assert {d.mask for d in quasi_parabolic_sets(rs, j)} == pairwise_closure(rs, j)


# rank 6: B6 and C6 have 72 roots, so their masks are Python ints; D6 has 60
RANK6_QP = [("B6", frozenset({1, 2, 3, 4, 5}), 73), ("B6", frozenset({0, 1, 2, 3, 4}), 729),
            ("C6", frozenset({1, 2, 3, 4, 5}), 73), ("C6", frozenset({0, 1, 2, 3, 4}), 729),
            ("D6", frozenset({0, 1, 2, 3, 5}), 493)]


@pytest.mark.parametrize("t,j,count", RANK6_QP, ids=lambda v: _jid(v) or v)
def test_qp_rank6_masks(t, j, count):
    """The closure on Python-int masks (B6, C6) and on uint64 ones (D6):
    the pairwise closure's family, in size-then-lex order, each set's roots
    read off its mask."""
    rs = root_system(t)
    assert phi_j_masks(rs, j).dtype == (np.uint64 if t == "D6" else object)
    sets = quasi_parabolic_sets(rs, j)
    assert len(sets) == count
    assert {d.mask for d in sets} == pairwise_closure(rs, j)
    keys = [(len(d.roots), d.roots) for d in sets]
    assert keys == sorted(keys)
    assert all(d.roots == indices_of(d.mask) for d in sets)


@pytest.mark.parametrize("t", ["A3", "B3", "D4"])
def test_phi_j_masks_table(t):
    """One read-only uint64 array per (type, J), in W^J's table order."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        table = phi_j_masks(rs, j)
        assert table.dtype == np.uint64 and not table.flags.writeable
        assert table.tolist() == [phi_j_mask(rs, j, w) for w in wj]


def _cut_out(gens, mask):
    """The AND of the generators that contain mask (all roots if none)."""
    return functools.reduce(operator.and_, [g for g in gens if g & mask == mask], -1)


@pytest.mark.parametrize("t", ["A1", "A2", "B2"])
def test_qp_brute_closure(t):
    """Rank <= 2: compare against intersections over all witness subsets."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        gens = [phi_j_mask(rs, j, w) for w in enumerate_WJ(rs, j)]
        brute = set()
        for r in range(1, len(gens) + 1):
            for combo in itertools.combinations(gens, r):
                m = combo[0]
                for x in combo[1:]:
                    m &= x
                brute.add(m)
        got = {d.mask for d in quasi_parabolic_sets(rs, j)}
        assert got == brute


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3"])
def test_qp_family_properties(t):
    """Distinct, closed under intersection, holding every Phi_J(w), each
    set the AND of the Phi_J(w) over W^J(D), in canonical order."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        sets = quasi_parabolic_sets(rs, j)
        masks = {d.mask for d in sets}
        assert len(masks) == len(sets)
        # closed under intersection, contains every generator
        for d1 in sets:
            for d2 in sets:
                assert d1.mask & d2.mask in masks
        for w in enumerate_WJ(rs, j):
            assert phi_j_mask(rs, j, w) in masks
        # each set is cut out by the Phi_J(w) that contain it
        gens = [phi_j_mask(rs, j, w) for w in enumerate_WJ(rs, j)]
        assert all(_cut_out(gens, d.mask) == d.mask for d in sets)
        # canonical order: size then lex
        keys = [(len(d.roots), d.roots) for d in sets]
        assert keys == sorted(keys)


def test_check_quasi_parabolic(a2):
    j = frozenset({0})
    good = quasi_parabolic_sets(a2, j)[0].mask
    check_quasi_parabolic(a2, j, good)
    taken = {d.mask for d in quasi_parabolic_sets(a2, j)}
    bad = next(m for m in range(1 << len(a2.roots)) if m not in taken)
    with pytest.raises(NotQuasiParabolic) as exc:
        check_quasi_parabolic(a2, j, bad)
    assert str(exc.value) == f"A2 J={{1}}: mask {bad:#x} is not quasi-parabolic"


@pytest.mark.parametrize("t", ["A2", "A3", "B2", "B3", "D4"])
def test_wj_vj_of_d(t):
    """W^J(D) by the table's masks is W^J(D) by the root action, and the
    AND of Phi_J(w) over it is D."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        vj = set(enumerate_VJ(rs, j))
        wj = enumerate_WJ(rs, j)
        gens = [phi_j_mask(rs, j, w) for w in wj]
        masks = phi_j_masks(rs, j).tolist()
        for d in quasi_parabolic_sets(rs, j):
            wjd = wj_of_d(rs, j, d.mask, masks)
            assert wjd == tuple(w for w, g in zip(wj, gens) if g & d.mask == d.mask)
            assert set(vj_of_d(rs, j, d.mask, masks)) == set(wjd) & vj
            assert _cut_out(gens, d.mask) == d.mask
        # the empty set is always quasi-parabolic and pulls in everything
        assert wj_of_d(rs, j, 0, masks) == enumerate_WJ(rs, j)


def test_qp_cap_exits_3(monkeypatch, plant):
    """A planted cap of 10 sets on a fresh A3: the closure raises
    CapExceeded and caches nothing, `specrep qp` and `specrep exactness`
    exit 3, and the suite records skips, never a fail."""
    from specrep import cli, jsets, suite

    rs = plant("A3")
    monkeypatch.setattr(jsets, "QP_CAP", 10)
    with pytest.raises(CapExceeded, match="A3 J=\\{\\}: the quasi-parabolic family grew past"):
        quasi_parabolic_sets(rs, frozenset())
    for cmd in ("qp", "exactness"):
        assert cli.main([cmd, "--type", "A3", "--out", os.devnull]) == 3
    recs = suite.exactness_battery(suite.SuiteConfig(types=("A3",)))
    skips = [r for r in recs if r["status"] == "skip"]
    assert skips and all(r["detail"].startswith("CapExceeded: ") for r in skips)
    assert {r["status"] for r in recs} == {"pass", "skip"}
    capped = [j for j in all_j(rs.rank) if ("quasi_parabolic_sets", j) not in rs.cache]
    assert frozenset() in capped
    assert all(("_qp_masks", j) not in rs.cache for j in capped)
    kept = [j for j in all_j(rs.rank) if j not in capped]
    assert kept and all(("_qp_masks", j) in rs.cache for j in kept)
    assert all(len(rs.cache[("quasi_parabolic_sets", j)]) <= 10 for j in kept)


def test_capped_closure_stores_nothing(monkeypatch):
    """A closure that raises CapExceeded leaves no entry: it raises again on
    the next call, and once the cap is raised the same root system builds
    the family."""
    from specrep import jsets
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("A3"))  # fresh cache
    j, cap = frozenset(), jsets.QP_CAP
    monkeypatch.setattr(jsets, "QP_CAP", 10)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            quasi_parabolic_sets(rs, j)
        with pytest.raises(CapExceeded):
            check_quasi_parabolic(rs, j, 0)
    monkeypatch.setattr(jsets, "QP_CAP", cap)
    check_quasi_parabolic(rs, j, 0)  # the empty set is quasi-parabolic
    assert len(quasi_parabolic_sets(rs, j)) > 10
    assert quasi_parabolic_sets(rs, j) == quasi_parabolic_sets(root_system("A3"), j)


@pytest.mark.parametrize("t,j", [("A3", frozenset()), ("B6", frozenset({1, 2, 3, 4, 5}))],
                         ids=lambda v: _jid(v) or v)
def test_qp_cap_trips_on_a_later_generator(monkeypatch, t, j):
    """The cap is checked after each generator against the whole family:
    a cap of |family| builds it, and |family| - 1 raises on the step that
    completes the family, a later one than the first (which holds one set)."""
    from specrep import jsets
    from specrep.roots import CartanType, RootSystem

    size = len(quasi_parabolic_sets(root_system(t), j))
    assert len(set(phi_j_masks(root_system(t), j).tolist())) > 1
    rs = RootSystem(CartanType.parse(t))  # fresh cache
    monkeypatch.setattr(jsets, "QP_CAP", size - 1)
    with pytest.raises(CapExceeded, match=f"past the cap of {size - 1} sets"):
        quasi_parabolic_sets(rs, j)
    assert ("quasi_parabolic_sets", j) not in rs.cache
    monkeypatch.setattr(jsets, "QP_CAP", size)
    assert quasi_parabolic_sets(rs, j) == quasi_parabolic_sets(root_system(t), j)


def test_phi_j_one_mask_scans_roots_once_per_j(monkeypatch):
    """Phi_J(1) is computed once per (type, J), however many masks use it."""
    from specrep import jsets
    from specrep.roots import CartanType, RootSystem

    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    real = jsets.sub_root_mask
    calls = []
    monkeypatch.setattr(jsets, "sub_root_mask", lambda rs_, j: calls.append(j) or real(rs_, j))
    for j in all_j(rs.rank):
        phi_j_masks(rs, j)
        quasi_parabolic_sets(rs, j)
    assert len(calls) == len(set(calls)) == 1 << rs.rank


def _indices_by_shifting(mask):
    """indices_of as one loop over every bit."""
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**200))
def test_indices_of_matches_bit_loop(mask):
    got = indices_of(mask)
    assert got == _indices_by_shifting(mask)
    assert mask_of(got) == mask
