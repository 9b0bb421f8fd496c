"""Weyl group combinatorics against brute-force oracles.

The oracles here recompute lengths, projections and coset data from the
root action alone, so they are independent of the per-family formulas
used by the library.
"""

import re

import pytest

from specrep.errors import CheckFailed
from specrep.roots import CartanType, RootSystem, root_system
from specrep.weyl import (_simple_perms, all_j, coset_table, enumerate_VJ, enumerate_W,
                          enumerate_WJ, flat, group_order, inverse, length,
                          longest_element, multiply, projection_table, simple,
                          subgroup, vj_rows, w_table, wj_table)

from coset_oracles import (in_VJ, in_WJ, inversion_roots, left_descents, project,
                           reduced_word)

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48,
          "D4": 192, "A2xB2": 48}

SMALL = ["A1", "A2", "A3", "B2", "B3", "C3"]

# V^J sizes keyed by 1-based J; the two ends are forced (V^0 = {w_Delta}
# and W^Delta = {e}), the middle values were enumerated by hand
B2_VJ = {(): 1, (1,): 3, (2,): 3, (1, 2): 1}
A2_VJ = {(): 1, (1,): 2, (2,): 2, (1, 2): 1}


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_group_order(t):
    rs = root_system(t)
    w_all = enumerate_W(rs)
    assert len(w_all) == len(set(w_all)) == group_order(rs) == ORDERS[t]


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_length_is_inversion_count(t):
    rs = root_system(t)
    for w in enumerate_W(rs):
        assert length(rs, w) == len(inversion_roots(rs, w))


@pytest.mark.parametrize("t", SMALL + ["D4"])
def test_group_axioms_and_inverse(t):
    rs = root_system(t)
    w_all = enumerate_W(rs)
    e = rs.identity
    for w in w_all[:24]:
        assert multiply(w, inverse(w)) == e
        assert multiply(inverse(w), w) == e
    a, b, c = w_all[1 % len(w_all)], w_all[-1], w_all[len(w_all) // 2]
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_longest_element(t):
    rs = root_system(t)
    wd = longest_element(rs)
    assert length(rs, wd) == rs.num_positive
    assert multiply(wd, wd) == rs.identity
    assert max(length(rs, w) for w in enumerate_W(rs)) == rs.num_positive
    # w_Delta sends every positive root to a negative one
    for i in range(rs.num_positive):
        assert rs.act_root(wd, i) >= rs.num_positive


@pytest.mark.parametrize("t", SMALL)
def test_project_is_coset_minimum(t):
    """(w)^J is the unique shortest element of wW_J: brute-forced here."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj_group = subgroup(rs, j)
        for w in enumerate_W(rs):
            coset = [multiply(w, v) for v in wj_group]
            best = min(coset, key=lambda x: length(rs, x))
            assert sum(1 for x in coset
                       if length(rs, x) == length(rs, best)) == 1
            assert project(rs, w, j) == best


@pytest.mark.parametrize("t", SMALL + ["D4"])
def test_wj_enumeration(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        wj = enumerate_WJ(rs, j)
        assert len(wj) * len(subgroup(rs, j)) == group_order(rs)
        assert all(in_WJ(rs, w, j) for w in wj)
        # sorted by (length, flat) and starting at the identity
        keys = [(length(rs, w), flat(w)) for w in wj]
        assert keys == sorted(keys)
        assert wj[0] == rs.identity


@pytest.mark.parametrize("t", ["A2", "B2"])
def test_vj_sizes_frozen(t):
    rs = root_system(t)
    table = A2_VJ if t == "A2" else B2_VJ
    for jt, size in table.items():
        j = frozenset(i - 1 for i in jt)
        vj = enumerate_VJ(rs, j)
        assert len(vj) == size
        assert all(in_VJ(rs, w, j) for w in vj)


@pytest.mark.parametrize("t", sorted(ORDERS))
def test_vj_partition(t):
    """Summing |V^J| over all J recovers |W| exactly once."""
    rs = root_system(t)
    total = sum(len(enumerate_VJ(rs, j)) for j in all_j(rs.rank))
    assert total == group_order(rs)


@pytest.mark.parametrize("t", SMALL + ["D4", "A2xB2"])
def test_reduced_word(t):
    rs = root_system(t)
    for w in enumerate_W(rs):
        word = reduced_word(rs, w)
        assert len(word) == length(rs, w)
        acc = rs.identity
        for s in word:
            acc = multiply(acc, simple(rs, s))
        assert acc == w


@pytest.mark.parametrize("t", SMALL)
def test_left_descents(t):
    rs = root_system(t)
    for w in enumerate_W(rs):
        ds = left_descents(rs, w)
        for s in range(rs.rank):
            shorter = length(rs, multiply(simple(rs, s), w)) < length(rs, w)
            assert (s in ds) == shorter


def test_minimal_reps_b3(b3):
    j = frozenset({0})
    for k in [frozenset({0, 1}), frozenset({0, 2})]:
        reps = coset_table(b3, k, j).elements
        assert len(reps) == len(subgroup(b3, k)) // len(subgroup(b3, j))
        got = {multiply(r, v) for r in reps for v in subgroup(b3, j)}
        assert got == set(subgroup(b3, k))


WALK_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
              "A1xA2", "A2xB2", "A1xB3", "A1xA1xA2"]


@pytest.mark.parametrize("t", WALK_TYPES)
def test_wj_walk_matches_filter(t):
    """The coset walk gives the filter of W by in_WJ, element for element."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        assert enumerate_WJ(rs, j) == tuple(w for w in enumerate_W(rs) if in_WJ(rs, w, j))


@pytest.mark.parametrize("t", ["A3", "B3", "D4", "A2xB2"])
def test_minimal_reps_walk_matches_filter(t):
    rs = root_system(t)
    for k in all_j(rs.rank):
        for j in all_j(rs.rank):
            if j <= k:
                assert coset_table(rs, k, j).elements == tuple(
                    u for u in subgroup(rs, k) if in_WJ(rs, u, j))


@pytest.mark.parametrize("t", ["A3", "B3", "D4", "A2xB2", "A1xB3"])
def test_subgroup_walk_matches_filter(t):
    """W_K is the set of w whose inversion roots all lie in Phi_K."""
    rs = root_system(t)
    for k in all_j(rs.rank):
        assert subgroup(rs, k) == tuple(
            w for w in enumerate_W(rs)
            if all(all(c == 0 or i in k for i, c in enumerate(rs.roots[r].coords))
                   for r in inversion_roots(rs, w)))


def _corrupt_identity(rs, sigma):
    sigma[0] = list(range(len(rs.roots)))


def _corrupt_swap(rs, sigma):
    sigma[0], sigma[1] = sigma[1], sigma[0]


@pytest.mark.parametrize("t", ["A3", "D4", "A2xB2"])
@pytest.mark.parametrize("corrupt", [_corrupt_identity, _corrupt_swap])
def test_coset_walk_premise(t, corrupt):
    """A wrong sigma_s makes the walk miss w_K w_J (or outgrow W, as the
    identity sigma_0 would forever): CheckFailed names the type, K and J."""
    rs = RootSystem(CartanType.parse(t))  # fresh cache
    sigma = list(_simple_perms(rs))
    corrupt(rs, sigma)
    rs.cache[("_simple_perms",)] = tuple(sigma)
    kset = ",".join(str(i + 1) for i in range(rs.rank))
    with pytest.raises(CheckFailed, match=re.escape(f"{t} K={{{kset}}} J={{2}}: the coset walk")):
        enumerate_WJ(rs, frozenset({1}))


def test_all_j_order():
    """Every subset once, by size and then lexicographically."""
    assert all_j(0) == [frozenset()]
    got = all_j(3)
    assert [sorted(j) for j in got] == [[], [0], [1], [2], [0, 1], [0, 2], [1, 2],
                                        [0, 1, 2]]
    assert len(set(all_j(5))) == len(all_j(5)) == 32


CORE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "A2xB2"]


@pytest.mark.parametrize("t", CORE_TYPES)
def test_index_core_agrees_with_tuples(t):
    """Every whole-group lookup of W's table against tuple multiply, length
    and project."""
    from specrep.chains import omega_group

    rs = root_system(t)
    table = w_table(rs)
    perms = table.perms
    assert table.elements == enumerate_W(rs)
    assert table.index[rs.identity] == 0
    omega = omega_group(rs)
    tables = {j: projection_table(rs, j) for j in all_j(rs.rank)}
    for k, w in enumerate(table.elements):
        assert table.index[w] == k
        assert table.lengths[k] == length(rs, w)
        for i in range(rs.rank):
            s = simple(rs, i)
            assert table.elements[table.lmul[i][k]] == multiply(s, w)
            assert table.elements[table.rmul[i][k]] == multiply(w, s)
        for u in omega:  # an omega step's one-row find
            uw = int(table.find(perms[table.index[u]][perms[k]]))
            assert table.elements[uw] == multiply(u, w)
        for j, proj in tables.items():
            assert table.elements[proj[k]] == project(rs, w, j)
        word = reduced_word(rs, w)
        acc = rs.identity
        for i in word:
            acc = multiply(acc, simple(rs, i))
        assert acc == w and len(word) == length(rs, w)
        assert left_descents(rs, w) == tuple(
            i for i in range(rs.rank)
            if length(rs, multiply(simple(rs, i), w)) < length(rs, w))


TABLE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "A2xB2"]


@pytest.mark.parametrize("t", TABLE_TYPES)
def test_coset_table_rows_are_root_actions(t):
    """Every row of every walked W_K^J (W^J, and each W_K^J for K
    containing J) is its element's action on the roots, by the tuple
    act_root; lengths, W^J membership and find agree with the tuple length
    and in_WJ."""
    rs = root_system(t)
    roots = range(len(rs.roots))
    for j in all_j(rs.rank):
        for k in [k for k in all_j(rs.rank) if j <= k]:  # K = Delta walks W^J
            table = coset_table(rs, k, j)
            for i, w in enumerate(table.elements):
                assert table.perms[i].tolist() == [rs.act_root(w, r) for r in roots]
                assert table.lengths[i] == length(rs, w)
                assert in_WJ(rs, w, j)
            assert table.find(table.perms).tolist() == list(range(len(table.elements)))
        wj = wj_table(rs, j)
        assert [wj.elements[i] for i in vj_rows(rs, j)] == [
            w for w in wj.elements if in_VJ(rs, w, j)]


@pytest.mark.parametrize("t", ["A3", "B3", "A2xB2"])
def test_left_products_agree_with_tuples(t):
    """lmul and rmul of each W^J table against the tuple multiply: the
    position of s*w and of w*s, or -1 exactly when it leaves W^J."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        table = wj_table(rs, j)
        wj = table.elements
        for s in range(rs.rank):
            for prods, got in ((lambda w: multiply(simple(rs, s), w), table.lmul[s]),
                               (lambda w: multiply(w, simple(rs, s)), table.rmul[s])):
                assert got == [wj.index(x) if in_WJ(rs, x, j) else -1
                               for x in map(prods, wj)]


def _fresh_w(t):
    """A system with its own tables, so planting leaves the shared one alone."""
    rs = RootSystem(CartanType.parse(t))
    return rs, w_table(rs)


def test_product_leaving_w_raises():
    """A product read off W's table that is no element of W raises
    CheckFailed: a -1 is never handed on to be read as the last position.
    In a W^J table the same miss is a -1."""
    rs, table = _fresh_w("A2")
    bad = table.perms[[1]].copy()
    bad[0, [0, 1]] = bad[0, [1, 0]]
    with pytest.raises(CheckFailed, match="A2: a product left the table of W"):
        table.find(bad)
    assert wj_table(rs, frozenset({0})).find(table.perms).tolist().count(-1) == 3


@pytest.mark.parametrize("plant", ["involution", "length"])
def test_product_tables_are_checked(plant):
    """A product by s_1 planted as one by s_1 s_2, which stays in W but is no
    involution, or a length off by two, fails the product tables instead of
    being read."""
    rs, table = _fresh_w("A3")
    if plant == "length":
        table.lengths[1] += 2
    else:
        sigma = table._sigma = table._sigma.copy()
        sigma[0] = sigma[0][sigma[1]]
    with pytest.raises(CheckFailed, match="not an involution that moves the length by one"):
        table.lmul


def test_longest_element_of_w_has_one_entry():
    """longest_element(rs) and longest_element(rs, Delta) are one element,
    memoized once."""
    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    delta = frozenset(range(rs.rank))
    assert longest_element(rs) is longest_element(rs, delta)
    assert [k for k in rs.cache if k[0] == "_longest"] == [("_longest", delta)]
