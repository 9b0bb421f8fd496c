"""The order <_J, its witnesses, descent chains and their lifts."""

import warnings
from dataclasses import replace

import pytest

from specrep.chains import (ChainStep, lift_chain, omega_factor_table, omega_group,
                            is_omega, successors,
                            validate_lift, validate_weyllem2, weyllem1_witness,
                            weyllem2_chain, z_j)
from specrep.errors import ChainInvalid, CheckFailed, NotOmegaElement, NoWitness
from specrep.roots import CartanType, RootSystem, root_system
from specrep.suite import check_hilfe, check_warmup, check_weylem
from specrep.weyl import (all_j, enumerate_VJ, enumerate_WJ, length, longest_element,
                          multiply, projection_table, simple, w_table)

from coset_oracles import leq_j, project, upset

RANK3 = ["A1", "A2", "A3", "B2", "B3", "C3"]

OMEGA_ORDERS = {"A1": 2, "A2": 3, "A3": 4, "A4": 5, "B2": 2, "B3": 2,
                "C3": 2, "D4": 4, "D5": 4, "A2xB2": 6}

CHAIN_TYPES = (["A%d" % l for l in range(1, 6)]
               + ["B%d" % l for l in range(2, 6)]
               + ["C%d" % l for l in range(2, 6)]
               + ["D4", "D5", "A2xB2"])


@pytest.mark.parametrize("t", RANK3 + ["D4"])
def test_z_j_ends(t):
    rs = root_system(t)
    assert z_j(rs, frozenset()) == longest_element(rs)
    assert z_j(rs, frozenset(range(rs.rank))) == rs.identity
    for j in all_j(rs.rank):
        z = z_j(rs, j)
        assert z in set(enumerate_VJ(rs, j))
        assert z == multiply(longest_element(rs), longest_element(rs, j))


@pytest.mark.parametrize("t", ["A2", "B2", "A3"])
def test_successors_raise_projected_length(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        for w in enumerate_WJ(rs, j):
            for s, v in successors(rs, j, w):
                assert v == project(rs, multiply(simple(rs, s), w), j)
                assert length(rs, v) > length(rs, w)


@pytest.mark.parametrize("t", ["A2", "B2", "A3"])
def test_upset_and_leq(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        z = z_j(rs, j)
        for w in enumerate_WJ(rs, j):
            up = upset(rs, j, w)
            assert w in up and z in up
            for v in up:
                assert leq_j(rs, j, w, v)
        # z is the unique maximum: its upset is itself
        assert upset(rs, j, z) == {z}


@pytest.mark.parametrize("t", RANK3)
def test_warmup_battery(t):
    assert check_warmup(root_system(t)) == (True, "exhaustive")


@pytest.mark.parametrize("t", RANK3)
def test_hilfe_battery(t):
    assert check_hilfe(root_system(t)) == (True, "exhaustive")


@pytest.mark.parametrize("t", RANK3)
def test_weylem_battery(t):
    assert check_weylem(root_system(t)) == (True, "parts a-f")


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                               "C3", "C4", "D4"])
def test_weyllem1_witnesses(t):
    """Every non-maximal element of V^J admits a raising witness."""
    rs = root_system(t)
    for j in all_j(rs.rank):
        z = z_j(rs, j)
        for w in enumerate_VJ(rs, j):
            if w == z:
                continue
            wprime, s = weyllem1_witness(rs, j, w)
            assert leq_j(rs, j, w, wprime) and w != wprime
            sw = project(rs, multiply(simple(rs, s), w), j)
            swp = project(rs, multiply(simple(rs, s), wprime), j)
            assert length(rs, sw) < length(rs, w)
            assert length(rs, swp) >= length(rs, wprime)


@pytest.mark.parametrize("t", sorted(OMEGA_ORDERS))
def test_omega_group(t):
    rs = root_system(t)
    elts = omega_group(rs)
    assert len(elts) == OMEGA_ORDERS[t]
    assert rs.identity in elts
    got = {multiply(a, b) for a in elts for b in elts}
    assert got == set(elts)
    for u in elts:
        assert is_omega(rs, u)
    table = omega_factor_table(rs)
    assert len(table) == len(rs.factors)


def test_is_omega_rejects(a2):
    assert not is_omega(a2, simple(a2, 0))
    with pytest.raises(NotOmegaElement):
        from specrep.chains import require_omega
        require_omega(a2, simple(a2, 0))


@pytest.mark.parametrize("t", CHAIN_TYPES)
def test_weyllem2_chain_validates(t):
    rs = root_system(t)
    steps = weyllem2_chain(rs)
    validate_weyllem2(rs, steps)
    assert steps[0].frm == longest_element(rs)
    assert steps[-1].to == rs.identity
    # s-steps climb one at a time; only Omega twists may reset the length
    for st in steps:
        if st.kind == "s":
            assert st.to == multiply(simple(rs, st.index), st.frm)
            assert length(rs, st.to) == length(rs, st.frm) + 1
        else:
            assert st.to == multiply(st.elt, st.frm)


def test_weyllem2_chain_degenerate_d():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in ("D2", "D3"):
            rs = root_system(t)
            validate_weyllem2(rs, weyllem2_chain(rs))


def test_validate_rejects_tampered_chain(a2):
    steps = weyllem2_chain(a2)
    bad = list(steps)
    bad[0] = type(steps[0])(kind="s", index=steps[0].index,
                            elt=None, frm=steps[0].to, to=steps[0].frm)
    with pytest.raises(ChainInvalid):
        validate_weyllem2(a2, bad)


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                               "C3", "C4", "D4", "A2xB2"])
def test_lift_chains_exhaustive(t):
    rs = root_system(t)
    for j in all_j(rs.rank):
        for w in enumerate_WJ(rs, j):
            validate_lift(rs, j, w, lift_chain(rs, w))


def test_lift_chain_rank5_corank1():
    """One big-J slice of a rank-5 group keeps the lift path honest."""
    rs = root_system("B5")
    j = frozenset(range(1, 5))
    for w in enumerate_WJ(rs, j):
        validate_lift(rs, j, w, lift_chain(rs, w))


# --- tampered lifts: one test per check of validate_lift ---

A2 = root_system("A2")
J1 = frozenset({0})


def _lift_to(w):
    return list(lift_chain(A2, w))


def _first(kind, steps):
    return next(k for k, st in enumerate(steps) if st.kind == kind)


def test_lift_rejects_broken_link():
    w = enumerate_WJ(A2, J1)[-1]
    bad = _lift_to(w)
    bad[3] = replace(bad[3], frm=bad[2].frm)
    with pytest.raises(ChainInvalid, match="step 3: broken link"):
        validate_lift(A2, J1, w, bad)


def test_lift_rejects_wrong_s_product():
    w = enumerate_WJ(A2, J1)[-1]
    bad = _lift_to(w)
    k = _first("s", bad)
    bad[k] = replace(bad[k], to=bad[k].frm)
    with pytest.raises(ChainInvalid, match=f"step {k}: wrong s-product"):
        validate_lift(A2, J1, w, bad)


def test_lift_rejects_wrong_omega_product():
    w = enumerate_WJ(A2, J1)[-1]
    bad = _lift_to(w)
    k = _first("omega", bad)
    bad[k] = replace(bad[k], to=bad[k].frm)
    with pytest.raises(ChainInvalid, match=f"step {k}: wrong omega product"):
        validate_lift(A2, J1, w, bad)


def test_lift_rejects_non_omega_element():
    w = enumerate_WJ(A2, J1)[-1]
    bad = _lift_to(w)
    k = _first("omega", bad)
    s = simple(A2, 0)
    bad[k] = replace(bad[k], elt=s, to=multiply(s, bad[k].frm))
    with pytest.raises(ChainInvalid, match=f"step {k}: .* is not in Omega"):
        validate_lift(A2, J1, w, bad)


def test_lift_rejects_unknown_kind():
    w = enumerate_WJ(A2, J1)[-1]
    bad = _lift_to(w)
    bad[0] = replace(bad[0], kind="t")
    with pytest.raises(ChainInvalid, match="step 0: unknown kind t"):
        validate_lift(A2, J1, w, bad)


def test_lift_rejects_step_that_keeps_projection_and_lowers_length():
    """s1 raises 1 to s1 inside the coset W_J; stepping back keeps the
    projection and the product right but lowers the length."""
    one, s1 = A2.identity, simple(A2, 0)
    up = _lift_to(one) + [ChainStep("s", 0, None, one, s1)]
    validate_lift(A2, J1, one, up)
    bad = up + [ChainStep("s", 0, None, s1, one)]
    with pytest.raises(ChainInvalid, match=f"step {len(bad) - 1}: s-step must raise length"):
        validate_lift(A2, J1, one, bad)


def test_lift_rejects_lowered_projection():
    w = next(x for x in enumerate_WJ(A2, J1) if length(A2, x) > 0)
    s = next(i for i in range(A2.rank)
             if length(A2, multiply(simple(A2, i), w)) < length(A2, w))
    bad = _lift_to(w) + [ChainStep("s", s, None, w, multiply(simple(A2, s), w))]
    with pytest.raises(ChainInvalid, match=f"step {len(bad) - 1}: projection neither"):
        validate_lift(A2, J1, w, bad)


def test_lift_rejects_wrong_start():
    j = frozenset()
    w = enumerate_WJ(A2, j)[0]
    with pytest.raises(ChainInvalid, match="must start over z_J"):
        validate_lift(A2, j, w, _lift_to(w)[1:])


def test_lift_rejects_wrong_end():
    w, other = enumerate_WJ(A2, J1)[:2]
    with pytest.raises(ChainInvalid, match="must end over w"):
        validate_lift(A2, J1, other, _lift_to(w))


@pytest.mark.parametrize("table, msg", [
    ("lmul", "wrong s-product"), ("lengths", "s-step must raise length by one"),
    ("proj", "projection neither kept nor raised"), ("omega", "wrong omega product")],
    ids=["lmul", "lengths", "proj", "omega"])
def test_corrupted_table_fails_lift(table, msg):
    """One wrong entry in a table of W that a lift reads must not pass.  The
    entry goes wrong before the system's first lift check, since the shared
    weyllem2 prefix is checked once per (type, J); a twin system with sound
    tables passes the same lift."""
    j = frozenset({0})
    twin = RootSystem(CartanType.parse("B2"))
    w = enumerate_WJ(twin, j)[-1]
    validate_lift(twin, j, w, lift_chain(twin, w))
    rs = RootSystem(CartanType.parse("B2"))  # its own tables, not the shared ones
    steps = lift_chain(rs, w)
    wt = w_table(rs)
    projection_table(rs, j)  # built from sound tables, as in the first check
    if table == "lmul":
        st = steps[-1]
        wt.lmul[st.index][wt.index[st.frm]] = wt.index[st.frm]
    elif table == "lengths":
        wt.lengths[wt.index[steps[-1].to]] += 2
    elif table == "proj":
        projection_table(rs, j)[wt.index[w]] = wt.index[rs.identity]
    else:  # the omega element's row read as the identity's: u w = w
        st = steps[_first("omega", steps)]
        wt.perms[wt.index[st.elt]] = wt.perms[0]
    with pytest.raises(ChainInvalid, match=msg):
        validate_lift(rs, j, w, steps)


def test_omega_product_leaving_w_fails_lift():
    """An omega step whose product is no element of W (the row of u
    zeroed) raises CheckFailed; the -1 of the miss is never read as W's
    last element."""
    j = frozenset({0})
    rs = RootSystem(CartanType.parse("B2"))
    w = enumerate_WJ(rs, j)[-1]
    steps = lift_chain(rs, w)
    wt = w_table(rs)
    projection_table(rs, j)
    wt.perms[wt.index[steps[_first("omega", steps)].elt]] = 0
    with pytest.raises(CheckFailed, match="B2: a product left the table of W"):
        validate_lift(rs, j, w, steps)


# --- the shared weyllem2 prefix of the lifts ---


def test_lift_prefix_copy_takes_the_full_check(monkeypatch):
    """A lift whose prefix is an equal copy of the weyllem2 steps, not the
    steps themselves, is checked from step 0 and still validates; the
    lift_chain original skips its prefix."""
    from specrep import chains

    rs = root_system("B3")
    j, firsts = frozenset({0}), []
    real = chains._validate_steps
    monkeypatch.setattr(chains, "_validate_steps",
                        lambda rs_, j_, steps, first, cur: firsts.append(first)
                        or real(rs_, j_, steps, first, cur))
    w = enumerate_WJ(rs, j)[-1]
    lift = lift_chain(rs, w)
    n = len(weyllem2_chain(rs))
    copy = [replace(st) for st in lift[:n]] + lift[n:]
    assert copy == lift and not any(a is b for a, b in zip(copy[:n], lift))
    validate_lift(rs, j, w, lift)
    validate_lift(rs, j, w, copy)
    assert firsts[-2:] == [n, 0]


def test_lift_prefix_step_replaced_is_caught():
    """One prefix step replaced by a wrong s-product fails at that step,
    after the genuine prefix has passed for the same (type, J)."""
    rs = root_system("B3")
    j = frozenset({0})
    w = enumerate_WJ(rs, j)[-1]
    validate_lift(rs, j, w, lift_chain(rs, w))
    bad = lift_chain(rs, w)
    k = next(i for i, st in enumerate(bad) if i >= 3 and st.kind == "s")
    assert k < len(weyllem2_chain(rs))
    bad[k] = replace(bad[k], to=bad[k].frm)
    with pytest.raises(ChainInvalid, match=f"step {k}: wrong s-product"):
        validate_lift(rs, j, w, bad)


def test_lift_prefix_checked_once_per_j(monkeypatch, count_builds):
    """Over a whole chains battery on B3 the weyllem2 prefix is validated
    once per J, not once per lift."""
    from specrep import chains, roots, suite

    rs = roots.RootSystem(roots.CartanType.parse("B3"))  # nothing cached
    monkeypatch.setitem(roots._SYSTEMS, rs.ct, rs)
    calls = count_builds(chains, "_checked_prefix")
    recs = suite.chains_battery(suite.SuiteConfig(types=("B3",)))
    assert all(r["status"] == "pass" for r in recs)
    lifts = sum(int(r["detail"].split()[0]) for r in recs if r["check_id"] == "chains.weyllem3")
    assert lifts == sum(len(enumerate_WJ(rs, j)) for j in all_j(3)) > 8
    assert sorted(calls, key=lambda c: sorted(c[1])) == [(rs, j) for j in sorted(all_j(3), key=sorted)]


def test_empty_lift_only_at_the_maximum():
    """An empty lift is valid exactly for the elements of W that project to
    z_J, read from W's projection table, and names the maximum otherwise."""
    from specrep.chains import z_j

    for w in enumerate_WJ(A2, J1):
        if w == z_j(A2, J1):
            validate_lift(A2, J1, w, [])
        else:
            with pytest.raises(ChainInvalid, match="empty lift only allowed at the maximum"):
                validate_lift(A2, J1, w, [])
    above = multiply(z_j(A2, J1), simple(A2, 0))  # another member of z_J W_J
    assert project(A2, above, J1) == z_j(A2, J1)
    validate_lift(A2, J1, above, [])


def test_no_witness_names_type_j_and_w():
    """z_J has no witness; the error names the type, J (1-based) and w."""
    z = z_j(A2, J1)
    with pytest.raises(NoWitness) as exc:
        weyllem1_witness(A2, J1, z)
    assert str(exc.value) == f"A2 J={{1}} w=({','.join(map(str, z[0]))}): no witness"
