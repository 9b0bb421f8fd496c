"""Root system construction checked against first-principles oracles."""

import pytest
import sympy

from specrep import roots as roots_module
from specrep.errors import UnsupportedType
from specrep.jsets import quasi_parabolic_sets
from specrep.roots import CartanType, RootSystem, cached, canonicalize, root_system
from specrep.weyl import enumerate_VJ, projection_table, simple, w_table

TYPES = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "A2xB2"]

# (type, num positive roots): |Phi+| is l(l+1)/2, l^2, l^2, l(l-1) by family
NUM_POSITIVE = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "C3": 9,
                "D4": 12, "A2xB2": 7}

# 1-based simple indices whose highest-root coefficient is 1
MARK_ONE = {"A3": [1, 2, 3], "B3": [1], "C3": [3], "D4": [1, 3, 4],
            "A2xB2": [1, 2, 3]}


# every type whose roots must be the family lists, up to rank 6
ORBIT_TYPES = ([f"A{l}" for l in range(1, 7)] + [f"B{l}" for l in range(2, 7)]
               + [f"C{l}" for l in range(2, 7)] + [f"D{l}" for l in range(4, 7)]
               + ["A2xB2", "A1xD4"])


def _family_roots(fam, l):
    """The closed-form roots of one factor in its window coordinates:
    e_i - e_j in A_l, then +-e_i (B), +-2e_i (C) and +-e_i +-e_j (B, C, D)."""
    def vec(entries):
        v = [0] * (l + 1 if fam == "A" else l)
        for i, x in entries:
            v[i] = x
        return tuple(v)
    if fam == "A":
        return [vec([(i, 1), (j, -1)]) for i in range(l + 1) for j in range(l + 1) if i != j]
    c = {"B": 1, "C": 2}.get(fam)
    out = [vec([(i, c)]) for i in range(l)] + [vec([(i, -c)]) for i in range(l)] if c else []
    return out + [vec([(i, si), (j, sj)]) for i in range(l) for j in range(i + 1, l)
                  for si in (1, -1) for sj in (1, -1)]


@pytest.mark.parametrize("t", ORBIT_TYPES)
def test_root_orbit_matches_family_lists(t):
    """The roots of each factor are the family's root list, with the
    simple-root coefficients that sympy solves for."""
    rs = root_system(t)
    want = []
    for fac in rs.factors:
        for v in _family_roots(fac.family, fac.rank):
            ambient = [0] * rs.window_dim
            ambient[fac.woff:fac.woff + fac.window] = v
            want.append(tuple(ambient))
    simples = sympy.Matrix([list(rs.roots[i].ambient) for i in rs.simple_indices]).T
    coeffs, free = simples.gauss_jordan_solve(sympy.Matrix(want).T)
    assert free.shape[0] == 0 and all(c.is_integer for c in coeffs)
    got = {r.ambient: r.coords for r in rs.roots}
    assert len(got) == len(rs.roots) == len(want)
    assert got == {v: tuple(int(c) for c in coeffs[:, k]) for k, v in enumerate(want)}


def orbit_roots(simples):
    """Every root of one factor mapped to its simple-root coefficients: the
    orbit of the simple roots under s_i(v) = v - <v, alpha_i^vee> alpha_i
    (every root of a reduced root system is W-conjugate to a simple root)."""
    found = {a: tuple(int(i == k) for i in range(len(simples))) for k, a in enumerate(simples)}
    queue = list(found)
    for v in queue:  # grows as new roots are found
        for i, a in enumerate(simples):
            num, den = 2 * sum(x * y for x, y in zip(v, a)), sum(y * y for y in a)
            assert num % den == 0, "non-integral Cartan pairing"
            k = num // den
            w = tuple(x - k * y for x, y in zip(v, a))
            if w not in found:
                found[w] = tuple(c - k * (m == i) for m, c in enumerate(found[v]))
                queue.append(w)
    return found


def _orbit_positive_roots(fam, rank):
    """The positive roots of the orbit, keyed as roots._local_roots keys them;
    every orbit root has coefficients of one sign."""
    found = orbit_roots(roots_module._local_simple_roots(fam, rank))
    signs = [{c > 0 for c in coeffs if c} for coeffs in found.values()]
    assert all(len(s) == 1 for s in signs)
    return {v: coeffs for v, coeffs in found.items() if min(coeffs) >= 0}


# A1-A8, B2-B8, C2-C8, D4-D8 and the product types of the CLI benchmark
CLOSED_FORM_TYPES = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
                     + [f"C{l}" for l in range(2, 9)] + [f"D{l}" for l in range(4, 9)]
                     + ["A1xA3", "A2xA2", "A2xB2", "A1xB3", "A1xC3", "A1xA1xA2", "B2xB2",
                        "A1xD4", "A2xA3", "A1xB4"])


@pytest.mark.parametrize("t", CLOSED_FORM_TYPES)
def test_closed_form_roots_match_the_orbit(t, monkeypatch):
    """rs.roots from the closed forms equals, Root by Root (index, factor,
    coords, ambient) and in order, the roots built from the orbit."""
    ct = CartanType.parse(t)
    got = RootSystem(ct)
    monkeypatch.setattr(roots_module, "_local_roots", _orbit_positive_roots)
    want = RootSystem(ct)
    assert got.roots == want.roots
    assert got.simple_indices == want.simple_indices


def test_parse_and_str():
    assert str(CartanType.parse("a3")) == "A3"
    assert str(CartanType.parse("A2xB2")) == "A2xB2"
    assert CartanType.parse("B2XC3").rank == 5


@pytest.mark.parametrize("bad", ["E8", "F4", "G2", "A0", "B1", "", "Axx"])
def test_parse_rejects(bad):
    with pytest.raises(UnsupportedType):
        root_system(bad)


def test_canonicalize_degenerate_d():
    with pytest.warns(UserWarning):
        ct = canonicalize(CartanType.parse("D2"))
    assert str(ct) == "A1xA1"
    with pytest.warns(UserWarning):
        ct = canonicalize(CartanType.parse("D3"))
    assert str(ct) == "A3"


@pytest.mark.parametrize("t", TYPES)
def test_num_positive(t):
    rs = root_system(t)
    assert rs.num_positive == NUM_POSITIVE[t]
    assert len(rs.roots) == 2 * rs.num_positive


@pytest.mark.parametrize("t", TYPES)
def test_negation_pairing(t):
    rs = root_system(t)
    for r in rs.roots:
        rn = rs.roots[rs.neg(r.index)]
        assert all(a == -b for a, b in zip(r.coords, rn.coords))
        assert rs.neg(rn.index) == r.index


@pytest.mark.parametrize("t", TYPES)
def test_reflection_closure(t):
    """Simple reflections permute the root set; positives are reachable.

    This is the defining property of a root system and is computed here
    from act_root alone, independent of the construction tables."""
    rs = root_system(t)
    n = len(rs.roots)
    for i in range(rs.rank):
        s = simple(rs, i)
        img = [rs.act_root(s, r) for r in range(n)]
        assert sorted(img) == list(range(n))
        img2 = [rs.act_root(s, r) for r in img]
        assert img2 == list(range(n))
    # closure: every root reachable from the simples
    seen = set(rs.simple_indices)
    frontier = sorted(seen)
    gens = [simple(rs, i) for i in range(rs.rank)]
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                r2 = rs.act_root(g, r)
                if r2 not in seen:
                    seen.add(r2)
                    nxt.append(r2)
        frontier = nxt
    seen |= {rs.neg(r) for r in seen}
    assert seen == set(range(n))


@pytest.mark.parametrize("t", TYPES)
def test_highest_root_dominates(t):
    """Within each factor every root is coordinatewise below the highest."""
    rs = root_system(t)
    for fi in range(len(rs.factors)):
        hi = rs.roots[rs.highest[fi]].coords
        for r in rs.roots:
            if r.factor == fi:
                assert all(c <= h for c, h in zip(r.coords, hi))


@pytest.mark.parametrize("t", sorted(MARK_ONE))
def test_mark_one_simples(t):
    rs = root_system(t)
    got = sorted(i + 1 for fi in range(len(rs.factors))
                 for i in rs.mark_one_simples(fi))
    assert got == MARK_ONE[t]


def test_product_factors():
    rs = root_system("A2xB2")
    assert len(rs.factors) == 2
    assert [f.family for f in rs.factors] == ["A", "B"]
    assert rs.rank == 4
    # roots of the two factors have disjoint coordinate support
    for r in rs.roots:
        support = {i for i, c in enumerate(r.coords) if c}
        assert support <= {0, 1} or support <= {2, 3}


def test_simple_roots_have_one_coordinate():
    rs = root_system("C3")
    for k, i in enumerate(rs.simple_indices):
        coords = rs.roots[i].coords
        assert coords[k] == 1 and sum(map(abs, coords)) == 1


def test_cached_hit_is_the_stored_object_and_a_raise_stores_nothing():
    """cached keeps fn(owner, *args) in owner.cache under (fn.__name__, *args):
    a hit returns the object the build returned, and a build that raises
    leaves no entry, so the next call builds again."""
    class Owner:
        def __init__(self):
            self.cache = {}

    calls = []

    @cached
    def build(owner, x):
        calls.append(x)
        if x < 0:
            raise ValueError(x)
        return [x]

    owner = Owner()
    first = build(owner, 1)
    assert build(owner, 1) is first and owner.cache == {("build", 1): first}
    for _ in range(2):
        with pytest.raises(ValueError):
            build(owner, -1)
    assert calls == [1, -1, -1] and owner.cache == {("build", 1): first}


def test_package_memos_return_the_stored_object():
    """The benchmark tracer counts fresh enumerations and quasi-parabolic
    families by object identity, so a second call must return the first
    call's object, the one kept in rs.cache."""
    rs = RootSystem(CartanType.parse("B3"))  # fresh cache
    j = frozenset({1})
    for fn in (enumerate_VJ, projection_table, quasi_parabolic_sets):
        first = fn(rs, j)
        assert fn(rs, j) is first and rs.cache[(fn.__name__, j)] is first
    assert w_table(rs) is w_table(rs) is rs.cache[("w_table",)]
