"""Weyl group elements, lengths, parabolic quotients W^J and V^J.

An element is a tuple of per-factor window tuples (value maps), with
composition (a*b)(j) = a(b(j)), so a*b means "apply b first".  Every
enumeration is sorted by (length, flattened tuple) and cached on the
RootSystem.

W^J, the parabolic subgroups W_K and the minimal representatives W_K^J of
W_K / W_J are walked from the identity by left multiplication, never
filtered out of W: each walked w carries w^-1 as a permutation of root
indices, s*w is an ascent that stays in W^J unless w^-1(alpha_s) is
negative or a simple root of J (Deodhar's lemma), and an element is
reached only from s*x with s its smallest left descent.  So a point query
on one J touches |W^J| elements; only J = {} (W^{} = W) and the
whole-group walks enumerate W.

Walks over the whole group use the index core instead (index_core): an
element is its position in enumerate_W, the identity is 0, and products
by simple reflections, lengths and the projections w -> w^J are list
lookups.  The core is built on first use, from the tuple multiply and
length, which stay the oracle; enumerate_W does not build it, so a
command that enumerates W without walking it pays nothing.  Tuples remain
at the JSON boundary, in weyllem2_chain (whose rank-6 chains must not
enumerate W) and in the per-element callers that touch a few elements of
a large group.
"""

from __future__ import annotations

import itertools
from math import factorial

from .errors import CapExceeded, CheckFailed, TypeMismatch, ensure
from .roots import Block, RootSystem, Weyl, apply_block

DEFAULT_ENUM_CAP = 10**7

JSet = frozenset[int]


def flat(w: Weyl) -> tuple[int, ...]:
    return tuple(x for blk in w for x in blk)


def multiply(a: Weyl, b: Weyl) -> Weyl:
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        raise TypeMismatch("elements from different Weyl groups")
    return tuple(tuple(apply_block(x, v) for v in y) for x, y in zip(a, b))


def inverse(w: Weyl) -> Weyl:
    out = []
    for blk in w:
        inv = [0] * len(blk)
        for j, v in enumerate(blk, start=1):
            if v > 0:
                inv[v - 1] = j
            else:
                inv[-v - 1] = -j
        out.append(tuple(inv))
    return tuple(out)


def _block_length(fam: str, blk: Block) -> int:
    n = len(blk)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if blk[i] > blk[j])
    if fam == "A":
        return inv
    if fam in "BC":
        return inv + sum(-v for v in blk if v < 0)
    return inv + sum(1 for i in range(n) for j in range(i + 1, n) if blk[i] + blk[j] < 0)


def length(rs: RootSystem, w: Weyl) -> int:
    cache = rs.cache.setdefault("len", {})
    val = cache.get(w)
    if val is None:
        val = sum(_block_length(fac.family, blk) for fac, blk in zip(rs.factors, w))
        cache[w] = val
    return val


def simple(rs: RootSystem, i: int) -> Weyl:
    return rs.simple_reflections[i]


def image_positive(rs: RootSystem, w: Weyl, i: int) -> bool:
    """Is w(alpha_i) a positive root?"""
    return rs.is_positive(rs.act_root(w, rs.simple_indices[i]))


def group_order(rs: RootSystem) -> int:
    n = 1
    for fac in rs.factors:
        if fac.family == "A":
            n *= factorial(fac.rank + 1)
        elif fac.family in "BC":
            n *= 2**fac.rank * factorial(fac.rank)
        else:
            n *= 2 ** (fac.rank - 1) * factorial(fac.rank)
    return n


def _factor_elements(fam: str, rank: int) -> list[Block]:
    if fam == "A":
        return [tuple(p) for p in itertools.permutations(range(1, rank + 2))]
    out = []
    for p in itertools.permutations(range(1, rank + 1)):
        for signs in itertools.product((1, -1), repeat=rank):
            if fam == "D" and signs.count(-1) % 2:
                continue
            out.append(tuple(s * v for s, v in zip(signs, p)))
    return out


def _check_cap(rs: RootSystem, cap: int = DEFAULT_ENUM_CAP) -> None:
    order = group_order(rs)
    if order > cap:
        raise CapExceeded(f"|W| = {order} exceeds cap {cap}")


def enumerate_W(rs: RootSystem, cap: int = DEFAULT_ENUM_CAP) -> tuple[Weyl, ...]:
    got = rs.cache.get("W")
    if got is not None:
        return got
    _check_cap(rs, cap)
    pools = [_factor_elements(fac.family, fac.rank) for fac in rs.factors]
    elems = [tuple(blocks) for blocks in itertools.product(*pools)]
    elems.sort(key=lambda w: (length(rs, w), flat(w)))
    out = tuple(elems)
    rs.cache["W"] = out
    return out


def all_j(rank: int) -> list[JSet]:
    """Every subset of the simple indices, by size and then lexicographically."""
    return [frozenset(c) for r in range(rank + 1)
            for c in itertools.combinations(range(rank), r)]


def in_WJ(rs: RootSystem, w: Weyl, j: JSet) -> bool:
    return all(image_positive(rs, w, i) for i in j)


def in_VJ(rs: RootSystem, w: Weyl, j: JSet) -> bool:
    if not in_WJ(rs, w, j):
        return False
    return all(not image_positive(rs, w, i) for i in range(rs.rank) if i not in j)


def enumerate_WJ(rs: RootSystem, j: JSet) -> tuple[Weyl, ...]:
    key = ("WJ", j)
    got = rs.cache.get(key)
    if got is None:
        if j:
            _check_cap(rs)
            got = _coset_walk(rs, frozenset(range(rs.rank)), j)
        else:
            got = enumerate_W(rs)
        rs.cache[key] = got
    return got


def enumerate_VJ(rs: RootSystem, j: JSet) -> tuple[Weyl, ...]:
    key = ("VJ", j)
    got = rs.cache.get(key)
    if got is None:
        got = tuple(w for w in enumerate_WJ(rs, j) if in_VJ(rs, w, j))
        rs.cache[key] = got
    return got


def longest_element(rs: RootSystem, j: JSet | None = None) -> Weyl:
    """Longest element of the standard parabolic W_J (of W itself when j is None)."""
    if j is None:
        j = frozenset(range(rs.rank))
    key = ("w0", j)
    got = rs.cache.get(key)
    if got is not None:
        return got
    idx = sorted(j)
    w = rs.identity
    while True:
        for i in idx:
            if image_positive(rs, w, i):
                w = multiply(w, rs.simple_reflections[i])
                break
        else:
            break
    rs.cache[key] = w
    return w


def project(rs: RootSystem, w: Weyl, j: JSet) -> Weyl:
    """Minimal coset representative of wW_J: strip negative J-images, smallest index first."""
    idx = sorted(j)
    while True:
        for i in idx:
            if not image_positive(rs, w, i):
                w = multiply(w, rs.simple_reflections[i])
                break
        else:
            return w


def projection_table(rs: RootSystem, j: JSet) -> list[int]:
    """w -> w^J on core indices, filled in length order: an element with a
    right descent s in J takes the entry of ws, which is shorter."""
    core = index_core(rs)
    got = core.proj.get(j)
    if got is not None:
        return got
    lens = core.lengths
    rows = [core.rmul[i] for i in sorted(j)]
    table: list[int] = []
    for w in range(len(lens)):
        for row in rows:
            if lens[row[w]] < lens[w]:
                table.append(table[row[w]])
                break
        else:
            table.append(w)
    core.proj[j] = table
    return table


def subgroup(rs: RootSystem, k: JSet) -> tuple[Weyl, ...]:
    """Standard parabolic subgroup W_K, sorted like enumerate_W."""
    key = ("sub", k)
    got = rs.cache.get(key)
    if got is None:
        got = rs.cache[key] = _coset_walk(rs, k, frozenset())
    return got


def minimal_reps(rs: RootSystem, k: JSet, j: JSet) -> tuple[Weyl, ...]:
    """Minimal representatives of W_K / W_J (j a subset of k), inside W_K."""
    key = ("minrep", k, j)
    got = rs.cache.get(key)
    if got is None:
        got = _coset_walk(rs, k, j)
        rs.cache[key] = got
    return got


def _simple_perms(rs: RootSystem) -> tuple[list[int], ...]:
    """sigma_s, the action of each simple reflection on root indices."""
    got = rs.cache.get("sigma")
    if got is None:
        roots = range(len(rs.roots))
        got = rs.cache["sigma"] = tuple([rs.act_root(s, r) for r in roots]
                                        for s in rs.simple_reflections)
    return got


def _coset_walk(rs: RootSystem, k: JSet, j: JSet) -> tuple[Weyl, ...]:
    """W_K^J (j a subset of k) from the identity, one length per level.

    pi = w^-1 on root indices.  s*w is an ascent that stays in W_K^J iff
    pi(alpha_s) is positive and not a simple root of J, and it is kept only
    when s is its smallest left descent, pi(sigma_s(alpha_t)) > 0 for t < s:
    every element comes once, from the one parent s*x.  A walk that outgrows
    W, or whose last level is not w_K w_J alone, raises CheckFailed."""
    sigma, npos, simple_idx = _simple_perms(rs), rs.num_positive, rs.simple_indices
    gens = sorted(k)
    j_roots = {simple_idx[t] for t in j}
    level = [(rs.identity, list(range(len(rs.roots))))]
    out: list[Weyl] = []
    order = group_order(rs)
    while level and len(out) <= order:
        level.sort(key=lambda e: flat(e[0]))
        out += [w for w, _ in level]
        last, level = level, []
        for w, pi in last:
            for s in gens:
                img = pi[simple_idx[s]]
                if img >= npos or img in j_roots:
                    continue
                sg = sigma[s]
                if all(pi[sg[simple_idx[t]]] < npos for t in gens if t < s):
                    level.append((multiply(rs.simple_reflections[s], w), [pi[r] for r in sg]))
    top = multiply(longest_element(rs, k), longest_element(rs, j))
    if level or len(last) != 1 or last[0][0] != top:
        kset, jset = (",".join(str(i + 1) for i in sorted(x)) for x in (k, j))
        raise CheckFailed(f"{rs.ct} K={{{kset}}} J={{{jset}}}: the coset walk"
                          " does not end at the single element w_K w_J")
    return tuple(out)


def reduced_word(rs: RootSystem, w: Weyl) -> tuple[int, ...]:
    """Indices i_1..i_m with w = s_{i_1} * ... * s_{i_m}, greedy smallest descent."""
    core = index_core(rs)
    k, lens, word = core.index[w], core.lengths, []
    while lens[k]:
        i = next(i for i, row in enumerate(core.lmul) if lens[row[k]] < lens[k])
        word.append(i)
        k = core.lmul[i][k]
    return tuple(word)


def inversion_roots(rs: RootSystem, w: Weyl) -> list[int]:
    """Positive roots sent negative by w; its size equals length(w)."""
    return [ri for ri in range(rs.num_positive)
            if not rs.is_positive(rs.act_root(w, ri))]


# --- the index core ---


class WeylIndex:
    """W as positions in enumerate_W, with multiplication tables.

    lmul[s][w] and rmul[s][w] are the positions of s*w and w*s; left(u) and
    right(u) give the same for any element u, built once per u; proj holds
    the projection_table of each J asked for.  Every table is filled from
    the tuple multiply and length."""

    def __init__(self, rs: RootSystem):
        self.elements = enumerate_W(rs)
        self.index = {w: k for k, w in enumerate(self.elements)}
        self.lengths = [length(rs, w) for w in self.elements]
        self._left: dict[Weyl, list[int]] = {}
        self._right: dict[Weyl, list[int]] = {}
        self.lmul = tuple(self.left(s) for s in rs.simple_reflections)
        self.rmul = tuple(self.right(s) for s in rs.simple_reflections)
        self.proj: dict[JSet, list[int]] = {}
        lens = self.lengths
        ensure(all(row[row[w]] == w and abs(lens[row[w]] - lens[w]) == 1
                   for row in self.lmul + self.rmul for w in range(len(lens))),
               f"{rs.ct}: a simple reflection table is not an involution"
               " that moves the length by one")

    def left(self, u: Weyl) -> list[int]:
        got = self._left.get(u)
        if got is None:
            got = self._left[u] = [self.index[multiply(u, w)] for w in self.elements]
        return got

    def right(self, u: Weyl) -> list[int]:
        got = self._right.get(u)
        if got is None:
            got = self._right[u] = [self.index[multiply(w, u)] for w in self.elements]
        return got


def index_core(rs: RootSystem) -> WeylIndex:
    got = rs.cache.get("index")
    if got is None:
        got = rs.cache["index"] = WeylIndex(rs)
    return got
