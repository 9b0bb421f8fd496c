"""Weyl group elements, lengths, parabolic quotients W^J and V^J.

Elements are tuples of per-factor window tuples (value maps).  Composition
is (a*b)(j) = a(b(j)), so a*b means "apply b first".  All enumerations are
sorted by (length, flattened tuple) and cached on the RootSystem.
"""

from __future__ import annotations

import itertools
from math import factorial

from .errors import CapExceeded, TypeMismatch
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


def enumerate_W(rs: RootSystem, cap: int = DEFAULT_ENUM_CAP) -> tuple[Weyl, ...]:
    got = rs.cache.get("W")
    if got is not None:
        return got
    order = group_order(rs)
    if order > cap:
        raise CapExceeded(f"|W| = {order} exceeds cap {cap}")
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
        got = tuple(w for w in enumerate_W(rs) if in_WJ(rs, w, j))
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


def projection_table(rs: RootSystem, j: JSet) -> dict[Weyl, Weyl]:
    """w -> w^J for every w in W, filled in length order so each entry is one step."""
    key = ("proj", j)
    got = rs.cache.get(key)
    if got is not None:
        return got
    idx = sorted(j)
    table: dict[Weyl, Weyl] = {}
    for w in enumerate_W(rs):
        for i in idx:
            if not image_positive(rs, w, i):
                table[w] = table[multiply(w, rs.simple_reflections[i])]
                break
        else:
            table[w] = w
    rs.cache[key] = table
    return table


def subgroup(rs: RootSystem, k: JSet) -> tuple[Weyl, ...]:
    """Standard parabolic subgroup W_K, sorted like enumerate_W."""
    key = ("sub", k)
    got = rs.cache.get(key)
    if got is not None:
        return got
    gens = [rs.simple_reflections[i] for i in sorted(k)]
    seen = {rs.identity}
    frontier = [rs.identity]
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                x = multiply(w, s)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    out = tuple(sorted(seen, key=lambda w: (length(rs, w), flat(w))))
    rs.cache[key] = out
    return out


def minimal_reps(rs: RootSystem, k: JSet, j: JSet) -> tuple[Weyl, ...]:
    """Minimal representatives of W_K / W_J (j a subset of k), inside W_K."""
    key = ("minrep", k, j)
    got = rs.cache.get(key)
    if got is None:
        got = tuple(u for u in subgroup(rs, k) if in_WJ(rs, u, j))
        rs.cache[key] = got
    return got


def left_descents(rs: RootSystem, w: Weyl) -> tuple[int, ...]:
    return tuple(i for i in range(rs.rank)
                 if length(rs, multiply(rs.simple_reflections[i], w)) < length(rs, w))


def reduced_word(rs: RootSystem, w: Weyl) -> tuple[int, ...]:
    """Indices i_1..i_m with w = s_{i_1} * ... * s_{i_m}, greedy smallest descent."""
    word = []
    while w != rs.identity:
        i = left_descents(rs, w)[0]
        word.append(i)
        w = multiply(rs.simple_reflections[i], w)
    return tuple(word)


def inversion_roots(rs: RootSystem, w: Weyl) -> list[int]:
    """Positive roots sent negative by w; its size equals length(w)."""
    return [ri for ri in range(rs.num_positive)
            if not rs.is_positive(rs.act_root(w, ri))]
