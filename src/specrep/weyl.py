"""Weyl group elements, lengths, parabolic quotients W^J and V^J.

An element is a tuple of per-factor window tuples (value maps), with
composition (a*b)(j) = a(b(j)), so a*b means "apply b first".  Tuples are
the keys and the JSON form; the tuple multiply, length and
RootSystem.act_root serve the per-element callers and are the oracles of
the tables below (the tuple projection w -> w^J is a test oracle).

Every enumeration W_K^J (W itself, W^J, the parabolic subgroups W_K, the
minimal representatives of W_K / W_J) is walked from the identity by left
multiplication, never filtered out of W, and kept on the RootSystem as a
CosetTable: the tuples, sorted by (length, flattened tuple), and one row
per element w, the permutation r -> w(r) of root indices (int8 while the
indices fit, else int16).  The row of s*w is sigma_s applied to the row of
w, the row of w*u is the row of w read at the row of u, and an element is
found from its row by its images of the simple roots.  The length of w is
the number of negative entries among its positive-root columns, and w lies
in W^J (V^J) when its row keeps the simple roots of J positive (and sends
the others negative).

The walk carries w^-1 as the same kind of permutation: s*w is an ascent
that stays in W_K^J unless w^-1(alpha_s) is negative or a simple root of J
(Deodhar's lemma), and an element is reached only from s*x with s its
smallest left descent.  So a point query on one J touches |W^J| elements;
only J = {} and the whole-group walks enumerate W.

W's own table (w_table) is the one whole-group table: walks over W name an
element by its position there, the identity is 0, and products by simple
reflections, lengths and the projections w -> w^J are list lookups.
Tuples remain at the JSON boundary, in weyllem2_chain (whose rank-6 chains
must not enumerate W) and in the per-element callers that touch a few
elements of a large group.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from functools import cached_property
from math import factorial

import numpy as np

from .errors import CapExceeded, CheckFailed, TypeMismatch, ensure
from .roots import Block, RootSystem, Weyl, apply_block, cached

DEFAULT_ENUM_CAP = 10**7

JSet = frozenset[int]


def jlabel(j: JSet) -> str:
    """J by its 1-based simple indices, e.g. {1,3}."""
    return "{" + ",".join(str(i + 1) for i in sorted(j)) + "}"


def wlabel(w: Weyl) -> str:
    """w by its flattened images, e.g. (2,1,3)."""
    return "(" + ",".join(map(str, flat(w))) + ")"


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


@cached
def length(rs: RootSystem, w: Weyl) -> int:
    """l(w) of one element; the coset tables count it on their rows instead."""
    return sum(_block_length(fac.family, blk) for fac, blk in zip(rs.factors, w))


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


def _check_cap(rs: RootSystem, cap: int = DEFAULT_ENUM_CAP) -> None:
    order = group_order(rs)
    if order > cap:
        raise CapExceeded(f"|W| = {order} exceeds cap {cap}")


def wj_table(rs: RootSystem, j: JSet) -> CosetTable:
    return coset_table(rs, frozenset(range(rs.rank)), j)


@cached
def w_table(rs: RootSystem) -> CosetTable:
    """W's own table, the J = {} walk."""
    return wj_table(rs, frozenset())


def enumerate_W(rs: RootSystem) -> tuple[Weyl, ...]:
    return w_table(rs).elements


def all_j(rank: int) -> list[JSet]:
    """Every subset of the simple indices, by size and then lexicographically."""
    return [frozenset(c) for r in range(rank + 1)
            for c in itertools.combinations(range(rank), r)]


def enumerate_WJ(rs: RootSystem, j: JSet) -> tuple[Weyl, ...]:
    return wj_table(rs, j).elements


@cached
def vj_rows(rs: RootSystem, j: JSet) -> np.ndarray:
    """Positions in W^J of the elements of V^J: the rows that send every
    simple root outside J negative."""
    out = [rs.simple_indices[i] for i in range(rs.rank) if i not in j]
    return np.flatnonzero((wj_table(rs, j).perms[:, out] >= rs.num_positive).all(axis=1))


@cached
def enumerate_VJ(rs: RootSystem, j: JSet) -> tuple[Weyl, ...]:
    wj = enumerate_WJ(rs, j)
    return tuple(wj[i] for i in vj_rows(rs, j))


def longest_element(rs: RootSystem, j: JSet | None = None) -> Weyl:
    """Longest element of the standard parabolic W_J (of W itself when j is None)."""
    return _longest(rs, frozenset(range(rs.rank)) if j is None else j)


@cached
def _longest(rs: RootSystem, j: JSet) -> Weyl:
    idx = sorted(j)
    w = rs.identity
    while True:
        for i in idx:
            if image_positive(rs, w, i):
                w = multiply(w, rs.simple_reflections[i])
                break
        else:
            return w


@cached
def projection_table(rs: RootSystem, j: JSet) -> list[int]:
    """w -> w^J on W's positions, filled in length order: an element with a
    right descent s in J takes the entry of ws, which is shorter."""
    table = w_table(rs)
    lens = table.lengths
    rows = [table.rmul[i] for i in sorted(j)]
    out: list[int] = []
    for w in range(len(lens)):
        for row in rows:
            if lens[row[w]] < lens[w]:
                out.append(out[row[w]])
                break
        else:
            out.append(w)
    return out


def subgroup(rs: RootSystem, k: JSet) -> tuple[Weyl, ...]:
    """Standard parabolic subgroup W_K, sorted like enumerate_W."""
    return coset_table(rs, k, frozenset()).elements


@cached
def _simple_perms(rs: RootSystem) -> tuple[list[int], ...]:
    """sigma_s, the action of each simple reflection on root indices."""
    return tuple([rs.act_root(s, r) for r in range(len(rs.roots))]
                 for s in rs.simple_reflections)


class CosetTable:
    """One walk of W_K^J: elements in (length, flat) order, perms[i] the
    permutation r -> w(r) of root indices of w = elements[i], and read off
    them as lists: lengths[i] = l(w), lmul[s][i] and rmul[s][i] the
    positions of s*w and w*s, -1 where the product leaves the table."""

    def __init__(self, rs: RootSystem, elements: tuple[Weyl, ...], perms: np.ndarray):
        self.elements = elements
        self.perms = perms
        self._ct, self._whole = rs.ct, len(elements) == group_order(rs)
        self._npos, self._simple = rs.num_positive, list(rs.simple_indices)
        self._sigma = np.asarray(_simple_perms(rs), dtype=perms.dtype)

    @cached_property
    def index(self) -> dict[Weyl, int]:
        return {w: i for i, w in enumerate(self.elements)}

    @cached_property
    def lengths(self) -> list[int]:
        """The negative entries among each row's positive-root columns."""
        return (self.perms[:, :self._npos] >= self._npos).sum(axis=1).tolist()

    @cached_property
    def lmul(self) -> tuple[list[int], ...]:
        return self._products(sg[self.perms] for sg in self._sigma)

    @cached_property
    def rmul(self) -> tuple[list[int], ...]:
        return self._products(self.perms[:, sg] for sg in self._sigma)

    def _products(self, images: Iterable[np.ndarray]) -> tuple[list[int], ...]:
        """The positions of each image, checked: where a product by s stays
        in the table it is an involution that moves the length by one."""
        lens, ids, out = np.array(self.lengths), np.arange(len(self.elements)), []
        ints = [*range(len(ids)), -1]  # one int object per position; ints[-1] is a miss
        for img in images:
            got = self.find(img)
            on = got >= 0
            ensure(bool((got[got[on]] == ids[on]).all()
                        and (abs(lens[got[on]] - lens[on]) == 1).all()),
                   f"{self._ct}: a simple reflection table is not an involution"
                   " that moves the length by one")
            out.append(list(map(ints.__getitem__, got.tolist())))
        return tuple(out)

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        keys = self._keys(self.perms)
        order = np.argsort(keys).astype(np.int32)
        return order, keys[order]

    def _keys(self, perms: np.ndarray) -> np.ndarray:
        """An element's images of the simple roots, which determine it, as
        one opaque sortable value per row."""
        sub = np.ascontiguousarray(perms[..., self._simple], dtype=self.perms.dtype)
        return sub.view(np.dtype((np.void, sub.itemsize * len(self._simple))))[..., 0]

    def find(self, perms: np.ndarray) -> np.ndarray:
        """The position of each row's element (rows along the last axis),
        -1 where it is not in the table.  W's own table holds every element,
        so there a -1 raises CheckFailed instead of reaching a caller that
        could read it as the last position."""
        order, keys = self._sorted_keys
        want = self._keys(perms)
        pos = np.searchsorted(keys, want).clip(max=len(keys) - 1)
        got = np.where(keys[pos] == want, order[pos], -1)
        ensure(not self._whole or bool((got >= 0).all()),
               f"{self._ct}: a product left the table of W")
        return got


@cached
def coset_table(rs: RootSystem, k: JSet, j: JSet) -> CosetTable:
    """W_K^J (j a subset of k) walked from the identity, one length per
    level; a walk of W^J first checks |W| against the cap.

    pi = w^-1 on root indices.  s*w is an ascent that stays in W_K^J iff
    pi(alpha_s) is positive and not a simple root of J, and it is kept only
    when s is its smallest left descent, pi(sigma_s(alpha_t)) > 0 for t < s:
    every element comes once, from the one parent s*x.  The table stores
    the inverses of the pi.  A walk that outgrows W, or whose last level is
    not w_K w_J alone, raises CheckFailed."""
    if k == frozenset(range(rs.rank)):
        _check_cap(rs)
    sigma, npos, simple_idx = _simple_perms(rs), rs.num_positive, rs.simple_indices
    gens = sorted(k)
    j_roots = {simple_idx[t] for t in j}
    level = [(rs.identity, list(range(len(rs.roots))))]
    out: list[Weyl] = []
    pis: list[list[int]] = []
    order = group_order(rs)
    while level and len(out) <= order:
        level.sort(key=lambda e: flat(e[0]))
        out += [w for w, _ in level]
        pis += [pi for _, pi in level]
        last, level = level, []
        for w, pi in last:
            for s in gens:
                img = pi[simple_idx[s]]
                if img >= npos or img in j_roots:
                    continue
                sg = sigma[s]
                if all(pi[sg[simple_idx[t]]] < npos for t in gens if t < s):
                    level.append((multiply(rs.simple_reflections[s], w),
                                  list(map(pi.__getitem__, sg))))
    top = multiply(longest_element(rs, k), longest_element(rs, j))
    if level or len(last) != 1 or last[0][0] != top:
        raise CheckFailed(f"{rs.ct} K={jlabel(k)} J={jlabel(j)}: the coset walk"
                          " does not end at the single element w_K w_J")
    dtype = np.int8 if len(rs.roots) <= 127 else np.int16
    inv = np.array(pis, dtype=dtype)
    perms = np.empty_like(inv)
    perms[np.arange(len(inv))[:, None], inv] = np.arange(inv.shape[1], dtype=dtype)
    return CosetTable(rs, tuple(out), perms)
