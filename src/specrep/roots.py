"""Classical root systems A/B/C/D and products, with signed-permutation actions.

Conventions (fixed once, everything downstream depends on them):

* Type A_l acts on a window of l+1 coordinates, w(e_j) = e_{w(j)};
  alpha_i = e_i - e_{i+1} and s_i is the transposition of values (i, i+1).
* Types B_l/C_l/D_l act on l coordinates by signed permutations, with the
  simple roots listed against the ordering alpha_i = e_{l-i+1} - e_{l-i}
  for i < l and alpha_l = e_1 (B), 2e_1 (C), e_1 + e_2 (D).  With this
  labelling s_i (i < l) is the transposition of values (l-i, l-i+1) and
  s_l flips the value 1 (B/C) resp. maps 1 -> -2, 2 -> -1 (D).
* Roots are identified by their index into RootSystem.roots; the coords
  field holds simple-root coefficients (all of one sign), the ambient
  field the concatenated window coordinates.
"""

from __future__ import annotations

import functools
import itertools
import re
import warnings
from dataclasses import dataclass

from .errors import UnsupportedType, ensure

Block = tuple[int, ...]
Weyl = tuple[Block, ...]

_TYPE_RE = re.compile(r"^([ABCD])([0-9]+)$")


@dataclass(frozen=True)
class CartanType:
    """A product of classical factors, e.g. (('A', 2), ('C', 3))."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise UnsupportedType("empty Cartan type")
        for fam, rank in self.factors:
            if fam not in "ABCD":
                raise UnsupportedType(f"unknown family {fam!r}")
            if fam == "A" and rank < 1:
                raise UnsupportedType(f"A{rank} out of range")
            if fam in "BCD" and rank < 2:
                raise UnsupportedType(f"{fam}{rank} out of range")

    @staticmethod
    def parse(text: str) -> "CartanType":
        parts = text.strip().replace("X", "x").split("x")
        factors = []
        for part in parts:
            m = _TYPE_RE.match(part.strip().upper())
            if m is None:
                raise UnsupportedType(f"cannot parse Cartan type {text!r}")
            factors.append((m.group(1), int(m.group(2))))
        return CartanType(tuple(factors))

    def __str__(self) -> str:
        return "x".join(f"{fam}{rank}" for fam, rank in self.factors)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.factors)


def canonicalize(ct: CartanType) -> CartanType:
    """Rewrite degenerate D factors: D2 -> A1xA1 and D3 -> A3 (with a warning)."""
    out: list[tuple[str, int]] = []
    changed = []
    for fam, rank in ct.factors:
        if fam == "D" and rank == 2:
            out.extend([("A", 1), ("A", 1)])
            changed.append("D2 -> A1xA1")
        elif fam == "D" and rank == 3:
            out.append(("A", 3))
            changed.append("D3 -> A3")
        else:
            out.append((fam, rank))
    if changed:
        warnings.warn("canonicalized " + ", ".join(changed), stacklevel=3)
        return CartanType(tuple(out))
    return ct


@dataclass(frozen=True)
class Factor:
    family: str
    rank: int
    window: int  # number of ambient coordinates
    soff: int    # global offset of this factor's simple roots
    woff: int    # global offset of this factor's ambient window


@dataclass(frozen=True)
class Root:
    index: int
    factor: int
    coords: tuple[int, ...]   # simple-root coefficients, length = total rank
    ambient: tuple[int, ...]  # window coordinates, length = total window size


def _local_simple_roots(fam: str, rank: int) -> list[tuple[int, ...]]:
    """Simple roots of one factor in its own window coordinates."""
    l, win = rank, rank + 1 if fam == "A" else rank
    out = []
    if fam == "A":
        for i in range(1, l + 1):
            v = [0] * (l + 1)
            v[i - 1], v[i] = 1, -1
            out.append(tuple(v))
        return out
    for i in range(1, l):
        v = [0] * l
        v[l - i], v[l - i - 1] = 1, -1
        out.append(tuple(v))
    last = [0] * l
    if fam == "B":
        last[0] = 1
    elif fam == "C":
        last[0] = 2
    else:
        last[0] = last[1] = 1
    out.append(tuple(last))
    return out


def _local_roots(fam: str, rank: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The positive roots of one factor, in its window coordinates, mapped to
    their simple-root coefficients, from the closed forms.  In the
    coordinates f_k (e_k for A, e_{l+1-k} for B/C/D) the simple roots are
    f_i - f_{i+1}, then f_l (B), 2f_l (C) or f_{l-1} + f_l (D), and the
    positive roots are f_i - f_j (i < j); for B/C/D also f_i + f_j (i < j);
    for B also f_i and for C also 2f_i.  Coefficient k of a root is the sum
    of its first k f-coordinates, except that for C and D the last is half
    that sum, and for D the second last is its sum less the last."""
    l = rank
    n = l + 1 if fam == "A" else l
    pairs = list(itertools.combinations(range(n), 2))
    vecs = [tuple(int(k == i) - int(k == j) for k in range(n)) for i, j in pairs]
    if fam != "A":
        vecs += [tuple(int(k == i) + int(k == j) for k in range(n)) for i, j in pairs]
    if fam in "BC":
        vecs += [tuple((1 if fam == "B" else 2) * int(k == i) for k in range(n))
                 for i in range(n)]
    out = {}
    for v in vecs:
        c = list(itertools.accumulate(v))[:l]
        if fam in "CD":
            c[-1] //= 2
        if fam == "D":
            c[-2] -= c[-1]
        out[v if fam == "A" else v[::-1]] = tuple(c)
    return out


def _local_simple_reflections(fam: str, rank: int) -> list[Block]:
    l = rank
    out: list[Block] = []
    if fam == "A":
        for i in range(1, l + 1):
            t = list(range(1, l + 2))
            t[i - 1], t[i] = t[i], t[i - 1]
            out.append(tuple(t))
        return out
    for i in range(1, l):
        t = list(range(1, l + 1))
        a = l - i  # swaps values l-i and l-i+1, i.e. positions of those values
        t[a - 1], t[a] = t[a], t[a - 1]
        out.append(tuple(t))
    t = list(range(1, l + 1))
    if fam in "BC":
        t[0] = -1
    else:
        t[0], t[1] = -2, -1
    out.append(tuple(t))
    return out


def apply_block(block: Block, j: int) -> int:
    """Value map of one window tuple, extended to negatives by w(-j) = -w(j)."""
    return block[j - 1] if j > 0 else -block[-j - 1]


def cached(fn):
    """Memoize fn(owner, *args) in owner.cache under (fn.__name__, *args).
    A hit returns the stored object itself; a call that raises stores
    nothing, so the next call runs fn again."""
    name = (fn.__name__,)

    @functools.wraps(fn)
    def memo(owner, *args):
        key = name + args  # one tuple add: (name, *args) builds a list first
        try:
            return owner.cache[key]
        except KeyError:
            pass
        got = owner.cache[key] = fn(owner, *args)
        return got

    return memo


class RootSystem:
    """Immutable root datum for one Cartan type; also the cache owner.

    Every per-system table (coset tables, Phi_J masks, the V^J module's
    boundary and normal form, the Hecke case tables, ...) is built once by
    a function decorated with cached and kept in self.cache under the
    function's name and arguments; no other module reads self.cache.
    """

    def __init__(self, ct: CartanType):
        ct = canonicalize(ct)
        self.ct = ct
        self.rank = ct.rank
        factors = []
        soff = woff = 0
        for fam, rank in ct.factors:
            win = rank + 1 if fam == "A" else rank
            factors.append(Factor(fam, rank, win, soff, woff))
            soff += rank
            woff += win
        self.factors: tuple[Factor, ...] = tuple(factors)
        self.window_dim = woff

        pos: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        for fi, fac in enumerate(self.factors):
            for v, coeffs in _local_roots(fac.family, fac.rank).items():
                signs = {1 if c > 0 else -1 for c in coeffs if c}
                ensure(signs == {1}, "a positive root with a negative coefficient; "
                                     "conventions broken")
                gc = [0] * self.rank
                gc[fac.soff:fac.soff + fac.rank] = coeffs
                ga = [0] * self.window_dim
                ga[fac.woff:fac.woff + fac.window] = v
                pos.append((fi, tuple(gc), tuple(ga)))
        pos.sort(key=lambda t: (t[0], sum(t[1]), t[1]))
        roots: list[Root] = []
        for idx, (fi, gc, ga) in enumerate(pos):
            roots.append(Root(idx, fi, gc, ga))
        np_ = len(pos)
        for idx, (fi, gc, ga) in enumerate(pos):
            roots.append(Root(np_ + idx, fi,
                              tuple(-c for c in gc), tuple(-a for a in ga)))
        self.roots: tuple[Root, ...] = tuple(roots)
        self.num_positive = np_
        self._by_ambient = {r.ambient: r.index for r in self.roots}

        self.simple_indices: tuple[int, ...] = tuple(
            self._by_ambient[self._globalize_ambient(fi, v)]
            for fi, fac in enumerate(self.factors)
            for v in _local_simple_roots(fac.family, fac.rank)
        )

        refl: list[Weyl] = []
        for fi, fac in enumerate(self.factors):
            for blk in _local_simple_reflections(fac.family, fac.rank):
                w = tuple(blk if gi == fi else self.identity_block(gi)
                          for gi in range(len(self.factors)))
                refl.append(w)
        self.simple_reflections: tuple[Weyl, ...] = tuple(refl)
        self.identity: Weyl = tuple(self.identity_block(fi) for fi in range(len(self.factors)))

        self.highest: tuple[int, ...] = tuple(
            self._highest_of(fi) for fi in range(len(self.factors)))
        self.cache: dict = {}

    def _globalize_ambient(self, fi: int, v: tuple[int, ...]) -> tuple[int, ...]:
        fac = self.factors[fi]
        ga = [0] * self.window_dim
        ga[fac.woff:fac.woff + fac.window] = v
        return tuple(ga)

    def identity_block(self, fi: int) -> Block:
        return tuple(range(1, self.factors[fi].window + 1))

    def _highest_of(self, fi: int) -> int:
        cand = max((r for r in self.roots[:self.num_positive] if r.factor == fi),
                   key=lambda r: sum(r.coords))
        for r in self.roots[:self.num_positive]:
            ensure(r.factor != fi or all(a <= b for a, b in zip(r.coords, cand.coords)),
                   "highest root not dominant")
        return cand.index

    # root-level queries

    def neg(self, ri: int) -> int:
        return ri + self.num_positive if ri < self.num_positive else ri - self.num_positive

    def is_positive(self, ri: int) -> bool:
        return ri < self.num_positive

    def act_root(self, w: Weyl, ri: int) -> int:
        """Index of w(root), via the window action w(e_j) = e_{w(j)}."""
        root = self.roots[ri]
        out = [0] * self.window_dim
        for fi, fac in enumerate(self.factors):
            blk = w[fi]
            for j in range(1, fac.window + 1):
                vj = root.ambient[fac.woff + j - 1]
                if vj:
                    img = blk[j - 1]
                    out[fac.woff + abs(img) - 1] = vj if img > 0 else -vj
        return self._by_ambient[tuple(out)]

    def mark_one_simples(self, fi: int) -> tuple[int, ...]:
        """Global simple indices of factor fi whose highest-root coefficient is 1."""
        fac = self.factors[fi]
        hi = self.roots[self.highest[fi]].coords
        return tuple(i for i in range(fac.soff, fac.soff + fac.rank) if hi[i] == 1)

    def __repr__(self) -> str:
        return f"RootSystem({self.ct})"


_SYSTEMS: dict[CartanType, RootSystem] = {}


def root_system(ct: CartanType | str) -> RootSystem:
    """Shared RootSystem instance for a Cartan type (or parseable string)."""
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    key = ct
    if key not in _SYSTEMS:
        rs = RootSystem(ct)
        _SYSTEMS[rs.ct] = rs
        _SYSTEMS[key] = rs
    return _SYSTEMS[key]
