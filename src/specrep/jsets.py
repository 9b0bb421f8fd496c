"""Phi_J(w) root sets and the J-quasi-parabolic family of their intersections.

Root sets are bitmasks over RootSystem.roots indices.  Phi_J(1) is the set
of negative roots outside the sub-root system spanned by J; Phi_J(w) is its
image under w and only depends on the coset wW_J.  For a table of walked
elements it is one gather: the columns of Phi_J(1) in each element's row of
root images (phi_j_table); phi_j_masks packs those of W^J into bitmasks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NotQuasiParabolic
from .roots import RootSystem, Weyl
from .weyl import JSet, enumerate_WJ, wj_table


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first, peeled one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def sub_root_mask(rs: RootSystem, j: JSet) -> int:
    """Roots lying in the span of the simple roots J (the sub-root system W_J.J)."""
    m = 0
    for r in rs.roots:
        if all(c == 0 or i in j for i, c in enumerate(r.coords)):
            m |= 1 << r.index
    return m


def phi_j_one_mask(rs: RootSystem, j: JSet) -> int:
    """Bitmask of Phi_J(1); cached per (type, J)."""
    got = rs.cache.get(("phione", j))
    if got is None:
        neg = ((1 << 2 * rs.num_positive) - 1) ^ ((1 << rs.num_positive) - 1)
        got = rs.cache[("phione", j)] = neg & ~sub_root_mask(rs, j)
    return got


def phi_j_table(rs: RootSystem, j: JSet, perms: np.ndarray) -> np.ndarray:
    """Phi_J(w) as a boolean row over the root indices, for each row of
    root images in perms (a coset table's perms or a slice of them)."""
    out = np.zeros(perms.shape, dtype=bool)
    cols = perms[:, list(indices_of(phi_j_one_mask(rs, j)))]
    out[np.arange(len(perms))[:, None], cols] = True
    return out


def phi_j_masks(rs: RootSystem, j: JSet) -> tuple[int, ...]:
    """Phi_J(w) for every w of enumerate_WJ(rs, j), in that order."""
    key = ("phimasks", j)
    got = rs.cache.get(key)
    if got is None:
        bits = np.packbits(phi_j_table(rs, j, wj_table(rs, j).perms), axis=1, bitorder="little")
        got = rs.cache[key] = tuple(int.from_bytes(row.tobytes(), "little") for row in bits)
    return got


def phi_j_mask(rs: RootSystem, j: JSet, w: Weyl) -> int:
    """Bitmask of Phi_J(w) = w . Phi_J(1), for any w of W: the table entry
    when w is in W^J, else the root action on Phi_J(1)."""
    i = wj_table(rs, j).index.get(w)
    if i is not None:
        return phi_j_masks(rs, j)[i]
    return mask_of(rs.act_root(w, ri) for ri in indices_of(phi_j_one_mask(rs, j)))


@dataclass(frozen=True)
class QPSet:
    """One J-quasi-parabolic set with the witnesses whose Phi_J cut it out."""

    mask: int
    roots: tuple[int, ...]
    witnesses: tuple[Weyl, ...]

    @property
    def size(self) -> int:
        return len(self.roots)


def quasi_parabolic_sets(rs: RootSystem, j: JSet) -> tuple[QPSet, ...]:
    """All distinct intersections of Phi_J(w)'s, size-nondecreasing then lex.

    Every intersection is reached by cutting a member of the family with one
    more generator, so the closure runs against the distinct Phi_J(w) only;
    a new set's witnesses are its parent's plus that generator's witness."""
    key = ("qp", j)
    got = rs.cache.get(key)
    if got is not None:
        return got
    family: dict[int, tuple[Weyl, ...]] = {}
    for w, m in zip(enumerate_WJ(rs, j), phi_j_masks(rs, j)):
        if m not in family:
            family[m] = (w,)
    gens = [(g, wits[0]) for g, wits in family.items()]
    queue = deque(sorted(family))
    while queue:
        m = queue.popleft()
        for g, gw in gens:
            c = m & g
            if c not in family:
                family[c] = family[m] + (gw,)
                queue.append(c)
    sets = [QPSet(m, indices_of(m), wits) for m, wits in family.items()]
    sets.sort(key=lambda d: (d.size, d.roots))
    out = tuple(sets)
    rs.cache[key] = out
    rs.cache[("qpmasks", j)] = frozenset(family)
    return out


def check_quasi_parabolic(rs: RootSystem, j: JSet, mask: int) -> None:
    quasi_parabolic_sets(rs, j)  # a cache hit after the first call
    if mask not in rs.cache[("qpmasks", j)]:
        raise NotQuasiParabolic(f"mask {mask:#x} for J={sorted(j)}")

