"""Phi_J(w) root sets and the J-quasi-parabolic family of their intersections.

Root sets are bitmasks over RootSystem.roots indices.  Phi_J(1) is the set
of negative roots outside the sub-root system spanned by J; Phi_J(w) is its
image under w and only depends on the coset wW_J.  For a table of walked
elements it is one gather: the columns of Phi_J(1) in each element's row of
root images (phi_j_table).  phi_j_masks packs those of W^J into one mask
array (mask_array, the one converter) read by position in W^J's table.
The family is closed one distinct Phi_J(w) at a time, on Python ints, with no
witnesses: a member is the AND of the Phi_J(w) holding it.  QP_CAP bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NotQuasiParabolic
from .roots import RootSystem, cached
from .weyl import JSet, jlabel, wj_table

QP_CAP = 1 << 21  # quasi-parabolic sets of one (type, J)


def indices_of(mask: int) -> tuple[int, ...]:
    """The set bits of mask, lowest first, peeled one at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_array(rs: RootSystem, masks) -> np.ndarray:
    """Root-set masks as a numpy array: uint64 when every root fits in 64
    bits, else Python ints, so that & never wraps."""
    return np.array(masks, dtype=np.uint64 if len(rs.roots) <= 64 else object)


def sub_root_mask(rs: RootSystem, j: JSet) -> int:
    """Roots lying in the span of the simple roots J (the sub-root system W_J.J)."""
    m = 0
    for r in rs.roots:
        if all(c == 0 or i in j for i, c in enumerate(r.coords)):
            m |= 1 << r.index
    return m


@cached
def phi_j_one_mask(rs: RootSystem, j: JSet) -> int:
    """Bitmask of Phi_J(1)."""
    neg = ((1 << 2 * rs.num_positive) - 1) ^ ((1 << rs.num_positive) - 1)
    return neg & ~sub_root_mask(rs, j)


def phi_j_table(rs: RootSystem, j: JSet, perms: np.ndarray) -> np.ndarray:
    """Phi_J(w) as a boolean row over the root indices, for each row of
    root images in perms (a coset table's perms or a slice of them)."""
    out = np.zeros(perms.shape, dtype=bool)
    cols = perms[:, list(indices_of(phi_j_one_mask(rs, j)))]
    out[np.arange(len(perms))[:, None], cols] = True
    return out


@cached
def phi_j_masks(rs: RootSystem, j: JSet) -> np.ndarray:
    """Phi_J(w) for every w of W^J, in its table's order, as a read-only
    mask_array."""
    bits = np.packbits(phi_j_table(rs, j, wj_table(rs, j).perms), axis=1, bitorder="little")
    out = mask_array(rs, [int.from_bytes(row.tobytes(), "little") for row in bits])
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class QPSet:
    """One J-quasi-parabolic set: its mask, and its root indices read off it."""

    mask: int
    roots = property(lambda self: indices_of(self.mask))


@cached
def quasi_parabolic_sets(rs: RootSystem, j: JSet) -> tuple[QPSet, ...]:
    """All distinct intersections of Phi_J(w)'s, size-nondecreasing then lex.

    The family is closed one distinct generator g at a time: each member m
    gives m & g, and g joins.  That is complete: an intersection of a set S
    of the first k generators omits g_k, or is g_k alone, or is (the
    intersection of S minus g_k) & g_k.  CapExceeded once a generator takes
    the family past QP_CAP.  Of two sets of one size the one holding the
    lowest root where they differ comes first: its bit-reversed mask is larger."""
    family: set[int] = set()
    for g in sorted(set(phi_j_masks(rs, j).tolist())):
        family |= {m & g for m in family}
        family.add(g)
        if len(family) > QP_CAP:
            raise CapExceeded(f"{rs.ct} J={jlabel(j)}: the quasi-parabolic"
                              f" family grew past the cap of {QP_CAP} sets")
    width, rev = -(-len(rs.roots) // 8), bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
    return tuple(QPSet(m) for m in sorted(family, key=lambda m: (
        m.bit_count(), -int.from_bytes(m.to_bytes(width, "little").translate(rev), "big"))))


@cached
def _qp_masks(rs: RootSystem, j: JSet) -> frozenset[int]:
    return frozenset(d.mask for d in quasi_parabolic_sets(rs, j))


def check_quasi_parabolic(rs: RootSystem, j: JSet, mask: int) -> None:
    if mask not in _qp_masks(rs, j):
        raise NotQuasiParabolic(f"{rs.ct} J={jlabel(j)}: mask {mask:#x} is not quasi-parabolic")
