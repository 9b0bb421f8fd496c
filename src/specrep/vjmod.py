"""The quotient module with V^J basis: boundary maps, normal form, exactness.

The module M_J(L) is the cokernel of the boundary map

    sum over alpha in Delta-J of L[W^{J+alpha}]  -->  L[W^J],
    w |-> sum of all w' in W^J with w'W_J inside wW_{J+alpha}.

Everything here is a matrix computation in the enumeration order of
enumerate_WJ / enumerate_VJ.  Vectors are rows; the normal-form matrix N
sends the class of g_w to its expansion over the V^J basis; it is checked
against DENSE_CAP before it is allocated.  The boundary is kept as its
entry list, column (alpha, u) the fiber w*u found from the coset tables.

One premise-checked certificate per (type, J) decides the module with no
elimination (see build_mj).  Its columns (alpha, u) are the positions of
W^{J+alpha}'s table, matched with W^J's rows by position.
Restricted exactness adds the Phi masks read at those positions and
decides every quasi-parabolic D of (type, J) when that table is built, in
array passes of EXACT_BLOCK sets; a Smith form runs, once per D for every
ring, only where the pass leaves D open.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NoReturn

import numpy as np

from . import linalg
from .errors import BadAlpha, CapExceeded, CheckFailed, SpecrepError, ensure
from .roots import RootSystem, cached
from .weyl import JSet, coset_table, enumerate_VJ, enumerate_WJ, jlabel, vj_rows, wj_table, wlabel
from .jsets import check_quasi_parabolic, mask_array, phi_j_masks, quasi_parabolic_sets

DENSE_CAP = 1 << 30  # bytes of one dense int64 normal-form matrix (d is an entry list)
EXACT_BLOCK = 128  # quasi-parabolic sets D classified per array pass


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: Z, Q or F_p (p prime)."""

    kind: str
    p: int | None = None

    @staticmethod
    def parse(text: str) -> "Ring":
        t = text.strip().upper()
        if t == "Z":
            return Ring("Z")
        if t == "Q":
            return Ring("Q")
        if t.startswith("F") and t[1:].isdecimal():
            return Ring("Fp", linalg.check_prime(int(t[1:])))
        raise SpecrepError(f"unknown ring {text!r}")

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind


@cached
def _fibers(rs: RootSystem, j: JSet, alpha: int) -> np.ndarray:
    """W^J positions of the fiber w*u (u in W_{J+alpha}^J) of each w of
    W^{J+alpha}, one row per w in the order of the u, for the normal form
    and the boundary; the row of w*u is the row of w read at the row of u."""
    if alpha in j or not 0 <= alpha < rs.rank:
        raise BadAlpha(f"{rs.ct} J={jlabel(j)}: alpha={alpha + 1} is not a simple index outside J")
    k = j | {alpha}
    got = wj_table(rs, j).find(wj_table(rs, k).perms[:, coset_table(rs, k, j).perms])
    ensure(bool((got >= 0).all()), f"{rs.ct}: a boundary fiber leaves W^J")
    return got


@cached
def boundary_columns(rs: RootSystem, j: JSet) -> tuple[np.ndarray, np.ndarray]:
    """The boundary map as its entry list (rows, cols): a W^J row and a
    column per entry 1 (a repeated pair would be an entry 2).  Column
    (alpha, u), for the alpha outside J and then the rows u of W^{J+alpha}'s
    table, holds the fiber w*u."""
    fibers = [np.zeros((0, 0), dtype=np.int64)] + [
        _fibers(rs, j, a) for a in range(rs.rank) if a not in j]
    widths = np.concatenate([np.full(len(f), f.shape[1]) for f in fibers])
    return np.concatenate([f.ravel() for f in fibers]), np.repeat(np.arange(len(widths)), widths)


@cached
def normal_form_matrix(rs: RootSystem, j: JSet) -> np.ndarray:
    """Row w = expansion of the class of g_w over the V^J basis (exact integers).

    Rewriting rule: for w in W^J - V^J pick the smallest alpha in Delta-J
    with w(alpha) positive; then g_w = - sum of g_{w'} over the other
    members of its boundary fiber, all strictly longer."""
    table, vrows = wj_table(rs, j), vj_rows(rs, j)
    size = len(table.elements)
    if size * len(vrows) * 8 > DENSE_CAP:
        raise CapExceeded(f"{rs.ct} J={jlabel(j)}: the dense "
                          f"normal form, {size} x {len(vrows)} int64 ({size * len(vrows) * 8} "
                          f"bytes), exceeds the cap of {DENSE_CAP} bytes")
    # the smallest alpha outside J with w(alpha) positive, or -1 on V^J
    alphas = [a for a in range(rs.rank) if a not in j]
    ascent = np.full(size, -1)
    for a in reversed(alphas):
        ascent[table.perms[:, rs.simple_indices[a]] < rs.num_positive] = a
    fiber_of = [None] * size
    for a in alphas:
        mine = np.flatnonzero(ascent == a)
        if not len(mine):
            continue
        up = wj_table(rs, j | {a})
        pos = up.find(table.perms[mine])
        ensure(bool((pos >= 0).all()), f"{rs.ct}: an ascent outside J leaves W^(J+alpha)")
        for w, fib in zip(mine.tolist(), _fibers(rs, j, a)[pos].tolist()):
            fiber_of[w] = fib
    n = np.zeros((size, len(vrows)), dtype=np.int64)
    n[vrows, np.arange(len(vrows))] = 1
    for w in reversed(range(size)):  # decreasing (length, lex): fibers point forward
        if fiber_of[w] is not None:
            n[w] = -n[[x for x in fiber_of[w] if x != w]].sum(axis=0)
    ensure(np.abs(n).max(initial=0) <= linalg._PROMOTE_BOUND,
           "normal form coefficients exceeded the int64 budget")
    return n


@dataclass(frozen=True)
class MJReport:
    wj_size: int
    vj_size: int
    rank: int
    basis_ok: bool


def _refuse(rs: RootSystem, j: JSet, row: int, what: str) -> NoReturn:
    """Raise CheckFailed for what, naming the type, J (1-based) and W^J's row."""
    w = enumerate_WJ(rs, j)[row]
    raise CheckFailed(f"{what}: {rs.ct} J={jlabel(j)} w={wlabel(w)}")


@dataclass(frozen=True)
class _Certificate:
    """Premise-checked, mask-free data for the complex at one (type, J)."""

    n: np.ndarray
    rows: np.ndarray  # the boundary's entries (row, column), see boundary_columns
    cols: np.ndarray
    label_rows: np.ndarray  # the row of u, per column (alpha, u)
    col_alphas: np.ndarray  # alpha, per column (alpha, u)
    bad: np.ndarray  # columns whose composite with n is nonzero
    vunit: np.ndarray  # V^J rows whose normal form is their own unit vector


def _entries(rs: RootSystem, j: JSet, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The boundary's entries; CheckFailed unless they lie inside the shape."""
    rows, cols = boundary_columns(rs, j)
    ensure(min(rows.min(initial=0), cols.min(initial=0)) >= 0
           and rows.max(initial=-1) < shape[0] and cols.max(initial=-1) < shape[1],
           f"{rs.ct}: the boundary does not line up with the coset tables")
    return rows, cols


@cached
def _certificate(rs: RootSystem, j: JSet) -> _Certificate:
    """The (type, J) certificate.  The label row of column (alpha, u) is the
    position of W^{J+alpha}'s row of u in W^J's table.  Built after n (and
    its cap check), it checks the pivot premise: column (alpha, u) holds its
    label row once and no row above it; else CheckFailed names the column."""
    n = normal_form_matrix(rs, j)
    wj = enumerate_WJ(rs, j)
    alphas = [a for a in range(rs.rank) if a not in j]
    ups = [wj_table(rs, j | {a}) for a in alphas]
    label_rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        wj_table(rs, j).find(up.perms) for up in ups])
    sizes = [len(up.elements) for up in ups]
    col_alphas = np.repeat(alphas, sizes)
    ensure(bool((label_rows >= 0).all()),
           f"{rs.ct}: the boundary does not line up with the coset tables")
    rows, cols = _entries(rs, j, (len(wj), len(label_rows)))
    off = np.bincount(cols[rows == label_rows[cols]], minlength=len(label_rows)) != 1
    off[cols[rows < label_rows[cols]]] = True
    if off.any():
        c = int(off.argmax())
        _refuse(rs, j, label_rows[c], "a boundary column's first nonzero is not a 1 in "
                f"its label row, alpha={col_alphas[c] + 1}")
    # the rows of d.T @ n, one alpha's columns at a time: column c's entries
    # are order[heads[c]:heads[c + 1]], and none is empty (the pivot premise)
    order = np.argsort(cols, kind="stable")
    heads = np.searchsorted(cols[order], np.arange(len(label_rows) + 1))
    bad, starts = np.zeros(len(label_rows), dtype=bool), list(accumulate(sizes, initial=0))
    for lo, hi in zip(starts, starts[1:]):
        block = order[heads[lo]:heads[hi]]
        bad[lo:hi] = np.add.reduceat(n[rows[block]], heads[lo:hi] - heads[lo]).any(axis=1)
    vrows = vj_rows(rs, j)
    vunit = np.zeros(len(wj), dtype=bool)
    vunit[vrows] = (n[vrows] == np.eye(len(vrows), dtype=np.int64)).all(axis=1)
    return _Certificate(n, rows, cols, label_rows, col_alphas, bad, vunit)


def _count_distinct(hit: np.ndarray, keys: np.ndarray, width: int) -> np.ndarray:
    """Per row of the boolean hit, the number of distinct keys at its True
    entries, one key in range(width) per column of hit or -1 for none."""
    row, col = np.nonzero(hit & (keys >= 0))
    seen = np.zeros((len(hit), width), dtype=bool)
    seen[row, keys[col]] = True
    return np.count_nonzero(seen, axis=1)


def _classify(cert: _Certificate, inside: np.ndarray, colin: np.ndarray,
              units: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ring-free verdicts for a batch of restrictions, one per row of inside
    (the rows of d kept) and colin (the columns of d kept): (bad, closed, c).

    bad: a column kept composes to nonzero with n.  c counts the rows u
    with a column (alpha, u) kept; those columns hold a unitriangular
    c x c minor, so rank(d_sub) >= c.  units gives per row a k when its
    normal form is +-e_k (distinct rows may share one; -1 for none), and
    u counts the distinct k over the rows kept: those rows hold a
    signed-identity u x u minor, so n_sub has at least u Smith invariants
    1 and rank(n_sub) >= u.  closed: not bad and c + u = dim, the number
    of rows kept.  With a zero composite rank(d) + rank(n) <= dim, so then
    rank(d) = c and rank(n) = u over Q and every F_p, with every Smith
    invariant of d_sub equal to 1."""
    rows = inside.shape[1]
    bad = (colin & cert.bad).any(axis=1)
    c = _count_distinct(colin, cert.label_rows, rows)
    closed = ~bad & (c + _count_distinct(inside, units, rows) == np.count_nonzero(inside, axis=1))
    return bad, closed, c


def build_mj(rs: RootSystem, j: JSet) -> MJReport:
    """Rank and V^J-basis check for the module, over every ring at once.

    The verdict is the certificate at D = {}, classified with the V^J unit
    rows alone (u = v), and runs no elimination.  When it closes, d has
    rank c and Smith invariants 1 (see _classify), so the module is free
    of rank |W^J| - c = v over every ring here.  If v = |V^J|, n maps it
    onto L[V^J] sending the V^J classes to the unit vectors, a surjection
    of free modules of equal rank, so they are a basis.  Otherwise
    CheckFailed names the type, J and the first offending column or
    uncovered row."""
    cert = _certificate(rs, j)
    wj = enumerate_WJ(rs, j)
    bad, closed, _ = _classify(cert, np.ones((1, len(wj)), dtype=bool),
                               np.ones((1, len(cert.label_rows)), dtype=bool),
                               np.where(cert.vunit, np.arange(len(wj)), -1))
    if bad[0]:
        c = int(cert.bad.argmax())
        _refuse(rs, j, cert.label_rows[c], f"boundary column alpha={cert.col_alphas[c] + 1} "
                "does not compose to zero with the normal form")
    if not closed[0]:
        free = ~cert.vunit
        free[cert.label_rows] = False
        _refuse(rs, j, free.argmax(), "a row is neither a boundary pivot row nor a V^J unit row")
    rank = int(np.count_nonzero(cert.vunit))
    vj_size = len(enumerate_VJ(rs, j))
    return MJReport(len(wj), vj_size, rank, rank == vj_size)


Verdict = bool | tuple[tuple[int, ...], tuple[int, ...]]


@cached
def _exact_table(rs: RootSystem, j: JSet) -> dict[int, Verdict]:
    """The verdict of every quasi-parabolic D of (type, J) for every ring at
    once, by mask: a bool when all rings agree, else the Smith invariants
    above 1 of d_sub and of n_sub (see restricted_exactness).

    Rows and columns of d are restricted to D by the Phi masks of W^J and
    of the W^{J+alpha}, read by position.  Containment is checked before
    the certificate's pivots, so a stray entry that breaks both is named as
    leaving W^J(D): each entry (w', (alpha, u)) of d has Phi_{J+alpha}(u)
    inside Phi_J(w').  Then every D is classified, EXACT_BLOCK at a time
    so that the D x rows and D x columns restrictions stay small, and
    _verdict decides each D the pass leaves open."""
    n = normal_form_matrix(rs, j)
    row_masks = phi_j_masks(rs, j)
    col_masks = np.concatenate([mask_array(rs, [])] + [  # in the column order of d
        phi_j_masks(rs, j | {a}) for a in range(rs.rank) if a not in j])
    r, c = _entries(rs, j, (len(row_masks), len(col_masks)))
    ensure(((row_masks[r] & col_masks[c]) == col_masks[c]).all(),
           "restricted boundary leaves W^J(D)")
    cert = _certificate(rs, j)
    absn = np.abs(n)
    rows = np.flatnonzero(absn.sum(axis=1) == 1)
    units = np.full(len(n), -1)  # k when the row's normal form is +-e_k
    units[rows] = np.nonzero(absn[rows])[1]
    masks = [qp.mask for qp in quasi_parabolic_sets(rs, j)]
    verdicts: dict[int, Verdict] = {}
    for first in range(0, len(masks), EXACT_BLOCK):
        block = masks[first:first + EXACT_BLOCK]
        m = mask_array(rs, block)[:, None]
        inside, colin = (row_masks & m) == m, (col_masks & m) == m
        bad, closed, c = _classify(cert, inside, colin, units)
        for mask, rows, cols, b, done, k in zip(block, inside, colin, bad.tolist(),
                                                closed.tolist(), c.tolist()):
            verdicts[mask] = not b and (done or _verdict(cert, rows, cols, k))
    return verdicts


def _verdict(cert: _Certificate, inside: np.ndarray, colin: np.ndarray, c: int) -> Verdict:
    """The verdict of a D that _classify left open with c pivots, from the
    rows inside W^J(D) and the columns colin of D: at most one Smith form
    of n_sub and one of d_sub, from the entries of the columns kept
    (restricted_exactness's steps 3-4)."""
    n_sub = cert.n[inside]
    dim = len(n_sub)
    inv_n = linalg.snf_invariants(n_sub)
    if c + inv_n.count(1) == dim:
        return True
    keep, width = colin[cert.cols], int(np.count_nonzero(colin))
    at = (inside.cumsum()[cert.rows[keep]] - 1) * width + colin.cumsum()[cert.cols[keep]] - 1
    inv_d = linalg.snf_invariants(np.bincount(at, minlength=dim * width).reshape(dim, width))
    if len(inv_d) + len(inv_n) < dim:
        return False
    torsion = tuple(v for v in inv_d if v > 1), tuple(v for v in inv_n if v > 1)
    return torsion if any(torsion) else True


def restricted_exactness(rs: RootSystem, j: JSet, mask: int, ring: Ring) -> bool:
    """Exactness of the D-restricted boundary sequence at its middle term.

    mask must be J-quasi-parabolic.  The middle term is L[W^J(D)], the
    left map the restricted boundary d_sub, the right map the normal form
    n_sub into the module; exact means kernel = image there.

    The (type, J) table checks its premises once and runs steps 1-2 for
    every D in array passes, then steps 3-4 for each D left open (see
    _exact_table).  Each step is one computation for all
    rings (the rank of an integer matrix is the number of its Smith
    invariants over Q and the number prime to p over F_p), with dim =
    |W^J(D)|:
    1. False if d_sub.T @ n_sub is nonzero: the bounds below need a complex.
    2. True if c + u = dim (see _classify): the rows of W^J(D) whose
       normal form is +-e_k, for u distinct k, hold a signed-identity
       u x u minor of n_sub, which survives mod every p, and d_sub has
       the unitriangular c x c minor.  The V^J unit rows are such rows,
       so u >= v.
    3. True if c plus the number of Smith invariants of n_sub equal to 1
       is dim.  That number is at most the rank of n_sub over Q and every
       F_p, and d_sub has rank at least c, so both ranks are pinned.
    4. Otherwise the Smith invariants of d_sub decide with those of n_sub.
       False if the two ranks over Q add up to less than dim: the ranks
       over F_p are no larger.  Else the sequence is exact over Q, over
       F_p iff p divides no invariant of either map, and over Z iff every
       invariant of d_sub is 1.  For Z: the kernel of n_sub is saturated
       (a multiple of v lies in it only if v does) and, by step 1,
       contains the image.  Invariants all 1 make the image saturated
       too, and a saturated sublattice of a saturated lattice of the same
       rank is all of it, since the quotient is torsion-free of rank 0.
       Conversely image = kernel forces both conditions.
    Over Z, equality in step 2 or 3 pins the rank of n_sub over Q at
    dim - c, so ker(n_sub) is saturated of rank c.  The c pivot columns
    span a saturated lattice S of rank c: if m*y lies in S, its
    coefficients are m times integers, read off the unitriangular minor.
    S lies in the image and the image in the kernel, all of rank c, so
    the kernel lies in the saturation of S, which is S: image = kernel.
    The argument uses only the count u, so it holds for u as for v."""
    check_quasi_parabolic(rs, j, mask)
    got = _exact_table(rs, j)[mask]
    if isinstance(got, bool):
        return got
    torsion_d, torsion_n = got
    if ring.kind == "Fp":
        return all(v % ring.p for v in torsion_d + torsion_n)
    return ring.kind == "Q" or not torsion_d
