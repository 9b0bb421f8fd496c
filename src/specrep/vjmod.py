"""The quotient module with V^J basis: boundary maps, normal form, exactness.

The module M_J(L) is the cokernel of the boundary map

    sum over alpha in Delta-J of L[W^{J+alpha}]  -->  L[W^J],
    w |-> sum of all w' in W^J with w'W_J inside wW_{J+alpha}.

Everything here is a matrix computation in the enumeration order of
enumerate_WJ / enumerate_VJ.  Vectors are rows; the normal-form matrix N
sends the class of g_w to its expansion over the V^J basis.

Restricted exactness is decided from a certificate table per (type, J),
cached in rs.cache.  Its premises are checked once, when it is built:
every boundary column (alpha, u) has its first nonzero, a 1, in u's row;
each of its entries w' has Phi_{J+alpha}(u) inside Phi_J(w'); and the
columns whose composite with N is nonzero are recorded.  Per
quasi-parabolic D the table counts the pivot rows c(D) and the V^J rows
v(D) of W^J(D); c + v = |W^J(D)| proves exactness with no elimination,
and otherwise one elimination of the restricted N usually does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadAlpha, SpecrepError, ensure
from .roots import RootSystem, Weyl
from .weyl import (JSet, enumerate_VJ, enumerate_WJ, flat, image_positive, length,
                   minimal_reps, multiply, project)
from .jsets import check_quasi_parabolic, phi_j_mask, phi_j_masks


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
        if t.startswith("F"):
            return Ring("Fp", linalg.check_prime(int(t[1:])))
        raise SpecrepError(f"unknown ring {text!r}")

    def __str__(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind


def boundary_fiber(rs: RootSystem, j: JSet, alpha: int, w: Weyl) -> tuple[Weyl, ...]:
    """All w' in W^J whose coset w'W_J lies inside wW_{J+alpha}.

    w must be the minimal representative of its W_{J+alpha} coset."""
    if alpha in j or not 0 <= alpha < rs.rank:
        raise BadAlpha(f"alpha={alpha} with J={sorted(j)}")
    k = j | {alpha}
    reps = minimal_reps(rs, k, j)
    out = [multiply(w, u) for u in reps]
    out.sort(key=lambda x: (length(rs, x), flat(x)))
    return tuple(out)


def boundary_columns(rs: RootSystem, j: JSet) -> tuple[list[tuple[int, Weyl]], np.ndarray]:
    """Column labels (alpha, w) and the integer matrix of the boundary map.

    Shape: |W^J| rows by sum over alpha of |W^{J+alpha}| columns."""
    key = ("boundary", j)
    got = rs.cache.get(key)
    if got is not None:
        return got
    wj = enumerate_WJ(rs, j)
    idx = {w: i for i, w in enumerate(wj)}
    labels: list[tuple[int, Weyl]] = []
    cols: list[list[int]] = []
    for alpha in range(rs.rank):
        if alpha in j:
            continue
        for w in enumerate_WJ(rs, j | {alpha}):
            labels.append((alpha, w))
            cols.append([idx[x] for x in boundary_fiber(rs, j, alpha, w)])
    mat = np.zeros((len(wj), len(labels)), dtype=np.int64)
    for cnum, rows in enumerate(cols):
        mat[rows, cnum] = 1
    rs.cache[key] = (labels, mat)
    return labels, mat


def normal_form_matrix(rs: RootSystem, j: JSet) -> np.ndarray:
    """Row w = expansion of the class of g_w over the V^J basis (exact integers).

    Rewriting rule: for w in W^J - V^J pick the smallest alpha in Delta-J
    with w(alpha) positive; then g_w = - sum of g_{w'} over the other
    members of its boundary fiber, all strictly longer."""
    key = ("nf", j)
    got = rs.cache.get(key)
    if got is not None:
        return got
    wj = enumerate_WJ(rs, j)
    vj = enumerate_VJ(rs, j)
    idx = {w: i for i, w in enumerate(wj)}
    vidx = {w: i for i, w in enumerate(vj)}
    n = np.zeros((len(wj), len(vj)), dtype=np.int64)
    for w in reversed(wj):  # decreasing (length, lex): fibers point forward
        if w in vidx:
            n[idx[w], vidx[w]] = 1
            continue
        alpha = next(a for a in range(rs.rank)
                     if a not in j and image_positive(rs, w, a))
        acc = np.zeros(len(vj), dtype=np.int64)
        for x in boundary_fiber(rs, j, alpha, w):
            if x != w:
                acc -= n[idx[x]]
        n[idx[w]] = acc
    ensure(np.abs(n).max(initial=0) <= linalg._PROMOTE_BOUND,
           "normal form coefficients exceeded the int64 budget")
    rs.cache[key] = n
    return n


def normal_form(rs: RootSystem, j: JSet, vec: dict[Weyl, int]) -> np.ndarray:
    """Expand an L[W^J] vector (dict) over the V^J basis; exact integers."""
    wj = enumerate_WJ(rs, j)
    idx = {w: i for i, w in enumerate(wj)}
    row = np.zeros(len(wj), dtype=np.int64)
    for w, c in vec.items():
        row[idx[w]] += c
    return row @ normal_form_matrix(rs, j)


def sigma_vector(rs: RootSystem, j: JSet, wprime: Weyl) -> dict[Weyl, int]:
    """Alternating sum over W_{Delta-J}: sum of (-1)^l(v) (w'v)^J, as a dict."""
    from .weyl import subgroup

    comp = frozenset(range(rs.rank)) - j
    out: dict[Weyl, int] = {}
    for v in subgroup(rs, comp):
        target = project(rs, multiply(wprime, v), j)
        out[target] = out.get(target, 0) + (-1) ** length(rs, v)
    return {w: c for w, c in out.items() if c}


def dual_boundary_component(rs: RootSystem, j: JSet, alpha: int, wprime: Weyl) -> Weyl:
    """alpha-component of the dual map: the minimal representative of w'W_{J+alpha}."""
    if alpha in j or not 0 <= alpha < rs.rank:
        raise BadAlpha(f"alpha={alpha} with J={sorted(j)}")
    return project(rs, wprime, j | {alpha})


@dataclass(frozen=True)
class MJReport:
    ring: Ring
    wj_size: int
    vj_size: int
    rank: int
    torsion: tuple[int, ...]
    basis_ok: bool


def build_mj(rs: RootSystem, j: JSet, ring: Ring) -> MJReport:
    """Rank, torsion and V^J-basis check for the module over the given ring."""
    _, d = boundary_columns(rs, j)
    n = normal_form_matrix(rs, j)
    wj = enumerate_WJ(rs, j)
    vj = enumerate_VJ(rs, j)
    torsion: tuple[int, ...] = ()
    if ring.kind in ("Z", "Q"):
        key = ("snf", j)
        inv = rs.cache.get(key)
        if inv is None:
            inv = rs.cache[key] = tuple(linalg.snf_invariants(d))
        rank_d = len(inv)
        if ring.kind == "Z":
            torsion = tuple(x for x in inv if x != 1)
    else:
        rank_d = linalg.modp_rank(d, ring.p)
    rank = len(wj) - rank_d
    # constructive basis check: N annihilates the boundary and fixes V^J rows
    widx = {w: i for i, w in enumerate(wj)}
    vidx = {w: i for i, w in enumerate(vj)}
    ok = not (d.T @ n).any()
    for w in vj:
        row = n[widx[w]]
        want = np.zeros(len(vj), dtype=np.int64)
        want[vidx[w]] = 1
        ok = ok and (row == want).all()
    ok = bool(ok and rank == len(vj))
    if ring.kind == "Z":
        ok = ok and not torsion
    return MJReport(ring, len(wj), len(vj), rank, torsion, ok)


@dataclass(frozen=True)
class _ExactTable:
    """Premise-checked data for restricted exactness at one (type, J).

    Built from, and valid only for, the boundary d and normal form n it
    holds.  verdicts memoizes each D: a bool when the table alone decides
    it, else c(D) for the elimination steps."""

    d: np.ndarray
    n: np.ndarray
    row_masks: np.ndarray  # Phi_J(w) per row of d
    col_masks: np.ndarray  # Phi_{J+alpha}(u) per column (alpha, u) of d
    label_rows: np.ndarray  # the row of u, per column (alpha, u)
    bad: np.ndarray  # columns whose composite with n is nonzero
    vunit: np.ndarray  # V^J rows whose normal form is their own unit vector
    verdicts: dict


def _mask_array(rs: RootSystem, masks) -> np.ndarray:
    """Root-set masks as a numpy array: uint64 when every root fits in 64
    bits, else Python ints, so that & never wraps."""
    dtype = np.uint64 if 2 * rs.num_positive <= 64 else object
    return np.array(masks, dtype=dtype)


def _exact_table(rs: RootSystem, j: JSet) -> _ExactTable:
    """The (type, J) certificate table; its premises are checked when built.

    - containment: every nonzero (w', (alpha, u)) of d has
      Phi_{J+alpha}(u) inside Phi_J(w'), so no restricted boundary leaves
      W^J(D), for any D;
    - pivots: the first nonzero of column (alpha, u) is 1, in u's row.
    A failure raises CheckFailed.  The table is rebuilt whenever
    boundary_columns or normal_form_matrix hands out a different array."""
    labels, d = boundary_columns(rs, j)
    n = normal_form_matrix(rs, j)
    key = ("exacttable", j)
    got = rs.cache.get(key)
    if got is not None and got.d is d and got.n is n:
        return got
    wj = enumerate_WJ(rs, j)
    idx = {w: i for i, w in enumerate(wj)}
    row_masks = _mask_array(rs, phi_j_masks(rs, j))
    col_masks = _mask_array(rs, [phi_j_mask(rs, j | {alpha}, u) for alpha, u in labels])
    label_rows = np.array([idx[u] for _, u in labels], dtype=np.int64)
    r, c = np.nonzero(d)
    ensure(((row_masks[r] & col_masks[c]) == col_masks[c]).all(),
           "restricted boundary leaves W^J(D)")
    cols = np.arange(d.shape[1])
    ensure(((d != 0).argmax(axis=0) == label_rows).all()
           and (d[label_rows, cols] == 1).all(),
           "a boundary column's first nonzero is not a 1 in its label row")
    vrows = np.array([idx[v] for v in enumerate_VJ(rs, j)], dtype=np.int64)
    vunit = np.zeros(len(wj), dtype=bool)
    if len(vrows):
        vunit[vrows[(n[vrows] == np.eye(len(vrows), dtype=np.int64)).all(axis=1)]] = True
    table = _ExactTable(d, n, row_masks, col_masks, label_rows,
                        (d.T @ n).any(axis=1), vunit, {})
    rs.cache[key] = table
    return table


def _restrict(t: _ExactTable, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows W^J(D) and the columns of D, as boolean masks."""
    return (t.row_masks & mask) == mask, (t.col_masks & mask) == mask


def _classify(t: _ExactTable, mask: int) -> bool | int:
    """Ring-free part of the verdict for D: False if the restricted maps do
    not compose to zero; True if c + v = dim; else c.

    c counts the rows u of W^J(D) with a column (alpha, u) of D, v the
    V^J rows of W^J(D).  The c pivot columns form a unitriangular minor of
    the restricted boundary and the v rows are unit rows of the restricted
    normal form, so c + v = dim certifies exactness over Z, Q and every
    F_p (see restricted_exactness)."""
    inside, colin = _restrict(t, mask)
    if t.bad[colin].any():
        return False
    pivots = np.zeros(len(inside), dtype=bool)
    pivots[t.label_rows[colin]] = True
    c = int(np.count_nonzero(pivots))
    dim = int(np.count_nonzero(inside))
    if c + int(np.count_nonzero(t.vunit & inside)) == dim:
        return True
    return c


def restricted_exactness(rs: RootSystem, j: JSet, mask: int, ring: Ring) -> bool:
    """Exactness of the D-restricted boundary sequence at its middle term.

    mask must be J-quasi-parabolic.  The middle term is L[W^J(D)], the
    left map the restricted boundary d_sub, the right map the normal form
    n_sub into the module; exact means kernel = image there.

    The (type, J) table checks its premises once (see _exact_table).
    Then, per D, with dim = |W^J(D)|:
    1. False if d_sub.T @ n_sub is nonzero: every bound below needs a
       complex, where rank(d_sub) + rank(n_sub) <= dim.
    2. True if c + v = dim (see _classify): rank(d_sub) >= c and
       rank(n_sub) >= v, over Z and every field.
    3. True if c + rank(n_sub) = dim, the rank taken at p over F_p and at
       CERT_PRIME over Q and Z (a lower bound for the rational rank).
    4. Otherwise the rank of d_sub decides over F_p and Q (with the
       rational ranks when the CERT_PRIME bound falls short).  Over Z it
       is exact iff every Smith invariant of d_sub is 1 and their count
       plus rank(n_sub) is dim.  The kernel of n_sub is saturated (a
       multiple of v lies in it only if v does) and, by step 1, contains
       the image.  Invariants all 1 make the image saturated too, and a
       saturated sublattice of a saturated lattice of the same rank is
       all of it, since the quotient is torsion-free of rank 0.
       Conversely image = kernel forces both conditions.
    Over Z, equality in step 2 or 3 makes ker(n_sub) saturated of rank c.
    The image lies inside it and maps onto the c pivot coordinates, on
    which the kernel projects injectively, so image = kernel."""
    check_quasi_parabolic(rs, j, mask)
    table = _exact_table(rs, j)
    c = table.verdicts.get(mask)
    if c is None:
        c = table.verdicts[mask] = _classify(table, mask)
    if isinstance(c, bool):
        return c
    inside, colin = _restrict(table, mask)
    n_sub = table.n[inside]
    dim = len(n_sub)
    p = ring.p if ring.kind == "Fp" else linalg.CERT_PRIME
    rank_n = linalg.modp_rank(n_sub, p)
    if c + rank_n == dim:
        return True
    d_sub = table.d[inside][:, colin]
    if ring.kind == "Fp":
        return linalg.modp_rank(d_sub, p) + rank_n == dim
    if ring.kind == "Q":
        if linalg.modp_rank(d_sub, p) + rank_n == dim:
            return True
        return linalg.rank_z(d_sub) + linalg.rank_z(n_sub) == dim
    inv = linalg.snf_invariants(d_sub)
    return all(v == 1 for v in inv) and len(inv) + linalg.rank_z(n_sub) == dim
