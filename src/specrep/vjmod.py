"""The quotient module with V^J basis: boundary maps, normal form, exactness.

The module M_J(L) is the cokernel of the boundary map

    sum over alpha in Delta-J of L[W^{J+alpha}]  -->  L[W^J],
    w |-> sum of all w' in W^J with w'W_J inside wW_{J+alpha}.

Everything here is a matrix computation in the enumeration order of
enumerate_WJ / enumerate_VJ.  Vectors are rows; the normal-form matrix N
sends the class of g_w to its expansion over the V^J basis.
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


def _column_masks(rs: RootSystem, j: JSet) -> tuple[int, ...]:
    """Phi_{J+alpha}(w) for every boundary column label (alpha, w)."""
    key = ("colmasks", j)
    got = rs.cache.get(key)
    if got is None:
        labels, _ = boundary_columns(rs, j)
        got = tuple(phi_j_mask(rs, j | {alpha}, w) for alpha, w in labels)
        rs.cache[key] = got
    return got


def restricted_exactness(rs: RootSystem, j: JSet, mask: int, ring: Ring) -> bool:
    """Exactness of the D-restricted boundary sequence at its middle term.

    mask must be J-quasi-parabolic.  The middle term is L[W^J(D)], the
    left map the restricted boundary, the right map the normal form into
    the module; exact means kernel = image there."""
    check_quasi_parabolic(rs, j, mask)
    _, d = boundary_columns(rs, j)
    n = normal_form_matrix(rs, j)
    inside = np.array([m & mask == mask for m in phi_j_masks(rs, j)], dtype=bool)
    rows = np.flatnonzero(inside)
    cols = np.flatnonzero([m & mask == mask for m in _column_masks(rs, j)])
    ensure(not d[~inside][:, cols].any(), "restricted boundary leaves W^J(D)")
    d_sub = d[np.ix_(rows, cols)]
    n_sub = n[rows]
    dim = len(rows)
    # every certificate below presumes a complex: the composite must vanish
    if (d_sub.T @ n_sub).any():
        return False
    if dim == 0:
        return True
    if ring.kind == "Fp":
        return linalg.modp_rank(d_sub, ring.p) + linalg.modp_rank(n_sub, ring.p) == dim
    if ring.kind == "Q":
        # mod-p ranks bound the rational ranks from below while the zero
        # composite bounds their sum from above, so equality certifies
        if linalg.modp_rank(d_sub, linalg.CERT_PRIME) + linalg.modp_rank(n_sub, linalg.CERT_PRIME) == dim:
            return True
        return linalg.rank_z(d_sub) + linalg.rank_z(n_sub) == dim
    # over Z: image and kernel must agree as subgroups, not just in rank;
    # the kernel of the row-vector map v -> v @ n_sub is the kernel of n_sub.T
    kern = linalg.integer_kernel(n_sub.T)
    if kern.shape[1] == 0:
        return not d_sub.any()
    x = linalg.solve(kern, d_sub)
    if x is None or any(v.denominator != 1 for v in x.flat):
        return False
    inv = linalg.snf_invariants([[v.numerator for v in row] for row in x])
    return len(inv) == kern.shape[1] and all(v == 1 for v in inv)
