"""Brute-force ground truth inside GL_n(F_q): invariants of the quotient
representation, Hecke operators by literal coset summation, and the
Bruhat-cell identities behind the action table.

Everything is extensional.  A group element is an index into one integer
array of the matrices over F_q, sorted by base-q code, and a product of
elements is one batched lookup of the matrix products in that array.
Subgroups, cells and cosets are arrays of indices.  One batched column
elimination over F_q gives each coset g P_J its canonical element, the
key of the coset; for B it is the complete flag of g, and a zero column
in it marks a singular g.  Each coset table checks the premises that
make its classes the left cosets before anything uses it: the generators
lie in P_J, right multiplication by each keeps every class, they generate
a group of order |P_J|, and every class has |P_J| elements.  The Weyl
group of the model is the A_{n-1} system from the combinatorial side; a
Weyl element w becomes the permutation matrix sending e_j to e_{w(j)}.
The oracle never calls the combinatorial fast paths (jsets, vjmod, chains)
that it cross-checks.

Coefficients live in the prime field F_p with p = q, so the premise
|U^s| = q = 0 holds in the coefficient field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import hecke, linalg
from .errors import CapExceeded, ensure
from .roots import RootSystem, Weyl, cached, root_system
from .weyl import (JSet, all_j, enumerate_VJ, enumerate_WJ, inverse, length,
                   multiply, simple)

MODEL_CAP = 15000
DEFAULT_MODELS = ((2, 2), (3, 2), (2, 3))


def group_order(n: int, q: int) -> int:
    return int(np.prod([q ** n - q ** i for i in range(n)], dtype=object))


def flag_count(n: int, q: int) -> int:
    """Number of complete flags: the q-factorial [n]_q!."""
    out = 1
    for i in range(1, n + 1):
        out *= (q ** i - 1) // (q - 1)
    return out


def _inverses(q: int) -> np.ndarray:
    """x -> x^{-1} mod q, with 0 -> 0."""
    return np.array([pow(x, q - 2, q) if x else 0 for x in range(q)], dtype=np.int64)


def matrix_codes(mats: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of each matrix in an array of matrices, row-major with the
    first entry most significant: its index in
    itertools.product(range(q), repeat=n*n)."""
    flat = mats.reshape(*mats.shape[:-2], -1)
    return flat @ (q ** np.arange(flat.shape[-1] - 1, -1, -1, dtype=np.int64))


def _flag_forms(mats: np.ndarray, q: int, cls: list[int]) -> np.ndarray:
    """The canonical element of g P for each g in a stack, where cls labels
    the Levi block of each column of P (distinct labels give B).

    Right multiplication by P adds earlier columns to later ones and mixes
    the columns of a block.  So column j, cleared at the pivot rows of the
    earlier columns and scaled to 1 at its first nonzero row (its pivot),
    then cleared at the pivots of the later columns of its block, with each
    block's columns sorted by pivot, depends only on g P.  A column is zero
    exactly when g is singular."""
    a = np.array(mats, dtype=np.int64)
    rows = np.arange(len(a))
    inv = _inverses(q)
    pivots: list[np.ndarray] = []
    for j in range(a.shape[2]):
        for i, p in enumerate(pivots):
            a[:, :, j] = (a[:, :, j] - a[rows, p, j][:, None] * a[:, :, i]) % q
        p = (a[:, :, j] != 0).argmax(axis=1)
        a[:, :, j] = a[:, :, j] * inv[a[rows, p, j]][:, None] % q
        pivots.append(p)
    for i, k in itertools.combinations(range(len(cls)), 2):
        if cls[i] == cls[k]:
            a[:, :, i] = (a[:, :, i] - a[rows, pivots[k], i][:, None] * a[:, :, k]) % q
    # block labels ascend along the columns, so (label, pivot) orders each block
    order = np.argsort(np.array(cls) * len(cls) + np.stack(pivots, axis=1), axis=1)
    return np.take_along_axis(a, order[:, None, :], axis=2)


def _block_upper(mats: np.ndarray, cls: list[int]) -> np.ndarray:
    """Mask of the matrices with zeros below the diagonal blocks of cls."""
    n = len(cls)
    below = [(i, c) for i in range(n) for c in range(i) if cls[i] != cls[c]]
    r, c = np.array(below, dtype=np.int64).reshape(-1, 2).T
    return ~(mats[:, r, c] != 0).any(axis=1)


def _distinct(idx: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-negative index array.  Plain np.unique
    would do, but it imports numpy.ma on first use."""
    return np.flatnonzero(np.bincount(idx.ravel()))


def _member(idx: np.ndarray, size: int) -> np.ndarray:
    """Membership mask over range(size) of the index array idx.  np.isin
    would do, but on a wide index range it sorts, and its np.unique imports
    numpy.ma on first use."""
    out = np.zeros(size, dtype=bool)
    out[idx] = True
    return out


def _first_appearance(cls: np.ndarray) -> np.ndarray:
    """Relabel classes 0, 1, ... in order of first appearance."""
    _, first, inv = np.unique(cls, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv.reshape(-1)]


def _elementary(n: int, i: int, j: int, c: int) -> np.ndarray:
    """The identity matrix with entry (i, j) set to c."""
    m = np.eye(n, dtype=np.int64)
    m[i, j] = c
    return m


@dataclass(eq=False)
class FiniteGroupModel:
    """GL_n(F_q) as one (|G|, n, n) integer array.

    An element is an index i: elements[i] is its matrix and codes[i] the
    matrix's base-q code, both sorted by code; its complete flag is the B
    form flag_forms[flag_of[i]].  The Borel, U^w, the Weyl representatives
    and the cosets are all index arrays into elements."""

    n: int
    q: int
    rs: RootSystem
    elements: np.ndarray
    codes: np.ndarray
    flag_forms: np.ndarray
    flag_of: np.ndarray
    cache: dict = field(default_factory=dict)

    def index_of(self, mats: np.ndarray) -> np.ndarray:
        """Element index of each matrix in an array of matrices; each must be
        invertible."""
        codes = matrix_codes(mats % self.q, self.q)
        idx = np.searchsorted(self.codes, codes).clip(max=len(self.codes) - 1)
        ensure(bool((self.codes[idx] == codes).all()), "products stay in GL_n(F_q)")
        return idx

    def mul(self, a, b) -> np.ndarray:
        """Element index of each product elements[a] @ elements[b]; a and b
        are indices or index arrays, broadcast against each other."""
        return self.index_of(self.elements[a] @ self.elements[b])

    def weyl_index(self, w: Weyl) -> int:
        """Element index of the permutation matrix sending e_j to e_{w(j)}."""
        m = np.zeros((self.n, self.n), dtype=np.int64)
        m[np.array(w[0]) - 1, np.arange(self.n)] = 1
        return int(self.index_of(m))

    def block_classes(self, j: JSet) -> list[int]:
        """Levi block label per row index; alpha_k in J merges rows k-1, k."""
        cls = list(range(self.n))
        for k in sorted(j):
            tgt = cls[k]
            cls = [tgt if c == cls[k + 1] else c for c in cls]
        return cls

    @cached
    def parabolic_index(self, j: JSet) -> np.ndarray:
        """Element indices of P_J: block upper triangular for the Levi of J."""
        return np.flatnonzero(_block_upper(self.elements, self.block_classes(j)))

    @cached
    def right_perm(self, x: int) -> np.ndarray:
        """Element index of g x for each element g."""
        return self.mul(np.arange(len(self.elements)), x)

    @cached
    def coset_ids(self, j: JSet) -> np.ndarray:
        """Coset index in G/P_J of each element, numbered in order of first
        appearance.  Two elements share a class when their complete flags
        have the same canonical element of g P_J; _check_cosets proves that
        the classes are the cosets before the table is kept."""
        codes = matrix_codes(_flag_forms(self.flag_forms, self.q, self.block_classes(j)), self.q)
        ids = _first_appearance(codes[self.flag_of])
        self._check_cosets(j, ids)
        return ids

    @cached
    def coset_reps(self, j: JSet) -> np.ndarray:
        """Element index of each coset's first element, in coset order."""
        return np.unique(self.coset_ids(j), return_index=True)[1]

    def _check_cosets(self, j: JSet, ids: np.ndarray) -> None:
        """The classes of ids are exactly the left cosets g P_J: (a) the
        generators lie in P_J, (b) right multiplication by each keeps every
        class, so classes are unions of cosets of the group H they generate,
        (c) |H| = |P_J|, so H = P_J, and (d) every class has |P_J| elements."""
        par = self.parabolic_index(j)
        gens = self.index_of(np.array(self.parabolic_generators(j)))
        ensure(bool(_member(par, len(ids))[gens].all()), "(a) coset generators lie in P_J")
        perms = np.array([self.right_perm(int(x)) for x in gens])
        ensure(bool((ids[perms] == ids).all()),
               "(b) right multiplication by a generator keeps every class")
        reached = np.zeros(len(ids), dtype=bool)
        frontier = self.index_of(np.eye(self.n, dtype=np.int64)[None])
        reached[frontier] = True
        while frontier.size:
            step = np.zeros(len(ids), dtype=bool)
            step[perms[:, frontier]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
        ensure(int(reached.sum()) == len(par),
               "(c) the coset generators generate a group of order |P_J|")
        ensure(bool((np.bincount(ids) == len(par)).all()),
               "(d) every coset class has |P_J| elements")

    @cached
    def u_of_w(self, w: Weyl) -> np.ndarray:
        """U^w = U intersected with w U^- w^{-1}; size q^{l(w)}."""
        borel = self.parabolic_index(frozenset())
        diag = self.elements[borel][:, range(self.n), range(self.n)]
        unipotent = borel[(diag == 1).all(axis=1)]
        conj = self.elements[self.mul(self.mul(self.weyl_index(inverse(w)), unipotent),
                                      self.weyl_index(w))]
        above = np.triu_indices(self.n, 1)
        out = unipotent[~conj[:, above[0], above[1]].any(axis=1)]
        ensure(len(out) == self.q ** length(self.rs, w), "|U^w| = q^l(w)")
        return out

    @cached
    def cell(self, j: JSet, w: Weyl) -> np.ndarray:
        """Sorted coset indices of the Bruhat cell P w P_J / P_J."""
        bw = self.mul(self.parabolic_index(frozenset()), self.weyl_index(w))
        return _distinct(self.coset_ids(j)[bw])

    def borel_generators(self) -> list[np.ndarray]:
        """Diagonal torus generators plus the simple root subgroups."""
        g0 = _primitive_root(self.q)
        return ([_elementary(self.n, i, i, g0) for i in range(self.n)]
                + [_elementary(self.n, k, k + 1, 1) for k in range(self.n - 1)])

    def parabolic_generators(self, j: JSet) -> list[np.ndarray]:
        """borel_generators plus the lower root element of each alpha in J."""
        return (self.borel_generators()
                + [_elementary(self.n, k + 1, k, 1) for k in sorted(j)])


def _primitive_root(q: int) -> int:
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    return 1


def build_model(n: int, q: int) -> FiniteGroupModel:
    """Enumerate GL_n(F_q) and validate the Bruhat cell partition of every
    G/P_J against |U^w| = q^{l(w)}."""
    linalg.check_prime(q)
    order = group_order(n, q)
    if order > MODEL_CAP:
        raise CapExceeded(f"|GL_{n}(F_{q})| = {order} exceeds the cap {MODEL_CAP}")
    rs = root_system(f"A{n - 1}")  # n < 2 is refused before the enumeration
    codes = np.arange(q ** (n * n), dtype=np.int64)
    every = (codes[:, None] // q ** np.arange(n * n - 1, -1, -1) % q).reshape(-1, n, n)
    forms = _flag_forms(every, q, list(range(n)))
    keep = forms.any(axis=1).all(axis=1)  # no zero column
    forms = forms[keep]  # drops the singular matrices' forms before the copies
    _, first, flag_of = np.unique(matrix_codes(forms, q),
                                  return_index=True, return_inverse=True)
    model = FiniteGroupModel(n, q, rs, every[keep], codes[keep], forms[first],
                             flag_of.reshape(-1))
    ensure(len(model.elements) == order, "|GL_n(F_q)| matches the order formula")
    ensure(len(model.coset_reps(frozenset())) == flag_count(n, q),
           "|G/B| is the flag count")
    for j in all_j(rs.rank):
        seen = np.zeros(len(model.coset_reps(j)), dtype=bool)
        for w in enumerate_WJ(rs, j):
            cw = model.cell(j, w)
            ensure(len(cw) == len(model.u_of_w(w)), "cell size vs q^l(w)")
            ensure(not seen[cw].any(), "cells must be disjoint")
            seen[cw] = True
        ensure(bool(seen.all()), "cells must cover G/P_J")
    return model


@dataclass(frozen=True)
class InvariantsReport:
    j: JSet
    n_cosets: int
    dim: int
    vj_size: int
    basis_ok: bool


@cached
def _quotient_data(model: FiniteGroupModel, j: JSet):
    """Projection to Sp_J coordinates and the V^J cell-class basis.

    Returns (proj, free, basis_rows): proj maps a coset-indexed row vector
    to quotient coordinates (the free columns of the reduced boundary
    span), basis_rows are the classes of the V^J cell functions."""
    q = model.q
    reps = model.coset_reps(j)
    rows = [np.zeros((0, len(reps)), dtype=np.int64)]  # none when J is all of Delta
    for alpha in range(model.rs.rank):
        if alpha in j:
            continue
        fine_to_coarse = model.coset_ids(j | {alpha})[reps]
        coarse = np.arange(fine_to_coarse.max() + 1)
        rows.append((fine_to_coarse == coarse[:, None]).astype(np.int64))
    kernel, free = linalg.modp_nullspace(np.vstack(rows), q)
    proj = kernel.T
    return proj, free, _cell_vectors(model, j) @ proj % q


def _cell_vectors(model: FiniteGroupModel, j: JSet) -> np.ndarray:
    """Indicator rows on G/P_J of the cells of V^J, in enumerate_VJ order."""
    vj = enumerate_VJ(model.rs, j)
    out = np.zeros((len(vj), len(model.coset_reps(j))), dtype=np.int64)
    for r, w in enumerate(vj):
        out[r, model.cell(j, w)] = 1
    return out


def _translations(model: FiniteGroupModel, j: JSet, gs: np.ndarray) -> np.ndarray:
    """Row k: coset c -> coset of gs[k] . (rep of c), on G/P_J."""
    reps = model.coset_reps(j)
    return model.coset_ids(j)[model.mul(gs[:, None], reps[None, :])]


def special_invariants(model: FiniteGroupModel, j: JSet) -> InvariantsReport:
    """Dimension of the P-invariants of the quotient and the cell basis check."""
    q = model.q
    proj, free, basis_rows = _quotient_data(model, j)
    m = len(free)
    perms = _translations(model, j, model.index_of(np.array(model.borel_generators())))
    # proj[perm[free]] is the quotient matrix of the generator
    stacked = [(proj[perm[free]] - np.eye(m, dtype=np.int64)) % q for perm in perms]
    inv_basis, _ = linalg.modp_nullspace(np.hstack(stacked).T, q)
    dim = inv_basis.shape[0]
    cells = _cell_vectors(model, j)
    # cell functions are invariant on the nose and their classes independent
    ok = bool(dim == len(cells)
              and (cells[:, perms] == cells[:, None, :]).all()
              and linalg.modp_rank(basis_rows, q) == len(cells))
    return InvariantsReport(j, proj.shape[0], dim, len(cells), ok)


def hecke_via_sum(model: FiniteGroupModel, j: JSet, n_elt: Weyl) -> np.ndarray:
    """Matrix of T_n on the V^J cell basis by literal coset summation:
    v T_n = sum over u in P/(P cap n^{-1} P n) of (u n^{-1}) . v."""
    q = model.q
    p = q  # coefficient prime equals the residue characteristic
    ensure(all(len(model.u_of_w(simple(model.rs, s))) % p == 0
               for s in range(model.rs.rank)),
           "|U^s| must vanish in the coefficient field")
    proj, free, basis_rows = _quotient_data(model, j)
    nw, nwi = model.weyl_index(n_elt), model.weyl_index(inverse(n_elt))
    borel = model.parabolic_index(frozenset())
    h_sub = borel[_member(borel, len(model.elements))[model.mul(model.mul(nw, borel), nwi)]]
    # one representative per left coset b h_sub: its first-indexed element
    reps_u = _distinct(model.mul(borel[:, None], h_sub[None, :]).min(axis=1))
    ensure(len(reps_u) == q ** length(model.rs, n_elt), "|P/(P cap nPn^-1)| = q^l(n)")
    cells = _cell_vectors(model, j)
    acc = np.zeros_like(cells)
    for perm in _translations(model, j, model.mul(reps_u, nwi)):
        acc[:, perm] += cells
    coords = (acc % p) @ proj % p
    x = linalg.solve(basis_rows.T, coords.T, p)
    ensure(x is not None, "T_n image must stay in the cell-class span")
    return x.T


def certify_ts(model: FiniteGroupModel, j: JSet) -> dict[int, bool]:
    """Bit-exact comparison of the summation T_s with the combinatorial one."""
    out = {}
    for s in range(model.rs.rank):
        lhs = hecke_via_sum(model, j, simple(model.rs, s))
        rhs = hecke.ts_matrix(model.rs, j, s, model.q)
        out[s] = bool((lhs == rhs).all())
    return out


def check_brudec(model: FiniteGroupModel, j: JSet) -> bool:
    """Every cell identity behind the action table holds; see
    brudec_counterexample."""
    return brudec_counterexample(model, j) is None


def _fills(got: np.ndarray, cell: np.ndarray, size: int) -> bool:
    """The coset indices got are the cell and size of them are distinct."""
    found = _distinct(got)
    return len(found) == size and np.array_equal(found, cell)


def brudec_counterexample(model: FiniteGroupModel,
                          j: JSet) -> tuple[Weyl, int | None, str] | None:
    """The first failing cell identity as (w, s, identity), or None.

    Cell identities for every (w in W^J, s): the case is picked by the
    combinatorial trichotomy, the set equality and directness (cardinality)
    are verified by explicit enumeration."""
    q = model.q
    rs = model.rs
    ids = model.coset_ids(j)
    one = model.index_of(np.eye(model.n, dtype=np.int64))
    for w in enumerate_WJ(rs, j):
        mw = model.weyl_index(w)
        uw = model.u_of_w(w)
        cw = model.cell(j, w)
        uw_w = model.mul(uw, mw)
        # dirbru: U^w w P_J = P w P_J, direct
        if not _fills(ids[uw_w], cw, len(uw)):
            return w, None, "U^w w P_J is not P w P_J, direct"
        for s in range(rs.rank):
            ms = model.weyl_index(simple(rs, s))
            us = model.u_of_w(simple(rs, s))
            us_s = model.mul(us, ms)
            case = hecke.ts_case(rs, j, w, s)
            if case == "a":
                got = ids[model.mul(us_s[:, None], uw_w[None, :])]
                if not all(_fills(row, cw, len(uw)) for row in got):
                    return w, s, "case (a): u s U^w w P_J is not P w P_J, direct"
                continue
            csw = model.cell(j, multiply(simple(rs, s), w))
            if case == "b":
                got = ids[model.mul(us_s[:, None], uw_w[None, :])]
                if not _fills(got, csw, got.size):
                    return w, s, "case (b): U^s s U^w w P_J is not P sw P_J, direct"
                continue
            uprime = uw[model.elements[uw][:, s, s + 1] == 0]
            if len(uprime) * q != len(uw):
                return w, s, "case (c): [U^w : U'] != q"
            products = model.mul(uprime[:, None], uprime[None, :])
            if not _member(uprime, len(model.elements))[products].all():
                return w, s, "case (c): U' is not a subgroup"
            conj = model.mul(model.mul(ms, model.u_of_w(multiply(simple(rs, s), w))), ms)
            if not np.array_equal(_distinct(conj), uprime):
                return w, s, "case (c): U' != s U^{sw} s"
            got = ids[model.mul(model.mul(us_s[:, None], uprime[None, :]), mw)]
            if not all(_fills(row, csw, len(uprime)) for row in got):
                return w, s, "case (c): u s U' w P_J is not P sw P_J, direct"
            # row u != 1: u1 s u u3 w over u1 in U^s, u3 in U'
            u_u3 = model.mul(us[us != one][:, None], uprime[None, :])
            got = ids[model.mul(model.mul(us_s[None, :, None], u_u3[:, None, :]), mw)]
            if not all(_fills(g, cw, len(us) * len(uprime)) for g in got):
                return w, s, "case (c): U^s s u U' w P_J is not P w P_J, direct"
    return None
