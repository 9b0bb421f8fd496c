"""Brute-force ground truth inside GL_n(F_q): invariants of the quotient
representation, Hecke operators by literal coset summation, and the
Bruhat-cell identities behind the action table.

Everything is extensional: matrices over F_q as nested tuples (backed by one
integer array in the same order), cells as sets of coset indices.  A coset
g P_J is keyed by its partial flag: the column spans of g at the block
boundaries of J, read off the complete flag g B.  Each coset table checks
the premises that make its classes the left cosets before anything uses
it: the generators lie in P_J, right multiplication by each keeps every
class, they generate a group of order |P_J|, and every class has |P_J|
elements.  The Weyl group of the model is the A_{n-1} system from the
combinatorial side; a Weyl element w becomes the permutation matrix
sending e_j to e_{w(j)}.  The oracle never calls the combinatorial fast
paths (jsets, vjmod, chains) that it cross-checks.

Coefficients live in the prime field F_p with p = q, so the premise
|U^s| = q = 0 holds in the coefficient field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hecke, linalg
from .errors import TooLarge, ensure
from .roots import RootSystem, Weyl, root_system
from .weyl import (JSet, all_j, enumerate_VJ, enumerate_WJ, inverse, length,
                   multiply, simple)

Mat = tuple[tuple[int, ...], ...]

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


def _matmul(a: Mat, b: Mat, q: int) -> Mat:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q
                       for j in range(n)) for i in range(n))


def _inverses(q: int) -> np.ndarray:
    """x -> x^{-1} mod q, with 0 -> 0."""
    return np.array([pow(x, q - 2, q) if x else 0 for x in range(q)], dtype=np.int64)


def matrix_codes(mats: np.ndarray, q: int) -> np.ndarray:
    """Base-q code of each matrix in a stack, row-major with the first entry
    most significant: its index in itertools.product(range(q), repeat=n*n)."""
    flat = mats.reshape(len(mats), -1)
    return flat @ (q ** np.arange(flat.shape[1] - 1, -1, -1, dtype=np.int64))


def det_mod(mats: np.ndarray, q: int) -> np.ndarray:
    """Determinants mod q of a stack of square matrices, by Gaussian
    elimination over F_q on the whole stack at once."""
    a = np.array(mats, dtype=np.int64) % q
    m, n = a.shape[:2]
    inv = _inverses(q)
    rows = np.arange(m)
    det = np.ones(m, dtype=np.int64)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        piv = k + nonzero.argmax(axis=1)  # k itself when the column is zero
        det[piv != k] *= -1
        a[rows, k], a[rows, piv] = a[rows, piv], a[rows, k].copy()
        top = a[:, k, k]
        det = det * top % q
        row = a[:, k] * inv[top][:, None] % q
        a[:, k + 1:] = (a[:, k + 1:] - a[:, k + 1:, k:k + 1] * row[:, None, :]) % q
    return det


def _flag_forms(mats: np.ndarray, q: int) -> np.ndarray:
    """The canonical element of g B for each invertible g in a stack.

    Right multiplication by B rescales columns and adds earlier columns to
    later ones.  So column j, once cleared at the pivot rows of the earlier
    columns and scaled to 1 at its first nonzero row (its pivot), depends
    only on the flag of column spans."""
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
    return a


def _span_codes(flags: np.ndarray, d: int, q: int) -> np.ndarray:
    """Code of the reduced column echelon form of the span of the first d
    columns, for each canonical flag matrix from _flag_forms."""
    a = flags[:, :, :d].copy()
    rows = np.arange(len(a))
    # column i has its leading 1 at piv[i] and zeros at the earlier pivots
    piv = [(a[:, :, i] != 0).argmax(axis=1) for i in range(d)]
    for i in range(d):
        for k in range(i + 1, d):
            a[:, :, i] = (a[:, :, i] - a[rows, piv[k], i][:, None] * a[:, :, k]) % q
    order = np.argsort(np.stack(piv, axis=1), axis=1)
    return matrix_codes(np.take_along_axis(a, order[:, None, :], axis=2), q)


def _block_upper(mats: np.ndarray, cls: list[int]) -> np.ndarray:
    """Mask of the matrices with zeros below the diagonal blocks of cls."""
    n = len(cls)
    below = [(i, c) for i in range(n) for c in range(i) if cls[i] != cls[c]]
    r, c = np.array(below, dtype=np.int64).reshape(-1, 2).T
    return ~(mats[:, r, c] != 0).any(axis=1)


def _first_appearance(cls: np.ndarray) -> np.ndarray:
    """Relabel classes 0, 1, ... in order of first appearance."""
    _, first, inv = np.unique(cls, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv.reshape(-1)]


@dataclass(eq=False)
class FiniteGroupModel:
    """GL_n(F_q) with its Borel, unipotent radical and Weyl representatives.

    array[i] is elements[i] as an integer matrix, and codes[i] its base-q
    code; both are sorted by code."""

    n: int
    q: int
    rs: RootSystem
    elements: tuple[Mat, ...]
    borel: tuple[Mat, ...]
    unipotent: tuple[Mat, ...]
    array: np.ndarray
    codes: np.ndarray
    cache: dict = field(default_factory=dict)

    def weyl_matrix(self, w: Weyl) -> Mat:
        blk = w[0]
        m = [[0] * self.n for _ in range(self.n)]
        for j in range(1, self.n + 1):
            m[blk[j - 1] - 1][j - 1] = 1
        return tuple(tuple(r) for r in m)

    def block_classes(self, j: JSet) -> list[int]:
        """Levi block label per row index; alpha_k in J merges rows k-1, k."""
        cls = list(range(self.n))
        for k in sorted(j):
            tgt = cls[k]
            cls = [tgt if c == cls[k + 1] else c for c in cls]
        return cls

    def parabolic_index(self, j: JSet) -> np.ndarray:
        """Element indices of P_J: block upper triangular for the Levi of J."""
        key = ("par_index", j)
        if key not in self.cache:
            self.cache[key] = np.flatnonzero(
                _block_upper(self.array, self.block_classes(j)))
        return self.cache[key]

    def parabolic(self, j: JSet) -> tuple[Mat, ...]:
        key = ("par", j)
        if key not in self.cache:
            self.cache[key] = tuple(self.elements[i] for i in self.parabolic_index(j))
        return self.cache[key]

    def index_of(self, mats: np.ndarray) -> np.ndarray:
        """Element index of each matrix in a stack; each must be invertible."""
        codes = matrix_codes(mats % self.q, self.q)
        idx = np.searchsorted(self.codes, codes).clip(max=len(self.codes) - 1)
        ensure(bool((self.codes[idx] == codes).all()), "products stay in GL_n(F_q)")
        return idx

    def right_perm(self, x: Mat) -> np.ndarray:
        """Element index of g x for each element g."""
        key = ("right", x)
        if key not in self.cache:
            self.cache[key] = self.index_of(self.array @ np.array(x))
        return self.cache[key]

    def flags(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical matrices of the complete flags, and each element's flag."""
        if "flags" not in self.cache:
            forms = _flag_forms(self.array, self.q)
            _, first, flag_of = np.unique(matrix_codes(forms, self.q),
                                          return_index=True, return_inverse=True)
            self.cache["flags"] = (forms[first], flag_of.reshape(-1))
        return self.cache["flags"]

    def coset_ids(self, j: JSet) -> np.ndarray:
        """Coset index in G/P_J of each element, numbered in order of first
        appearance.  Two elements share a class when their flags have the
        same column spans at the block boundaries of J; _check_cosets proves
        that the classes are the cosets before the table is kept."""
        key = ("coset_ids", j)
        if key not in self.cache:
            forms, flag_of = self.flags()
            flag_cls = np.zeros(len(forms), dtype=np.int64)
            for d in range(1, self.n):
                if d - 1 not in j:  # a block boundary after column d
                    span = _span_codes(forms, d, self.q)
                    _, flag_cls = np.unique(flag_cls * self.q ** (self.n * d) + span,
                                            return_inverse=True)
            ids = _first_appearance(flag_cls.reshape(-1)[flag_of])
            self._check_cosets(j, ids)
            self.cache[key] = ids
        return self.cache[key]

    def coset_table(self, j: JSet) -> tuple[list[Mat], dict[Mat, int]]:
        """Representatives (each coset's first element) and the element ->
        coset-index map for G/P_J."""
        key = ("cosets", j)
        if key not in self.cache:
            ids = self.coset_ids(j)
            _, first = np.unique(ids, return_index=True)
            self.cache[key] = ([self.elements[i] for i in first],
                               dict(zip(self.elements, ids.tolist())))
        return self.cache[key]

    def _check_cosets(self, j: JSet, ids: np.ndarray) -> None:
        """The classes of ids are exactly the left cosets g P_J: (a) the
        generators lie in P_J, (b) right multiplication by each keeps every
        class, so classes are unions of cosets of the group H they generate,
        (c) |H| = |P_J|, so H = P_J, and (d) every class has |P_J| elements."""
        par = self.parabolic(j)
        gens = self.parabolic_generators(j)
        members = set(par)
        ensure(all(x in members for x in gens), "(a) coset generators lie in P_J")
        perms = [self.right_perm(x) for x in gens]
        for perm in perms:
            ensure(bool((ids[perm] == ids).all()),
                   "(b) right multiplication by a generator keeps every class")
        one = self.index_of(np.eye(self.n, dtype=np.int64)[None])
        reached = np.zeros(len(ids), dtype=bool)
        reached[one] = True
        frontier = one
        while frontier.size:
            step = np.zeros(len(ids), dtype=bool)
            for perm in perms:
                step[perm[frontier]] = True
            frontier = np.flatnonzero(step & ~reached)
            reached[frontier] = True
        ensure(int(reached.sum()) == len(par),
               "(c) the coset generators generate a group of order |P_J|")
        ensure(bool((np.bincount(ids) == len(par)).all()),
               "(d) every coset class has |P_J| elements")

    def u_of_w(self, w: Weyl) -> tuple[Mat, ...]:
        """U^w = U intersected with w U^- w^{-1}; size q^{l(w)}."""
        key = ("uw", w)
        if key not in self.cache:
            mw = self.weyl_matrix(w)
            mwi = self.weyl_matrix(inverse(w))
            out = []
            for u in self.unipotent:
                c = _matmul(_matmul(mwi, u, self.q), mw, self.q)
                if all(c[i][j] == 0 for i in range(self.n)
                       for j in range(i + 1, self.n)):
                    out.append(u)
            ensure(len(out) == self.q ** length(self.rs, w), "|U^w| = q^l(w)")
            self.cache[key] = tuple(out)
        return self.cache[key]

    def cell(self, j: JSet, w: Weyl) -> frozenset[int]:
        """Coset indices of the Bruhat cell P w P_J / P_J."""
        key = ("cell", j, w)
        if key not in self.cache:
            borel = self.array[self.parabolic_index(frozenset())]
            bw = self.index_of(borel @ np.array(self.weyl_matrix(w)))
            self.cache[key] = frozenset(self.coset_ids(j)[bw].tolist())
        return self.cache[key]

    def borel_generators(self) -> list[Mat]:
        """Diagonal torus generators plus the simple root subgroups."""
        gens: list[Mat] = []
        g0 = _primitive_root(self.q)
        for i in range(self.n):
            d = [[1 if a == b else 0 for b in range(self.n)] for a in range(self.n)]
            d[i][i] = g0
            gens.append(tuple(tuple(r) for r in d))
        for k in range(self.n - 1):
            u = [[1 if a == b else 0 for b in range(self.n)] for a in range(self.n)]
            u[k][k + 1] = 1
            gens.append(tuple(tuple(r) for r in u))
        return gens

    def parabolic_generators(self, j: JSet) -> list[Mat]:
        """borel_generators plus the lower root element of each alpha in J."""
        gens = self.borel_generators()
        for k in sorted(j):
            u = [[1 if a == b else 0 for b in range(self.n)] for a in range(self.n)]
            u[k + 1][k] = 1
            gens.append(tuple(tuple(r) for r in u))
        return gens


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
        raise TooLarge(f"|GL_{n}(F_{q})| = {order} exceeds the cap {MODEL_CAP}")
    codes = np.arange(q ** (n * n), dtype=np.int64)
    every = (codes[:, None] // q ** np.arange(n * n - 1, -1, -1) % q).reshape(-1, n, n)
    keep = det_mod(every, q) != 0
    array, codes = every[keep], codes[keep]
    ensure(len(array) == order, "|GL_n(F_q)| matches the order formula")
    elements = tuple(tuple(map(tuple, m)) for m in array.tolist())
    in_borel = _block_upper(array, list(range(n)))
    unipotent = in_borel & (array[:, range(n), range(n)] == 1).all(axis=1)
    rs = root_system(f"A{n - 1}")
    model = FiniteGroupModel(
        n, q, rs, elements, tuple(elements[i] for i in np.flatnonzero(in_borel)),
        tuple(elements[i] for i in np.flatnonzero(unipotent)), array, codes)
    reps, _ = model.coset_table(frozenset())
    ensure(len(reps) == flag_count(n, q), "|G/B| is the flag count")
    for j in all_j(rs.rank):
        reps_j, _ = model.coset_table(j)
        seen: set[int] = set()
        for w in enumerate_WJ(rs, j):
            cw = model.cell(j, w)
            ensure(len(cw) == len(model.u_of_w(w)), "cell size vs q^l(w)")
            ensure(not (cw & seen), "cells must be disjoint")
            seen |= cw
        ensure(len(seen) == len(reps_j), "cells must cover G/P_J")
    return model


@dataclass(frozen=True)
class InvariantsReport:
    j: JSet
    n_cosets: int
    dim: int
    vj_size: int
    basis_ok: bool


def _quotient_data(model: FiniteGroupModel, j: JSet):
    """Projection to Sp_J coordinates and the V^J cell-class basis.

    Returns (proj, free, basis_rows): proj maps a coset-indexed row vector
    to quotient coordinates (the free columns of the reduced boundary
    span), basis_rows are the classes of the V^J cell functions."""
    key = ("quot", j)
    if key in model.cache:
        return model.cache[key]
    q = model.q
    reps, ids = model.coset_table(j)
    nn = len(reps)
    rows = []
    for alpha in range(model.rs.rank):
        if alpha in j:
            continue
        _, coarse_ids = model.coset_table(j | {alpha})
        fine_to_coarse = np.array([coarse_ids[r] for r in reps])
        for c in range(max(coarse_ids.values()) + 1):
            rows.append((fine_to_coarse == c).astype(np.int64))
    bnd = np.array(rows, dtype=np.int64) if rows else np.zeros((0, nn), dtype=np.int64)
    kernel, free = linalg.modp_nullspace(bnd, q)
    proj = kernel.T
    basis_rows = np.array([_cell_vector(model, j, w) @ proj % q
                           for w in enumerate_VJ(model.rs, j)], dtype=np.int64)
    model.cache[key] = (proj, free, basis_rows)
    return model.cache[key]


def _cell_vector(model: FiniteGroupModel, j: JSet, w: Weyl) -> np.ndarray:
    reps, _ = model.coset_table(j)
    v = np.zeros(len(reps), dtype=np.int64)
    v[list(model.cell(j, w))] = 1
    return v


def _translate_perm(model: FiniteGroupModel, j: JSet, g: Mat) -> np.ndarray:
    """Permutation c -> index of g . (rep of c) on G/P_J cosets."""
    reps, ids = model.coset_table(j)
    return np.array([ids[_matmul(g, r, model.q)] for r in reps])


def special_invariants(model: FiniteGroupModel, j: JSet) -> InvariantsReport:
    """Dimension of the P-invariants of the quotient and the cell basis check."""
    q = model.q
    proj, free, basis_rows = _quotient_data(model, j)
    m = len(free)
    perms = [_translate_perm(model, j, g) for g in model.borel_generators()]
    # proj[perm[free]] is the quotient matrix of the generator
    stacked = [(proj[perm[free]] - np.eye(m, dtype=np.int64)) % q for perm in perms]
    inv_basis, _ = linalg.modp_nullspace(np.hstack(stacked).T if stacked else
                                         np.zeros((0, m), dtype=np.int64), q)
    dim = inv_basis.shape[0]
    vj = enumerate_VJ(model.rs, j)
    cells = [_cell_vector(model, j, w) for w in vj]
    # cell functions are invariant on the nose and their classes independent
    ok = bool(dim == len(vj)
              and all((cv[perm] == cv).all() for perm in perms for cv in cells)
              and linalg.modp_rank(basis_rows, q) == len(vj))
    return InvariantsReport(j, proj.shape[0], dim, len(vj), ok)


def hecke_via_sum(model: FiniteGroupModel, j: JSet, n_elt: Weyl) -> np.ndarray:
    """Matrix of T_n on the V^J cell basis by literal coset summation:
    v T_n = sum over u in P/(P cap n^{-1} P n) of (u n^{-1}) . v."""
    q = model.q
    p = q  # coefficient prime equals the residue characteristic
    ensure(all(len(model.u_of_w(simple(model.rs, s))) % p == 0
               for s in range(model.rs.rank)),
           "|U^s| must vanish in the coefficient field")
    proj, free, basis_rows = _quotient_data(model, j)
    mw = model.weyl_matrix(n_elt)
    mwi = model.weyl_matrix(inverse(n_elt))
    borel_set = set(model.borel)
    h_sub = [b for b in model.borel
             if _matmul(_matmul(mw, b, q), mwi, q) in borel_set]
    taken: set[Mat] = set()
    reps_u: list[Mat] = []
    for b in model.borel:
        if b in taken:
            continue
        reps_u.append(b)
        for h in h_sub:
            taken.add(_matmul(b, h, q))
    ensure(len(reps_u) == q ** length(model.rs, n_elt), "|P/(P cap nPn^-1)| = q^l(n)")
    vj = enumerate_VJ(model.rs, j)
    out = np.zeros((len(vj), len(vj)), dtype=np.int64)
    nreps, _ = model.coset_table(j)
    perms = [_translate_perm(model, j, _matmul(u, mwi, q)) for u in reps_u]
    for r, w in enumerate(vj):
        f = _cell_vector(model, j, w)
        acc = np.zeros(len(nreps), dtype=np.int64)
        for perm in perms:
            acc[perm] += f
        coords = (acc % p) @ proj % p
        x = linalg.solve(basis_rows.T, coords[:, None], p)
        ensure(x is not None, "T_n image must stay in the cell-class span")
        out[r] = x[:, 0]
    return out


def certify_ts(model: FiniteGroupModel, j: JSet) -> dict[int, bool]:
    """Bit-exact comparison of the summation T_s with the combinatorial one."""
    out = {}
    for s in range(model.rs.rank):
        lhs = hecke_via_sum(model, j, simple(model.rs, s))
        rhs = hecke.ts_matrix(model.rs, j, s, model.q).mat
        out[s] = bool((lhs == rhs).all())
    return out


def check_brudec(model: FiniteGroupModel, j: JSet) -> bool:
    """Every cell identity behind the action table holds; see
    brudec_counterexample."""
    return brudec_counterexample(model, j) is None


def brudec_counterexample(model: FiniteGroupModel,
                          j: JSet) -> tuple[Weyl, int | None, str] | None:
    """The first failing cell identity as (w, s, identity), or None.

    Cell identities for every (w in W^J, s): the case is picked by the
    combinatorial trichotomy, the set equality and directness (cardinality)
    are verified by explicit enumeration."""
    q = model.q
    rs = model.rs
    _, ids = model.coset_table(j)
    for w in enumerate_WJ(rs, j):
        mw = model.weyl_matrix(w)
        uw = model.u_of_w(w)
        cw = model.cell(j, w)
        # dirbru: U^w w P_J = P w P_J, direct
        direct = {ids[_matmul(u, mw, q)] for u in uw}
        if direct != cw or len(direct) != len(uw):
            return w, None, "U^w w P_J is not P w P_J, direct"
        for s in range(rs.rank):
            ms = model.weyl_matrix(simple(rs, s))
            us = model.u_of_w(simple(rs, s))
            case = hecke.ts_case(rs, j, w, s)
            if case == "a":
                for u in us:
                    got = {ids[_matmul(_matmul(u, ms, q), _matmul(u2, mw, q), q)]
                           for u2 in uw}
                    if got != cw or len(got) != len(uw):
                        return w, s, "case (a): u s U^w w P_J is not P w P_J, direct"
            elif case == "b":
                sw = multiply(simple(rs, s), w)
                pairs = [(_matmul(u1, ms, q), _matmul(u2, mw, q))
                         for u1 in us for u2 in uw]
                got = {ids[_matmul(a, b, q)] for a, b in pairs}
                if got != model.cell(j, sw) or len(got) != len(us) * len(uw):
                    return w, s, "case (b): U^s s U^w w P_J is not P sw P_J, direct"
            else:
                sw = multiply(simple(rs, s), w)
                uprime = tuple(u for u in uw if u[s][s + 1] == 0)
                if len(uprime) * q != len(uw):
                    return w, s, "case (c): [U^w : U'] != q"
                prods = {_matmul(a, b, q) for a in uprime for b in uprime}
                if not prods <= set(uprime):  # subgroup (finite closure)
                    return w, s, "case (c): U' is not a subgroup"
                conj = {_matmul(_matmul(ms, u2, q), ms, q)
                        for u2 in model.u_of_w(sw)}
                if conj != set(uprime):
                    return w, s, "case (c): U' != s U^{sw} s"
                for u in us:
                    usu = _matmul(u, ms, q)
                    got = {ids[_matmul(_matmul(usu, u3, q), mw, q)]
                           for u3 in uprime}
                    if got != model.cell(j, sw) or len(got) != len(uprime):
                        return w, s, "case (c): u s U' w P_J is not P sw P_J, direct"
                ident = tuple(tuple(1 if a == b else 0 for b in range(model.n))
                              for a in range(model.n))
                for u in us:
                    if u == ident:
                        continue
                    got = {ids[_matmul(_matmul(_matmul(u1, ms, q),
                                               _matmul(u, u3, q), q), mw, q)]
                           for u1 in us for u3 in uprime}
                    if got != cw or len(got) != len(us) * len(uprime):
                        return w, s, "case (c): U^s s u U' w P_J is not P w P_J, direct"
    return None
