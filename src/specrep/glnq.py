"""Brute-force ground truth inside GL_n(F_q): invariants of the quotient
representation, Hecke operators by literal coset summation, and the
Bruhat-cell identities behind the action table.

Everything is extensional: matrices over F_q as nested tuples, parabolic
subgroups as filters, cells as sets of coset indices.  The Weyl group of
the model is the A_{n-1} system from the combinatorial side; a Weyl
element w becomes the permutation matrix sending e_j to e_{w(j)}.

Coefficients live in the prime field F_p with p = q, so the premise
|U^s| = q = 0 holds in the coefficient field.
"""

from __future__ import annotations

import itertools
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


def _det_mod(m: Mat, q: int) -> int:
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        term = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        for i in range(n):
            term = term * m[i][perm[i]] % q
        total += sign * term
    return total % q


@dataclass(eq=False)
class FiniteGroupModel:
    """GL_n(F_q) with its Borel, unipotent radical and Weyl representatives."""

    n: int
    q: int
    rs: RootSystem
    elements: tuple[Mat, ...]
    borel: tuple[Mat, ...]
    unipotent: tuple[Mat, ...]
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

    def parabolic(self, j: JSet) -> tuple[Mat, ...]:
        key = ("par", j)
        if key not in self.cache:
            cls = self.block_classes(j)
            self.cache[key] = tuple(
                g for g in self.elements
                if all(g[i][c] == 0 for i in range(self.n) for c in range(i)
                       if cls[i] != cls[c]))
        return self.cache[key]

    def coset_table(self, j: JSet) -> tuple[list[Mat], dict[Mat, int]]:
        """Representatives and the element -> coset-index map for G/P_J."""
        key = ("cosets", j)
        if key not in self.cache:
            par = self.parabolic(j)
            ids: dict[Mat, int] = {}
            reps: list[Mat] = []
            for g in self.elements:
                if g in ids:
                    continue
                cid = len(reps)
                reps.append(g)
                for p in par:
                    ids[_matmul(g, p, self.q)] = cid
            self.cache[key] = (reps, ids)
        return self.cache[key]

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
            _, ids = self.coset_table(j)
            mw = self.weyl_matrix(w)
            self.cache[key] = frozenset(
                ids[_matmul(b, mw, self.q)] for b in self.borel)
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
    elements = tuple(
        m for m in (tuple(map(tuple, np.array(bits).reshape(n, n)))
                    for bits in itertools.product(range(q), repeat=n * n))
        if _det_mod(m, q) != 0)
    ensure(len(elements) == order, "|GL_n(F_q)| matches the order formula")
    borel = tuple(g for g in elements
                  if all(g[i][c] == 0 for i in range(n) for c in range(i)))
    unipotent = tuple(g for g in borel if all(g[i][i] == 1 for i in range(n)))
    rs = root_system(f"A{n - 1}")
    model = FiniteGroupModel(n, q, rs, elements, borel, unipotent)
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
    stacked = []
    for g in model.borel_generators():
        perm = _translate_perm(model, j, g)
        act = proj[perm[free]]  # quotient matrix of g
        stacked.append((act - np.eye(m, dtype=np.int64)) % q)
    inv_basis, _ = linalg.modp_nullspace(np.hstack(stacked).T if stacked else
                                         np.zeros((0, m), dtype=np.int64), q)
    dim = inv_basis.shape[0]
    vj = enumerate_VJ(model.rs, j)
    ok = dim == len(vj)
    # cell functions are invariant on the nose and their classes independent
    for g in model.borel_generators():
        perm = _translate_perm(model, j, g)
        for w in vj:
            cv = _cell_vector(model, j, w)
            ok = ok and (cv[np.argsort(perm)] == cv).all()
    ok = bool(ok and linalg.modp_rank(basis_rows, q) == len(vj))
    return InvariantsReport(j, proj.shape[0], dim, len(vj), ok)


def hecke_via_sum(model: FiniteGroupModel, j: JSet, n_elt: Weyl) -> np.ndarray:
    """Matrix of T_n on the V^J cell basis by literal coset summation:
    v T_n = sum over u in P/(P cap n^{-1} P n) of (u n^{-1}) . v."""
    q = model.q
    p = q  # coefficient prime equals the residue characteristic
    ensure(q % p == 0, "|U^s| must vanish in the coefficient field")
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
