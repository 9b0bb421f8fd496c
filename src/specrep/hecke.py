"""Mod-p Hecke operators on the V^J basis and the simplicity checks.

Vectors are rows indexed by enumerate_VJ order; operators act on the
right.  The T_s action on a basis vector g_w is a three-case table:

    (a) (sw)^J = w               ->  0
    (b) l((sw)^J) > l(w)         ->  g_{sw}    (sw lands back in V^J)
    (c) l((sw)^J) < l(w)         ->  -g_w

One premise-checked case table per (type, J) holds the position of (sw)^J
and the case for every s and every position w of W^J's table.  On the V^J rows (vj_rows) it makes each T_s a p-free
monomial map (a target row and a coefficient in {0, +-1} per row), on
which the 0-Hecke relations are checked over Z.  An Omega element u acts
by g_w -> normal form of g_{(uw)^J}, with (uw)^J read from the table along
a word of u.  Dense T_s and Omega matrices mod p are read-only arrays.

"Every nonzero vector's T_s-orbit span contains g_{z^J}" is decided by a
socle certificate.  The simple modules of the 0-Hecke algebra are
one-dimensional (P. N. Norton, J. Austral. Math. Soc. 27, 1979), so the
statement holds iff the only joint eigenline of the T_s is that of
g_{z^J}.  Each condition of v T_s = -chi_s v reads x_t = 0 or x_a = x_b,
so the indicators of the merged classes of rows not forced to zero are a
basis of the joint eigenspace E_chi over every field: no elimination, no
dependence on p.  With the Omega operators too, every nonzero submodule
still holds a joint T_s eigenline, and the verdict searches the lines of
the E_chi (the socle step of the MeatAxe).

"g_{z^J} generates V^J under the T_s and Omega" is decided by a p-free
generation certificate, the spin-up step of the MeatAxe done once over Z
(R. A. Parker, 1984): unit steps from g_{z^J}, then an integer spin-up
whose kept images have determinant d, so generation holds at every p not
dividing d (d = 1 on every J of each type tried up to rank 5).
Only the other primes, d = 0 and the T_s-only negative control run a
closure mod p.  The only capacity misses are that closure's dense Omega
products that would overflow int64 and an E_chi with p^{dim E_chi} over
LINE_CAP in the line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import linalg
from .chains import omega_group, require_omega, z_j
from .errors import CapExceeded, CheckFailed, ensure
from .roots import RootSystem, Weyl, cached
from .vjmod import normal_form_matrix
from .weyl import (JSet, enumerate_VJ, image_positive, inverse, jlabel, length,
                   longest_element, multiply, simple, vj_rows, wj_table, wlabel)

LINE_CAP = 1 << 20
_SPIN_PRIME = 2  # stage 2's independence test of _generation_certificate


@dataclass(frozen=True, eq=False)
class SimplicityReport:
    j: JSet
    p: int
    dim: int
    zj_in_every_orbit: bool
    generation_ok: bool
    is_simple: bool
    counterexample: tuple[int, ...] | None


@dataclass(frozen=True, eq=False)
class Monomial:
    """g_r -> coef[r] g_{tgt[r]}, coef in {-1, 0, 1}, tgt[r] = r where coef[r] = 0."""
    tgt: np.ndarray
    coef: np.ndarray

    def then(self, other: Monomial) -> Monomial:
        coef = self.coef * other.coef[self.tgt]
        return Monomial(np.where(coef != 0, other.tgt[self.tgt], np.arange(len(coef))), coef)

    def __eq__(self, other) -> bool:
        return np.array_equal(self.tgt, other.tgt) and np.array_equal(self.coef, other.coef)

    def image(self, v: np.ndarray) -> np.ndarray:
        """The integer image of the row v."""
        out = np.zeros(len(v), dtype=np.int64)
        np.add.at(out, self.tgt, v * self.coef)
        return out

    def apply(self, v: np.ndarray, p: int) -> np.ndarray:
        return self.image(v) % p


def _premise(ok: bool, rs: RootSystem, j: JSet, w: Weyl, s: int, what: str) -> None:
    if not ok:
        raise CheckFailed(f"{rs.ct} J={jlabel(j)} w={wlabel(w)} s={s + 1}: {what}")


@cached
def case_table(rs: RootSystem, j: JSet) -> tuple[list, list[str]]:
    """The premise-checked case table of (type, J): per s the position of
    each (sw)^J and per s the case letters, over the positions of W^J's
    coset table and read from its rows.  Premises: one case holds; if sw
    leaves W^J, w^-1 sw is a simple reflection of J, that is w(alpha_t) =
    alpha_s for a t in J, so (sw)^J = w (Deodhar); case (b) keeps V^J and
    hits case (c) rows."""
    table = wj_table(rs, j)
    wj, perms = table.elements, table.perms
    vset = set(vj_rows(rs, j).tolist())
    lens = table.lengths
    j_cols = [rs.simple_indices[t] for t in j]
    ups, cases = [], []
    for s in range(rs.rank):
        up, case = [], ""
        conj_j = (perms[:, j_cols] == rs.simple_indices[s]).any(axis=1).tolist()
        for i, k in enumerate(table.lmul[s]):
            w = wj[i]
            if k < 0:
                _premise(conj_j[i], rs, j, w, s,
                         "sw leaves W^J but w^-1 sw is not a simple reflection of J")
                k = i
            a, b, c = k == i, k != i and lens[k] > lens[i], lens[k] < lens[i]
            _premise(a + b + c == 1, rs, j, w, s, "action trichotomy violated")
            _premise(not b or i not in vset or k in vset, rs, j, w, s,
                     "case (b) must preserve V^J")
            up.append(k)
            case += "abc"[b + 2 * c]
        for i, k in enumerate(up):
            _premise(case[i] != "b" or case[k] == "c", rs, j, wj[i], s,
                     "case (b) target is not a case (c) row")
        ups.append(np.array(up, dtype=np.int32))
        cases.append(case)
    return ups, cases


def ts_case(rs: RootSystem, j: JSet, w: Weyl, s: int) -> str:
    """Which of the three action cases applies to (w, s); w must be in W^J."""
    return case_table(rs, j)[1][s][wj_table(rs, j).index[w]]


@cached
def ts_maps(rs: RootSystem, j: JSet) -> tuple[Monomial, ...]:
    """T_s on the V^J basis, one p-free monomial map per s read from the
    case table, with the 0-Hecke relations checked over Z."""
    ups, cases = case_table(rs, j)
    rows = vj_rows(rs, j).tolist()
    vrow = {i: r for r, i in enumerate(rows)}
    coef = {"a": 0, "b": 1, "c": -1}
    maps = tuple(Monomial(
        np.array([vrow[up[i]] if case[i] == "b" else r for r, i in enumerate(rows)]),
        np.array([coef[case[i]] for i in rows])) for up, case in zip(ups, cases))
    _check_zero_hecke(rs, maps)
    return maps


def ts_matrix(rs: RootSystem, j: JSet, s: int, p: int) -> np.ndarray:
    """Matrix of T_s over F_p: a read-only dense view of its monomial map."""
    linalg.check_prime(p)
    m = ts_maps(rs, j)[s]
    mat = np.zeros((len(m.tgt), len(m.tgt)), dtype=np.int64)
    mat[np.arange(len(m.tgt)), m.tgt] = m.coef % p
    mat.setflags(write=False)
    return mat


@cached
def _omega_rows(rs: RootSystem, j: JSet, u: Weyl) -> np.ndarray:
    """Integer rows of the Omega operator of u."""
    ups = case_table(rs, j)[0]
    pos, x = vj_rows(rs, j).tolist(), u
    while x != rs.identity:  # x = y s_a, so (x w)^J = (y (s_a w)^J)^J
        a = next(i for i in range(rs.rank) if not image_positive(rs, x, i))
        pos, x = [ups[a][i] for i in pos], multiply(x, simple(rs, a))
    return normal_form_matrix(rs, j)[pos]


@cached
def _omega_invertible(rs: RootSystem, j: JSet, u: Weyl) -> bool:
    """M(u) M(u^-1) = I over Z, which proves M(u) invertible at every p."""
    mat, inv = _omega_rows(rs, j, u), _omega_rows(rs, j, inverse(u))
    ensure(len(mat) * int(np.abs(mat).max(initial=0)) * int(np.abs(inv).max(initial=0))
           <= linalg._PROMOTE_BOUND, "Omega products exceeded the int64 budget")
    ensure(np.array_equal(mat @ inv, np.eye(len(mat), dtype=np.int64)),
           "Omega operator must be invertible")
    return True


def _checked_omega_rows(rs: RootSystem, j: JSet, u: Weyl) -> np.ndarray:
    """_omega_rows of u, once u is in Omega and _omega_invertible holds."""
    require_omega(rs, u)
    _omega_invertible(rs, j, u)
    return _omega_rows(rs, j, u)


def omega_matrix(rs: RootSystem, j: JSet, u: Weyl, p: int) -> np.ndarray:
    """Matrix of the Omega operator of u over F_p, read-only: g_w -> normal
    form of g_{(uw)^J}, from its checked integer rows."""
    linalg.check_prime(p)
    out = _checked_omega_rows(rs, j, u) % p
    out.setflags(write=False)
    return out


def operator_set(rs: RootSystem, j: JSet, p: int, include_omega: bool = False) -> list:
    """The T_s maps, plus the dense non-identity Omega operators on demand."""
    omega = omega_group(rs)[1:] if include_omega else ()  # the identity comes first
    return list(ts_maps(rs, j)) + [omega_matrix(rs, j, u, p) for u in omega]


@cached
def _generation_certificate(rs: RootSystem, j: JSet) -> int:
    """d >= 0 such that the T_s and the Omega operators generate the V^J
    module from g_{z^J} at every prime p not dividing d: d = 1 means over Z,
    d = 0 certifies no prime.  The Omega rows are checked as for operator_set.

    Stage 1 follows unit steps from z^J: T_s e_r = +-e_t, and row r of an
    Omega matrix (the image of e_r) when it is +-e_k.  Each position reached
    is a unit vector of the Z-span.  Stage 2 spins the integer images up
    from there, keeping each image that is independent of the kept ones and
    the reached unit vectors mod _SPIN_PRIME.  With a full set, d is |det|,
    read on the columns stage 1 left.  Every kept vector is an integer word
    in the operators applied to g_{z^J}, and the mod-p operators are their
    reductions, so at p not dividing d the reductions span F_p^{V^J}.  An
    image whose entries could pass linalg._PROMOTE_BOUND gives d = 0."""
    omega = omega_group(rs)[1:]  # the identity comes first
    ops = list(ts_maps(rs, j)) + [_checked_omega_rows(rs, j, u) for u in omega]
    dim = len(vj := enumerate_VJ(rs, j))
    # steps[r][k]: t where operator k sends e_r to +-e_t, else -1
    steps = np.stack([np.where(m.coef != 0, m.tgt, -1) for m in ops[:rs.rank]]
                     + [np.where(np.abs(m).sum(axis=1) == 1, np.abs(m).argmax(axis=1), -1)
                        for m in ops[rs.rank:]], axis=1).tolist()
    reached = [vj.index(z_j(rs, j))]
    seen = set(reached)
    for r in reached:  # grows as positions are reached
        for t in steps[r]:
            if t >= 0 and t not in seen:
                seen.add(t)
                reached.append(t)
    if len(seen) == dim:
        return 1
    rest = np.array([r for r in range(dim) if r not in seen])
    ech = linalg.Echelon(len(rest), _SPIN_PRIME)
    # the other images of the reached unit vectors: their non-unit Omega rows
    kept = [m[r] for k, m in enumerate(ops[rs.rank:], rs.rank) for r in reached
            if steps[r][k] < 0 and ech.append(m[r][rest])]
    tops = [1] * rs.rank + [int(np.abs(m).max()) for m in ops[rs.rank:]]
    for b in kept:  # grows as independent images are found
        if ech.rank == len(rest):
            break
        top = int(np.abs(b).max())
        for m, c in zip(ops, tops):
            if dim * top * c > linalg._PROMOTE_BOUND:
                return 0
            image = m.image(b) if isinstance(m, Monomial) else b @ m
            if ech.append(image[rest]):
                kept.append(image)
    if ech.rank < len(rest):
        return 0
    return math.prod(linalg.snf_invariants(np.array(kept)[:, rest]))


def fingerprint_j(rs: RootSystem, j: JSet) -> frozenset[int]:
    """{s : l(s z^J) < l(z^J)}; distinguishes J from every other subset."""
    z = z_j(rs, j)
    return frozenset(s for s in range(rs.rank)
                     if length(rs, multiply(simple(rs, s), z)) < length(rs, z))


def recover_j(rs: RootSystem, fp: frozenset[int]) -> JSet:
    """Invert fingerprint_j: complement the set, then apply -w_Delta."""
    wd, idx = longest_element(rs), rs.simple_indices
    return frozenset(idx.index(rs.neg(rs.act_root(wd, idx[i])))
                     for i in set(range(rs.rank)) - set(fp))


def span_closure(seeds: list[np.ndarray], ops: list, p: int, dim: int) -> linalg.Echelon:
    """Smallest op-stable subspace containing the seeds, as an echelon;
    stops early once the space is full.  ops are monomial maps or dense
    matrices mod p, whose products must fit int64."""
    if any(isinstance(m, np.ndarray) for m in ops) and dim * (p - 1) ** 2 >= 1 << 63:
        raise CapExceeded(f"dim {dim} matrix products mod {p} overflow int64")
    ech = linalg.Echelon(dim, p)
    queue = [ech.rows[-1].copy() for v in seeds if ech.append(v)]
    for b in queue:  # grows as new rows are found
        if ech.rank == dim:
            break
        for m in ops:
            image = m.apply(b, p) if isinstance(m, Monomial) else (b @ m) % p
            if ech.append(image):
                queue.append(ech.rows[-1].copy())
    return ech


def _check_zero_hecke(rs: RootSystem, ops: tuple[Monomial, ...]) -> None:
    """Raise CheckFailed unless the T_s maps define a 0-Hecke module over Z:
    T_s^2 = -T_s, and the braid relation of length m_st for every s != t."""
    for s, m in enumerate(ops):
        ensure(m.then(m) == Monomial(m.tgt, -m.coef), f"T_s^2 != -T_s for s={s + 1}")
    for s, t in combinations(range(len(ops)), 2):
        g = x = multiply(simple(rs, s), simple(rs, t))
        mst = 1
        while x != rs.identity:  # m_st, the order of s*t
            x, mst = multiply(x, g), mst + 1
        st, ts = ops[s], ops[t]
        for k in range(1, mst):  # st = T_s T_t T_s ..., ts = T_t T_s T_t ...
            st, ts = st.then(ops[(s, t)[k % 2]]), ts.then(ops[(t, s)[k % 2]])
        ensure(st == ts, f"braid relation of length {mst} fails for s={s + 1}, t={t + 1}")


def _merge(label: list[int], m: Monomial, chi: int) -> list[int]:
    """label (row -> its class: the smallest row, or -1 if forced to zero)
    after v T = -chi v.  Entry y of v T + chi v, chi x_y plus coef[r] x_r over
    tgt[r] = y, must be one term +-1 or two of opposite signs: x_a = 0 or x_a = x_b."""
    forms = [{y: chi} for y in range(len(m.tgt))]
    for r, (y, c) in enumerate(zip(m.tgt.tolist(), m.coef.tolist())):
        forms[y][r] = forms[y].get(r, 0) + c
    parent = {-1: -1}

    def find(c: int) -> int:
        while parent.setdefault(c, c) != c:
            c = parent[c]
        return c

    for y, form in enumerate(forms):
        t = [(r, c) for r, c in form.items() if c]
        ensure(len(t) < 3 and all(abs(c) == 1 for _, c in t)
               and (len(t) < 2 or t[0][1] == -t[1][1]),
               f"eigenvector condition at row {y} is not x_a = 0 or x_a = x_b")
        if t:
            lo, hi = sorted((find(label[t[0][0]]), find(label[t[1][0]]) if len(t) == 2 else -1))
            parent[hi] = lo
    return [find(c) for c in label]


def _joint_eigenspaces(rs: RootSystem, j: JSet) -> list[np.ndarray]:
    """Bases of the nonzero E_chi = {v : v T_s = -chi_s v for all s}, chi in
    lexicographic order, with empty branches pruned: class indicators by smallest row."""
    labels = [list(range(len(enumerate_VJ(rs, j))))]
    for m in ts_maps(rs, j):
        labels = [new for label in labels for chi in (0, 1)
                  if max(new := _merge(label, m, chi)) >= 0]
    return [(np.array(label) == np.array(sorted({c for c in label if c >= 0}))[:, None])
            .astype(np.int64) for label in labels]


@cached
def _socle_certificate(rs: RootSystem, j: JSet) -> tuple[bool, tuple[int, ...] | None]:
    """Does every nonzero T_s-submodule contain g_{z^J}?  (ok, counterexample).
    It holds iff the nonzero E_chi together have one basis vector, g_{z^J};
    otherwise the first one off that line is a counterexample, as it spans a
    T_s-stable line."""
    zi = enumerate_VJ(rs, j).index(z_j(rs, j))
    vecs = [v for basis in _joint_eigenspaces(rs, j) for v in basis]
    off = [v for v in vecs if not v[zi] or v.sum() != 1]
    ensure(len(vecs) == 1 or bool(off), "a failed socle certificate must leave"
           " an eigenvector off the g_{z^J} line")
    return (False, tuple(int(x) for x in off[0])) if off else (True, None)


def _indeco_scan(rs: RootSystem, j: JSet, p: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does every nonzero vector's orbit span under the T_s and the Omega
    operators contain g_{z^J}?  (ok, counterexample).

    Every nonzero submodule holds a joint T_s eigenline, so it is enough to
    close each line of each nonzero E_chi (p^{dim E_chi} at most LINE_CAP)
    under the operators, in order of leading basis row."""
    vj = enumerate_VJ(rs, j)
    target = (np.arange(len(vj)) == vj.index(z_j(rs, j))).astype(np.int64)
    ops = operator_set(rs, j, p, include_omega=True)
    for basis in _joint_eigenspaces(rs, j):
        k = basis.shape[0]
        if p ** k > LINE_CAP:
            raise CapExceeded(f"p^dim E_chi = {p}^{k} exceeds the line cap {LINE_CAP}")
        for lead in range(k):
            for tail in product(range(p), repeat=k - lead - 1):
                v = (np.array((1,) + tail, dtype=np.int64) @ basis[lead:]) % p
                if span_closure([v], ops, p, len(vj)).append(target):
                    return False, tuple(int(x) for x in v)
    return True, None


def check_indeco(rs: RootSystem, j: JSet, p: int) -> bool:
    """Every nonzero vector generates a T_s-stable subspace containing g_{z^J},
    by the socle certificate: the T_s alone make the stronger statement, and
    the verdict is the same at every prime p."""
    linalg.check_prime(p)
    return _socle_certificate(rs, j)[0]


def check_simple(rs: RootSystem, j: JSet, p: int, include_omega: bool = True) -> SimplicityReport:
    """Simplicity: the T_s verdict of check_indeco (if that fails, the E_chi
    line search with the Omega operators too) plus generation of the space
    from g_{z^J} under T_s and the Omega operators, by the generation
    certificate where it covers p, else by the closure mod p.
    include_omega=False is the negative control: generation should fail
    (T_s orbits can be tiny), and it always runs the closure."""
    linalg.check_prime(p)
    dim = len(vj := enumerate_VJ(rs, j))
    zj_ok, bad = _socle_certificate(rs, j)
    # more operators only enlarge orbit spans, so a T_s pass carries over
    if not zj_ok and include_omega:
        zj_ok, bad = _indeco_scan(rs, j, p)
    target = (np.arange(dim) == vj.index(z_j(rs, j))).astype(np.int64)
    # the certificate decides every p that does not divide it (d = 0: none)
    gen_ok = (include_omega and _generation_certificate(rs, j) % p != 0
              or span_closure([target], operator_set(rs, j, p, include_omega), p, dim).rank == dim)
    return SimplicityReport(j, p, dim, zj_ok, gen_ok, zj_ok and gen_ok, bad)
