"""Mod-p Hecke operators on the V^J basis and the simplicity checks.

Vectors are rows indexed by enumerate_VJ order; operators act on the
right.  The T_s action on a basis vector g_w is a three-case table:

    (a) (sw)^J = w               ->  0
    (b) l((sw)^J) > l(w)         ->  g_{sw}    (sw lands back in V^J)
    (c) l((sw)^J) < l(w)         ->  -g_w

and an Omega element u acts by g_w -> normal form of g_{(uw)^J}.
Entries are kept as canonical residues in [0, p).

"Every nonzero vector's T_s-orbit span contains g_{z^J}" is decided by a
socle certificate.  The T_s satisfy the 0-Hecke relations (checked on the
matrices), and every simple module of the 0-Hecke algebra is
one-dimensional (P. N. Norton, 0-Hecke algebras, J. Austral. Math. Soc. 27,
1979), so the minimal submodules are the joint eigenlines of the T_s; the
statement holds iff the only one is the line of g_{z^J}.  When it fails,
a joint eigenvector off that line is the counterexample: its T_s-span is
its own line.  With the Omega operators too, every nonzero submodule is
still T_s-stable and so holds a joint eigenline, and the verdict is a
search over the lines of the joint eigenspaces (the socle step of the
MeatAxe, Lux-Mueller-Ringe 1994).  The only capacity misses are matrix
products that would overflow int64 and, in that search, an eigenspace
E_chi with p^{dim E_chi} over LINE_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import linalg
from .chains import omega_group, require_omega, z_j
from .errors import CapExceeded, ensure
from .roots import RootSystem, Weyl
from .vjmod import normal_form_matrix
from .weyl import (JSet, enumerate_VJ, enumerate_WJ, flat, in_VJ, length,
                   longest_element, multiply, project, simple)

LINE_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class HeckeMatrix:
    """Matrix of one Hecke operator on the V^J basis, entries mod p."""

    j: JSet
    p: int
    op: tuple
    mat: np.ndarray


@dataclass(frozen=True, eq=False)
class SimplicityReport:
    j: JSet
    p: int
    dim: int
    zj_in_every_orbit: bool
    generation_ok: bool
    is_simple: bool
    counterexample: tuple[int, ...] | None


def ts_case(rs: RootSystem, j: JSet, w: Weyl, s: int) -> str:
    """Which of the three action cases applies to (w, s); w must be in W^J.

    Checks the trichotomy: the cases are exhaustive and exclusive, and in
    case (b) the product sw itself is the projection (and stays in V^J
    whenever w started there)."""
    sw = multiply(simple(rs, s), w)
    swj = project(rs, sw, j)
    lw, lswj = length(rs, w), length(rs, swj)
    a, b, c = swj == w, swj != w and lswj > lw, lswj < lw
    ensure(a + b + c == 1, "action trichotomy violated")
    if b:
        ensure(swj == sw, "raised projection must be sw itself")
        if in_VJ(rs, w, j):
            ensure(in_VJ(rs, sw, j), "case (b) must preserve V^J")
    return "a" if a else ("b" if b else "c")


def ts_matrix(rs: RootSystem, j: JSet, s: int, p: int) -> HeckeMatrix:
    """Matrix of T_s on the V^J basis over F_p.

    Integer entries before reduction lie in {-1, 0, 1}.  Built once per
    (J, s, p) and cached in rs.cache; the cached array is read-only, so a
    caller that wants to change an operator works on a copy."""
    linalg.check_prime(p)
    key = ("ts", j, s, p)
    got = rs.cache.get(key)
    if got is not None:
        return got
    vj = enumerate_VJ(rs, j)
    vidx = {w: i for i, w in enumerate(vj)}
    raw = np.zeros((len(vj), len(vj)), dtype=np.int64)
    se = simple(rs, s)
    for r, w in enumerate(vj):
        case = ts_case(rs, j, w, s)
        if case == "b":
            raw[r, vidx[multiply(se, w)]] = 1
        elif case == "c":
            raw[r, r] = -1
    ensure(np.abs(raw).max(initial=0) <= 1, "T_s entries must lie in {-1, 0, 1}")
    mat = raw % p
    mat.setflags(write=False)
    rs.cache[key] = HeckeMatrix(j, p, ("Ts", s), mat)
    return rs.cache[key]


def omega_matrix(rs: RootSystem, j: JSet, u: Weyl, p: int) -> HeckeMatrix:
    """Matrix of the Omega operator of u: g_w -> normal form of g_{(uw)^J}."""
    linalg.check_prime(p)
    require_omega(rs, u)
    vj = enumerate_VJ(rs, j)
    wj = enumerate_WJ(rs, j)
    widx = {w: i for i, w in enumerate(wj)}
    nf = normal_form_matrix(rs, j)
    raw = np.zeros((len(vj), len(vj)), dtype=np.int64)
    for r, w in enumerate(vj):
        raw[r] = nf[widx[project(rs, multiply(u, w), j)]]
    mat = raw % p
    ensure(linalg.modp_rank(mat, p) == len(vj), "Omega operator must be invertible")
    return HeckeMatrix(j, p, ("Tu", flat(u)), mat)


def operator_set(rs: RootSystem, j: JSet, p: int,
                 include_omega: bool = False) -> list[np.ndarray]:
    """The T_s matrices, plus the non-identity Omega operators on demand."""
    ops = [ts_matrix(rs, j, s, p).mat for s in range(rs.rank)]
    if include_omega:
        ops += [omega_matrix(rs, j, u, p).mat
                for u in omega_group(rs) if u != rs.identity]
    return ops


def fingerprint_j(rs: RootSystem, j: JSet) -> frozenset[int]:
    """{s : l(s z^J) < l(z^J)}; distinguishes J from every other subset."""
    z = z_j(rs, j)
    lz = length(rs, z)
    return frozenset(s for s in range(rs.rank)
                     if length(rs, multiply(simple(rs, s), z)) < lz)


def recover_j(rs: RootSystem, fp: frozenset[int]) -> JSet:
    """Invert fingerprint_j: complement the set, then apply -w_Delta."""
    wd = longest_element(rs)
    out = set()
    for i in set(range(rs.rank)) - set(fp):
        target = rs.neg(rs.act_root(wd, rs.simple_indices[i]))
        out.add(rs.simple_indices.index(target))
    return frozenset(out)


def _echelon_append(basis: list[np.ndarray], pivots: list[int],
                    vec: np.ndarray, p: int) -> bool:
    """Reduce vec against the stored rows; append the normalized remainder.

    Stored rows have leading coefficient 1 at pairwise distinct pivots.
    Returns True when vec was independent (and got appended)."""
    v = vec % p
    for row, pv in zip(basis, pivots):
        c = int(v[pv])
        if c:
            v = (v - c * row) % p
    nz = np.nonzero(v)[0]
    if nz.size == 0:
        return False
    pv = int(nz[0])
    v = (v * pow(int(v[pv]), p - 2, p)) % p
    basis.append(v)
    pivots.append(pv)
    return True


def span_closure(seeds: list[np.ndarray], ops: list[np.ndarray], p: int,
                 dim: int):
    """Smallest op-stable subspace containing the seeds, as echelon rows.

    Stops early once the space is full."""
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    queue: list[np.ndarray] = []
    for v in seeds:
        if _echelon_append(basis, pivots, v, p):
            queue.append(basis[-1])
    qi = 0
    while qi < len(queue) and len(basis) < dim:
        b = queue[qi]
        qi += 1
        for m in ops:
            if _echelon_append(basis, pivots, (b @ m) % p, p):
                queue.append(basis[-1])
    return basis, pivots


def _coxeter_order(rs: RootSystem, s: int, t: int) -> int:
    """m_st, the order of s*t in W."""
    st = multiply(simple(rs, s), simple(rs, t))
    x, m = st, 1
    while x != rs.identity:
        x, m = multiply(x, st), m + 1
    return m


def _braid_word(a: np.ndarray, b: np.ndarray, m: int, p: int) -> np.ndarray:
    """The alternating product a b a ... with m factors, mod p."""
    out = a
    for k in range(1, m):
        out = (out @ (b if k % 2 else a)) % p
    return out


def _check_zero_hecke(rs: RootSystem, ops: list[np.ndarray], p: int) -> None:
    """Raise CheckFailed unless the T_s matrices define a 0-Hecke module:
    T_s^2 = -T_s, and the braid relation of length m_st for every s != t."""
    for s, m in enumerate(ops):
        ensure(((m @ m) % p == (-m) % p).all(), f"T_s^2 != -T_s for s={s + 1}")
    for s, t in combinations(range(len(ops)), 2):
        mst = _coxeter_order(rs, s, t)
        ensure((_braid_word(ops[s], ops[t], mst, p)
                == _braid_word(ops[t], ops[s], mst, p)).all(),
               f"braid relation of length {mst} fails for s={s + 1}, t={t + 1}")


def _joint_eigenspaces(rs: RootSystem, j: JSet, p: int) -> list[np.ndarray]:
    """Row bases of the nonzero E_chi = {v : v T_s = -chi_s v for all s}.

    p must be prime, dim x dim products mod p must fit int64, and the T_s
    must satisfy the 0-Hecke relations.  The E_chi are found depth-first
    over s, one kernel at a time, and empty branches are pruned."""
    linalg.check_prime(p)
    dim = len(enumerate_VJ(rs, j))
    if dim * (p - 1) ** 2 >= 1 << 63:
        raise CapExceeded(f"dim {dim} matrix products mod {p} overflow int64")
    ops = operator_set(rs, j, p)
    _check_zero_hecke(rs, ops, p)
    eye = np.eye(dim, dtype=np.int64)
    spaces: list[np.ndarray] = []

    def descend(basis: np.ndarray, s: int) -> None:
        if s == len(ops):
            spaces.append(basis)
            return
        for chi in (0, 1):
            image = (basis @ ((ops[s] + chi * eye) % p)) % p
            coeffs, _ = linalg.modp_nullspace(image.T, p)
            if coeffs.shape[0]:
                descend((coeffs @ basis) % p, s + 1)

    descend(eye, 0)
    return spaces


def _monic(v: np.ndarray, p: int) -> tuple[int, ...]:
    """The nonzero vector v scaled so that its leading coefficient is 1."""
    lead = int(v[np.flatnonzero(v)[0]])
    return tuple(int(x) for x in (v * pow(lead, p - 2, p)) % p)


def _socle_certificate(rs: RootSystem, j: JSet,
                       p: int) -> tuple[bool, tuple[int, ...] | None]:
    """Does every nonzero T_s-submodule contain g_{z^J}?  (ok, counterexample).

    The minimal submodules are the joint eigenlines (Norton), so this holds
    iff the nonzero E_chi together have one basis vector, a multiple of
    g_{z^J}.  Otherwise the first basis vector off that line spans a
    T_s-stable line without g_{z^J}: it is the counterexample."""
    zi = enumerate_VJ(rs, j).index(z_j(rs, j))
    vecs = [v for basis in _joint_eigenspaces(rs, j, p) for v in basis]
    off = [v for v in vecs if not v[zi] or np.count_nonzero(v) != 1]
    if len(vecs) == 1 and not off:
        return True, None
    ensure(bool(off), "a failed socle certificate must leave an eigenvector"
           " off the g_{z^J} line")
    return False, _monic(off[0], p)


def _indeco_scan(rs: RootSystem, j: JSet, p: int,
                 include_omega: bool) -> tuple[bool, tuple[int, ...] | None]:
    """Does every nonzero vector's orbit span contain g_{z^J}?  (ok, counterexample).

    Every nonzero submodule is T_s-stable, so it contains a joint T_s
    eigenline (the socle step of the MeatAxe): it is enough to close each
    line of each nonzero E_chi under the operators, in order of leading
    basis row, with p^{dim E_chi} at most LINE_CAP."""
    spaces = _joint_eigenspaces(rs, j, p)
    vj = enumerate_VJ(rs, j)
    target = np.zeros(len(vj), dtype=np.int64)
    target[vj.index(z_j(rs, j))] = 1
    ops = operator_set(rs, j, p, include_omega)
    for basis in spaces:
        k = basis.shape[0]
        if p ** k > LINE_CAP:
            raise CapExceeded(f"p^dim E_chi = {p}^{k} exceeds the line cap {LINE_CAP}")
        for lead in range(k):
            for tail in product(range(p), repeat=k - lead - 1):
                v = (np.array((1,) + tail, dtype=np.int64) @ basis[lead:]) % p
                closure, pivots = span_closure([v], ops, p, len(vj))
                if _echelon_append(closure, pivots, target, p):
                    return False, _monic(v, p)
    return True, None


def _ts_scan(rs: RootSystem, j: JSet, p: int) -> tuple[bool, tuple[int, ...] | None]:
    """The T_s-only verdict of the socle certificate, memoized per (J, p)."""
    key = ("indeco", j, p)
    if key not in rs.cache:
        rs.cache[key] = _socle_certificate(rs, j, p)
    return rs.cache[key]


def check_indeco(rs: RootSystem, j: JSet, p: int) -> bool:
    """Every nonzero vector generates a T_s-stable subspace containing g_{z^J}.

    Decided with the T_s operators alone, which is the stronger statement
    (fewer operators, smaller orbit spans), by the socle certificate: the
    0-Hecke relations are checked, and then the joint T_s eigenlines, which
    are the minimal submodules (Norton 1979), must be the line of g_{z^J}
    alone."""
    ok, _ = _ts_scan(rs, j, p)
    return ok


def check_simple(rs: RootSystem, j: JSet, p: int,
                 include_omega: bool = True) -> SimplicityReport:
    """Simplicity of the module: the T_s verdict of check_indeco (or, if that
    fails, the E_chi line search with the Omega operators too) plus
    generation of the full space from g_{z^J} under T_s and the Omega
    operators.

    include_omega=False is the documented negative control: generation is
    expected to fail then (the T_s orbit of g_{z^J} can be tiny)."""
    vj = enumerate_VJ(rs, j)
    dim = len(vj)
    zj_ok, bad = _ts_scan(rs, j, p)
    # more operators only enlarge orbit spans, so a T_s pass carries over
    if not zj_ok and include_omega:
        zj_ok, bad = _indeco_scan(rs, j, p, True)
    target = np.zeros(dim, dtype=np.int64)
    target[vj.index(z_j(rs, j))] = 1
    ops = operator_set(rs, j, p, include_omega)
    basis, _ = span_closure([target], ops, p, dim)
    gen_ok = len(basis) == dim
    return SimplicityReport(j, p, dim, zj_ok, gen_ok, zj_ok and gen_ok, bad)
