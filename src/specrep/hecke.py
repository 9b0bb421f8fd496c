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
statement holds iff the only one is the line of g_{z^J}.  The projective
line scan stays, to name a counterexample line and as a test oracle.  The
certificate does not need the 2^20 line cap; it is kept only so that
capacity skips, and with them every report, stay as they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
                 dim: int, target: np.ndarray | None = None):
    """Smallest op-stable subspace containing the seeds, as echelon rows.

    Stops early once the space is full or the target vector falls inside."""
    basis: list[np.ndarray] = []
    pivots: list[int] = []
    queue: list[np.ndarray] = []
    for v in seeds:
        if _echelon_append(basis, pivots, v, p):
            queue.append(basis[-1])
    qi = 0
    while qi < len(queue) and len(basis) < dim:
        # the target is appended to throwaway copies: only the verdict counts
        if target is not None and not _echelon_append(basis[:], pivots[:], target, p):
            break
        b = queue[qi]
        qi += 1
        for m in ops:
            if _echelon_append(basis, pivots, (b @ m) % p, p):
                queue.append(basis[-1])
    return basis, pivots


def _line_reps(dim: int, p: int) -> np.ndarray:
    """One representative per scalar line of F_p^dim: leading coefficient 1,
    ordered by leading position then tail digits (most significant first)."""
    blocks = []
    for lead in range(dim):
        tail = dim - lead - 1
        cnt = p ** tail
        arr = np.zeros((cnt, dim), dtype=np.int64)
        arr[:, lead] = 1
        r = np.arange(cnt)
        for k in range(tail):
            arr[:, lead + 1 + k] = (r // p ** (tail - 1 - k)) % p
        blocks.append(arr)
    return np.vstack(blocks)


def _check_cap(rs: RootSystem, j: JSet, p: int, cap: int) -> int:
    """dim V^J, once p is a valid prime and the p^dim lines fit under the cap."""
    linalg.check_prime(p)
    dim = len(enumerate_VJ(rs, j))
    if p ** dim > cap:
        raise CapExceeded(f"p^dim = {p}^{dim} exceeds the line cap {cap}")
    if dim * (p - 1) ** 2 >= 1 << 63:  # only a raised cap gets here
        raise CapExceeded(f"dim {dim} matrix products mod {p} overflow int64")
    return dim


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


def _socle_certificate(rs: RootSystem, j: JSet, p: int) -> bool:
    """Does every nonzero T_s-submodule contain g_{z^J}?

    The minimal submodules are the joint eigenlines (Norton), so this holds
    iff exactly one joint eigenspace E_chi = {v : v T_s = -chi_s v for all s}
    is nonzero, and it is the line of g_{z^J}.  The E_chi are found
    depth-first over s, one kernel at a time, and empty branches are pruned."""
    vj = enumerate_VJ(rs, j)
    ops = operator_set(rs, j, p)
    _check_zero_hecke(rs, ops, p)
    eye = np.eye(len(vj), dtype=np.int64)
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
    if len(spaces) != 1 or spaces[0].shape[0] != 1:
        return False
    line = spaces[0][0]
    return bool(line[vj.index(z_j(rs, j))]) and np.count_nonzero(line) == 1


def _indeco_scan(rs: RootSystem, j: JSet, p: int, cap: int,
                 include_omega: bool) -> tuple[bool, tuple[int, ...] | None]:
    """Does every line's orbit span contain g_{z^J}?  (ok, counterexample).

    Fast path: lines from which the z^J line is reachable by a chain of
    single operator applications are certified good in bulk; the leftovers
    get an honest per-line span closure."""
    dim = _check_cap(rs, j, p, cap)
    vj = enumerate_VJ(rs, j)
    target = np.zeros(dim, dtype=np.int64)
    target[vj.index(z_j(rs, j))] = 1
    if dim == 1:
        return True, None
    ops = operator_set(rs, j, p, include_omega)
    lines = _line_reps(dim, p)
    n = lines.shape[0]
    weights = p ** np.arange(dim, dtype=np.int64)
    table = np.full(p ** dim, -1, dtype=np.int64)
    table[lines @ weights] = np.arange(n)
    inv = np.array([0] + [pow(c, p - 2, p) for c in range(1, p)], dtype=np.int64)
    succ = np.full((n, len(ops)), -1, dtype=np.int64)
    for k, m in enumerate(ops):
        ims = (lines @ m) % p
        nzmask = ims.any(axis=1)
        lead = np.argmax(ims != 0, axis=1)
        scale = inv[ims[np.arange(n), lead]]
        ims = (ims * scale[:, None]) % p
        succ[nzmask, k] = table[(ims @ weights)[nzmask]]
    good = np.zeros(n, dtype=bool)
    good[int(table[int(target @ weights)])] = True
    while True:
        reach = succ[~good]
        hit = np.zeros(reach.shape[0], dtype=bool)
        for k in range(len(ops)):
            col = reach[:, k]
            hit |= (col >= 0) & good[np.maximum(col, 0)]
        if not hit.any():
            break
        idx = np.nonzero(~good)[0]
        good[idx[hit]] = True
    for r in np.nonzero(~good)[0]:
        basis, pivots = span_closure([lines[int(r)]], ops, p, dim, target)
        if _echelon_append(basis, pivots, target, p):
            return False, tuple(int(x) for x in lines[int(r)])
    return True, None


def _ts_scan(rs: RootSystem, j: JSet, p: int,
             cap: int) -> tuple[bool, tuple[int, ...] | None]:
    """The T_s-only verdict, memoized per (J, p) once the cap admits it.

    The socle certificate decides; only when it fails does the line scan run,
    to name the first counterexample line, and it must fail too."""
    _check_cap(rs, j, p, cap)
    key = ("indeco", j, p)
    if key not in rs.cache:
        if _socle_certificate(rs, j, p):
            rs.cache[key] = (True, None)
        else:
            ok, bad = _indeco_scan(rs, j, p, cap, False)
            ensure(not ok, "socle certificate and line scan disagree")
            rs.cache[key] = (ok, bad)
    return rs.cache[key]


def check_indeco(rs: RootSystem, j: JSet, p: int, cap: int = LINE_CAP) -> bool:
    """Every nonzero vector generates a T_s-stable subspace containing g_{z^J}.

    Decided with the T_s operators alone, which is the stronger statement
    (fewer operators, smaller orbit spans), by the socle certificate: the
    0-Hecke relations are checked, and then the joint T_s eigenlines, which
    are the minimal submodules (Norton 1979), must be the line of g_{z^J}
    alone.  The cap on p^dim is kept so that skips match the line scan's."""
    ok, _ = _ts_scan(rs, j, p, cap)
    return ok


def check_simple(rs: RootSystem, j: JSet, p: int, cap: int = LINE_CAP,
                 include_omega: bool = True) -> SimplicityReport:
    """Simplicity of the module: the T_s verdict of check_indeco (or, if that
    fails, the line scan with the Omega operators too) plus generation of
    the full space from g_{z^J} under T_s and the Omega operators.

    include_omega=False is the documented negative control: generation is
    expected to fail then (the T_s orbit of g_{z^J} can be tiny)."""
    vj = enumerate_VJ(rs, j)
    dim = len(vj)
    zj_ok, bad = _ts_scan(rs, j, p, cap)
    # more operators only enlarge orbit spans, so a T_s pass carries over
    if not zj_ok and include_omega:
        zj_ok, bad = _indeco_scan(rs, j, p, cap, True)
    target = np.zeros(dim, dtype=np.int64)
    target[vj.index(z_j(rs, j))] = 1
    ops = operator_set(rs, j, p, include_omega)
    basis, _ = span_closure([target], ops, p, dim)
    gen_ok = len(basis) == dim
    return SimplicityReport(j, p, dim, zj_ok, gen_ok, zj_ok and gen_ok, bad)
