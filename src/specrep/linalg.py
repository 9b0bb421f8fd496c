"""Exact dense linear algebra: integer Smith form and one echelon over F_p.

The integer Smith form eliminates unit pivots row by row on Python-int
lists, reducing each row by the pivots found before it as it arrives and
each leftover row by the pivots found after it, and hands the leftover
block without a unit entry to a classic Smith elimination.  Every mod-p
rank, nullspace, solve and span closure grows one reduced row echelon
basis, Echelon, a row at a time.  Residues stay below 2^31 so that products
fit int64; primes at or above that bound are rejected.
"""

from __future__ import annotations

import numpy as np

from .errors import NonPrimeCharacteristic

P_BOUND = 1 << 31  # exclusive bound on p: residue products must fit in int64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    if p >= P_BOUND:  # before trial division, which would take ~sqrt(p) steps
        raise NonPrimeCharacteristic(f"p = {p} is not below 2^31")
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"p = {p}")
    return p


def _snf_object(a: np.ndarray) -> list[int]:
    """Classic Smith elimination on a small numpy object matrix."""
    a = a.copy()
    m, n = a.shape
    out: list[int] = []
    top = 0
    while top < min(m, n):
        sub = a[top:, top:]
        if not sub.any():
            break
        # move a nonzero entry of minimal absolute value to the corner
        best = None
        for i in range(sub.shape[0]):
            for j in range(sub.shape[1]):
                v = sub[i, j]
                if v and (best is None or abs(v) < abs(sub[best])):
                    best = (i, j)
        bi, bj = best
        a[[top, top + bi]] = a[[top + bi, top]]
        a[:, [top, top + bj]] = a[:, [top + bj, top]]
        while True:
            piv = a[top, top]
            done = True
            for i in range(top + 1, m):
                q = a[i, top] // piv
                if q:
                    a[i] = a[i] - q * a[top]
                if a[i, top]:
                    a[[top, i]] = a[[i, top]]
                    done = False
                    break
            if not done:
                continue
            for j in range(top + 1, n):
                q = a[top, j] // piv
                if q:
                    a[:, j] = a[:, j] - q * a[:, top]
                if a[top, j]:
                    a[:, [top, j]] = a[:, [j, top]]
                    done = False
                    break
            if done:
                break
        # ensure the pivot divides the rest of the matrix
        piv = a[top, top]
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i, j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[top] = a[top] + a[bad]
            continue
        out.append(abs(int(piv)))
        top += 1
    return out


_PROMOTE_BOUND = 1 << 30  # keep int64 products exact


def _reduce(row: list[int], pivots: list[tuple[int, list[int]]]) -> list[int]:
    """row minus the multiples of the pivot rows, taken in order, that clear
    each pivot's column; a pivot row holds +-1 in its column and 0 in the
    columns of the pivots before it, so the cleared columns stay clear."""
    for c, prow in pivots:
        f = row[c]
        if f:
            f *= prow[c]
            row = [x - f * y for x, y in zip(row, prow)]
    return row


def snf_invariants(mat) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix.

    len() of the result is the rank over Q; factors > 1 are the torsion
    of the cokernel (together with its free part), and the rank over F_p
    is the number of factors prime to p.

    Unit pivots are eliminated on rows of Python ints, so entries never
    overflow.  Each row is reduced by the pivots found so far when it is
    appended; an entry +-1 left in it makes it the next pivot, else it is
    a leftover row, reduced later by the pivots found after it.  The
    pivot rows then form a unitriangular block over the pivot columns,
    zero below it, so the column operations that clear them change
    nothing else and each pivot splits off a unimodular factor: the
    result is 1s for the pivots followed by the Smith form of the
    leftover rows from _snf_object, whatever the pivot order.
    """
    a = np.asarray(mat)
    rows = a.tolist() if a.dtype != object else [list(map(int, r)) for r in a.tolist()]
    pivots: list[tuple[int, list[int]]] = []
    rest: list[tuple[int, list[int]]] = []  # (pivots already applied, row)
    for row in rows:
        row = _reduce(row, pivots)
        c = next((c for c, x in enumerate(row) if x == 1 or x == -1), None)
        if c is not None:
            pivots.append((c, row))
        elif any(row):
            rest.append((len(pivots), row))
    left = [r for r in (_reduce(row, pivots[k:]) for k, row in rest) if any(r)]
    if not left:
        return len(pivots) * [1]
    taken = {c for c, _ in pivots}
    keep = [c for c in range(len(left[0])) if c not in taken]
    block = np.array([[r[c] for c in keep] for r in left], dtype=object)
    return len(pivots) * [1] + _snf_object(block)


def rank_z(mat) -> int:
    return len(snf_invariants(mat))


class Echelon:
    """Reduced row echelon basis over F_p of the vectors appended so far.

    Each row has a 1 in its pivot column and 0 in every other pivot column
    and left of its pivot, so a vector v is reduced by the one product
    v[pivots] @ rows.  That product is summed in chunks of rows whose terms,
    each below (p-1)^2, cannot overflow int64 together.  Rows are kept in
    the order they were appended.
    """

    def __init__(self, n: int, p: int):
        if p >= P_BOUND:
            raise NonPrimeCharacteristic(f"p = {p} is not below 2^31")
        self.p, self.rank = p, 0
        self._rows = np.zeros((min(n, 8), n), dtype=np.int64)  # doubled as it fills
        self._piv = np.zeros(min(n, 8), dtype=np.int64)
        self._chunk = ((1 << 63) - 1) // (p - 1) ** 2

    @property
    def rows(self) -> np.ndarray:
        return self._rows[:self.rank]

    def append(self, vec) -> bool:
        """Add vec to the span; True when it was independent of the rows."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        r, step = self.rank, self._chunk
        rows, coef = self._rows[:r], v[self._piv[:r]]
        for k in range(0, r, step):  # v minus its part in the span
            v -= coef[k:k + step] @ rows[k:k + step]
            v %= self.p
        nz = v.nonzero()[0]
        if not nz.size:
            return False
        c = int(nz[0])
        v = v * pow(int(v[c]), self.p - 2, self.p) % self.p
        rows -= np.outer(rows[:, c], v)
        rows %= self.p
        if r == len(self._rows):
            self._rows = np.vstack([self._rows, np.zeros_like(self._rows)])
            self._piv = np.concatenate([self._piv, np.zeros_like(self._piv)])
        self._rows[r], self._piv[r] = v, c
        self.rank += 1
        return True

    def rref(self) -> tuple[np.ndarray, list[int]]:
        """(the rows sorted by pivot, the sorted pivot columns): the reduced
        row echelon form of the span, which is unique."""
        piv = self._piv[:self.rank]
        order = np.argsort(piv)
        return self.rows[order], piv[order].tolist()


def _echelon(mat, p: int) -> Echelon:
    """The echelon of the rows of a 2-d matrix over F_p.  Appending stops
    once the rank reaches the column count: the span is then everything,
    and so is its reduced row echelon form."""
    a = np.asarray(mat, dtype=np.int64)
    ech = Echelon(a.shape[1], p)
    for row in a:
        if ech.rank == a.shape[1]:
            break
        ech.append(row)
    return ech


def solve(a, b, p: int) -> np.ndarray | None:
    """One solution of a @ x = b over F_p; None if there is none.  b may
    have several columns."""
    n = np.shape(a)[1]
    red, piv = _echelon(np.hstack([a, b]), p).rref()
    if piv and piv[-1] >= n:
        return None
    x = np.zeros((n, np.shape(b)[1]), dtype=np.int64)
    x[piv] = red[:, n:]
    return x


def modp_rank(mat, p: int) -> int:
    a = np.array(mat, dtype=np.int64)
    if a.size == 0:
        return 0
    return _echelon(a, p).rank


def modp_nullspace(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Row basis of the right kernel {x : a @ x = 0} over F_p, and the free
    columns of the reduced matrix: row i is the kernel vector with a 1 in
    column free[i] and 0 in every other free column."""
    n = np.shape(mat)[1]
    red, piv = _echelon(mat, p).rref()
    free = [c for c in range(n) if c not in piv]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[range(len(free)), free] = 1
    out[:, piv] = -red[:, free].T % p
    return out, free
