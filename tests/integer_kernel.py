"""The integer kernel by unimodular column reduction, kept as the Z
reference that the exactness tests compare the certificate table against.
"""

import numpy as np


def _colops_echelon(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unimodular column reduction; returns (reduced A, transform T) with A@T reduced."""
    a = np.array(a, dtype=np.int64).astype(object)
    m, n = a.shape
    t = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            t[i, j] = 1 if i == j else 0
    lead = 0
    for r in range(m):
        if lead >= n:
            break
        while True:
            nz = [j for j in range(lead, n) if a[r, j]]
            if not nz:
                break
            j0 = min(nz, key=lambda j: abs(a[r, j]))
            if j0 != lead:
                a[:, [lead, j0]] = a[:, [j0, lead]]
                t[:, [lead, j0]] = t[:, [j0, lead]]
            piv = a[r, lead]
            done = True
            for j in range(lead + 1, n):
                q = a[r, j] // piv
                if q:
                    a[:, j] = a[:, j] - q * a[:, lead]
                    t[:, j] = t[:, j] - q * t[:, lead]
                if a[r, j]:
                    done = False
            if done:
                break
        if a[r, lead]:
            lead += 1
    return a, t


def integer_kernel(mat) -> np.ndarray:
    """Columns form a basis of the integer kernel (saturated by construction)."""
    a = np.array(mat, dtype=np.int64)
    if a.size == 0:
        n = a.shape[1] if a.ndim == 2 else 0
        return np.eye(n, dtype=object)
    red, t = _colops_echelon(a)
    keep = [j for j in range(red.shape[1]) if not red[:, j].any()]
    return t[:, keep]
