"""Dense symmetric eigenvalues and exact integer rank.

Eigenvalues come from LAPACK (`numpy.linalg.eigvalsh`).  Its limited
relative accuracy on tiny eigenvalues does not matter here: every Betti
number read from a Laplacian kernel is checked against exact rank-nullity.

Ranks use fraction-free (Bareiss) elimination over Python ints, so they are
exact for any integer matrix, in particular for coboundary operators.  The
matrix is read into nested lists of Python ints with one `tolist()` call,
which converts every entry in C.
"""

from __future__ import annotations

import numpy as np


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    The input must be exactly symmetric entrywise (operators in this package
    are assembled symmetrically in integer arithmetic, so no tolerance is
    needed or granted).  The check matters because LAPACK reads only one
    triangle and would silently treat a non-symmetric input as symmetric.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] < 1:
        raise ValueError("matrix must have dimension >= 1")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(a.astype(np.float64))


def integer_rank(matrix) -> int:
    """Exact rank of an integer matrix via fraction-free (Bareiss) elimination.

    Works over arbitrary-precision Python ints (read with `tolist()`), so
    the result is exact for any integer input, in particular for coboundary
    matrices.
    """
    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError("integer_rank needs an integer matrix")
    rows = a.tolist()
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][col]
        for i in range(r + 1, n_rows):
            fac = rows[i][col]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(col + 1, n_cols):
                row_i[j] = (piv * row_i[j] - fac * row_r[j]) // prev
            row_i[col] = 0
        prev = piv
        rank += 1
        r += 1
        if r == n_rows:
            break
    return rank
