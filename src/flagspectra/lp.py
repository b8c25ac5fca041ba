"""Small dense linear programs with primal-dual certification.

Problems arrive in covering form (minimize c.x subject to A x >= b, x >= 0)
and run through a two-phase primal simplex on a dense tableau with Bland's
entering rule, which the frequently degenerate Gram-matrix instances need
for termination.  Optimal solutions always carry a dual vector, and
feasibility of both sides plus the duality gap are checked before a
solution is returned.

A subset sweep solves hundreds of tiny LPs of one form (unit objective and
right-hand side, square nonnegative matrix with a positive diagonal).  Too
small to gain from vectorizing one tableau, they are solved together, in
lockstep on a stack of padded tableaus, one numpy operation per step for
the whole stack, with the same solutions bit for bit.  The LPs arrive as
(k, r, r) stacks of equal-size matrices: `solve_covering_stacks` takes a
sweep's stacks and returns its values as one array, and
`solve_covering_batch` is the same core on a list of matrices, returning
one `LPSolution` each.  The core fills the tableaus one stack slice at a
time and pivots without masks: finished instances just get zero factors.
Once at most half of a stack still pivots, the finished tableaus are
dropped from it, so a batch pays only for its running LPs, and the
certificates of a whole batch are checked in one stacked pass with the
single-LP formulas and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
CERT_TOL = 1e-8
GAP_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Objective, constraint matrix, and right-hand side of min c.x st A x >= b; x >= 0 implicit."""

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.asarray(self.matrix, dtype=np.float64)
        b = np.asarray(self.rhs, dtype=np.float64)
        if a.ndim != 2:
            a = a.reshape((len(b), len(c))) if a.size else np.zeros((len(b), len(c)))
        if a.shape != (len(b), len(c)):
            raise ValueError(f"inconsistent LP dimensions: A is {a.shape}, c has {len(c)}, b has {len(b)}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "rhs", b)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True, eq=False)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    value: float | None = None
    notes: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """One rank-1 update, which leaves every row with a zero in col untouched
    (signed zeros included), as a row-by-row elimination would."""
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    np.subtract(tab, np.multiply.outer(factor, tab[row]), out=tab, where=(factor != 0.0)[:, None])
    basis[row] = col


def _ratio_row(tab, basis, col, n_rows):
    """Minimum-ratio row for entering column col, or -1 when none bounds it.

    Ratios within 1e-12 of the running best count as ties, and a tie goes
    to the smaller basic index (Bland's leaving rule).
    """
    row = -1
    best = None
    rhs = tab[:n_rows, -1].tolist()
    for i, a in enumerate(tab[:n_rows, col].tolist()):
        if a > FEAS_TOL:
            ratio = rhs[i] / a
            if best is None or ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and basis[i] < basis[row]):
                best = ratio
                row = i
    return row


def _run(tab, basis, allowed, artificial_from, cap, iters):
    """Minimize the objective row over allowed entering columns.

    Returns (status, iters).  Rows holding a basic artificial at zero are
    kicked out first whenever the entering column touches them, so artificial
    variables can never climb back above zero.
    """
    n_rows = tab.shape[0] - 1
    while True:
        col = -1
        for j in allowed:
            if tab[n_rows, j] < -FEAS_TOL:
                col = j
                break
        if col < 0:
            return "optimal", iters
        row = -1
        # Prefer evicting a zero-valued basic artificial touched by this column.
        for i in range(n_rows):
            if basis[i] >= artificial_from and abs(tab[i, col]) > FEAS_TOL and tab[i, -1] <= FEAS_TOL:
                if row < 0 or basis[i] < basis[row]:
                    row = i
        if row < 0:
            row = _ratio_row(tab, basis, col, n_rows)
            if row < 0:
                return "unbounded", iters
        _pivot(tab, basis, row, col)
        iters += 1
        if iters > cap:
            raise RuntimeError("simplex stalled")


def _solve(c, a, b, senses, cap):
    """Two-phase simplex for min c.x st rows of (a, senses, b), x >= 0.

    senses entries are '>=' or '<='.  Returns (status, x, y) with y the dual
    vector of the rows as given (positive for binding covering rows).
    """
    n_vars = len(c)
    n_rows = len(b)
    a = a.copy()
    b = b.copy()
    flips = np.ones(n_rows)
    senses = list(senses)
    for i in range(n_rows):
        if b[i] < 0.0:
            a[i] = -a[i]
            b[i] = -b[i]
            flips[i] = -1.0
            senses[i] = ">=" if senses[i] == "<=" else "<="

    # columns: x | one slack or surplus per row | artificials for >= rows
    art_rows = [i for i in range(n_rows) if senses[i] == ">="]
    n_cols = n_vars + n_rows + len(art_rows)
    artificial_from = n_vars + n_rows
    std = np.zeros((n_rows, n_cols))
    std[:, :n_vars] = a
    basis = [0] * n_rows
    art_pos = artificial_from
    for i in range(n_rows):
        if senses[i] == "<=":
            std[i, n_vars + i] = 1.0
            basis[i] = n_vars + i
        else:
            std[i, n_vars + i] = -1.0
            std[i, art_pos] = 1.0
            basis[i] = art_pos
            art_pos += 1

    tab = np.zeros((n_rows + 1, n_cols + 1))
    tab[:n_rows, :n_cols] = std
    tab[:n_rows, -1] = b

    allowed = list(range(artificial_from))
    if art_rows:
        cost1 = np.zeros(n_cols + 1)
        cost1[artificial_from:n_cols] = 1.0
        tab[n_rows] = cost1
        for i in range(n_rows):
            if cost1[basis[i]] != 0.0:
                tab[n_rows] -= cost1[basis[i]] * tab[i]
        status, iters = _run(tab, basis, allowed, artificial_from, cap, 0)
        if status != "optimal":
            return "infeasible", None, None
        if -tab[n_rows, -1] > FEAS_TOL * (1.0 + float(np.abs(b).sum())):
            return "infeasible", None, None
    else:
        iters = 0

    cost2 = np.zeros(n_cols + 1)
    cost2[:n_vars] = c
    tab[n_rows] = cost2
    for i in range(n_rows):
        if cost2[basis[i]] != 0.0:
            tab[n_rows] -= cost2[basis[i]] * tab[i]
    status, _ = _run(tab, basis, allowed, artificial_from, cap, iters)
    if status != "optimal":
        return status, None, None

    x = np.zeros(n_vars)
    for i, bv in enumerate(basis):
        if bv < n_vars:
            x[bv] = tab[i, -1]
    np.clip(x, 0.0, None, out=x)

    # Dual from the basis: solve B^T y = c_B against the standardized matrix.
    cost_full = np.zeros(n_cols)
    cost_full[:n_vars] = c
    basis_matrix = std[:, basis] if n_rows else np.zeros((0, 0))
    if n_rows:
        y_internal = np.linalg.solve(basis_matrix.T, cost_full[basis])
    else:
        y_internal = np.zeros(0)
    y = flips * y_internal
    return "optimal", x, y


def _certify(status, x, y, c, a, b, notes):
    if status != "optimal":
        return LPSolution(status=status, notes=notes)
    value = float(c @ x)
    residual = a @ x - b
    primal_ok = bool((residual >= -CERT_TOL * (1.0 + np.abs(b))).all()) if len(b) else True
    dual_res = c - a.T @ y if len(b) else c
    dual_ok = bool((dual_res >= -CERT_TOL * (1.0 + np.abs(c))).all())
    sign_ok = bool((x >= -CERT_TOL).all()) and bool((y >= -CERT_TOL).all())
    gap = abs(value - float(b @ y)) if len(b) else abs(value)
    gap_ok = gap <= GAP_TOL * (1.0 + abs(value))
    if not (primal_ok and dual_ok and sign_ok and gap_ok):
        raise _certificate_error(primal_ok, dual_ok, sign_ok, gap)
    return LPSolution(status="optimal", x=x, y=y, value=value, notes=notes)


def _certificate_error(primal_ok, dual_ok, sign_ok, gap):
    return RuntimeError(
        "LP certificate check failed "
        f"(primal {bool(primal_ok)}, dual {bool(dual_ok)}, signs {bool(sign_ok)}, gap {gap:.3e})"
    )


def _drop_zero_rows(a, b):
    """Presolve: remove all-zero rows, failing fast when one is unsatisfiable."""
    keep = []
    dropped = []
    for i in range(len(b)):
        if np.any(a[i]):
            keep.append(i)
            continue
        if b[i] > FEAS_TOL:
            return None, None, None, i
        dropped.append(i)
    return a[keep], b[keep], (keep, dropped), None


def solve_covering_lp(lp: LinearProgram, iteration_cap: int | None = None) -> LPSolution:
    """min c.x subject to A x >= b, x >= 0, with a certifying dual (max b.y, A^T y <= c, y >= 0)."""
    c, a, b = lp.objective, lp.matrix, lp.rhs
    if iteration_cap is None:
        iteration_cap = 10 * (lp.num_vars + lp.num_constraints) ** 2 + 100
    a2, b2, kept, bad = _drop_zero_rows(a, b)
    if bad is not None:
        return LPSolution(status="infeasible", notes=f"zero row {bad} requires {b[bad]:g} > 0")
    keep, dropped = kept
    notes = f"dropped zero rows {dropped}" if dropped else ""
    status, x, y_kept = _solve(c, a2, b2, [">="] * len(b2), iteration_cap)
    y = None
    if y_kept is not None:
        y = np.zeros(len(b))
        y[keep] = y_kept
    return _certify(status, x, y, c, a, b, notes=notes)


# Padded tableau bytes per lockstep batch.  The sweep of every corpus
# family (at most 15 LPs of 12 rows) fits in one batch, and a step's
# temporaries, each the size of the tableau, stay small enough for the cache.
BATCH_BYTES = 256 * 1024
# caps the minimum ratio of a column with no positive entry, so that
# `ratio - best` never computes inf - inf
_FLOAT_MAX = np.finfo(np.float64).max


def _lockstep(t, basis, live, iters, caps):
    """`_run` on every live tableau of a stack at once, with the x and
    surplus columns allowed to enter.

    t is (B, n+1, 2n+1): n padded constraint rows and the objective row, over
    n x columns, n surplus columns and the right-hand side.  The artificial
    columns are left out, since they never re-enter.  basis holds padded
    column indices (an artificial at 2n + its row), which order columns as
    the unpadded indices do.  Padding rows and columns stay zero and never
    pivot.

    Finished instances cost nothing: once at most half of the stack is live,
    the live tableaus are gathered with their basis, iteration counts and
    caps into a smaller stack, which is written back when it shrinks again
    and when the loop ends.  Each instance goes through the same elementwise
    operations in any stack.  Returns the mask of instances found unbounded.
    """
    n = basis.shape[1]
    unbounded = np.zeros(len(t), dtype=bool)
    home = np.arange(len(t))  # the stacked instances' positions in t
    stack = t, basis, iters, caps
    product = np.empty_like(t)
    while True:
        negative = stack[0][:, n, : 2 * n] < -FEAS_TOL
        live &= negative.any(axis=1)
        count = np.count_nonzero(live)
        if 2 * count <= len(live):
            if stack[0] is not t:
                t[home], basis[home], iters[home] = stack[:3]
            if not count:
                return unbounded
            home, negative, live = home[live], negative[live], live[live]
            stack = t[home], basis[home], iters[home], caps[home]
            product = np.empty_like(stack[0])
        stuck = _step(*stack, live, negative.argmax(axis=1), product)
        unbounded[home[stuck]] = True


def _step(t, basis, iters, caps, live, col, product):
    """One `_run` pivot on every live tableau of a `_lockstep` stack, with
    entering column col; product is scratch of t's shape.  Marks the
    instances that col leaves unbounded as finished and returns their mask.

    The rank-1 update runs on the whole stack unmasked: the pivot row and
    every finished instance get zero factors, and subtracting a zero
    product leaves an entry as it was, at most turning -0.0 into 0.0.  No
    comparison in the simplex tells the two zeros apart, x is clipped at 0.0
    and y is solved from the basis, so the solutions stay bitwise those of
    `_run`.
    """
    n = basis.shape[1]
    batch = np.arange(len(t))
    rhs = t[:, :n, -1]
    factor = t[batch, :, col]  # column col, objective row included
    a = factor[:, :n]
    # prefer evicting a zero-valued basic artificial touched by the column
    evict = (basis >= 2 * n) & (rhs <= FEAS_TOL) & (np.abs(a) > FEAS_TOL)
    by_ratio = ~evict.any(axis=1)
    positive = a > FEAS_TOL
    ratio = np.divide(rhs, a, out=np.full_like(a, np.inf), where=positive)
    best = np.minimum(ratio.min(axis=1, keepdims=True), _FLOAT_MAX)
    tie = ratio == best
    row = np.where(np.where(by_ratio[:, None], tie, evict), basis, 3 * n).argmin(axis=1)
    by_ratio &= live
    # _ratio_row counts ratios within 1e-12 of its running best as ties,
    # so where one is that close to the minimum without equal to it, its
    # choice may differ from the exact minimum: replay the scan there
    near = ~tie & ((ratio - best <= 1e-12) | (ratio - 1e-12 <= best))
    for k in (by_ratio & near.any(axis=1)).nonzero()[0]:
        row[k] = _ratio_row(t[k], basis[k], col[k], n)
    stuck = by_ratio & ~positive.any(axis=1)
    live &= ~stuck
    # _pivot on every live tableau; factor is column col as gathered above,
    # zeroed on the pivot row and on finished instances
    pivot_row = t[batch, row]
    np.divide(pivot_row, pivot_row[batch, col][:, None], out=pivot_row, where=live[:, None])
    t[batch, row] = pivot_row
    factor[batch, row] = 0.0
    factor[~live] = 0.0
    np.einsum("bi,bj->bij", factor, pivot_row, out=product)
    t -= product
    moved = live.nonzero()[0]
    basis[moved, row[moved]] = col[moved]
    iters += live
    if np.count_nonzero(iters > caps):
        raise RuntimeError("simplex stalled")
    return stuck


def _solve_batch(stacks, n, iteration_cap):
    """_solve and _certify for unit-cost covering LPs: every slice of each
    (k, r, r) stack of matrices, padded to n rows, in one lockstep batch.

    Returns, per instance in stack order, the masks of the infeasible and
    the unbounded LPs, x and y padded to n, and the value (nan unless
    optimal).
    """
    sizes = np.concatenate([np.full(len(s), s.shape[1]) for s in stacks])
    count = len(sizes)
    rows = np.arange(n)
    real = rows < sizes[:, None]
    t = np.zeros((count, n + 1, 2 * n + 1))
    start = 0
    for s in stacks:
        t[start : start + len(s), : s.shape[1], : s.shape[1]] = s
        start += len(s)
    a_pad = t[:, :n, :n].copy()
    if not (np.isfinite(a_pad).all() and (a_pad >= 0.0).all() and (a_pad[:, rows, rows] > 0.0)[real].all()):
        raise ValueError("batched covering LP needs a finite nonnegative matrix with a positive diagonal")
    t[:, rows, n + rows] = np.where(real, -1.0, 0.0)
    t[:, :n, -1] = real
    basis = np.tile(2 * n + rows, (count, 1))
    caps = 10 * (2 * sizes) ** 2 + 100 if iteration_cap is None else np.full(count, iteration_cap)
    iters = np.zeros(count, dtype=np.int64)

    # phase 1: the artificials' sum, priced out one row at a time as _solve does
    for i in range(n):
        t[:, n] -= t[:, i]
    infeasible = _lockstep(t, basis, np.ones(count, dtype=bool), iters, caps)
    infeasible |= -t[:, n, -1] > FEAS_TOL * (1.0 + sizes)

    # phase 2: unit cost on each instance's own x columns
    t[:, n] = 0.0
    t[:, n, :n] = real
    for i in range(n):
        np.subtract(t[:, n], t[:, i], out=t[:, n], where=(basis[:, i] < n)[:, None])
    unbounded = _lockstep(t, basis, ~infeasible, iters, caps)

    on_x = (basis < n) & real
    x = np.zeros((count, n))
    x[on_x.nonzero()[0], basis[on_x]] = t[:, :n, -1][on_x]
    np.clip(x, 0.0, None, out=x)
    # duals from the bases, B^T y = c_B: a basic column of [A | -I | I] is a
    # column of A or a signed unit vector; one stacked solve per LP size
    from_a = np.take_along_axis(a_pad, np.where(basis < n, basis, 0)[:, None, :], axis=2)
    unit_row = np.where(basis < 2 * n, basis - n, basis - 2 * n)[:, None, :]
    unit = np.where(rows[:, None] == unit_row, np.where(basis < 2 * n, -1.0, 1.0)[:, None, :], 0.0)
    bases = np.where((basis < n)[:, None, :], from_a, unit)
    cost = (basis < n).astype(np.float64)
    solved = ~(infeasible | unbounded)
    y = np.zeros((count, n))
    for r in sorted(set(sizes[solved].tolist())):
        group = np.flatnonzero(solved & (sizes == r))
        y[group, :r] = np.linalg.solve(bases[group, :r, :r].transpose(0, 2, 1), cost[group, :r, None])[:, :, 0]

    # _certify on the whole stack, with c = b = 1 on each instance's own
    # rows and columns; the value is still c.x on the instance's own x
    ones = np.ones(n)
    value = np.array([ones[:r] @ x[k, :r] for k, r in enumerate(sizes.tolist())])
    b = real.astype(np.float64)
    residual = (a_pad @ x[:, :, None])[:, :, 0] - b
    primal_ok = ((residual >= -CERT_TOL * (1.0 + np.abs(b))) | ~real).all(axis=1)
    dual_res = b - (y[:, None, :] @ a_pad)[:, 0, :]
    dual_ok = ((dual_res >= -CERT_TOL * (1.0 + np.abs(b))) | ~real).all(axis=1)
    sign_ok = (((x >= -CERT_TOL) & (y >= -CERT_TOL)) | ~real).all(axis=1)
    gap = np.abs(value - (b * y).sum(axis=1))
    gap_ok = gap <= GAP_TOL * (1.0 + np.abs(value))
    failed = np.flatnonzero(solved & ~(primal_ok & dual_ok & sign_ok & gap_ok))
    if len(failed):
        k = failed[0]
        raise _certificate_error(primal_ok[k], dual_ok[k], sign_ok[k], gap[k])
    value[~solved] = np.nan
    return infeasible, unbounded, x, y, value


def _batches(stacks):
    """Consecutive lockstep batches of at most BATCH_BYTES of padded tableau
    (or of one LP, if that alone is larger), taken greedily from a sequence
    of (k, r, r) stacks: yields each batch's stack slices and padded size."""
    batch, count, n = [], 0, 0
    for s in stacks:
        start = 0
        while start < len(s):
            wider = max(n, s.shape[1])
            room = BATCH_BYTES // ((wider + 1) * (2 * wider + 1) * 8) - count
            if room <= 0 and count:
                yield batch, n
                batch, count, n = [], 0, 0
                continue
            stop = start + max(1, min(room, len(s) - start))
            batch.append(s[start:stop])
            count, n, start = count + stop - start, wider, stop
    if batch:
        yield batch, n


def solve_covering_stacks(stacks, iteration_cap: int | None = None) -> np.ndarray:
    """Optimal values of min 1.x subject to A x >= 1, x >= 0, for every
    slice A of each (k, r, r) stack, in order: one array, with nan where an
    LP has no optimum.

    The form, batching and iteration caps are those of
    `solve_covering_batch`, and each value is bitwise equal to
    `solve_covering_lp`'s.
    """
    stacks = [np.asarray(s, dtype=np.float64) for s in stacks]
    for s in stacks:
        if s.ndim != 3 or s.shape[1] != s.shape[2] or not s.shape[1]:
            raise ValueError(f"batched covering LP needs a (k, r, r) stack with r >= 1, got shape {s.shape}")
    values = [_solve_batch(batch, n, iteration_cap)[-1] for batch, n in _batches(stacks)]
    return np.concatenate(values) if values else np.zeros(0)


def solve_covering_batch(matrices, iteration_cap: int | None = None) -> list[LPSolution]:
    """min 1.x subject to A x >= 1, x >= 0, for each matrix A in order.

    Each A must be square, finite and nonnegative with a positive diagonal,
    which makes every LP feasible and bounded.  Consecutive matrices are
    solved in lockstep batches of at most BATCH_BYTES of padded tableau, and
    each solution is bitwise equal to `solve_covering_lp` on (1, A, 1) with
    the same iteration cap (by default, solve_covering_lp's for each LP).
    """
    mats = [np.asarray(a, dtype=np.float64) for a in matrices]
    for a in mats:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not len(a):
            raise ValueError(f"batched covering LP needs a nonempty square matrix, got shape {a.shape}")
    out: list[LPSolution] = []
    # one matrix per stack, so a batch's stack slices are its instances
    for batch, n in _batches([a[None] for a in mats]):
        infeasible, unbounded, x, y, value = _solve_batch(batch, n, iteration_cap)
        for k, (s, v) in enumerate(zip(batch, value.tolist())):
            r = s.shape[1]
            if infeasible[k] or unbounded[k]:
                out.append(LPSolution(status="infeasible" if infeasible[k] else "unbounded"))
            else:
                out.append(LPSolution(status="optimal", x=x[k, :r], y=y[k, :r], value=v))
    return out
