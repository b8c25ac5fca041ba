"""Covering linear programs min 1.x subject to A x >= 1, x >= 0, with A
square, solved with primal-dual certification.

Every LP the package solves has this form: the strong-domination LP, the
Gram LP of a vector representation and the incidence-Gram LP of the
fractional width.  One core solves them all, a two-phase primal simplex on
dense tableaus with Bland's rule, which the frequently degenerate
Gram-matrix instances need for termination.  The entering column is the
first whose reduced cost is below -FEAS_TOL.  The leaving row is, among
the rows whose ratio lies within 1e-12 of the minimum ratio, the one with
the smallest basic index; the window is anchored at the minimum, so the
choice does not depend on scan order, and the scalar loop and the lockstep
stack compute it with the same float operations.  Optimal solutions always
carry a dual vector, and feasibility of both sides plus the duality gap are
checked before a solution is returned.

The core takes (k, r, r) stacks of equal-size matrices, pads them to one
size and pivots a whole batch in lockstep, one numpy operation per step,
with an unmasked rank-1 update (finished instances get zero factors).  Once
at most half of a stack still pivots, the finished tableaus are dropped
from it, and once a single tableau is left it goes to the scalar loop
`_run`, which pivots one tableau faster than numpy pivots a stack of one.
Every instance takes the same pivots in any stack, bit for bit.  A single LP
(`solve_covering_lp`) is a stack of one, which `_run` solves from its first
pivot; a subset sweep (`solve_covering_stacks`) returns its values as one
array.  The duals are solved from the bases per LP size, and the
certificates of a whole batch are checked in one stacked pass.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-9
CERT_TOL = 1e-8
GAP_TOL = 1e-7


class LinearProgram:
    """min 1.x subject to A x >= 1, x >= 0, for a finite square matrix A."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not len(a):
            raise ValueError(f"covering LP needs a nonempty square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("covering LP needs a matrix of finite numbers")
        self.matrix = a


class LPSolution:
    """status is "optimal", "infeasible" or "unbounded"; an optimal solution
    carries the primal x, the dual y and the value."""

    __slots__ = ("status", "x", "y", "value", "notes")

    def __init__(self, status: str, x=None, y=None, value: float | None = None, notes: str = ""):
        self.status, self.x, self.y, self.value, self.notes = status, x, y, value, notes

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


def _ratio_row(column, rhs, basis):
    """Leaving row for an entering column, given as lists of its
    constraint-row entries and of the right-hand sides, or -1 when no entry
    is positive.

    Every ratio within 1e-12 of the minimum ratio is a tie, and a tie goes
    to the smallest basic index (Bland's leaving rule).
    """
    ratios = [(rhs[i] / a, i) for i, a in enumerate(column) if a > FEAS_TOL]
    row = -1
    if ratios:
        window = min(ratios)[0] + 1e-12
        for ratio, i in ratios:
            if ratio <= window and (row < 0 or basis[i] < basis[row]):
                row = i
    return row


def _run(tab, basis, cap, iters):
    """Minimize the objective row of one tableau of a `_lockstep` stack,
    with the x and surplus columns allowed to enter.

    tab is (n+1, 2n+1) and basis a list of its rows' basic columns, an
    artificial at 2n + its row.  Rows holding a basic artificial at zero are
    kicked out first whenever the entering column touches them, so
    artificial variables can never climb back above zero.  Returns
    (status, iters).
    """
    n = len(basis)
    while True:
        col = next((j for j, c in enumerate(tab[n, : 2 * n].tolist()) if c < -FEAS_TOL), -1)
        if col < 0:
            return "optimal", iters
        column = tab[:n, col].tolist()
        rhs = tab[:n, -1].tolist()
        row = -1
        # Prefer evicting a zero-valued basic artificial touched by this column.
        for i in range(n):
            if basis[i] >= 2 * n and abs(column[i]) > FEAS_TOL and rhs[i] <= FEAS_TOL:
                if row < 0 or basis[i] < basis[row]:
                    row = i
        if row < 0:
            row = _ratio_row(column, rhs, basis)
            if row < 0:
                return "unbounded", iters
        _pivot(tab, basis, row, col)
        iters += 1
        if iters > cap:
            raise RuntimeError("simplex stalled")


def solve_covering_lp(lp: LinearProgram, iteration_cap: int | None = None) -> LPSolution:
    """min 1.x subject to A x >= 1, x >= 0, with a certifying dual (max 1.y, A^T y <= 1, y >= 0).

    An all-zero row makes the LP infeasible at once; otherwise A is solved
    as a stack of one.  The default iteration cap is 10 (2r)^2 + 100.
    """
    a = lp.matrix
    zero = np.flatnonzero(~a.any(axis=1))
    if len(zero):
        return LPSolution(status="infeasible", notes=f"zero row {zero[0]} requires 1 > 0")
    infeasible, unbounded, x, y, value = _solve_batch([a[None]], len(a), iteration_cap)
    if infeasible[0] or unbounded[0]:
        return LPSolution(status="infeasible" if infeasible[0] else "unbounded")
    return LPSolution(status="optimal", x=x[0], y=y[0], value=value[0].item())


# Padded tableau bytes per lockstep batch.  The sweep of every corpus
# family (at most 15 LPs of 12 rows) fits in one batch, and a step's
# temporaries, each the size of the tableau, stay small enough for the cache.
BATCH_BYTES = 256 * 1024


def _lockstep(t, basis, live, iters, caps):
    """`_run` on every live tableau of a stack at once.

    t is (B, n+1, 2n+1): n padded constraint rows and the objective row, over
    n x columns, n surplus columns and the right-hand side.  The artificial
    columns are left out, since they never re-enter.  basis holds padded
    column indices (an artificial at 2n + its row), which order columns as
    unpadded indices would.  Padding rows and columns stay zero and never
    pivot.

    Finished instances cost nothing: once at most half of the stack is live,
    the live tableaus are gathered with their basis, iteration counts and
    caps into a smaller stack, which is written back when it shrinks again
    and when the loop ends.  The last live tableau goes to `_run` in place,
    which pivots one tableau about three times faster than `_step` pivots a
    stack of one.  Each instance goes through the same elementwise
    operations in any stack and in `_run`.  Returns the mask of instances
    found unbounded.
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
        if count <= 1 or 2 * count <= len(live):
            if stack[0] is not t:
                t[home], basis[home], iters[home] = stack[:3]
            if count == 1:
                k = home[live.argmax()]
                rows = basis[k].tolist()
                status, iters[k] = _run(t[k], rows, int(caps[k]), int(iters[k]))
                basis[k] = rows
                unbounded[k] = status == "unbounded"
            if count <= 1:
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
    # _ratio_row's window; where no entry is positive, best is inf and the
    # instance is marked stuck before any pivot reads its row
    best = ratio.min(axis=1, keepdims=True)
    tie = ratio <= best + 1e-12
    row = np.where(np.where(by_ratio[:, None], tie, evict), basis, 3 * n).argmin(axis=1)
    stuck = by_ratio & live & ~positive.any(axis=1)
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
    """The covering-LP core: every slice of each finite (k, r, r) stack of
    matrices, padded to n rows, in one lockstep batch.

    Each instance's tableau is [A | -I | I] with the artificials I left out,
    priced for phase 1 (the artificials' sum) and then for phase 2 (unit
    cost on the instance's own x columns).  Returns, per instance in stack
    order, the masks of the infeasible and the unbounded LPs, x and y padded
    to n, and the value (nan unless optimal).
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
    t[:, rows, n + rows] = np.where(real, -1.0, 0.0)
    t[:, :n, -1] = real
    basis = np.tile(2 * n + rows, (count, 1))
    caps = 10 * (2 * sizes) ** 2 + 100 if iteration_cap is None else np.full(count, iteration_cap)
    iters = np.zeros(count, dtype=np.int64)

    # phase 1: the artificials' sum, priced out one row at a time
    for i in range(n):
        t[:, n] -= t[:, i]
    # phase 1 is bounded below by 0, so a column found unbounded there is
    # round-off: the artificials' sum alone decides feasibility
    _lockstep(t, basis, np.ones(count, dtype=bool), iters, caps)
    infeasible = -t[:, n, -1] > FEAS_TOL * (1.0 + sizes)

    # phase 2: unit cost on each instance's own x columns
    t[:, n] = 0.0
    t[:, n, :n] = real
    x_basic = basis < n
    for i in np.flatnonzero(x_basic.any(axis=0)):
        np.subtract(t[:, n], t[:, i], out=t[:, n], where=x_basic[:, i, None])
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

    # certificates of the whole stack, with c = b = 1 on each instance's own
    # rows and columns; the value is c.x on the instance's own x
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
        raise RuntimeError(
            "LP certificate check failed "
            f"(primal {bool(primal_ok[k])}, dual {bool(dual_ok[k])}, signs {bool(sign_ok[k])}, gap {gap[k]:.3e})"
        )
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
    slice A of each finite (k, r, r) stack, in order: one array, with nan
    where an LP has no optimum.

    Consecutive stacks are solved in lockstep batches of at most BATCH_BYTES
    of padded tableau, with `solve_covering_lp`'s iteration caps, and each
    value is bitwise equal to `solve_covering_lp`'s.
    """
    stacks = [np.asarray(s, dtype=np.float64) for s in stacks]
    for s in stacks:
        if s.ndim != 3 or s.shape[1] != s.shape[2] or not s.shape[1] or not np.isfinite(s).all():
            raise ValueError(f"batched covering LP needs a finite (k, r, r) stack with r >= 1, got shape {s.shape}")
    values = [_solve_batch(batch, n, iteration_cap)[-1] for batch, n in _batches(stacks)]
    return np.concatenate(values) if values else np.zeros(0)
