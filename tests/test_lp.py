"""The covering-LP core: hand LPs, duality, a scipy oracle, the rank-1 pivot
against row-by-row elimination, and bitwise agreement of lockstep stacks
with single solves, compacted stacks and the hand-off to `_run` included."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

import flagspectra.lp as lp_module
from flagspectra import LinearProgram, solve_covering_lp
from flagspectra.lp import LPSolution, solve_covering_stacks


def make(a):
    return LinearProgram(np.asarray(a, dtype=float))


def packing_optimum(lp):
    """scipy's optimum of the covering dual: max 1.y subject to A^T y <= 1, y >= 0."""
    ones = np.ones(len(lp.matrix))
    ref = linprog(-ones, A_ub=lp.matrix.T, b_ub=ones, bounds=(0, None), method="highs")
    assert ref.success
    return -ref.fun


def assert_dual_matches_packing(lp, sol, tol=1e-7):
    """The covering value and the dual y are both optimal for the packing problem."""
    best = packing_optimum(lp)
    assert sol.value == pytest.approx(best, abs=tol)
    assert float(sol.y.sum()) == pytest.approx(best, abs=tol)
    assert (sol.y >= -tol).all()
    assert (lp.matrix.T @ sol.y <= 1.0 + tol).all()


class TestCovering:
    def test_single_variable(self):
        sol = solve_covering_lp(make([[1.0]]))
        assert sol.optimal
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_zero_row(self):
        sol = solve_covering_lp(make([[1.0, 2.0], [0.0, -0.0]]))
        assert sol.status == "infeasible"
        assert sol.notes == "zero row 1 requires 1 > 0"

    def test_gram_of_single_edge(self):
        # Gram matrix [[1,1],[1,1]]: either endpoint with weight 1 covers both rows
        sol = solve_covering_lp(make([[1.0, 1.0], [1.0, 1.0]]))
        assert sol.value == pytest.approx(1.0, abs=1e-9)


class TestPacking:
    def test_one_by_one(self):
        lp = make([[1.0]])
        sol = solve_covering_lp(lp)
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert_dual_matches_packing(lp, sol, tol=1e-9)

    def test_matches_covering_on_gram(self):
        gram = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        lp = make(gram)
        cover = solve_covering_lp(lp)
        assert cover.optimal
        assert_dual_matches_packing(lp, cover)

    def test_cycle_gram_both_orientations_give_k(self):
        from flagspectra import cycle_representation

        for k in (1, 2, 3, 4):
            lp = make(cycle_representation(k).gram())
            cover = solve_covering_lp(lp)
            assert cover.value == pytest.approx(float(k), abs=1e-7)
            assert float(cover.y.sum()) == pytest.approx(float(k), abs=1e-7)
            assert_dual_matches_packing(lp, cover)


class TestDualityAndCertificates:
    def seeded_instances(self):
        # nonnegative integer matrices, not symmetric, with every row coverable
        rng = np.random.default_rng(64)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a = rng.integers(0, 4, size=(n, n)).astype(float)
            for i in range(n):
                if not a[i].any():
                    a[i, int(rng.integers(0, n))] = 1.0
            yield make(a)

    def gram_instances(self):
        # symmetric matrix: covering and packing optima coincide (the packing
        # problem is the covering dual verbatim)
        rng = np.random.default_rng(65)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            m = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float)
            yield make(m @ m.T + np.diag(rng.integers(1, 4, size=n).astype(float)))

    def test_strong_duality_on_gram_instances(self):
        for lp in self.gram_instances():
            cover = solve_covering_lp(lp)
            assert cover.optimal
            best = packing_optimum(lp)
            assert abs(cover.value - best) <= 1e-7 * (1 + abs(cover.value))
            assert abs(float(cover.y.sum()) - best) <= 1e-7 * (1 + abs(cover.value))

    def test_transposed_pair_duality(self):
        # the dual of min 1.x st Ax >= 1 is the packing problem on A^T
        for lp in self.seeded_instances():
            cover = solve_covering_lp(lp)
            assert cover.optimal
            best = packing_optimum(lp)
            assert abs(cover.value - best) <= 1e-7 * (1 + abs(cover.value))
            assert (cover.y >= -1e-7).all()
            assert (lp.matrix.T @ cover.y <= 1.0 + 1e-7).all()
            assert abs(float(cover.y.sum()) - best) <= 1e-7 * (1 + abs(cover.value))

    def test_complementary_slackness(self):
        for lp in self.seeded_instances():
            sol = solve_covering_lp(lp)
            surplus = lp.matrix @ sol.x - 1.0
            assert float(np.abs(sol.y * surplus).max(initial=0.0)) <= 1e-7
            reduced = 1.0 - lp.matrix.T @ sol.y
            assert float(np.abs(sol.x * reduced).max(initial=0.0)) <= 1e-7

    def test_matches_scipy(self):
        for lp in self.seeded_instances():
            ours = solve_covering_lp(lp)
            ones = np.ones(len(lp.matrix))
            ref = linprog(ones, A_ub=-lp.matrix, b_ub=-ones, bounds=(0, None), method="highs")
            assert ref.success and ours.optimal
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)

    def test_degenerate_gram_terminates(self):
        # many tied vertices: all-ones Gram of a large clique
        n = 12
        lp = make(np.ones((n, n)) + np.eye(n) * 3.0)
        cover = solve_covering_lp(lp)
        assert_dual_matches_packing(lp, cover)


def loop_pivot(tab, basis, row, col):
    """The row-by-row elimination the rank-1 `_pivot` replaced."""
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


# tableaus with many exact and signed zeros among finite entries
tableaus = st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda shape: arrays(
        np.float64,
        shape,
        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-8.0, 8.0, allow_subnormal=False),
    )
)


class TestPivot:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tableaus, st.data())
    def test_rank_one_update_matches_row_elimination(self, tab, data):
        row = data.draw(st.integers(0, tab.shape[0] - 1))
        col = data.draw(st.integers(0, tab.shape[1] - 1))
        assume(abs(tab[row, col]) > 1e-3)
        expected, expected_basis = tab.copy(), list(range(tab.shape[0]))
        loop_pivot(expected, expected_basis, row, col)
        basis = list(range(tab.shape[0]))
        lp_module._pivot(tab, basis, row, col)
        assert tab.tobytes() == expected.tobytes()
        assert basis == expected_basis


def step_leaving_rows(column, rhs, basis):
    """The rows one `_step` pivots on for entering column 0, on a stack of
    two tableaus: the given one and the same with its rows reversed."""
    n = len(column)
    t = np.zeros((2, n + 1, 2 * n + 1))
    t[0, :n, 0], t[0, :n, -1], t[:, n, 0] = column, rhs, -1.0
    t[1, :n] = t[0, n - 1 :: -1]
    basis = np.array([basis, basis[::-1]], dtype=np.int64)
    iters, caps, col = np.zeros(2, dtype=np.int64), np.full(2, 10), np.zeros(2, dtype=np.int64)
    stuck = lp_module._step(t, basis, iters, caps, np.ones(2, dtype=bool), col, np.empty_like(t))
    assert not stuck.any()
    return [row.tolist().index(0) for row in basis]


@st.composite
def clustered_columns(draw):
    """An entering column, right-hand sides whose ratios lie within 4e-12 of
    each other, and distinct basic indices other than the column's own."""
    n = draw(st.integers(1, 8))
    base = draw(st.floats(0.1, 10.0))
    column, rhs = [], []
    for _ in range(n):
        a = draw(st.sampled_from([0.0, -1.0, 1e-10]) | st.floats(0.25, 4.0))
        column.append(a)
        if a > lp_module.FEAS_TOL:
            rhs.append((base + draw(st.integers(0, 40)) * 1e-13) * a)
        else:
            rhs.append(draw(st.floats(0.1, 10.0)))
    assume(max(column) > lp_module.FEAS_TOL)
    basis = draw(st.permutations(range(1, 2 * n)))[:n]
    return column, rhs, basis


class TestLeavingRule:
    def test_window_is_anchored_at_the_minimum(self):
        # ratios 1, 1 + 0.9e-12 and 1 + 1.8e-12 at basic indices 5, 3 and 1:
        # a window anchored at a running best drifts up the chain to the
        # third row, 1.8e-12 above the minimum; anchored at the minimum it
        # holds the first two, and the second has the smaller basic index
        column, rhs, basis = [1.0, 1.0, 1.0], [1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12], [5, 3, 1]
        assert lp_module._ratio_row(column, rhs, basis) == 1
        assert step_leaving_rows(column, rhs, basis) == [1, 1]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(clustered_columns())
    def test_smallest_basic_index_within_the_window(self, drawn):
        column, rhs, basis = drawn
        ratios = {i: rhs[i] / a for i, a in enumerate(column) if a > lp_module.FEAS_TOL}
        window = min(ratios.values()) + 1e-12
        expected = min((i for i in ratios if ratios[i] <= window), key=lambda i: basis[i])
        assert lp_module._ratio_row(column, rhs, basis) == expected
        assert step_leaving_rows(column, rhs, basis) == [expected, len(column) - 1 - expected]


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            make([[1.0, 2.0]])


def stacked(matrices, iteration_cap=None):
    """`_solve_batch` on one stack per matrix, all in one lockstep batch:
    one `LPSolution` per matrix, x and y cut to its size."""
    mats = [np.asarray(a, dtype=float) for a in matrices]
    n = max(len(a) for a in mats)
    infeasible, unbounded, x, y, value = lp_module._solve_batch([a[None] for a in mats], n, iteration_cap)
    out = []
    for k, a in enumerate(mats):
        if infeasible[k] or unbounded[k]:
            out.append(LPSolution(status="infeasible" if infeasible[k] else "unbounded"))
        else:
            r = len(a)
            out.append(LPSolution(status="optimal", x=x[k, :r], y=y[k, :r], value=value[k].item()))
    return out


def assert_bitwise_equal(batched, single):
    assert batched.status == single.status
    if single.optimal:
        assert batched.x.tobytes() == single.x.tobytes()
        assert batched.y.tobytes() == single.y.tobytes()
        assert np.float64(batched.value).tobytes() == np.float64(single.value).tobytes()


def subset_grams(members):
    """Intersection matrices of every subfamily union of a family of edge lists."""
    ground = 1 + max(v for edges in members for e in edges for v in e)
    out = []
    for mask in range(1, 1 << len(members)):
        edges = [e for i, m in enumerate(members) if mask >> i & 1 for e in m]
        incidence = np.zeros((len(edges), ground))
        for row, e in enumerate(edges):
            incidence[row, list(e)] = 1.0
        out.append(incidence @ incidence.T)
    return out


# families of 1-5 members, each with 1-3 edges of 1-3 vertices out of 6
families = st.lists(
    st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=3),
    min_size=1,
    max_size=5,
)

# finite square matrices of 1-6 rows with negative entries, signed zeros
# and zero rows (up to two rows zeroed per draw).  Entries are multiples of
# 1/4 in [-3, 3]: the simplex uses absolute tolerances, and LPs scaled over
# many orders of magnitude are left to `test_badly_scaled_lp_fails_its_certificate`
square_matrices = st.integers(1, 6).flatmap(
    lambda r: arrays(
        np.float64,
        (r, r),
        elements=st.sampled_from([0.0, -0.0]) | st.integers(-12, 12).map(lambda k: k / 4),
    )
)
covering_matrices = st.tuples(square_matrices, st.lists(st.integers(0, 5), max_size=2)).map(
    lambda drawn: np.where(np.isin(np.arange(len(drawn[0])), drawn[1])[:, None], 0.0, drawn[0])
)


class TestDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(covering_matrices, covering_matrices)
    def test_matches_scipy_and_the_lockstep_stack(self, a, other):
        ours = solve_covering_lp(make(a))
        ones = np.ones(len(a))
        ref = linprog(ones, A_ub=-a, b_ub=-ones, bounds=(0, None), method="highs")
        # x >= 0 bounds 1.x below, so the LP is either optimal or infeasible
        assert ref.status in (0, 2)
        assert ours.status == ("optimal" if ref.status == 0 else "infeasible")
        if ours.optimal:
            assert abs(ours.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun))
            assert (ours.y >= -1e-7).all()
            assert (a.T @ ours.y <= 1.0 + 1e-7).all()
            assert abs(float(ours.y.sum()) - ours.value) <= 1e-7 * (1.0 + abs(ours.value))
        # a twice, so at least two instances pivot in lockstep with `_step`
        # until a is solved, and other padded to the larger size beside them
        first, second, twin = stacked([a, other, a])
        assert_bitwise_equal(first, ours)
        assert_bitwise_equal(twin, ours)
        assert_bitwise_equal(second, solve_covering_lp(make(other)))


    def test_round_off_in_phase_1_is_not_infeasibility(self):
        # x0 = 1e7 covers every row; phase 1 reaches a zero sum of the
        # artificials up to round-off and then finds a column with a reduced
        # cost of -2.8e-9 and no positive entry, which is not a proof of
        # infeasibility
        sol = solve_covering_lp(make([[1.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert sol.optimal
        assert sol.value == pytest.approx(1e7, rel=1e-12)

    def test_badly_scaled_lp_fails_its_certificate(self):
        # the optimum is about 1e8; round-off at that scale breaks the
        # absolute primal tolerance, and the solve refuses to answer
        with pytest.raises(RuntimeError, match="^LP certificate check failed"):
            solve_covering_lp(make([[2.0, 1e-8], [1e-8, 1e-8]]))


class TestBatch:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(families)
    def test_matches_single_solves_bitwise(self, members):
        grams = subset_grams(members)
        for a, batched in zip(grams, stacked(grams)):
            assert_bitwise_equal(batched, solve_covering_lp(make(a)))

    def test_matches_single_solves_on_non_integer_matrices(self):
        rng = np.random.default_rng(66)
        matrices = []
        for _ in range(60):
            r = int(rng.integers(1, 10))
            a = rng.random((r, r)) * (rng.random((r, r)) < 0.6)
            a[np.arange(r), np.arange(r)] += rng.random(r) + 0.1
            matrices.append(a)
        for a, batched in zip(matrices, stacked(matrices)):
            assert_bitwise_equal(batched, solve_covering_lp(make(a)))

    def test_consecutive_batches_stay_under_the_byte_limit(self, monkeypatch):
        sizes = []
        original = lp_module._solve_batch

        def spy(stacks, n, cap):
            sizes.append((sum(len(s) for s in stacks), n))
            return original(stacks, n, cap)

        monkeypatch.setattr(lp_module, "_solve_batch", spy)
        grams = [np.eye(r) + 1.0 for r in range(1, 40)]
        values = solve_covering_stacks([a[None] for a in grams])
        assert sum(count for count, _ in sizes) == len(grams) and len(sizes) > 1
        assert all(count == 1 or count * (n + 1) * (2 * n + 1) * 8 <= lp_module.BATCH_BYTES for count, n in sizes)
        for a, value in zip(grams, values):
            assert value.tobytes() == np.float64(solve_covering_lp(make(a)).value).tobytes()

    def test_artificial_eviction(self):
        # after the first pivot a basic artificial sits at zero with a unit
        # entry in the next entering column; evicting it picks a different
        # row than the ratio test would, so a wrong branch changes the result.
        # Twice in one stack, so `_step` takes the eviction and `_run` the single solve.
        a = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 3.0]]
        single = solve_covering_lp(make(a))
        for batched in stacked([a, a]):
            assert_bitwise_equal(batched, single)

    def test_near_tie_matches_single_solves(self, monkeypatch):
        # column 0 has ratios 1 and 1/(1 + 1e-13), a tie within 1e-12 that
        # `_step` resolves in the stack and `_run` in the single solve
        stepped = []
        original = lp_module._step

        def step(*args):
            stepped.append(True)
            return original(*args)

        a = [[1.0, 1.0], [1.0 + 1e-13, 1.0]]
        single = solve_covering_lp(make(a))
        monkeypatch.setattr(lp_module, "_step", step)
        batched = stacked([a, np.eye(3)])[0]
        assert stepped
        assert_bitwise_equal(batched, single)

    def test_iteration_cap_stalls_like_single_solves(self):
        a = np.array([[2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        outcomes = []
        for cap in range(8):
            try:
                single = solve_covering_lp(make(a), iteration_cap=cap)
            except RuntimeError as exc:
                assert str(exc) == "simplex stalled"
                with pytest.raises(RuntimeError, match="^simplex stalled$"):
                    stacked([np.eye(2), a, a], iteration_cap=cap)
                outcomes.append("stalled")
                continue
            assert_bitwise_equal(stacked([np.eye(2), a, a], iteration_cap=cap)[1], single)
            outcomes.append("solved")
        assert "stalled" in outcomes and "solved" in outcomes

    @staticmethod
    def short_and_long(rng, longs):
        """1x1 LPs, each done after one pivot, and longs 9x9 ones that take
        many: sixteen in all."""
        out = [np.eye(1) * (k + 1) for k in range(16 - longs)]
        for _ in range(longs):
            r = 9
            a = rng.random((r, r)) * (rng.random((r, r)) < 0.6)
            a[np.arange(r), np.arange(r)] += rng.random(r) + 0.1
            out.append(a)
        return out

    @staticmethod
    def spy_on_pivots(monkeypatch):
        """Stack sizes of every lockstep pivot, and the iteration count of
        every tableau handed to `_run`, in order."""
        sizes, handed = [], []
        step, run = lp_module._step, lp_module._run

        def step_spy(t, *args):
            sizes.append(len(t))
            return step(t, *args)

        def run_spy(tab, basis, cap, iters):
            handed.append(iters)
            return run(tab, basis, cap, iters)

        monkeypatch.setattr(lp_module, "_step", step_spy)
        monkeypatch.setattr(lp_module, "_run", run_spy)
        return sizes, handed

    def test_compacted_stack_matches_single_solves(self, monkeypatch):
        # the two long LPs go on in a compacted stack of two, and whichever
        # finishes a phase last goes on alone in `_run`
        matrices = self.short_and_long(np.random.default_rng(67), longs=2)
        singles = [solve_covering_lp(make(a)) for a in matrices]
        sizes, handed = self.spy_on_pivots(monkeypatch)
        solutions = stacked(matrices)
        assert sizes[0] == len(matrices) and sizes.count(2) > 5 and set(sizes) == {len(matrices), 2}
        assert handed and min(handed) > 0
        for batched, single in zip(solutions, singles):
            assert_bitwise_equal(batched, single)

    def test_compacted_instance_stalls_at_its_cap(self, monkeypatch):
        # one lockstep pivot finishes phase 1 of the fifteen short LPs; the
        # long one goes on alone in `_run`, which stalls at the cap
        matrices = self.short_and_long(np.random.default_rng(67), longs=1)
        with pytest.raises(RuntimeError, match="^simplex stalled$"):
            solve_covering_lp(make(matrices[-1]), iteration_cap=5)
        sizes, handed = self.spy_on_pivots(monkeypatch)
        with pytest.raises(RuntimeError, match="^simplex stalled$"):
            stacked(matrices, iteration_cap=5)
        assert sizes == [len(matrices)]
        assert handed == [1]

    def test_single_lp_goes_to_run_from_the_start(self, monkeypatch):
        a = self.short_and_long(np.random.default_rng(67), longs=1)[-1]
        sizes, handed = self.spy_on_pivots(monkeypatch)
        assert solve_covering_lp(make(a)).optimal
        assert sizes == []
        assert handed[0] == 0 and len(handed) == 2

    def test_corrupted_dual_fails_the_stacked_certificate(self, monkeypatch):
        # raise one dual entry of the third LP by 1: A^T y <= 1 breaks in
        # column 0 and b.y leaves c.x by 1, while the other LPs stay sound
        matrices = [np.eye(2) + 1.0, np.eye(3), np.eye(2) * 2.0 + 1.0, np.eye(1)]
        original = np.linalg.solve

        def corrupt(a, b):
            y = original(a, b)
            if len(y) == 2:  # the stacked solve of the two 2x2 LPs
                y[1, 0, 0] += 1.0
            return y

        monkeypatch.setattr(np.linalg, "solve", corrupt)
        message = r"^LP certificate check failed \(primal True, dual False, signs True, gap 1\.000e\+00\)$"
        with pytest.raises(RuntimeError, match=message):
            solve_covering_stacks([a[None] for a in matrices])

    def test_stacks_holding_negative_zeros_match_single_solves(self, monkeypatch):
        # -0.0 sits in the tableaus; the unmasked rank-1 update may turn one
        # into 0.0, which must reach neither x, y nor the value
        rng = np.random.default_rng(68)
        stacks = []
        for r in (2, 3, 4, 5):
            stack = rng.choice([0.0, -0.0, -0.0, 1.0, 2.0], size=(10, r, r))
            stack[:, np.arange(r), np.arange(r)] += 1.0
            stacks.append(stack)
        negative_zeros = []
        original = lp_module._step

        def spy(t, *args):
            negative_zeros.append(int((np.signbit(t) & (t == 0.0)).sum()))
            return original(t, *args)

        monkeypatch.setattr(lp_module, "_step", spy)
        values = solve_covering_stacks(stacks)
        matrices = [a for stack in stacks for a in stack]
        solutions = stacked(matrices)
        assert min(negative_zeros) > 0
        assert len(values) == len(solutions) == len(matrices)
        for a, value, batched in zip(matrices, values, solutions):
            single = solve_covering_lp(make(a))
            assert_bitwise_equal(batched, single)
            assert np.float64(value).tobytes() == np.float64(single.value).tobytes()

    def test_stacks_of_mixed_sizes_keep_their_order(self):
        rng = np.random.default_rng(69)
        stacks = [np.eye(3)[None] * 2.0, rng.random((7, 1, 1)) + 0.5, np.zeros((0, 2, 2)), np.ones((4, 2, 2))]
        values = solve_covering_stacks(stacks)
        expected = [solve_covering_lp(make(a)).value for stack in stacks for a in stack]
        assert values.tolist() == expected

    @pytest.mark.parametrize("stack", [np.ones((2, 2, 3)), np.ones((2, 0, 0)), np.ones((2, 2))])
    def test_stacks_reject_shapes_outside_the_form(self, stack):
        with pytest.raises(ValueError, match="stack"):
            solve_covering_stacks([np.ones((1, 2, 2)), stack])

    @pytest.mark.parametrize(
        "a", [[[1.0, 1.0]], [[np.inf]], [[1.0, -1.0], [1.0, np.nan]], [[np.nan]], np.zeros((0, 0))]
    )
    def test_rejects_matrices_outside_the_form(self, a):
        a = np.asarray(a, dtype=float)
        with pytest.raises(ValueError, match="^covering LP needs a"):
            LinearProgram(a)
        with pytest.raises(ValueError, match="stack"):
            solve_covering_stacks([np.eye(2)[None], a[None]])
