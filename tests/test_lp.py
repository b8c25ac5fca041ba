"""The covering simplex kernel and its lockstep batch: hand LPs, duality, a
scipy oracle, the rank-1 pivot against row-by-row elimination, and bitwise
agreement of the batch with single solves, compacted stacks included."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

import flagspectra.lp as lp_module
from flagspectra import LinearProgram, solve_covering_lp
from flagspectra.lp import solve_covering_batch, solve_covering_stacks


def make(c, a, b):
    return LinearProgram(np.asarray(c, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def packing_optimum(lp):
    """scipy's optimum of the covering dual: max b.y subject to A^T y <= c, y >= 0."""
    ref = linprog(-lp.rhs, A_ub=lp.matrix.T, b_ub=lp.objective, bounds=(0, None), method="highs")
    assert ref.success
    return -ref.fun


def assert_dual_matches_packing(lp, sol, tol=1e-7):
    """The covering value and the dual y are both optimal for the packing problem."""
    best = packing_optimum(lp)
    assert sol.value == pytest.approx(best, abs=tol)
    assert float(lp.rhs @ sol.y) == pytest.approx(best, abs=tol)
    assert (sol.y >= -tol).all()
    assert (lp.matrix.T @ sol.y <= lp.objective + tol).all()


class TestCovering:
    def test_single_variable(self):
        sol = solve_covering_lp(make([1.0], [[1.0]], [1.0]))
        assert sol.optimal
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_zero_row(self):
        sol = solve_covering_lp(make([1.0], [[0.0]], [1.0]))
        assert sol.status == "infeasible"

    def test_gram_of_single_edge(self):
        # Gram matrix [[1,1],[1,1]]: either endpoint with weight 1 covers both rows
        sol = solve_covering_lp(make([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]))
        assert sol.value == pytest.approx(1.0, abs=1e-9)

    def test_redundant_zero_row_dropped(self):
        sol = solve_covering_lp(make([1.0], [[0.0], [1.0]], [0.0, 1.0]))
        assert sol.optimal
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.y[0] == 0.0
        assert "dropped zero rows [0]" in sol.notes

    def test_negative_rhs_row(self):
        # x >= -5 is vacuous for x >= 0
        sol = solve_covering_lp(make([1.0], [[1.0], [1.0]], [-5.0, 2.0]))
        assert sol.value == pytest.approx(2.0, abs=1e-9)


class TestPacking:
    def test_one_by_one(self):
        lp = make([1.0], [[1.0]], [1.0])
        sol = solve_covering_lp(lp)
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert_dual_matches_packing(lp, sol, tol=1e-9)

    def test_unbounded_without_constraints(self):
        # min -x with no rows is unbounded; its packing dual, which has no
        # variables, asks 0 <= -1 and is infeasible
        lp = make([-1.0], np.zeros((0, 1)), [])
        assert solve_covering_lp(lp).status == "unbounded"
        assert not (lp.matrix.T @ np.zeros(0) <= lp.objective).all()

    def test_matches_covering_on_gram(self):
        gram = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        lp = make([1.0, 1.0, 1.0], gram, [1.0, 1.0, 1.0])
        cover = solve_covering_lp(lp)
        assert cover.optimal
        assert_dual_matches_packing(lp, cover)

    def test_cycle_gram_both_orientations_give_k(self):
        from flagspectra import cycle_representation

        for k in (1, 2, 3, 4):
            gram = cycle_representation(k).gram().astype(float)
            n = 3 * k
            lp = make(np.ones(n), gram, np.ones(n))
            cover = solve_covering_lp(lp)
            assert cover.value == pytest.approx(float(k), abs=1e-7)
            assert float(lp.rhs @ cover.y) == pytest.approx(float(k), abs=1e-7)
            assert_dual_matches_packing(lp, cover)


class TestDualityAndCertificates:
    def seeded_instances(self):
        rng = np.random.default_rng(64)
        for _ in range(30):
            nv = int(rng.integers(1, 7))
            nc = int(rng.integers(1, 7))
            a = rng.integers(0, 4, size=(nc, nv)).astype(float)
            for i in range(nc):  # keep each row coverable
                if not a[i].any():
                    a[i, int(rng.integers(0, nv))] = 1.0
            c = rng.integers(1, 5, size=nv).astype(float)
            yield make(c, a, np.ones(nc))

    def gram_instances(self):
        # symmetric matrix with unit objective and rhs: covering and packing
        # optima coincide (the packing problem is the covering dual verbatim)
        rng = np.random.default_rng(65)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            m = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))).astype(float)
            gram = m @ m.T + np.diag(rng.integers(1, 4, size=n).astype(float))
            yield make(np.ones(n), gram, np.ones(n))

    def test_strong_duality_on_gram_instances(self):
        for lp in self.gram_instances():
            cover = solve_covering_lp(lp)
            assert cover.optimal
            best = packing_optimum(lp)
            assert abs(cover.value - best) <= 1e-7 * (1 + abs(cover.value))
            assert abs(float(lp.rhs @ cover.y) - best) <= 1e-7 * (1 + abs(cover.value))

    def test_transposed_pair_duality(self):
        # the dual of min c.x st Ax >= b is the packing problem on (b, A^T, c)
        for lp in self.seeded_instances():
            cover = solve_covering_lp(lp)
            assert cover.optimal
            best = packing_optimum(lp)
            assert abs(cover.value - best) <= 1e-7 * (1 + abs(cover.value))
            assert (cover.y >= -1e-7).all()
            assert (lp.matrix.T @ cover.y <= lp.objective + 1e-7).all()
            assert abs(float(lp.rhs @ cover.y) - best) <= 1e-7 * (1 + abs(cover.value))

    def test_complementary_slackness(self):
        for lp in self.seeded_instances():
            sol = solve_covering_lp(lp)
            surplus = lp.matrix @ sol.x - lp.rhs
            assert float(np.abs(sol.y * surplus).max(initial=0.0)) <= 1e-7
            reduced = lp.objective - lp.matrix.T @ sol.y
            assert float(np.abs(sol.x * reduced).max(initial=0.0)) <= 1e-7

    def test_matches_scipy(self):
        for lp in self.seeded_instances():
            ours = solve_covering_lp(lp)
            ref = linprog(lp.objective, A_ub=-lp.matrix, b_ub=-lp.rhs, bounds=(0, None), method="highs")
            assert ref.success and ours.optimal
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)

    def test_degenerate_gram_terminates(self):
        # many tied vertices: all-ones Gram of a large clique
        n = 12
        gram = np.ones((n, n)) + np.eye(n) * 3.0
        lp = make([1.0] * n, gram, [1.0] * n)
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


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make([1.0, 2.0], [[1.0]], [1.0])


def unit_lp(a):
    a = np.asarray(a, dtype=float)
    return make(np.ones(len(a)), a, np.ones(len(a)))


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


class TestBatch:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(families)
    def test_matches_single_solves_bitwise(self, members):
        grams = subset_grams(members)
        for a, batched in zip(grams, solve_covering_batch(grams)):
            assert_bitwise_equal(batched, solve_covering_lp(unit_lp(a)))

    def test_matches_single_solves_on_non_integer_matrices(self):
        rng = np.random.default_rng(66)
        matrices = []
        for _ in range(60):
            r = int(rng.integers(1, 10))
            a = rng.random((r, r)) * (rng.random((r, r)) < 0.6)
            a[np.arange(r), np.arange(r)] += rng.random(r) + 0.1
            matrices.append(a)
        for a, batched in zip(matrices, solve_covering_batch(matrices)):
            assert_bitwise_equal(batched, solve_covering_lp(unit_lp(a)))

    def test_consecutive_batches_stay_under_the_byte_limit(self, monkeypatch):
        sizes = []
        original = lp_module._solve_batch

        def spy(mats, n, cap):
            sizes.append((len(mats), n))
            return original(mats, n, cap)

        monkeypatch.setattr(lp_module, "_solve_batch", spy)
        grams = [np.eye(r) + 1.0 for r in range(1, 40)]
        solutions = solve_covering_batch(grams)
        assert sum(count for count, _ in sizes) == len(grams) and len(sizes) > 1
        assert all(count == 1 or count * (n + 1) * (2 * n + 1) * 8 <= lp_module.BATCH_BYTES for count, n in sizes)
        for a, batched in zip(grams, solutions):
            assert_bitwise_equal(batched, solve_covering_lp(unit_lp(a)))

    def test_artificial_eviction(self):
        # after the first pivot a basic artificial sits at zero with a unit
        # entry in the next entering column; evicting it picks a different
        # row than the ratio test would, so a wrong branch changes the result
        a = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 3.0]]
        (batched,) = solve_covering_batch([a])
        assert_bitwise_equal(batched, solve_covering_lp(unit_lp(a)))

    def test_near_tie_replays_the_sequential_scan(self, monkeypatch):
        # column 0 has ratios 1 and 1/(1 + 1e-13): the scan keeps row 0 as a
        # tie within 1e-12, while the exact minimum is row 1
        replays = []
        original = lp_module._ratio_row

        def spy(*args):
            replays.append(args[2])
            return original(*args)

        a = [[1.0, 1.0], [1.0 + 1e-13, 1.0]]
        single = solve_covering_lp(unit_lp(a))
        monkeypatch.setattr(lp_module, "_ratio_row", spy)
        (batched,) = solve_covering_batch([a, np.eye(3)])[:1]
        assert replays
        assert_bitwise_equal(batched, single)

    def test_iteration_cap_stalls_like_single_solves(self):
        a = np.array([[2.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
        outcomes = []
        for cap in range(8):
            try:
                single = solve_covering_lp(unit_lp(a), iteration_cap=cap)
            except RuntimeError as exc:
                assert str(exc) == "simplex stalled"
                with pytest.raises(RuntimeError, match="^simplex stalled$"):
                    solve_covering_batch([np.eye(2), a], iteration_cap=cap)
                outcomes.append("stalled")
                continue
            assert_bitwise_equal(solve_covering_batch([np.eye(2), a], iteration_cap=cap)[1], single)
            outcomes.append("solved")
        assert "stalled" in outcomes and "solved" in outcomes

    @staticmethod
    def short_and_long(rng):
        """Fifteen 1x1 LPs, done after one pivot, and a 9x9 one that takes many."""
        r = 9
        a = rng.random((r, r)) * (rng.random((r, r)) < 0.6)
        a[np.arange(r), np.arange(r)] += rng.random(r) + 0.1
        return [np.eye(1) * (k + 1) for k in range(15)] + [a]

    @staticmethod
    def spy_on_steps(monkeypatch):
        """Stack sizes of every lockstep pivot, in order."""
        sizes = []
        original = lp_module._step

        def spy(t, *args):
            sizes.append(len(t))
            return original(t, *args)

        monkeypatch.setattr(lp_module, "_step", spy)
        return sizes

    def test_compacted_stack_matches_single_solves(self, monkeypatch):
        matrices = self.short_and_long(np.random.default_rng(67))
        sizes = self.spy_on_steps(monkeypatch)
        solutions = solve_covering_batch(matrices)
        assert sizes[0] == len(matrices) and sizes[-1] == 1 and sizes.count(1) > 5
        for a, batched in zip(matrices, solutions):
            assert_bitwise_equal(batched, solve_covering_lp(unit_lp(a)))

    def test_compacted_instance_stalls_at_its_cap(self, monkeypatch):
        matrices = self.short_and_long(np.random.default_rng(67))
        with pytest.raises(RuntimeError, match="^simplex stalled$"):
            solve_covering_lp(unit_lp(matrices[-1]), iteration_cap=5)
        sizes = self.spy_on_steps(monkeypatch)
        with pytest.raises(RuntimeError, match="^simplex stalled$"):
            solve_covering_batch(matrices, iteration_cap=5)
        assert sizes == [len(matrices)] + [1] * 5

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
            solve_covering_batch(matrices)

    def test_stacks_holding_negative_zeros_match_single_solves(self, monkeypatch):
        # -0.0 passes as a nonnegative entry and sits in the tableaus; the
        # unmasked rank-1 update may turn one into 0.0, which must reach
        # neither x, y nor the value
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
        solutions = solve_covering_batch(matrices)
        assert min(negative_zeros) > 0
        assert len(values) == len(solutions) == len(matrices)
        for a, value, batched in zip(matrices, values, solutions):
            single = solve_covering_lp(unit_lp(a))
            assert_bitwise_equal(batched, single)
            assert np.float64(value).tobytes() == np.float64(single.value).tobytes()

    def test_stacks_of_mixed_sizes_keep_their_order(self):
        rng = np.random.default_rng(69)
        stacks = [np.eye(3)[None] * 2.0, rng.random((7, 1, 1)) + 0.5, np.zeros((0, 2, 2)), np.ones((4, 2, 2))]
        values = solve_covering_stacks(stacks)
        expected = [solve_covering_lp(unit_lp(a)).value for stack in stacks for a in stack]
        assert values.tolist() == expected

    @pytest.mark.parametrize("stack", [np.ones((2, 2, 3)), np.ones((2, 0, 0)), np.ones((2, 2))])
    def test_stacks_reject_shapes_outside_the_form(self, stack):
        with pytest.raises(ValueError, match="stack"):
            solve_covering_stacks([np.ones((1, 2, 2)), stack])

    @pytest.mark.parametrize("a", [[[1.0, 1.0]], [[0.0]], [[1.0, -1.0], [1.0, 1.0]], [[np.nan]], np.zeros((0, 0))])
    def test_rejects_matrices_outside_the_form(self, a):
        with pytest.raises(ValueError):
            solve_covering_batch([np.eye(2), np.asarray(a, dtype=float)])
