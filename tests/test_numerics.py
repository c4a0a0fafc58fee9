import math

import numpy as np
import pytest
from scipy import stats

from mistol.estimators import efron_morris, mlplus, pretest, qtilde, restricted
from mistol.models import _exp_unit_nodes
from mistol.numerics import (
    DomainError,
    NumericsError,
    PartitionedInfo,
    SingularBlockError,
    chisq_quantile,
    knot_panels,
    noncentral_chisq_cdf,
    partitioned_inverse,
    replication_rng,
    rows_that_hold,
    shifted_normal_nodes,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)


def erf_series(x: float) -> float:
    """Maclaurin series for erf, accurate to ~1e-15 for |x| <= 3."""
    total = term = x
    for n in range(1, 80):
        term *= -x * x / n
        total += term / (2 * n + 1)
    return 2.0 / math.sqrt(math.pi) * total


class TestStandardNormal:
    def test_cdf_matches_series_oracle(self):
        for x in np.arange(-3.0, 3.01, 0.25):
            oracle = 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))
            assert abs(std_normal_cdf(x) - oracle) < 1e-13

    def test_cdf_frozen_points(self):
        assert std_normal_cdf(1.645) == pytest.approx(0.95001509446087863, abs=1e-15)
        assert std_normal_cdf(0.502) == pytest.approx(0.69216623951047248, abs=1e-15)

    def test_pdf_basics(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
        z = np.array([-1.3, 1.3])
        assert std_normal_pdf(z)[0] == std_normal_pdf(z)[1]

    def test_quantile_roundtrip(self):
        for p in (1e-8, 0.001, 0.3, 0.5, 0.975, 1.0 - 1e-9):
            assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, rel=1e-10)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)


class TestChiSquare:
    def test_quantile_roundtrip(self):
        for df in (1, 2, 5, 10):
            for p in (0.05, 0.5, 0.95, 0.99):
                x = chisq_quantile(p, df)
                assert stats.chi2.cdf(x, df) == pytest.approx(p, abs=1e-12)

    def test_quantile_df1_squared_normal(self):
        assert chisq_quantile(0.95, 1) == pytest.approx(
            std_normal_quantile(0.975) ** 2, rel=1e-13
        )

    def test_noncentral_against_scipy(self):
        for x in (0.5, 2.0, 5.0, 10.0, 20.0):
            for df in (1, 2, 5):
                for ncp in (0.1, 1.0, 5.0, 25.0):
                    mine = noncentral_chisq_cdf(x, df, ncp)
                    ref = stats.ncx2.cdf(x, df, ncp)
                    assert mine == pytest.approx(ref, abs=1e-10), (x, df, ncp)

    def test_noncentral_zero_ncp_is_central(self):
        for x in (0.3, 2.0, 9.0):
            assert noncentral_chisq_cdf(x, 3, 0.0) == pytest.approx(
                stats.chi2.cdf(x, 3), abs=1e-12
            )

    def test_noncentral_monotone(self):
        xs = np.linspace(0.0, 30.0, 61)
        vals = [noncentral_chisq_cdf(x, 2, 4.0) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # larger noncentrality pushes mass right
        assert noncentral_chisq_cdf(5.0, 2, 1.0) > noncentral_chisq_cdf(5.0, 2, 8.0)

    def test_noncentral_domain(self):
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(-1.0, 2, 1.0)
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(1.0, 0, 1.0)
        with pytest.raises(DomainError):
            noncentral_chisq_cdf(1.0, 2, -0.5)


class TestShiftedNormalNodes:
    @staticmethod
    def expect(f, shift):
        z, w = shifted_normal_nodes(shift)
        return float(w @ f(z))

    def test_smooth_moments(self):
        for shift in np.arange(-5.0, 5.01, 1.0):
            assert self.expect(lambda z: np.ones_like(z), shift) == pytest.approx(1.0, abs=1e-9)
            assert self.expect(lambda z: z, shift) == pytest.approx(shift, abs=1e-9)
            assert self.expect(lambda z: z * z, shift) == pytest.approx(
                shift * shift + 1.0, abs=1e-9
            )
            assert self.expect(lambda z: z**4, shift) == pytest.approx(
                3.0 + 6.0 * shift**2 + shift**4, rel=1e-9
            )


class TestKnotPanels:
    @staticmethod
    def expect(f, shift, knots):
        # E f(Z), Z ~ N(shift, 1), on the knot-split panels over shift -/+ 8
        z, w = knot_panels(shift - 8.0, shift + 8.0, knots)
        return float((w * std_normal_pdf(z - shift)) @ f(z))

    def test_knotted_moments(self):
        # the knot-split Gauss-Legendre nodes must reproduce the normal moments
        for shift in (-1.5, 0.0, 2.0):
            got = self.expect(lambda z: z * z, shift, knots=(0.3,))
            assert got == pytest.approx(shift * shift + 1.0, abs=1e-8)

    def test_absolute_value_matches_closed_form(self):
        for shift in (0.0, 0.7, -1.9):
            got = self.expect(np.abs, shift, knots=(0.0,))
            closed = shift * (2.0 * std_normal_cdf(shift) - 1.0) + 2.0 * std_normal_pdf(shift)
            assert got == pytest.approx(closed, abs=1e-8)

    def test_panel_rules_keep_their_bits(self):
        """Each panel rule is checked against its panel loop written out here."""

        def pinned_hermite(shift):
            x, w = np.polynomial.hermite.hermgauss(200)
            return shift + math.sqrt(2.0) * x, w / math.sqrt(math.pi)

        def pinned_knotted(lo, hi, knots):
            edges = sorted({lo, hi, *(float(k) for k in knots if lo < float(k) < hi)})
            gx, gw = np.polynomial.legendre.leggauss(60)
            zs, ws = [], []
            for left, right in zip(edges[:-1], edges[1:]):
                bounds = np.linspace(left, right, max(1, math.ceil((right - left) / 2.0)) + 1)
                for a, b in zip(bounds[:-1], bounds[1:]):
                    mid, half = (a + b) / 2.0, (b - a) / 2.0
                    zs.append(mid + half * gx)
                    ws.append(half * gw)
            return np.concatenate(zs), np.concatenate(ws)

        shifts = (-8.5, -1.9, 0.0, 0.05, 0.502, 1.0, 1.645, 2.35, 5.0, 9.0)
        for shift in shifts:
            got, want = shifted_normal_nodes(shift), pinned_hermite(shift)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

        rules = (
            pretest(1.0), pretest(1.645), pretest(math.sqrt(2.0)), restricted(),
            efron_morris(), mlplus(), qtilde(0.5),
        )
        intervals = [(shift - 8.0, shift + 8.0) for shift in shifts]
        intervals += [(2.0 * k, 2.0 * k + 2.0) for k in range(-5, 5)]
        for knots in ((), *(rule.knots for rule in rules)):
            for lo, hi in intervals:
                got, want = knot_panels(lo, hi, knots), pinned_knotted(lo, hi, knots)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

        panels = (
            0.0, 2.0**-20, 2.0**-15, 2.0**-10, 2.0**-5, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0
        )
        gx, gw = np.polynomial.legendre.leggauss(48)
        nodes, weights = [], []
        for lo, hi in zip(panels[:-1], panels[1:]):
            mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
            x = mid + half * gx
            nodes.append(x)
            weights.append(half * gw * np.exp(-x))
        got = _exp_unit_nodes()
        assert np.array_equal(got[0], np.concatenate(nodes))
        assert np.array_equal(got[1], np.concatenate(weights))


def gauss_jordan_inverse(mat):
    """Textbook Gauss-Jordan elimination with partial pivoting."""
    k = mat.shape[0]
    aug = np.hstack([np.array(mat, dtype=float), np.eye(k)])
    for col in range(k):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(k):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, k:]


class TestPartitionedInverse:
    def test_random_spd_blocks_match_full_inverse(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            p = int(rng.integers(1, 6))
            q = int(rng.integers(1, 4))
            k = p + q
            root = rng.standard_normal((k, k))
            full = root @ root.T + k * np.eye(k)
            info = PartitionedInfo(full, p)
            inv = partitioned_inverse(info)
            oracle = gauss_jordan_inverse(full)
            assert np.allclose(inv.inv22, oracle[p:, p:], atol=1e-8)
            assert np.allclose(inv.j11_inv, gauss_jordan_inverse(full[:p, :p]), atol=1e-8)

    def test_singular_narrow_block(self):
        info = PartitionedInfo(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 2)
        with pytest.raises(SingularBlockError) as err:
            partitioned_inverse(info)
        assert err.value.block == "narrow"

    def test_singular_schur_complement(self):
        j11 = np.array([[2.0]])
        j12 = np.array([[1.0]])
        j22 = np.array([[0.5]])  # exactly j21 j11^{-1} j12
        with pytest.raises(SingularBlockError) as err:
            partitioned_inverse(PartitionedInfo(np.block([[j11, j12], [j12.T, j22]]), 1))
        assert err.value.block == "schur"

    def test_stack_raises_a_failing_rows_error_and_matches_single_calls(self):
        rng = np.random.default_rng(77)
        fulls = []
        for _ in range(5):
            root = rng.standard_normal((3, 3))
            fulls.append(root @ root.T + 3.0 * np.eye(3))
        fulls[1][:2, :2] = [[1.0, 1.0], [1.0, 1.0]]  # singular narrow block
        fulls[3][2, 2] = fulls[3][2, :2] @ np.linalg.solve(fulls[3][:2, :2], fulls[3][:2, 2])

        def inverse(rows):
            stack = np.array([fulls[r] for r in rows])
            return partitioned_inverse(PartitionedInfo(stack, 2))

        # the whole stack holds the singular-narrow row; without it, the
        # singular-Schur row fails; each raises its own single call's error
        for rows, failing, block in (([0, 1, 2, 3, 4], 1, "narrow"), ([0, 2, 3, 4], 3, "schur")):
            with pytest.raises(SingularBlockError) as single:
                partitioned_inverse(PartitionedInfo(fulls[failing], 2))
            with pytest.raises(SingularBlockError) as stacked:
                inverse(rows)
            assert single.value.block == stacked.value.block == block
            assert str(stacked.value) == str(single.value)
        held = [0, 2, 4]
        stacked = inverse(held)
        for i, r in enumerate(held):
            single = partitioned_inverse(PartitionedInfo(fulls[r], 2))
            for block in ("inv22", "j11_inv"):
                assert np.array_equal(getattr(stacked, block)[i], getattr(single, block))

    def test_symmetry_enforced(self):
        full = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            PartitionedInfo(full, 1)

    def test_matrix_roundtrip(self):
        full = np.array([[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 4.0]])
        info = PartitionedInfo(full, 2)
        assert info.p == 2 and info.q == 1
        assert np.allclose(info.matrix, full)


class TestPartitionedInfo:
    def test_blocks_are_views_of_the_symmetrized_matrix(self):
        rng = np.random.default_rng(5)
        root = rng.standard_normal((3, 4, 4))
        # symmetric to about 1e-16, not exactly
        stack = root @ np.swapaxes(root, -1, -2) + 1e-16 * rng.standard_normal((3, 4, 4))
        for m, p in ((stack[0], 1), (stack[0], 3), (stack, 2)):
            info = PartitionedInfo(m, p)
            mt = np.swapaxes(m, -1, -2)
            assert np.array_equal(info.matrix, 0.5 * (m + mt))
            assert info.q == 4 - p
            for block, rows, cols in (
                (info.j11, slice(None, p), slice(None, p)),
                (info.j12, slice(None, p), slice(p, None)),
                (info.j22, slice(p, None), slice(p, None)),
            ):
                assert np.shares_memory(block, info.matrix)
                assert np.array_equal(block, info.matrix[..., rows, cols])

    @pytest.mark.parametrize(
        "matrix, p, message",
        [
            (np.ones((2, 3)), 1, "must be square"),
            # 1e-7 off symmetric is small against the 1e6 entry, not against 0.5
            ([[1.0, 0.5, 0.0], [0.5 + 1e-7, 1.0, 0.0], [0.0, 0.0, 1e6]], 2, "not symmetric"),
            (np.eye(3), 0, "must split"),
            (np.eye(3), 3, "must split"),
        ],
        ids=["not-square", "not-symmetric", "p-0", "p-k"],
    )
    def test_invalid_matrix_raises(self, matrix, p, message):
        with pytest.raises(ValueError, match=message):
            PartitionedInfo(matrix, p)


class TestReplicationRng:
    def test_reproducible_per_replication(self):
        a = replication_rng(99, 3).standard_normal(5)
        b = replication_rng(99, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = replication_rng(99, 3).standard_normal(5)
        b = replication_rng(99, 4).standard_normal(5)
        c = replication_rng(98, 3).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            replication_rng(-1, 0)
        with pytest.raises(ValueError):
            replication_rng(0, -2)



class TestRowsThatHold:
    def test_every_row_holds_in_one_call(self):
        calls = []

        def evaluate(rows):
            calls.append(rows)
            return 2.0 * rows

        values, kept = rows_that_hold(evaluate, 4)
        assert len(calls) == 1
        assert np.array_equal(kept, np.arange(4))
        assert np.array_equal(values, [0.0, 2.0, 4.0, 6.0])

    def test_a_row_that_fails_alone_is_listed_with_its_message(self):
        data = np.array([[1.0, 2.0], [4.0, 1.0], [-1.0, 3.0], [9.0, 5.0]])

        def evaluate(rows):
            block = data[rows]
            if np.any(block < 0.0):
                raise DomainError(f"rows {rows.tolist()} hold a negative value")
            return np.sqrt(block) @ block.T  # couples the rows

        values, kept = rows_that_hold(evaluate, 4)
        assert np.array_equal(kept, [0, 1, 3])
        assert np.array_equal(values, evaluate(np.array([0, 1, 3])))

    def test_an_empty_set_of_rows_is_never_evaluated(self):
        def fails(rows):
            if not rows.size:
                raise AssertionError("evaluated on no rows")
            raise NumericsError("every row fails")

        for count in (0, 3):
            values, kept = rows_that_hold(fails, count)
            assert values is None and kept.size == 0
