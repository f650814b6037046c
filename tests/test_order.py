import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ReadOnlyGradStore
from submatch import autodiff as ad
from submatch import order, selftest
from submatch.order import (
    MarginConfig,
    calibrate_threshold,
    energy,
    intersection,
    margin_loss,
    violation,
    violation_matrix,
)
from submatch.query import AlignmentMatrix, decide

# values below ~1e-154 square-underflow to zero, which would break the strict
# "zero violation iff dominated" reading; embeddings live at sane magnitudes
nonneg_vec = arrays(
    np.float64,
    8,
    elements=st.floats(0, 100, allow_nan=False).map(lambda x: 0.0 if x < 1e-9 else x),
)


class TestConfig:
    def test_defaults_valid(self):
        MarginConfig()

    @pytest.mark.parametrize(
        "margin,threshold",
        [(0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (0.5, 0.8), (np.nan, 0.5), (1.0, np.nan), (np.inf, 0.5)],
    )
    def test_invalid_rejected(self, margin, threshold):
        with pytest.raises(ValueError):
            MarginConfig(margin=margin, threshold=threshold)


def pair_violation(z_q, z_u) -> float:
    """E of one pair of vectors, as violation's one-row result."""
    return float(violation([z_q], [z_u])[0])


def run_energy(z_q, z_u) -> np.ndarray:
    return energy(ad.Tape(record=False), ad.Tensor(z_q), ad.Tensor(z_u)).value


class TestViolation:
    def test_reflexive_zero(self):
        z = np.array([0.3, 1.7, 2.0])
        assert pair_violation(z, z) == 0.0

    def test_dominated_zero(self):
        assert pair_violation([1.0, 2.0], [2.0, 3.0]) == 0.0

    def test_partial(self):
        assert pair_violation([3.0, 1.0], [2.0, 3.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            violation([[1.0]], [[1.0, 2.0]])
        # rows of two 2-D arrays only
        with pytest.raises(ValueError):
            violation([1.0, 2.0], [2.0, 3.0])

    @settings(max_examples=100, deadline=None)
    @given(nonneg_vec, nonneg_vec)
    def test_zero_iff_dominated(self, a, b):
        assert (pair_violation(a, b) == 0.0) == bool(np.all(a <= b))

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(0, 5, size=(4, 6))
        t = rng.uniform(0, 5, size=(7, 6))
        m = violation_matrix(q, t)
        assert m.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                assert m[i, j] == pair_violation(q[j], t[i])


def _rows_of_one_scale(rng, n: int, width: int) -> np.ndarray:
    """n rows of one random magnitude between 1e-150 and 1e150, signed, with
    about a tenth of the entries +0.0 and a tenth -0.0."""
    rows = 10.0 ** rng.uniform(-150, 150) * rng.uniform(-1, 1, size=(n, width))
    zeros = rng.random((n, width))
    rows[zeros < 0.1] = 0.0
    rows[zeros > 0.9] = -0.0
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_every_energy_site_has_the_bits_of_np_dot(seed, monkeypatch):
    """violation's rows, violation_matrix's entries at any block size and the
    taped energy all reduce E as np.dot of the positive part with itself."""
    rng = np.random.default_rng(seed)
    for width in [1, 64, *rng.integers(1, 65, size=6)]:
        q = _rows_of_one_scale(rng, 9, width)
        t = _rows_of_one_scale(rng, 9, width)
        t[::3] *= 10.0 ** rng.uniform(-3, 3)  # some pairs of unequal scale
        pos = np.maximum(0.0, q[None, :, :] - t[:, None, :])
        want = np.array([[np.dot(d, d) for d in row] for row in pos])
        for cells in (1, 1 << 30):
            monkeypatch.setattr(order, "BLOCK_CELLS", cells)
            assert violation_matrix(q, t).tobytes() == want.tobytes()
        diagonal = np.diagonal(want).copy()
        assert violation(q, t).tobytes() == diagonal.tobytes()
        assert run_energy(q, t).tobytes() == diagonal.tobytes()


class TestEnergy:
    def test_dominated_pair_has_zero_energy(self):
        assert np.array_equal(run_energy([[1.0, 2.0]], [[2.0, 3.0]]), [0.0])

    def test_partial_violation(self):
        assert np.array_equal(run_energy([[3.0, 1.0]], [[2.0, 3.0]]), [1.0])

    def test_rowwise_energy(self):
        a = [[3.0, 1.0], [1.0, 2.0]]
        b = [[2.0, 3.0], [2.0, 3.0]]
        assert np.array_equal(run_energy(a, b), [1.0, 0.0])

    def test_shape_mismatch_rejected(self):
        # the energy takes 2-D tensors only
        with pytest.raises(ValueError):
            run_energy([1.0], [2.0])

    def test_dominated_point_has_zero_gradient(self):
        tape = ad.Tape()
        a = ad.Tensor([[1.0, 2.0]], name="a")
        b = ad.Tensor([[2.0, 3.0]], name="b")
        loss = ad.sum_all(tape, energy(tape, a, b))
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["a"], [[0.0, 0.0]])
        assert np.array_equal(grads["b"], [[0.0, 0.0]])

    def test_passes_grad_check_writing_into_no_gradient(self, monkeypatch):
        monkeypatch.setattr(ad, "_GradStore", ReadOnlyGradStore)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = {"a2": rng.normal(size=(3, 4)), "c2": rng.normal(size=(3, 4))}
            report = ad.grad_check(
                lambda p, t: ad.sum_all(t, energy(t, p["a2"], p["c2"])), params, h=1e-5, tol=1e-4)
            worst = max(worst, report.worst_rel_err)
        assert worst < 1e-4


def _decide_pair(z_q, z_u, cfg: MarginConfig) -> bool:
    """The pair rule inside query.decide, applied to a one-entry matrix."""
    return decide(AlignmentMatrix(values=[[pair_violation(z_q, z_u)]]), cfg).score == 1.0


class TestPrediction:
    def test_dominated_always_true(self):
        cfg = MarginConfig(margin=1.0, threshold=1e-9)
        assert _decide_pair([1.0, 1.0], [1.0, 2.0], cfg)

    def test_boundary_is_false(self):
        cfg = MarginConfig(margin=2.0, threshold=1.0)
        # violation of exactly threshold fails the strict inequality
        assert pair_violation([3.0, 1.0], [2.0, 3.0]) == 1.0
        assert not _decide_pair([3.0, 1.0], [2.0, 3.0], cfg)

    def test_above_threshold_false(self):
        cfg = MarginConfig(margin=1.0, threshold=0.1)
        assert not _decide_pair([3.0, 1.0], [2.0, 3.0], cfg)


class TestIntersection:
    def test_idempotent(self):
        z = np.array([1.0, 3.0])
        assert np.array_equal(intersection(z, z), z)

    def test_elementwise_min(self):
        assert np.array_equal(intersection([1.0, 3.0], [2.0, 2.0]), [1.0, 2.0])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            intersection([-1.0, 0.0], [0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(nonneg_vec, nonneg_vec)
    def test_dominated_by_both(self, a, b):
        m = intersection(a, b)
        assert pair_violation(m, a) == 0.0
        assert pair_violation(m, b) == 0.0


class TestGeometryAxioms:
    # the acceptance gate runs the same suite at 10,000 triples per axiom

    @pytest.fixture(scope="class")
    def spot(self):
        return selftest.geometry_suite(1_000)

    def test_transitivity_on_chains(self, spot):
        _, detail = spot
        assert "transitivity=0," in detail, detail

    def test_antisymmetry_contrapositive(self, spot):
        _, detail = spot
        assert "anti-symmetry=0," in detail, detail

    def test_spot_suite(self, spot):
        ok, detail = spot
        assert ok, detail

    def test_suite_catches_violation_blind_to_last_coordinate(self, monkeypatch):
        def blind(z_q, z_u):
            return violation(np.asarray(z_q)[:, :-1], np.asarray(z_u)[:, :-1])

        monkeypatch.setattr(selftest, "violation", blind)
        ok, detail = selftest.geometry_suite(10_000, seed=2024)
        assert not ok, detail

    def test_suite_counts_every_failing_triple(self, monkeypatch):
        # each count is over all triples at once: one stuck at 0 fails here
        n = 500
        monkeypatch.setattr(selftest, "violation", lambda z_q, z_u: np.zeros(len(z_q)))
        ok, detail = selftest.geometry_suite(n)
        assert not ok and f"anti-symmetry={n}," in detail, detail
        monkeypatch.setattr(selftest, "violation", lambda z_q, z_u: violation(z_q, z_u) + 1.0)
        ok, detail = selftest.geometry_suite(n)
        assert f"transitivity={n}," in detail, detail
        assert f"intersection-glb={n} " in detail, detail


def loss_of(z_q, z_u, labels, cfg):
    """margin_loss of the pairs (z_q[i], z_u[i]), without a recording tape."""
    loss = margin_loss(ad.Tape(record=False), ad.Tensor(z_q), ad.Tensor(z_u),
                       np.array(labels), cfg)
    return float(loss.value)


class TestMarginLoss:
    # 1-wide pairs (r, 0) have the energy r * r
    def test_satisfied_positive_zero(self):
        cfg = MarginConfig()
        assert loss_of([[0.0]], [[0.0]], [1], cfg) == 0.0

    def test_satisfied_negative_zero(self):
        cfg = MarginConfig()
        assert loss_of([[1.0]], [[0.0]], [0], cfg) == 0.0
        assert loss_of([[np.sqrt(2.5)]], [[0.0]], [0], cfg) == 0.0

    def test_forced_arithmetic(self):
        # margin 1, negative pair z_q=[1,0], z_u=[0.5,1]: E = 0.25, loss 0.75
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        e = pair_violation([1.0, 0.0], [0.5, 1.0])
        assert e == 0.25
        assert loss_of([[1.0, 0.0]], [[0.5, 1.0]], [0], cfg) == 0.75

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            margin_loss(ad.Tape(), ad.Tensor(np.zeros((0, 3))), ad.Tensor(np.zeros((0, 3))), np.array([]), MarginConfig())

    def test_gradient_vanishes_when_satisfied(self):
        cfg = MarginConfig()
        tape = ad.Tape()
        zq = ad.Tensor([[1.0, 1.0], [5.0, 5.0]], name="zq")
        zu = ad.Tensor([[2.0, 2.0], [1.0, 1.0]], name="zu")  # pos dominated; neg E=32>=1
        loss = margin_loss(tape, zq, zu, np.array([1, 0]), cfg)
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["zq"], np.zeros((2, 2)))
        assert np.array_equal(grads["zu"], np.zeros((2, 2)))

    def test_gradient_flows_when_violated(self):
        cfg = MarginConfig()
        tape = ad.Tape()
        zq = ad.Tensor([[2.0, 2.0]], name="zq")
        zu = ad.Tensor([[1.0, 1.0]], name="zu")  # positive with E=2
        loss = margin_loss(tape, zq, zu, np.array([1]), cfg)
        grads = ad.backward(tape, loss)
        assert np.all(grads["zq"] > 0)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, (4, 6), elements=st.floats(0, 10)),
        arrays(np.float64, (4, 6), elements=st.floats(0, 10)),
    )
    def test_loss_nonnegative(self, zq, zu):
        labels = np.array([1, 1, 0, 0])
        # the energies margin_loss itself reads
        energies = run_energy(zq, zu)
        cfg = MarginConfig()
        loss = loss_of(zq, zu, labels, cfg)
        assert loss >= 0.0
        satisfied = np.all(energies[:2] == 0) and np.all(energies[2:] >= cfg.margin)
        assert (loss == 0.0) == bool(satisfied)


class TestThresholdCalibration:
    def test_separable_scores(self):
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        violations = np.array([0.01, 0.02, 0.03, 0.8, 0.9, 0.95])
        labels = np.array([1, 1, 1, 0, 0, 0])
        t = calibrate_threshold(violations, labels, cfg)
        assert 0.03 < t < 0.8
        pred = violations < t
        assert np.array_equal(pred, labels.astype(bool))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.array([0.1, 0.2]), np.array([1, 1]), MarginConfig())

    def test_result_below_margin(self):
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        violations = np.array([0.1, 5.0, 9.0, 12.0])
        labels = np.array([1, 1, 0, 0])
        t = calibrate_threshold(violations, labels, cfg)
        assert 0.0 < t < cfg.margin

    def test_violations_all_at_or_above_margin_fall_back_below_it(self):
        # the swept range [2, 4], clipped at the margin, lies above it
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        t = calibrate_threshold(np.array([2.0, 3.0, 2.5, 4.0]), np.array([1, 0, 1, 0]), cfg)
        assert t == cfg.margin / 2
        MarginConfig(margin=cfg.margin, threshold=t)
