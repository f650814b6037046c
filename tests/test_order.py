import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from submatch import autodiff as ad
from submatch import selftest
from submatch.order import (
    MarginConfig,
    calibrate_threshold,
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


class TestViolation:
    def test_reflexive_zero(self):
        z = np.array([0.3, 1.7, 2.0])
        assert violation(z, z) == 0.0

    def test_dominated_zero(self):
        assert violation([1.0, 2.0], [2.0, 3.0]) == 0.0

    def test_partial(self):
        assert violation([3.0, 1.0], [2.0, 3.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            violation([1.0], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(nonneg_vec, nonneg_vec)
    def test_zero_iff_dominated(self, a, b):
        assert (violation(a, b) == 0.0) == bool(np.all(a <= b))

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(0, 5, size=(4, 6))
        t = rng.uniform(0, 5, size=(7, 6))
        m = violation_matrix(q, t)
        assert m.shape == (7, 4)
        for i in range(7):
            for j in range(4):
                assert np.isclose(m[i, j], violation(q[j], t[i]))


def _decide_pair(z_q, z_u, cfg: MarginConfig) -> bool:
    """The pair rule inside query.decide, applied to a one-entry matrix."""
    return decide(AlignmentMatrix(values=[[violation(z_q, z_u)]]), cfg).score == 1.0


class TestPrediction:
    def test_dominated_always_true(self):
        cfg = MarginConfig(margin=1.0, threshold=1e-9)
        assert _decide_pair([1.0, 1.0], [1.0, 2.0], cfg)

    def test_boundary_is_false(self):
        cfg = MarginConfig(margin=2.0, threshold=1.0)
        # violation of exactly threshold fails the strict inequality
        assert violation([3.0, 1.0], [2.0, 3.0]) == 1.0
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
        assert violation(m, a) == 0.0
        assert violation(m, b) == 0.0


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
            return violation(np.asarray(z_q)[:-1], np.asarray(z_u)[:-1])

        monkeypatch.setattr(selftest, "violation", blind)
        ok, detail = selftest.geometry_suite(10_000, seed=2024)
        assert not ok, detail


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
        e = violation([1.0, 0.0], [0.5, 1.0])
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
        energies = ad.squared_l2_of_positive_part(
            ad.Tape(record=False), ad.Tensor(zq), ad.Tensor(zu)).value
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
