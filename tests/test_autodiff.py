import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import ReadOnlyGradStore, pairs_of
from submatch import autodiff as ad


def run(op, *tensors, **kw):
    return op(ad.Tape(record=False), *tensors, **kw).value


# magnitudes where the order of additions shows in the bits (1e16 + 1 == 1e16)
_scatter_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.5, 3.25e-7])


class TestForward:
    def test_leaky_relu_values(self):
        out = run(ad.leaky_relu, ad.Tensor([-1.0, 2.0]), slope=0.01)
        assert np.allclose(out, [-0.01, 2.0])

    def test_relu_values(self):
        assert np.array_equal(run(ad.relu, ad.Tensor([-3.0, 0.0, 5.0])), [0.0, 0.0, 5.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run(ad.matmul, ad.Tensor([[1.0]]), ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        with pytest.raises(ValueError):
            run(ad.add, ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))
        # concat takes 2-D tensors only
        with pytest.raises(ValueError):
            run(ad.concat, ad.Tensor([1.0]), ad.Tensor([2.0]))

    def test_row_sum_aggregate(self):
        h = ad.Tensor([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        out = run(ad.row_sum_aggregate, h, pairs_of([[1, 2], [], [0]]))
        assert np.array_equal(out, [[2.0, 3.0], [0.0, 0.0], [1.0, 0.0]])



class TestBackward:
    def test_square_derivative(self):
        def f(params, tape):
            x = params["x"]
            return ad.sum_all(tape, ad.mul(tape, x, x))

        tape = ad.Tape()
        x = ad.Tensor([3.0], name="x")
        loss = f({"x": x}, tape)
        grads = ad.backward(tape, loss)
        assert np.allclose(grads["x"], [6.0])

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = ad.Tensor([1.0, 2.0], name="x")
        y = ad.relu(tape, x)
        with pytest.raises(ValueError):
            ad.backward(tape, y)

    def test_double_backward_rejected(self):
        tape = ad.Tape()
        x = ad.Tensor([2.0], name="x")
        loss = ad.sum_all(tape, ad.mul(tape, x, x))
        ad.backward(tape, loss)
        with pytest.raises(RuntimeError):
            ad.backward(tape, loss)

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 4))
        params = {
            "w1": rng.normal(size=(4, 5)),
            "w2": rng.normal(size=(5, 5)),
            "w3": rng.normal(size=(5, 2)),
            "b1": rng.normal(size=5),
        }

        def net(p, tape):
            h = ad.add(tape, ad.matmul(tape, ad.Tensor(x), p["w1"]), p["b1"])
            h = ad.leaky_relu(tape, h, 0.01)
            h = ad.leaky_relu(tape, ad.matmul(tape, h, p["w2"]), 0.01)
            h = ad.matmul(tape, h, p["w3"])
            return ad.sum_all(tape, ad.mul(tape, h, h))

        report = ad.grad_check(net, params, h=1e-5, tol=1e-4)
        assert report.passed, report


OPS_FOR_GRADCHECK = [
    ("matmul", lambda p, t: ad.sum_all(t, ad.matmul(t, p["a2"], p["b2"]))),
    ("add", lambda p, t: ad.sum_all(t, ad.add(t, p["a"], p["b"]))),
    ("bias_add", lambda p, t: ad.sum_all(t, ad.add(t, p["a2"], p["bias"]))),
    ("scale", lambda p, t: ad.sum_all(t, ad.scale(t, p["a"], 2.5))),
    ("mul", lambda p, t: ad.sum_all(t, ad.mul(t, p["a"], p["b"]))),
    ("leaky_relu", lambda p, t: ad.sum_all(t, ad.leaky_relu(t, p["a"], 0.2))),
    ("relu", lambda p, t: ad.sum_all(t, ad.relu(t, p["a"]))),
    ("concat", lambda p, t: ad.sum_all(t, ad.mul(t, c := ad.concat(t, p["a2"], p["c2"]), c))),
    (
        "row_sum",
        lambda p, t: ad.sum_all(
            t, ad.mul(t, s := ad.row_sum_aggregate(t, p["a2"], pairs_of([[1, 2], [0], [0, 1]])), s)
        ),
    ),
    ("take_rows", lambda p, t: ad.sum_all(t, ad.mul(t, g := ad.take_rows(t, p["a2"], [0, 2, 2]), g))),
]


@pytest.mark.parametrize("name,fn", OPS_FOR_GRADCHECK, ids=[n for n, _ in OPS_FOR_GRADCHECK])
def test_every_op_passes_grad_check(name, fn):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = {
            "a": rng.normal(size=4),
            "b": rng.normal(size=4),
            "a2": rng.normal(size=(3, 4)),
            "b2": rng.normal(size=(4, 2)),
            "bias": rng.normal(size=4),
            "c2": rng.normal(size=(3, 4)),
        }
        # keep clear of the relu/max kinks so central differences are valid
        for key in ("a", "b"):
            vals = params[key]
            vals[np.abs(vals) < 1e-3] += 2e-3
            diff = np.abs(vals - params["b" if key == "a" else "a"])
        report = ad.grad_check(fn, params, h=1e-5, tol=1e-4)
        worst = max(worst, report.worst_rel_err)
    assert worst < 1e-4


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, (5, 3), elements=st.floats(0, 10)),
        st.integers(0, 4),
        st.integers(0, 2),
        st.floats(0.1, 5.0),
    )
    def test_row_sum_monotone_for_nonnegative_inputs(self, h, i, j, bump):
        groups = pairs_of([[1, 2], [0, 3, 4], [], [2], [0, 1, 2, 3]])
        base = run(ad.row_sum_aggregate, ad.Tensor(h), groups)
        bumped = h.copy()
        bumped[i, j] += bump
        out = run(ad.row_sum_aggregate, ad.Tensor(bumped), groups)
        assert np.all(out >= base - 1e-12)


class TestValueSortedSum:
    @settings(max_examples=80, deadline=None)
    @given(
        arrays(
            np.float64, st.tuples(st.integers(1, 9), st.integers(1, 4)),
            elements=st.floats(-1e6, 1e6, allow_subnormal=False),
        ),
        st.data(),
    )
    def test_bits_invariant_under_neighbor_shuffle(self, h, data):
        n = h.shape[0]
        lists = [
            data.draw(st.lists(st.integers(0, n - 1), max_size=12)) for _ in range(n)
        ]
        groups = pairs_of(lists)
        out = run(ad.row_sum_aggregate, ad.Tensor(h), groups, value_sorted=True)
        shuffled = pairs_of([data.draw(st.permutations(g)) for g in lists])
        again = run(ad.row_sum_aggregate, ad.Tensor(h), shuffled, value_sorted=True)
        assert np.array_equal(out, again)
        # the pairs in any order give the same bits
        src, dst = shuffled
        order = np.asarray(data.draw(st.permutations(range(len(src)))), dtype=np.intp)
        pairs = run(ad.row_sum_aggregate, ad.Tensor(h), ad.IndexPairs(src[order], dst[order]),
                    value_sorted=True)
        assert np.array_equal(out, pairs)
        # a column's sums depend on that column alone
        for c in range(h.shape[1]):
            column = run(ad.row_sum_aggregate, ad.Tensor(h[:, c:c + 1]), groups,
                         value_sorted=True)
            assert np.array_equal(out[:, c:c + 1], column)
        plain = run(ad.row_sum_aggregate, ad.Tensor(h), groups)
        assert np.allclose(out, plain, rtol=1e-9, atol=1e-3)

    def test_adds_each_column_in_ascending_order(self):
        # 1e16 + 1 rounds back to 1e16, so the order of additions shows in the bits
        h = ad.Tensor([[1e16, 1.0], [1.0, 1e16], [1.0, 1.0]])
        out = run(ad.row_sum_aggregate, h, pairs_of([[0, 1, 2]]), value_sorted=True)
        assert np.array_equal(out[:1], [[(1.0 + 1.0) + 1e16, (1.0 + 1.0) + 1e16]])
        assert (1.0 + 1.0) + 1e16 != (1e16 + 1.0) + 1.0

    def test_gradient_matches_plain_sum(self):
        rng = np.random.default_rng(0)
        groups = pairs_of([[1, 2], [0], [], [0, 1, 2]])
        h_val = rng.normal(size=(4, 3))
        grads = []
        for value_sorted in (False, True):
            tape = ad.Tape()
            h = ad.Tensor(h_val, name="h")
            out = ad.row_sum_aggregate(tape, h, groups, value_sorted=value_sorted)
            grads.append(ad.backward(tape, ad.sum_all(tape, out))["h"])
        assert np.array_equal(grads[0], grads[1])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bits_invariant_under_shuffle_with_signed_zeros(self, data):
        # numpy's sort may hand back another mix of -0.0 and +0.0 than it was
        # given, and a sum of zeros is -0.0 only if every addend is
        sizes = data.draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))
        n = sum(sizes)
        zeros = data.draw(arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0])))
        mixed = data.draw(arrays(np.float64, n, elements=_scatter_values))
        h = ad.Tensor(np.stack([zeros, mixed], axis=1))
        lists = [list(g) for g in np.split(np.arange(n), np.cumsum(sizes)[:-1])]
        out = run(ad.row_sum_aggregate, h, pairs_of(lists), value_sorted=True)
        assert not np.signbit(out[:, 0]).any()
        for _ in range(3):
            shuffled = pairs_of([data.draw(st.permutations(g)) for g in lists])
            again = run(ad.row_sum_aggregate, h, shuffled, value_sorted=True)
            assert again.tobytes() == out.tobytes()


def sorted_sums_reference(values, src, dst, n_out):
    """The canonical sum as first written: gather each size class into a
    (groups, size, columns) array, np.sort it along the size axis and take
    the last np.add.accumulate entry."""
    out = np.zeros((n_out, values.shape[1]), dtype=np.float64)
    src = src[np.argsort(dst, kind="stable")]
    counts = np.bincount(dst, minlength=n_out)
    starts = np.cumsum(counts) - counts
    for size in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == size)
        cells = np.sort(values[src[starts[rows, None] + np.arange(size)]], axis=1)
        out[rows] = np.add.accumulate(cells, axis=1)[:, -1]
    return out


def assert_matches_reference(values, src, dst, n_out):
    got = ad.RankPlan(n_out, dst, src).sorted_sum(values)
    want = sorted_sums_reference(values, src, dst, n_out) + 0.0  # zeros come out +0.0
    assert got.shape == want.shape and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


class TestSortedSumsAgainstReference:
    MAX_SIZE = 40

    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "ungrouped"])
    @pytest.mark.parametrize("width", [1, 5], ids=["one-column", "five-columns"])
    def test_every_group_size(self, grouped, width):
        assert ad.NETWORK_MAX_SIZE < self.MAX_SIZE
        rng = np.random.default_rng(31)
        counts = np.repeat(np.arange(self.MAX_SIZE + 1), 3)  # three groups of each size
        rng.shuffle(counts)
        dst = np.repeat(np.arange(len(counts)), counts)
        src = rng.integers(0, 60, size=len(dst))
        # ties, signed zeros and magnitudes where the order of additions shows
        values = rng.choice([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.5, 3.25e-7],
                            size=(60, width))
        values[::3] = rng.normal(size=values[::3].shape)
        if not grouped:
            order = rng.permutation(len(dst))
            src, dst = src[order], dst[order]
        assert_matches_reference(values, src, dst, len(counts))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_groups(self, data):
        n_out = data.draw(st.integers(1, 6))
        n_in = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(0, 60))
        dst = np.array(data.draw(st.lists(st.integers(0, n_out - 1), min_size=m, max_size=m)),
                       dtype=np.intp)
        src = np.array(data.draw(st.lists(st.integers(0, n_in - 1), min_size=m, max_size=m)),
                       dtype=np.intp)
        if data.draw(st.booleans()):
            order = np.argsort(dst, kind="stable")
            src, dst = src[order], dst[order]
        width = data.draw(st.sampled_from([1, 3]))
        values = data.draw(arrays(np.float64, (n_in, width), elements=_scatter_values
                                  | st.floats(-1e6, 1e6, allow_subnormal=False)))
        assert_matches_reference(values, src, dst, n_out)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_only_zeroes_the_rows_outside_the_mask(self, data):
        n_out = data.draw(st.integers(1, 8))
        n_in = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(0, 90))  # some rows above NETWORK_MAX_SIZE addends
        dst = np.array(data.draw(st.lists(st.integers(0, n_out - 1), min_size=m, max_size=m)),
                       dtype=np.intp)
        src = np.array(data.draw(st.lists(st.integers(0, n_in - 1), min_size=m, max_size=m)),
                       dtype=np.intp)
        width = data.draw(st.sampled_from([1, 3]))
        values = data.draw(arrays(np.float64, (n_in, width), elements=_scatter_values
                                  | st.floats(-1e6, 1e6, allow_subnormal=False)))
        only = data.draw(st.sampled_from([
            np.zeros(n_out, dtype=bool), np.ones(n_out, dtype=bool),
            data.draw(arrays(np.bool_, n_out)),
        ]))
        plan = ad.RankPlan(n_out, dst, src)
        want = np.where(only[:, None], plan.sorted_sum(values), 0.0)
        assert plan.sorted_sum(values, only=only).tobytes() == want.tobytes()


@pytest.mark.parametrize("size", sorted(ad.NETWORKS))
def test_network_sorts_every_zero_one_input(size):
    # a comparator network sorts every input if it sorts every 0/1 input
    network = ad.NETWORKS[size]
    assert len(network) == {3: 3, 4: 5, 5: 9, 6: 12, 7: 16, 8: 19}[size]
    assert all(0 <= i < j < size for i, j in network)
    cells = list((np.arange(2 ** size) >> np.arange(size)[:, None]) & 1)
    for i, j in network:
        cells[i], cells[j] = np.minimum(cells[i], cells[j]), np.maximum(cells[i], cells[j])
    assert np.all(np.diff(np.stack(cells), axis=0) >= 0)


def add_at_reference(n_out, idx, rows):
    out = np.zeros((n_out,) + rows.shape[1:])
    np.add.at(out, idx, rows)
    return out


class _AddAtPlan:
    """RankPlan's contract computed by np.add.at from the pairs as given;
    sums counts the calls."""

    sums = 0

    def __init__(self, n_out, idx, src):
        self.n_out, self.idx, self.src = n_out, idx, src

    def sum(self, values):
        _AddAtPlan.sums += 1
        return add_at_reference(self.n_out, self.idx, values[self.src])


class TestScatterRows:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bits_equal_add_at(self, data):
        n_out = data.draw(st.integers(1, 5))
        n_in = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(0, 14))
        tail = data.draw(st.sampled_from([(), (1,), (3,)]))
        idx = np.array(data.draw(st.lists(st.integers(0, n_out - 1), min_size=m, max_size=m)),
                       dtype=np.intp)
        src = np.array(data.draw(st.lists(st.integers(0, n_in - 1), min_size=m, max_size=m)),
                       dtype=np.intp)
        values = data.draw(arrays(np.float64, (n_in,) + tail, elements=_scatter_values))
        got = ad.RankPlan(n_out, idx, src).sum(values)
        want = add_at_reference(n_out, idx, values[src])
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bits, the sign of zero included

    def test_order_and_signed_zero(self):
        idx = np.array([0, 0, 0, 1])
        rows = np.array([1e16, 1.0, 1.0, -0.0])
        got = ad.RankPlan(2, idx, np.arange(4)).sum(rows)
        assert got[0] == 1e16 and got.tobytes() == add_at_reference(2, idx, rows).tobytes()
        assert not np.signbit(got[1])

    def test_empty(self):
        empty = np.empty(0, dtype=np.intp)
        got = ad.RankPlan(3, empty, empty).sum(np.empty((0, 2)))
        assert got.dtype == np.float64 and np.array_equal(got, np.zeros((3, 2)))

    def test_one_plan_serves_every_width(self):
        # the desk encoder's layer widths, through one pair's two plans
        rng = np.random.default_rng(4)
        src, dst = rng.integers(0, 30, size=120), np.sort(rng.integers(0, 30, size=120))
        pairs = ad.IndexPairs(src, dst)
        for into_src, (idx, gather) in [(False, (dst, src)), (True, (src, dst))]:
            plan = pairs.plan(30, into_src)
            for width in (4, 36, 68, 100):
                values = rng.choice([1e16, -1e16, 1.0, -0.0, 0.5, 3.25e-7], size=(30, width))
                got = plan.sum(values)
                assert got.tobytes() == add_at_reference(30, idx, values[gather]).tobytes()
                assert pairs.plan(30, into_src) is plan

    def test_one_plan_serves_both_sums(self, monkeypatch):
        builds = []

        class Counting(ad.RankPlan):
            def __init__(self, n_out, idx, src):
                builds.append(idx)
                super().__init__(n_out, idx, src)

        monkeypatch.setattr(ad, "RankPlan", Counting)
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, 20, size=80), rng.integers(0, 20, size=80)
        values = rng.choice([1e16, -1e16, 1.0, -0.0, 0.5, 3.25e-7], size=(20, 3))
        pairs = ad.IndexPairs(src, dst)
        canonical = run(ad.row_sum_aggregate, ad.Tensor(values), pairs, value_sorted=True)
        plain = run(ad.row_sum_aggregate, ad.Tensor(values), pairs)
        assert len(builds) == 1 and builds[0] is dst
        assert canonical.tobytes() == (sorted_sums_reference(values, src, dst, 20) + 0.0).tobytes()
        assert plain.tobytes() == add_at_reference(20, dst, values[src]).tobytes()

    def test_sorted_sum_builds_no_sources(self, monkeypatch):
        rng = np.random.default_rng(6)
        src, dst = rng.integers(0, 20, size=80), rng.integers(0, 20, size=80)
        values = rng.choice([1e16, -1e16, 1.0, -0.0, 0.5, 3.25e-7], size=(20, 3))
        plan = ad.RankPlan(20, dst, src)
        plan.sorted_sum(values)
        plan.sorted_sum(values, only=rng.random(20) < 0.5)
        assert plan.sources is None
        monkeypatch.setattr(_AddAtPlan, "sums", 0)
        assert plan.sum(values).tobytes() == _AddAtPlan(20, dst, src).sum(values).tobytes()
        assert plan.sources is not None

    def test_training_parameters_match_add_at(self, monkeypatch):
        fast = _train_tiny_params()
        monkeypatch.setattr(ad, "RankPlan", _AddAtPlan)
        monkeypatch.setattr(_AddAtPlan, "sums", 0)
        reference = _train_tiny_params()
        assert _AddAtPlan.sums > 0  # every neighbor sum and take_rows backward ran it
        assert fast.keys() == reference.keys()
        for name in fast:
            assert fast[name].tobytes() == reference[name].tobytes(), name


class _CopyingGradStore(ad._GradStore):
    """The gradient store as it was: copies each first gradient and adds
    later ones in place."""

    def add(self, t, g):
        if id(t) in self.by_id:
            self.by_id[id(t)] += g
        else:
            self.by_id[id(t)] = np.array(g, dtype=np.float64, copy=True)


def _train_tiny_params():
    from submatch.datasets import gen_er
    from submatch.encoder import EncoderConfig
    from submatch.order import MarginConfig
    from submatch.sampling import SamplerConfig
    from submatch.training import TrainConfig, train

    pool = [gen_er(12, 4.0 / 12, 1, seed=s) for s in range(3)]
    res = train(pool, TrainConfig(epochs=2, min_iterations=2, seed=5),
                EncoderConfig(layers=2, hidden_dim=8, output_dim=8, label_alphabet_size=1),
                MarginConfig(), SamplerConfig(max_nodes=6))
    return res.checkpoint.params


READ_ONLY_EXTRA_OPS = [
    ("concat_2d", lambda p, t: ad.sum_all(
        t, ad.mul(t, c := ad.concat(t, p["a2"], p["a2"]), c))),
    ("row_sum_sorted", lambda p, t: ad.sum_all(t, ad.row_sum_aggregate(
        t, p["a2"], pairs_of([[1, 2], [0], [0, 1]]), value_sorted=True))),
]


class TestGradStore:
    def test_training_parameters_match_copying_store(self, monkeypatch):
        fast = _train_tiny_params()
        monkeypatch.setattr(ad, "_GradStore", _CopyingGradStore)
        reference = _train_tiny_params()
        assert fast.keys() == reference.keys()
        for name in fast:
            assert fast[name].tobytes() == reference[name].tobytes(), name

    def test_shared_gradient_is_not_changed_by_accumulation(self):
        # add() hands one array to both parents; x then gets a second addend
        tape = ad.Tape()
        x = ad.Tensor([1.0, 2.0], name="x")
        y = ad.Tensor([3.0, 4.0], name="y")
        loss = ad.sum_all(tape, ad.mul(tape, ad.add(tape, x, y), x))
        grads = ad.backward(tape, loss)
        assert np.array_equal(grads["x"], [5.0, 8.0])  # (x + y) + x
        assert np.array_equal(grads["y"], [1.0, 2.0])

    @pytest.mark.parametrize("name,fn", OPS_FOR_GRADCHECK + READ_ONLY_EXTRA_OPS,
                             ids=[n for n, _ in OPS_FOR_GRADCHECK + READ_ONLY_EXTRA_OPS])
    def test_no_backward_writes_into_a_gradient(self, monkeypatch, name, fn):
        rng = np.random.default_rng(0)
        params = {"a": rng.normal(size=4), "b": rng.normal(size=4),
                  "a2": rng.normal(size=(3, 4)), "b2": rng.normal(size=(4, 2)),
                  "bias": rng.normal(size=4), "c2": rng.normal(size=(3, 4))}
        monkeypatch.setattr(ad, "_GradStore", ReadOnlyGradStore)
        assert ad.grad_check(fn, params).passed

    def test_no_training_step_writes_into_a_gradient(self, monkeypatch):
        monkeypatch.setattr(ad, "_GradStore", ReadOnlyGradStore)
        assert _train_tiny_params()


def test_row_stable_matmul_rows_ignore_batch_size():
    rng = np.random.default_rng(3)
    a = ad.Tensor(rng.normal(size=(50, 37)))
    b = ad.Tensor(rng.normal(size=(37, 19)))
    full = run(ad.matmul, a, b, row_stable=True)
    assert np.allclose(full, a.value @ b.value)
    for lo, hi in [(0, 1), (7, 8), (3, 20), (10, 50)]:
        part = run(ad.matmul, ad.Tensor(a.value[lo:hi]), b, row_stable=True)
        assert np.array_equal(part, full[lo:hi])


def test_tensor_is_float64():
    t = ad.Tensor([1, 2, 3])
    assert t.value.dtype == np.float64
