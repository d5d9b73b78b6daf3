"""Autodiff core: forward values against hand/NumPy oracles, gradients
against central finite differences, plus the error contracts."""

import ast
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import tape_reference as R
from conftest import toy_config, toy_params
from kgar import datasets, decoders, synthetic, training
from kgar import tensor as T
from kgar.config import resolve_config
from kgar.encoder import encode


def fd_grad(loss_fn, param, eps=1e-6):
    """Central-difference gradient of loss_fn w.r.t. one parameter."""
    flat = param.values.reshape(-1)
    g = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        fp = loss_fn().item()
        flat[k] = orig - eps
        fm = loss_fn().item()
        flat[k] = orig
        g[k] = (fp - fm) / (2 * eps)
    return g.reshape(param.values.shape)


def backward(loss_fn, params):
    for p in params:
        p.grad = None
    with T.Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    return loss


# ---------------------------------------------------------------------------
# forward values


def test_matmul_value():
    a = T.Tensor([[1.0, 2.0]])
    b = T.Tensor([[3.0], [4.0]])
    assert T.matmul(a, b).values[0, 0] == 11.0


def test_matmul_shape_error():
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_softmax_rows_value():
    # softmax([1, 2, 3]) = [0.09003, 0.24473, 0.66524]: the cross entropy
    # against class 2 is -ln 0.66524, its gradient softmax - onehot
    z = T.Parameter("z", [[1.0, 2.0, 3.0]])
    out = backward(lambda: T.softmax_cross_entropy(z, [2]), [z])
    assert out.item() == pytest.approx(-math.log(0.66524), abs=1e-5)
    np.testing.assert_allclose(z.grad, [[0.09003, 0.24473, -0.33476]],
                               atol=1e-5)
    assert z.grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_l2_penalty_value():
    p = T.Parameter("w", [[1.0, 2.0]], regularized=True)
    out = T.l2_penalty([p], 0.0005)
    assert out.item() == pytest.approx(0.0025, abs=1e-15)


def test_sigmoid_extremes_finite():
    out = R.sigmoid(T.Tensor([[-1000.0, 0.0, 1000.0]]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0, 0] == pytest.approx(0.0, abs=1e-300)
    assert out.values[0, 1] == 0.5
    assert out.values[0, 2] == pytest.approx(1.0)


def test_bce_bits_value():
    # score 0 -> p=0.5 -> exactly 1 bit whatever the label
    s = T.Tensor([[0.0], [0.0]])
    out = T.binary_cross_entropy_bits(s, [1.0, 0.0])
    assert out.item() == pytest.approx(1.0, abs=1e-12)


def test_bce_bits_extreme_scores_finite():
    s = T.Tensor([[745.0], [-745.0], [10000.0]])
    out = T.binary_cross_entropy_bits(s, [0.0, 1.0, 0.0])
    assert np.isfinite(out.item())


def test_classification_loss_exact_for_a_confidently_wrong_row():
    # logits [30, 0] with true class 1: the loss is 30 + ln(1 + e^-30) and
    # the logit gradient softmax - onehot = [1, -1], both to within 1e-12;
    # a probability floor would cap the loss and zero the gradient
    feats = T.Parameter("f", [[1.0]])
    head = T.Parameter("h", [[30.0, 0.0]])
    out = backward(lambda: T.softmax_cross_entropy(
        decoders.classify_forward(feats, head, [0]), [1]), [feats, head])
    assert out.item() == pytest.approx(30.0, abs=1e-12)
    # the logits are feats[0] * head, with feats[0] = 1
    np.testing.assert_allclose(head.grad, [[1.0, -1.0]], rtol=0, atol=1e-12)


# the encoder's aggregate softmaxes its attention groups in its own
# buffers; tape_reference.segment_softmax is the route the encoder tests
# check it against


def test_segment_softmax_segments_sum_to_one():
    scores = T.Tensor(np.array([[1.0], [2.0], [3.0], [-1.0], [0.5]]))
    out = R.segment_softmax(scores, [0, 3])
    assert out.values[:3].sum() == pytest.approx(1.0, abs=1e-12)
    assert out.values[3:].sum() == pytest.approx(1.0, abs=1e-12)
    # singleton segment is exactly 1
    single = R.segment_softmax(T.Tensor([[7.0]]), [0])
    assert single.values[0, 0] == 1.0


def test_segment_softmax_empty_column():
    # an empty column has no segments; its softmax is recorded like any
    # other, so the scores still receive a (zero-row) gradient
    s = T.Parameter("s", np.zeros((0, 1)))
    with T.Tape() as tape:
        out = R.segment_softmax(s, [])
        loss = R.sum_all(out)
    tape.backward(loss)
    assert out.shape == (0, 1) and s.grad.shape == (0, 1)
    for scores, starts in (([[1.0]], []), (np.zeros((0, 1)), [0])):
        with pytest.raises(T.ShapeError, match="empty column only"):
            R.segment_softmax(T.Tensor(scores), starts)


def test_block_matmul_equals_dense_blockdiag():
    rng = np.random.default_rng(0)
    b, din_b, dout_b, n = 3, 4, 2, 5
    x = T.Tensor(rng.standard_normal((n, b * din_b)))
    q = T.Tensor(rng.standard_normal((b * din_b, dout_b)))
    blocks = [q.values[k * din_b:(k + 1) * din_b] for k in range(b)]
    dense = R.assemble_block_weight(blocks)
    got = R.block_matmul(x, q, b).values
    np.testing.assert_allclose(got, x.values @ dense, atol=1e-12)


def test_block_products_equal_per_block_loop():
    # each product is one batched matmul over all blocks; it must give the
    # same bits as one 2-D product per block
    rng = np.random.default_rng(2)
    for n, b, din_b, dout_b in ((1, 2, 4, 4), (64, 2, 4, 2), (77, 5, 20, 20),
                                (300, 10, 10, 10)):
        x = rng.standard_normal((n, b * din_b))
        g = rng.standard_normal((n, b * dout_b))
        qv = rng.standard_normal((b, din_b, dout_b))
        xs = [x[:, k * din_b:(k + 1) * din_b] for k in range(b)]
        gs = [g[:, k * dout_b:(k + 1) * dout_b] for k in range(b)]
        assert np.array_equal(T._block_forward(x, qv),
                              np.hstack([xs[k] @ qv[k] for k in range(b)]))
        assert np.array_equal(T._block_backward_x(g, qv),
                              np.hstack([gs[k] @ qv[k].T for k in range(b)]))
        assert np.array_equal(T._block_backward_q(x, g, b),
                              np.stack([xs[k].T @ gs[k] for k in range(b)]))


@pytest.mark.parametrize("num_idx, num_rows, held", [
    (40, 5, False),                         # every row repeated
    (0, 5, False),                          # empty index
    (2 * T._TILE + 37, 300, False),         # more rows than one tile
    (2 * T._TILE + 37, 300, True),          # ...into rows holding values
    (50, 7, True),
], ids=["repeated", "empty", "chunks", "chunks-held", "held"])
def test_scatter_rows_matches_unbuffered_reference(num_idx, num_rows, held):
    rng = np.random.default_rng(num_idx)
    idx = rng.integers(0, num_rows, num_idx)
    vals = rng.standard_normal((num_idx, 6))
    base = rng.standard_normal((num_rows, 6)) if held \
        else np.zeros((num_rows, 6))
    out = base.copy()
    T.scatter_rows(out, idx, vals)
    expected = base + R.scatter_add_rows(T.Tensor(vals), idx, num_rows).values
    if held:
        # base + (v1 + v2 + ...) against ((base + v1) + v2) + ...
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("num_idx, num_rows", [
    (40, 5), (0, 5), (2 * T._TILE + 37, 300),
], ids=["repeated", "empty", "tiles"])
@pytest.mark.parametrize("held", [False, True], ids=["zeros", "held"])
def test_scatter_rows_adds_in_index_order(num_idx, num_rows, held):
    # bit for bit the loop out[idx[k]] += vals[k], k = 0, 1, ...: an even
    # width (added as column pairs), an odd one, a transposed one, and
    # complex entries that decoders._scatter adds as their rows [re | im]
    rng = np.random.default_rng(num_idx + held)
    idx = rng.integers(0, num_rows, num_idx)
    z = rng.standard_normal((num_idx, 3)) \
        + 1j * rng.standard_normal((num_idx, 3))
    cases = [(z.view(np.float64), T.scatter_rows),
             (rng.standard_normal((num_idx, 5)), T.scatter_rows),
             (rng.standard_normal((6, num_idx)).T, T.scatter_rows),
             (np.hstack([z.real, z.imag]), None)]
    for vals, scatter in cases:
        width = vals.shape[1]
        base = rng.standard_normal((num_rows, width)) if held \
            else np.zeros((num_rows, width))
        expected = base.copy()
        for k in range(num_idx):
            expected[idx[k]] += vals[k]
        if scatter is None:
            t = T.Parameter("t", np.zeros((num_rows, width)))
            t.grad = base.copy() if held else None
            decoders._scatter(t, idx, z, np.empty(2 * z.size))
            out = t.grad
        else:
            out = base.copy()
            scatter(out, idx, vals)
        assert np.array_equal(out, expected)


def test_scatter_rows_refuses_a_non_contiguous_out():
    idx, vals = np.array([0, 1, 0]), np.ones((3, 4))
    for out in (np.zeros((4, 2)).T, np.zeros((2, 8))[:, :4]):
        with pytest.raises(ValueError, match="C-contiguous"):
            T.scatter_rows(out, idx, vals)
        assert not out.any()


def test_same_seed_synthetic_training_is_bit_identical(tmp_path):
    # the bundled graph with its shipped defaults (D=100, one layer, batch
    # 512, Adam): the scatters and the sampler leave no run-to-run noise
    root = str(tmp_path / "synthetic")
    synthetic.write_dataset(root)
    bundle_dir = str(tmp_path / "bundle")
    datasets.write_bundle(bundle_dir, datasets.preprocess(root))
    graph = datasets.load_bundle(bundle_dir).graph
    config = resolve_config("linkpred", datasets.dataset_defaults("synthetic"),
                            None, {"dataset_dir": root, "iterations": 4,
                                   "eval_interval": 4, "seed": 5})
    runs = [training.train(graph, {}, config, "linkpred", seed=5).params
            for _ in range(2)]
    first, second = ([p.values for p in params.all_params()]
                     for params in runs)
    assert len(first) == len(second) == 8
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_assemble_block_weight_off_block_exact_zero():
    blocks = [np.full((2, 2), 5.0), np.full((2, 2), 7.0)]
    w = R.assemble_block_weight(blocks)
    assert w.shape == (4, 4)
    assert np.all(w[:2, 2:] == 0.0)
    assert np.all(w[2:, :2] == 0.0)


def test_dropout_eval_identity_and_train_scaling():
    rng = np.random.default_rng(1)
    x = np.ones((100, 100))
    assert T.dropout_mask(x.shape, 0.5, None) is None
    assert T.dropout_mask(x.shape, 0.0, rng) is None
    mask = T.dropout_mask(x.shape, 0.5, rng)
    out = T.apply_dropout(mask, x)
    kept = out != 0.0
    assert np.array_equal(kept, ~mask[0]) and np.all(x == 1.0)
    assert abs(kept.mean() - 0.5) < 0.02  # 10^4 samples
    assert np.all(out[kept] == 2.0)  # inverted scaling 1/(1-rate)
    # in place, as the fused ops apply it to their own buffers
    assert T.apply_dropout(mask, x, out=x) is x
    assert np.array_equal(x, out)


def test_dropout_rate_validation():
    rng = np.random.default_rng(0)
    for rate in (1.0, -0.1):
        for generator in (rng, None):
            with pytest.raises(ValueError, match="dropout rate"):
                T.dropout_mask((1, 1), rate, generator)


# ---------------------------------------------------------------------------
# gradients vs finite differences


def assert_grad_matches(build_loss, params, tol=1e-6):
    backward(build_loss, params)
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.values)
        numeric = fd_grad(build_loss, p)
        np.testing.assert_allclose(analytic, numeric, atol=tol, rtol=1e-4)


def test_grad_matmul_chain():
    rng = np.random.default_rng(3)
    a = T.Parameter("a", rng.standard_normal((3, 4)))
    b = T.Parameter("b", rng.standard_normal((4, 2)))

    def loss():
        return R.sum_squares(T.matmul(a, b))

    assert_grad_matches(loss, [a, b])


def test_grad_elementwise_ops():
    rng = np.random.default_rng(4)
    a = T.Parameter("a", rng.standard_normal((3, 3)))
    b = T.Parameter("b", rng.standard_normal((3, 3)))
    col = T.Parameter("c", rng.standard_normal((3, 1)))

    def loss():
        x = T.add(a, b)
        x = R.mul(x, col)          # column broadcast
        x = R.sub(x, R.scale(b, 0.3))
        x = R.leaky_relu(x, 0.2)
        return R.sum_all(R.mul(x, x))

    assert_grad_matches(loss, [a, b, col])


def test_grad_softmax_sigmoid_relu():
    rng = np.random.default_rng(5)
    a = T.Parameter("a", rng.standard_normal((4, 5)))
    w = T.Parameter("w", rng.standard_normal((5, 3)))

    def loss():
        x = R.softmax_rows(a)
        x = T.matmul(x, w)
        x = R.sigmoid(x)
        x = R.relu(R.sub(x, R.scale(R.sigmoid(x), 0.5)))
        return R.sum_all(x)

    assert_grad_matches(loss, [a, w])


def test_grad_segment_softmax():
    rng = np.random.default_rng(7)
    s = T.Parameter("s", rng.standard_normal((6, 1)))
    weight = rng.standard_normal((6, 1))

    def loss():
        p = R.segment_softmax(s, [0, 2, 5])
        return R.sum_all(R.mul(p, T.Tensor(weight)))

    assert_grad_matches(loss, [s])


def test_grad_gather_scatter():
    rng = np.random.default_rng(8)
    a = T.Parameter("a", rng.standard_normal((5, 3)))
    idx = np.array([4, 0, 0, 2])
    tgt = np.array([1, 1, 0, 2])

    def loss():
        g = T.gather_rows(a, idx)
        s = R.scatter_add_rows(g, tgt, 3)
        return R.sum_squares(s)

    assert_grad_matches(loss, [a])


@pytest.mark.parametrize("held", [False, True],
                         ids=["fresh-grad", "existing-grad"])
def test_gather_rows_through_a_permutation_adds_each_row_once(held):
    # a gather through a permutation: each gradient row takes exactly one
    # add, also when the gradient already holds a value
    rng = np.random.default_rng(11)
    n = 3 * T._TILE + 7  # several scatter tiles
    order = rng.permutation(n)
    inverse = np.argsort(order)
    for width in (1, 2):
        values = rng.standard_normal((n, width))
        upstream = rng.standard_normal((n, width))
        base = rng.standard_normal((n, width)) if held \
            else np.zeros((n, width))
        a = T.Parameter("a", values.copy())
        a.grad = base.copy() if held else None
        with T.Tape() as tape:
            out = T.gather_rows(a, order)
            loss = R.sum_all(R.mul(out, T.Tensor(upstream)))
        tape.backward(loss)
        assert out.values.tobytes() == values[order].tobytes()
        assert a.grad.tobytes() == (base + upstream[inverse]).tobytes()


def test_grad_block_matmul():
    rng = np.random.default_rng(10)
    x = T.Parameter("x", rng.standard_normal((4, 6)))
    q = T.Parameter("q", rng.standard_normal((6, 2)))  # 3 blocks of 2x2

    def loss():
        return R.sum_squares(R.block_matmul(x, q, 3))

    assert_grad_matches(loss, [x, q])


def test_grad_losses():
    rng = np.random.default_rng(11)
    logits = T.Parameter("l", rng.standard_normal((4, 3)))
    scores = T.Parameter("s", rng.standard_normal((6, 1)))
    reg = T.Parameter("r", rng.standard_normal((2, 2)), regularized=True)
    labels = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]

    def loss():
        a = T.softmax_cross_entropy(logits, [0, 2, 1, 0])
        b = T.binary_cross_entropy_bits(scores, labels)
        c = T.l2_penalty([logits, reg], 0.01)
        return T.add(T.add(a, b), c)

    assert_grad_matches(loss, [logits, scores, reg])


def test_grad_row_sum_sum_all():
    rng = np.random.default_rng(12)
    a = T.Parameter("a", rng.standard_normal((3, 4)))

    def loss():
        return R.sum_squares(R.row_sum(a))

    assert_grad_matches(loss, [a])


def test_grad_accumulates_across_reuse():
    a = T.Parameter("a", [[2.0]])

    def loss():
        return T.add(R.mul(a, a), R.scale(a, 3.0))  # a^2 + 3a -> 2a+3 = 7

    backward(loss, [a])
    assert a.grad[0, 0] == pytest.approx(7.0, abs=1e-12)


def test_dropout_grad_matches_mask():
    # the composed reference the fused encoder ops are checked against;
    # fix the mask by reseeding inside the closure
    a = T.Parameter("a", np.ones((4, 4)))

    def loss():
        rng = np.random.default_rng(99)
        return R.sum_squares(R.dropout(a, 0.5, rng))

    assert_grad_matches(loss, [a])


# ---------------------------------------------------------------------------
# tape mechanics


def test_no_tape_records_nothing():
    a = T.Parameter("a", [[1.0, 2.0]])
    out = T.matmul(a, T.Tensor([[1.0], [1.0]]))
    assert out.grad is None and a.grad is None


def test_tape_frees_intermediate_grads():
    a = T.Parameter("a", [[1.0, 2.0], [3.0, 4.0]])
    with T.Tape() as tape:
        mid = R.relu(a)
        loss = R.sum_all(mid)
    tape.backward(loss)
    assert mid.grad is None  # freed after its producer closure ran
    assert a.grad is not None


def _closure_contents(fn):
    """Every object that fn's closure cells reach, through nested closures,
    lists and tuples."""
    found, stack = [], [fn]
    while stack:
        obj = stack.pop()
        found.append(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return found


def test_tape_closures_hold_no_tensor(toy_graph):
    # a closure holds the gradient slots and the arrays its backward reads,
    # so no tensor's values outlive the forward for the tape's sake; every
    # op a training step records is here: the encoder's, both heads and
    # both losses, the L2 term and its gathered rows
    cfg = toy_config(dropout_attention=0.3, dropout_conv=0.5)
    params = toy_params(cfg, task="linkpred", seed=38)
    head = T.Parameter("head", np.ones((cfg.embed_dim, 4)))
    samples = np.array([[0, 0, 1], [2, 1, 3], [4, 2, 5], [1, 0, 0]])
    with T.Tape() as tape:
        feats = encode(toy_graph, params, cfg, np.random.default_rng(39))
        link = T.binary_cross_entropy_bits(
            decoders.score_triples(params, feats, samples),
            [1.0, 0.0, 1.0, 0.0])
        penalty = T.l2_penalty(
            [params.rel_re, T.gather_rows(feats, samples[:, 0])], 0.01)
        classes = T.softmax_cross_entropy(
            decoders.classify_forward(feats, head, [0, 3]), [1, 2])
        T.add(T.add(link, penalty), classes)
        held = [obj for step in tape._steps
                for obj in _closure_contents(step)
                if isinstance(obj, T.Tensor)]
    assert len(tape._steps) > 20 and held == []


def test_backward_drops_each_closure_once_it_has_run():
    # the matmul's closure is the only holder of w's values; the probe,
    # recorded first, runs after it and finds them freed
    x = T.Parameter("x", [[1.0, 2.0]])
    refs, seen = [], []
    with T.Tape() as tape:
        tape.record(lambda: seen.append(refs[0]() is None))
        w = T.Tensor([[3.0], [4.0]])
        loss = T.matmul(x, w)
        refs.append(weakref.ref(w.values))
        del w
    assert refs[0]() is not None
    tape.backward(loss)
    assert seen == [True] and x.grad.tolist() == [[3.0, 4.0]]


def test_nested_tape_rejected():
    with T.Tape():
        with pytest.raises(RuntimeError):
            with T.Tape():
                pass


def test_backward_requires_scalar():
    a = T.Parameter("a", [[1.0, 2.0]])
    with T.Tape() as tape:
        out = R.relu(a)
    with pytest.raises(T.ShapeError):
        tape.backward(out)


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_quadratic_bowl():
    w = T.Parameter("w", [[1.0]])
    for _ in range(100):
        with T.Tape() as tape:
            loss = R.sum_squares(w)
        tape.backward(loss)
        T.sgd_step([w], 0.1)
    # w_{t+1} = 0.8 w_t
    assert w.values[0, 0] == pytest.approx(0.8 ** 100, rel=1e-9)
    assert w.grad is None


def test_sgd_missing_grad_names_parameter():
    w = T.Parameter("weights_q", [[1.0]])
    with pytest.raises(T.GradientMissing, match="weights_q"):
        T.sgd_step([w], 0.1)


def test_adam_converges_on_quadratic():
    w = T.Parameter("w", [[5.0]])
    state = T.AdamState()
    for _ in range(400):
        with T.Tape() as tape:
            loss = R.sum_squares(w)
        tape.backward(loss)
        T.adam_step([w], state, 0.05)
    assert abs(w.values[0, 0]) < 1e-3


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_linear_loss_tiny_error():
    w = T.Parameter("w", [[1.0, -2.0, 0.5]])
    direction = T.Tensor([[2.0], [3.0], [-1.0]])

    def loss():
        return T.matmul(w, direction)

    assert R.grad_check(loss, [w]) < 1e-10


def test_grad_check_flags_wrong_gradient():
    w = T.Parameter("w", [[1.5]])

    def loss():
        # deliberately broken op: forward w^2 but backward reports 3w
        out = T.Tensor(w.values ** 2)

        def bw(g):
            T._acc(w, g * 3.0 * w.values)

        T._record(out, bw)
        return out

    assert R.grad_check(loss, [w]) > 0.1


def test_grad_check_nonlinear_within_tolerance():
    rng = np.random.default_rng(13)
    w = T.Parameter("w", rng.standard_normal((3, 3)))

    def loss():
        return R.sum_all(R.sigmoid(T.matmul(w, T.Tensor(np.eye(3)))))

    assert R.grad_check(loss, [w]) < 1e-6


# ---------------------------------------------------------------------------
# no test-only code, and no ufunc scatter, in the package


def _called_names(node):
    """Names called bare (`op(...)`) or through the package's tensor alias
    (`T.op(...)`) anywhere under `node`."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if isinstance(func, ast.Name):
                yield func.id
            elif isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name) and func.value.id == "T":
                yield func.attr


def test_every_tape_op_has_a_production_caller():
    # an op that records on the tape but that only tests call belongs in
    # tests/tape_reference.py; calls inside the op's own definition do not
    # count as callers
    package = Path(T.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    ops = [node.name for node in trees["tensor.py"].body
           if isinstance(node, ast.FunctionDef)
           and "_record" in _called_names(node)]
    assert "matmul" in ops and "gather_rows" in ops
    callers = {}
    for module, tree in trees.items():
        for top in tree.body:
            for name in _called_names(top):
                callers.setdefault(name, set()).add(
                    (module, getattr(top, "name", None)))
    unused = [op for op in ops
              if not callers.get(op, set()) - {("tensor.py", op)}]
    assert unused == []


def test_every_public_definition_is_used_in_the_package():
    # a public top-level function or class that nothing else in the
    # package names (bare or as an attribute) is dead code or test-only
    # code, which belongs in tests/; an import alone does not count
    package = Path(T.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    users = {}
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                users.setdefault(name, set()).add(
                    (module, getattr(top, "name", None)))
    public = [(module, top.name) for module, tree in trees.items()
              for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and not top.name.startswith("_")]
    assert ("encoder.py", "encode") in public
    unused = [f"{module}:{name}" for module, name in public
              if not users.get(name, set()) - {(module, name)}]
    assert unused == []


def test_every_scatter_goes_through_scatter_rows():
    # np.add.at on the flat (V*D,) view of an array runs numpy's 1-D
    # indexed-add loop, the fastest scatter-add measured for this package
    # (ROADMAP), while its 2-D form takes a slow per-row path; so the one
    # `<ufunc>.at` is the flat one in tensor.scatter_rows, and every other
    # scatter-add goes through that function
    package = Path(T.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "at":
                    owner = node.value
                    name = owner.attr if isinstance(owner, ast.Attribute) \
                        else getattr(owner, "id", None)
                    if isinstance(getattr(np, name or "", None), np.ufunc):
                        found.append(
                            f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert found == ["tensor.py:scatter_rows"]


def test_every_id_sort_goes_through_stable_order():
    # np.lexsort is a comparison sort; the package sorts its id keys with
    # data.stable_order, a radix sort with the same result
    package = Path(T.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "lexsort"]
    assert found == []
