import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groundkit import numcore as nc
from groundkit.numcore import CheckpointError, NumericError
from groundkit.numcore import gradcheck as nc_gradcheck
from groundkit.numcore.encoder import layer_from_last
from groundkit.numcore.optim import ADAM_EPS, BETA1, BETA2
from groundkit.numcore.tensor import _accum, _out


def total(t):
    """Sum of every entry, as a differentiable scalar."""
    return nc.dot_const(t, np.ones(t.data.shape))


def all_real(x):
    """The padding mask of a ``[B, L, ...]`` batch that holds no padding."""
    return np.ones(x.shape[:2], dtype=bool)


def every_entry_error(build, params):
    """``grad_check`` at epsilon 1e-5, probing every entry of every parameter."""
    return nc.grad_check(build, params, epsilon=1e-5,
                         max_entries_per_param=max(p.data.size for p in params.values()),
                         rng=np.random.default_rng(0)).max_rel_error


def attention_probs(logits, mask=None):
    """The attention weights ``self_attention`` computes from ``[B, L, K]`` query-key
    logits, ``K <= L <= 8``, read off its output.

    One head of width 16: each token carries its logits row in the first 8
    features and its one-hot position in the last 8.  The query projection
    scales the logits by 4 = sqrt(16), the key and value projections take the
    one-hot position, and the output projection is the identity, so every
    product is exact and output row ``i`` holds the softmax of logits row
    ``i`` over the keys ``mask`` keeps, all of them when it is None.
    """
    mask = all_real(logits) if mask is None else mask
    batch, length, width = logits.shape
    x = np.zeros((batch, length, 16))
    x[:, :, :width] = logits
    x[:, :, 8:8 + length] = np.eye(length)
    lower, upper = np.zeros((16, 16)), np.zeros((16, 16))
    lower[8:, :8] = np.eye(8)
    upper[:8, :8] = 4 * np.eye(8)
    zero = nc.Tensor(np.zeros(16))
    out = nc.self_attention(nc.Tensor(x), nc.Tensor(upper), zero, nc.Tensor(lower),
                            nc.Tensor(lower), zero, nc.Tensor(np.eye(16)), zero,
                            n_heads=1, mask=mask)
    return out.data[:, :, :length]


class TestOps:
    def test_softmax_symmetric(self):
        out = attention_probs(np.zeros((1, 2, 2)))
        np.testing.assert_allclose(out, np.full((1, 2, 2), 0.5))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = attention_probs(rng.normal(0, 5, (3, 8, 8)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones((3, 8)), atol=1e-9)
        assert np.all(out > 0) and np.all(out < 1)

    def test_layer_norm_constant_vector_is_zero(self):
        out = nc.add_layer_norm(nc.Tensor(np.full((3, 8), 1.0)), nc.Tensor(np.full((3, 8), 1.5)),
                                nc.Tensor(np.ones(8)), nc.Tensor(np.zeros(8)))
        assert np.max(np.abs(out.data)) < 1e-6

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(NumericError, match=r"\(2, 3\).*\(2, 3\)"):
            nc.linear(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))
        with pytest.raises(NumericError, match=r"\(2, 3\).*\(3,\)"):
            nc.add(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones(3)))
        with pytest.raises(NumericError, match=r"\(2, 3\).*\(3,\)"):
            nc.add_layer_norm(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones(3)),
                              nc.Tensor(np.ones(3)), nc.Tensor(np.zeros(3)))

    # the overflow is the point: the op check must turn it into a NumericError
    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    def test_non_finite_is_hard_error(self):
        with pytest.raises(NumericError):
            nc.Tensor([np.nan, 1.0])
        big = nc.Tensor(np.full(4, 1e308))
        with pytest.raises(NumericError):
            nc.add(big, big)

    def test_deferred_checks_skip_op_checks_but_not_tensor_init(self):
        big = nc.Tensor(np.full(4, 1e308))
        with np.errstate(over="ignore"), nc.deferred_checks():
            with nc.deferred_checks():
                assert np.isinf(nc.add(big, big).data).all()
            assert np.isinf(nc.scale(big, 10.0).data).all()
            with pytest.raises(NumericError, match="tensor init"):
                nc.Tensor([np.nan])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="^non-finite value produced by add$"):
            nc.add(big, big)

    def test_layer_norm_variance_overflow_raises_inside_deferred_checks(self):
        # finite input whose variance overflows: the output would be the bias
        row = np.zeros((2, 8), np.float32)
        row[1, 5] = 3e38
        args = (nc.Tensor(row), nc.Tensor(np.zeros((2, 8), np.float32)),
                nc.Tensor(np.ones(8, np.float32)), nc.Tensor(np.zeros(8, np.float32)))
        with np.errstate(all="ignore"), nc.deferred_checks(), \
                pytest.raises(NumericError, match="^non-finite value produced by layer_norm$"):
            nc.add_layer_norm(*args)
        # a NaN from upstream passes, so the replay can name the op that made it
        row[1, 5] = np.nan
        with np.errstate(all="ignore"), nc.deferred_checks():
            assert np.isnan(nc.add_layer_norm(*args).data[1]).all()

    def test_located_names_where_an_error_was_raised(self):
        with pytest.raises(NumericError, match="^non-finite value produced by add in a in b$"):
            with np.errstate(over="ignore"), nc.located("b"), nc.located("a"):
                nc.add(nc.Tensor([1e308]), nc.Tensor([1e308]))
        with pytest.raises(ValueError, match="^other$"):
            with nc.located("a"):
                raise ValueError("other")


class TestBatchedOps:
    def test_matmul_stacks_match_per_slice_products(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (3, 5, 4))
        w = rng.normal(0, 1, (4, 6))
        proj = nc.linear(nc.Tensor(x), nc.Tensor(w)).data
        for b in range(3):
            np.testing.assert_allclose(proj[b], x[b] @ w, atol=1e-12)
        # the attention heads are stacked matrix products: each sample and
        # head matches its own slice
        weights = attention_weights(rng, 4)
        mask = np.array([[True] * 5, [True] * 3 + [False] * 2, [True] * 4 + [False]])
        stacked = nc.self_attention(nc.Tensor(x), *map(nc.Tensor, weights), n_heads=2,
                                    mask=mask).data
        np.testing.assert_allclose(stacked, ref_self_attention(x, *weights, 2, mask),
                                   atol=1e-12)
        with pytest.raises(NumericError, match=r"\(3, 4\).*\(4, 4\)"):
            nc.self_attention(nc.Tensor(x), nc.Tensor(np.ones((3, 4))),
                              *map(nc.Tensor, weights[1:]), n_heads=2, mask=mask)
        with pytest.raises(NumericError, match=r"\(2, 5\).*\(3, 5\)"):
            nc.self_attention(nc.Tensor(x), *map(nc.Tensor, weights), n_heads=2,
                              mask=mask[:2])

    def test_masked_softmax_matches_softmax_of_kept_entries(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 3, (2, 5, 5))
        mask = np.array([[True, True, True, False, False], [True] * 5])
        out = attention_probs(x, mask=mask)
        np.testing.assert_allclose(out[0, :3, :3], attention_probs(x[:1, :3, :3])[0],
                                   atol=1e-15)
        np.testing.assert_array_equal(out[0, :, 3:], np.zeros((5, 2)))
        np.testing.assert_allclose(out[1], attention_probs(x[1:])[0], atol=1e-15)

    def test_masked_log_softmax_reads_zero_on_padding(self):
        x = np.array([[1.0, 2.0, 50.0]])
        mask = np.array([[True, True, False]])
        out = nc.log_softmax(nc.Tensor(x), mask=mask).data
        np.testing.assert_allclose(out[0, :2], np.log([1 / (1 + np.e), np.e / (1 + np.e)]),
                                   atol=1e-12)
        assert out[0, 2] == 0.0
        # masked entries are constants: gradient reaching them goes nowhere
        params = {"x": nc.Tensor(x.copy())}
        build = lambda p: total(nc.log_softmax(p["x"], mask=mask))
        assert every_entry_error(lambda: build(params), params) < 1e-6
        # grad_check leaves the tape's gradients in place
        assert params["x"].grad[0, 2] == 0.0

    # a row of -inf logits gives inf - inf: the softmax check must name it
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_fully_masked_row_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="softmax"):
            attention_probs(np.ones((2, 3, 3)), mask=np.array([[True] * 3, [False] * 3]))

    def test_gather_dot_and_scatter_rows(self):
        a = nc.Tensor(np.arange(12.0).reshape(4, 3))
        b = nc.Tensor(np.eye(3))
        out = nc.gather_dot(a, b, [2, 0], [[0, 1], [2, 2]]).data
        np.testing.assert_array_equal(out, [[6.0, 7.0], [2.0, 2.0]])
        placed = nc.scatter_rows([nc.Tensor(np.ones((2, 3))), nc.Tensor(np.full((1, 3), 2.0))],
                                 [3, 1, 0], (4, 3)).data
        np.testing.assert_array_equal(placed.sum(axis=1), [6.0, 3.0, 0.0, 3.0])
        with pytest.raises(NumericError, match="2 indices for 3 rows"):
            nc.scatter_rows([nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((1, 3)))], [0, 1],
                            (4, 3))
        # leading axes fold into rows: a [2, 2, 3] tensor reads and writes as its [4, 3] rows
        a3 = nc.Tensor(a.data.reshape(2, 2, 3))
        b3 = nc.Tensor(np.eye(3).reshape(3, 1, 3))
        np.testing.assert_array_equal(nc.gather_dot(a3, b3, [2, 0], [[0, 1], [2, 2]]).data,
                                      out)
        placed3 = nc.scatter_rows([nc.Tensor(np.ones((1, 2, 3))),
                                   nc.Tensor(np.full((1, 3), 2.0))], [3, 1, 0], (2, 2, 3)).data
        np.testing.assert_array_equal(placed3.reshape(4, 3), placed)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gather_dot_backward_matches_add_at(self, dtype):
        # one tensor on both sides, as the contrastive loss has it, repeated
        # rows and candidates, and leading axes folded into rows
        rng = np.random.default_rng(5)
        a = nc.Tensor(rng.normal(0, 1, (2, 3, 4)).astype(dtype))
        rows = [4, 0, 4]
        cols = [[1, 1, 5], [4, 2, 2], [0, 0, 0]]
        coef = rng.normal(0, 1, (3, 3)).astype(dtype)
        with nc.Graph() as g:
            g.backward(nc.dot_const(nc.gather_dot(a, a, rows, cols), coef))
        flat = a.data.reshape(-1, 4)
        left, right = flat[rows], flat[np.array(cols)]
        ref = np.zeros((6, 4), np.float64)
        np.add.at(ref, rows, (coef[:, :, None] * right).sum(axis=1))
        np.add.at(ref, np.array(cols), coef[:, :, None] * left[:, None, :])
        assert a.grad.dtype == dtype and a.grad.shape == (2, 3, 4)
        np.testing.assert_allclose(a.grad.reshape(6, 4), ref,
                                   rtol=1e-5 if dtype == np.float32 else 1e-12, atol=1e-6)

    def test_batched_ops_gradients(self):
        # the batched ops on one tape: linear, masked self-attention,
        # residual plus layer norm, feed-forward, scatter, gather-dot and
        # masked log-softmax
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 3, 4))
        mask = np.array([[True, True, False], [True, True, True]])
        names = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
        params = {"w": nc.Tensor(rng.normal(0, 1, (4, 4))),
                  "b": nc.Tensor(rng.normal(0, 1, 4)),
                  "r": nc.Tensor(rng.normal(0, 1, (3, 4))),
                  "gain": nc.Tensor(rng.normal(1, 0.2, 4)),
                  "bias": nc.Tensor(rng.normal(0, 0.2, 4)),
                  "w1": nc.Tensor(rng.normal(0, 1, (4, 8))),
                  "b1": nc.Tensor(rng.normal(0, 1, 8)),
                  "w2": nc.Tensor(rng.normal(0, 1, (8, 4))),
                  "b2": nc.Tensor(rng.normal(0, 1, 4)),
                  **{n: nc.Tensor(w) for n, w in zip(names, attention_weights(rng, 4))}}

        def build(p):
            h = nc.linear(nc.Tensor(x), p["w"], p["b"])                # [2, 3, 4]
            attn = nc.self_attention(h, *(p[n] for n in names), n_heads=2, mask=mask)
            h1 = nc.add_layer_norm(h, attn, p["gain"], p["bias"])
            mixed = nc.feed_forward(h1, p["w1"], p["b1"], p["w2"], p["b2"])
            rows = nc.scatter_rows([p["r"], p["b"]], [0, 5, 2, 3], (2, 3, 4))
            sims = nc.gather_dot(nc.add(mixed, rows), mixed, [0, 4], [[1, 2, 0], [3, 5, 5]])
            logp = nc.log_softmax(sims, mask=np.array([[True] * 3, [True, True, False]]))
            return nc.dot_const(logp, -np.array([[0.5, 0.2, 0.0], [0.3, 0.0, 0.0]]))

        assert every_entry_error(lambda: build(params), params) < 1e-6

    def test_gelu_products_match_powers(self):
        # the cube as a product stays within 2 ulp of ``x ** 3``, and GELU and
        # its derivative stay with the power form to float32 rounding; identity
        # weights make the feed-forward block GELU alone
        x = np.random.default_rng(3).normal(0, 2, (1024, 64)).astype(np.float32)
        assert np.max(np.abs(x * x * x - x ** 3) / np.spacing(np.abs(x ** 3))) <= 2
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        t = np.tanh(c * (x + a * x ** 3))
        ref = 0.5 * x * (1.0 + t)
        ref_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * c * (1.0 + 3.0 * a * x ** 2)
        xt = nc.Tensor(x)
        eye, zero = nc.Tensor(np.eye(64, dtype=np.float32)), nc.Tensor(np.zeros(64, np.float32))
        with nc.Graph() as g:
            out = nc.feed_forward(xt, eye, zero, eye, zero)
            g.backward(total(out))
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(out.data, ref, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(xt.grad, ref_grad, rtol=1e-6, atol=1e-6)

    def test_backward_releases_tape_but_counts_it(self):
        w = nc.Tensor(np.ones((3, 3)))
        x = nc.Tensor(np.arange(9.0).reshape(3, 3))
        zero = nc.Tensor(np.zeros(3))
        with nc.Graph() as g:
            h = nc.linear(x, w)
            loss = total(nc.feed_forward(h, w, zero, w, zero))
        g.backward(loss)
        assert len(g.nodes) == 3
        assert all(node is None for node in g.nodes)
        assert h.grad is None and loss.grad is None
        assert w.grad is not None and w.grad.shape == (3, 3)


def attention_weights(rng, d):
    """Random ``wq, bq, wk, wv, bv, wo, bo`` for a width-``d`` ``self_attention``."""
    return [rng.normal(0, 0.7, shape) for shape in
            ((d, d), (d,), (d, d), (d, d), (d,), (d, d), (d,))]


def ref_self_attention(x, wq, bq, wk, wv, bv, wo, bo, n_heads, mask):
    """Plain-numpy attention: one sample and one head at a time, over the kept keys."""
    batch, length, d = x.shape
    dh = d // n_heads
    out = np.empty_like(x)
    for b in range(batch):
        keys = x[b][mask[b]]
        context = np.empty((length, d))
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            q = x[b] @ wq[:, cols] + bq[cols]
            k = keys @ wk[:, cols]
            v = keys @ wv[:, cols] + bv[cols]
            z = q @ k.T / math.sqrt(dh)
            e = np.exp(z - z.max(axis=1, keepdims=True))
            context[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v
        out[b] = context @ wo + bo
    return out


def ref_add_layer_norm(a, b, gain, bias, eps=1e-5):
    s = a + b
    return (s - s.mean(axis=-1, keepdims=True)) / np.sqrt(s.var(axis=-1, keepdims=True)
                                                          + eps) * gain + bias


def ref_feed_forward(x, w1, b1, w2, b2):
    h = x @ w1 + b1
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * h * (1.0 + np.tanh(c * (h + 0.044715 * h ** 3))) @ w2 + b2


# batch shapes for the fused-op checks: padding hidden by a mask, a batch of
# one, and a batch with no padding
BATCHES = {"padded": (np.array([[True] * 4, [True, True, False, False]]), (2, 4)),
           "single": (np.ones((1, 3), dtype=bool), (1, 3)),
           "unpadded": (np.ones((3, 2), dtype=bool), (3, 2))}


def fused_case(op, batch, rng):
    """``(inputs, mask, reference)`` for one fused op on one batch shape, d = 4."""
    mask, lead = BATCHES[batch]
    x = rng.normal(0, 1, lead + (4,))
    if op == "self_attention":
        inputs = [x] + attention_weights(rng, 4)
        return inputs, mask, lambda v: ref_self_attention(*v, 2, mask)
    if op == "add_layer_norm":
        inputs = [x, rng.normal(0, 1, x.shape), rng.normal(1, 0.2, 4), rng.normal(0, 0.2, 4)]
        return inputs, mask, lambda v: ref_add_layer_norm(*v)
    inputs = [x, rng.normal(0, 0.7, (4, 8)), rng.normal(0, 0.5, 8), rng.normal(0, 0.7, (8, 4)),
              rng.normal(0, 0.5, 4)]
    return inputs, mask, lambda v: ref_feed_forward(*v)


def run_fused(op, tensors, mask):
    if op == "self_attention":
        return nc.self_attention(*tensors, n_heads=2, mask=mask)
    return getattr(nc, op)(*tensors)


FUSED_OPS = ("self_attention", "add_layer_norm", "feed_forward")


class TestFusedOps:
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_forward_matches_numpy_reference(self, op, batch):
        inputs, mask, reference = fused_case(op, batch, np.random.default_rng(10))
        out = run_fused(op, [nc.Tensor(v) for v in inputs], mask).data
        np.testing.assert_allclose(out, reference(inputs), atol=1e-12)

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("op", FUSED_OPS)
    def test_gradients(self, op, batch):
        # every input, activations included, against central differences
        rng = np.random.default_rng(11)
        inputs, mask, _ = fused_case(op, batch, rng)
        params = {f"in{i}": nc.Tensor(v) for i, v in enumerate(inputs)}
        coef = rng.normal(0, 1, inputs[0].shape)
        build = lambda p: nc.dot_const(run_fused(op, list(p.values()), mask), coef)
        assert every_entry_error(lambda: build(params), params) < 1e-4

    @pytest.mark.parametrize("op, position, value, name", [
        ("self_attention", 0, np.nan, "linear"),
        # the attention logits overflow on purpose
        pytest.param("self_attention", 1, 1e200, "matmul", marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered in matmul:RuntimeWarning")),
        ("add_layer_norm", 1, np.nan, "add"),
        ("add_layer_norm", 2, np.nan, "layer_norm"),
        ("feed_forward", 0, np.nan, "linear"),
        ("feed_forward", 3, np.nan, "linear"),
    ])
    def test_non_finite_names_inner_op(self, op, position, value, name):
        inputs, mask, _ = fused_case(op, "padded", np.random.default_rng(12))
        tensors = [nc.Tensor(v) for v in inputs]
        tensors[position].data.flat[0] = value   # past Tensor's own check
        if op == "self_attention":
            tensors[3].data.flat[0] = value      # keys as large as the queries
        with pytest.raises(NumericError, match=f"produced by {name}$"):
            run_fused(op, tensors, mask)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_attention_matches_reference_forward_and_gradients(self, n_heads):
        # float64, d = 8: the fused op's output, and the gradients its backward
        # leaves on every input, against the per-sample, per-head reference
        # and central differences of that reference
        rng = np.random.default_rng(20 + n_heads)
        mask = np.array([[True] * 4, [True, True, False, False]])
        inputs = [rng.normal(0, 1, (2, 4, 8))] + attention_weights(rng, 8)
        coef = rng.normal(0, 1, (2, 4, 8))
        tensors = [nc.Tensor(v.copy()) for v in inputs]
        with nc.Graph() as g:
            out = nc.self_attention(*tensors, n_heads=n_heads, mask=mask)
            g.backward(nc.dot_const(out, coef))
        np.testing.assert_allclose(out.data, ref_self_attention(*inputs, n_heads, mask),
                                   rtol=1e-12, atol=1e-12)

        def ref_loss(values):
            return float((ref_self_attention(*values, n_heads, mask) * coef).sum())

        for t, v in zip(tensors, inputs):
            numeric = np.empty_like(v)
            for i in np.ndindex(v.shape):
                orig = v[i]
                v[i] = orig + 1e-6
                plus = ref_loss(inputs)
                v[i] = orig - 1e-6
                minus = ref_loss(inputs)
                v[i] = orig
                numeric[i] = (plus - minus) / 2e-6
            np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-7)

    def test_encode_records_four_nodes_per_layer(self):
        cfg = nc.EncoderConfig(d_model=8, n_heads=2, n_layers=3, d_ff=16)
        params = nc.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
        with nc.Graph() as g:
            nc.encode(nc.Tensor(np.ones((2, 3, 8))), cfg, params,
                      mask=np.array([[True] * 3, [True, False, False]]))
        assert len(g.nodes) == 4 * 3


class TestEncoder:
    def _config(self, n_layers=2):
        return nc.EncoderConfig(d_model=8, n_heads=2, n_layers=n_layers, d_ff=16)

    def test_zeroed_projections_reduce_to_double_layer_norm(self):
        # hand-trace oracle: with value/output and feed-forward weights all
        # zero, one layer is x -> LN(LN(x)) with unit gain and zero bias
        cfg = nc.EncoderConfig(d_model=4, n_heads=1, n_layers=1, d_ff=8)
        rng = np.random.default_rng(1)
        params = nc.init_encoder_params(cfg, rng, dtype=np.float64)
        for name in ("attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
            params[f"enc.layer0.{name}"].data[:] = 0.0
        x = rng.normal(0, 1, (1, 2, 4))
        out = nc.encode(nc.Tensor(x), cfg, params, mask=all_real(x))[-1]

        def ln(v, eps=1e-5):
            m = v.mean(axis=-1, keepdims=True)
            s = v.var(axis=-1, keepdims=True)
            return (v - m) / np.sqrt(s + eps)

        np.testing.assert_allclose(out.data, ln(ln(x)), atol=1e-12)

    def test_single_layer_final_equals_only_layer(self):
        cfg = self._config(n_layers=1)
        params = nc.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
        x = np.random.default_rng(2).normal(0, 1, (1, 3, 8))
        hidden = nc.encode(nc.Tensor(x), cfg, params, mask=all_real(x))
        assert len(hidden) == 1
        assert layer_from_last(hidden, 1) is hidden[0]

    def test_layer_from_last_bounds(self):
        cfg = self._config()
        params = nc.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
        x = np.zeros((1, 2, 8)) + np.arange(8)
        hidden = nc.encode(nc.Tensor(x), cfg, params, mask=all_real(x))
        with pytest.raises(NumericError):
            layer_from_last(hidden, 3)

    def test_permutation_equivariance(self):
        # no position information in the encoder itself, so permuting input
        # rows permutes output rows
        cfg = self._config()
        params = nc.init_encoder_params(cfg, np.random.default_rng(3), dtype=np.float64)
        x = np.random.default_rng(4).normal(0, 1, (1, 5, 8))
        perm = [3, 0, 4, 1, 2]
        out = nc.encode(nc.Tensor(x), cfg, params, mask=all_real(x))[-1].data
        out_p = nc.encode(nc.Tensor(x[:, perm]), cfg, params, mask=all_real(x))[-1].data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-9)

    def test_deterministic_bitwise(self):
        cfg = self._config()
        p1 = nc.init_encoder_params(cfg, np.random.default_rng(7), dtype=np.float32)
        p2 = nc.init_encoder_params(cfg, np.random.default_rng(7), dtype=np.float32)
        for name in p1:
            assert p1[name].data.tobytes() == p2[name].data.tobytes()
        x = np.random.default_rng(8).normal(0, 1, (1, 4, 8)).astype(np.float32)
        a = nc.encode(nc.Tensor(x), cfg, p1, mask=all_real(x))[-1].data
        b = nc.encode(nc.Tensor(x), cfg, p2, mask=all_real(x))[-1].data
        assert a.tobytes() == b.tobytes()

    def test_padding_leaves_real_positions_unchanged(self):
        # a short sequence padded into a batch with a longer one encodes as
        # it does alone, whatever the padding holds
        cfg = self._config()
        params = nc.init_encoder_params(cfg, np.random.default_rng(3), dtype=np.float64)
        rng = np.random.default_rng(5)
        short, long = rng.normal(0, 1, (1, 3, 8)), rng.normal(0, 1, (1, 5, 8))
        batch = np.concatenate([np.concatenate([short, rng.normal(0, 9, (1, 2, 8))], 1),
                                long])
        mask = np.array([[True] * 3 + [False] * 2, [True] * 5])
        out = nc.encode(nc.Tensor(batch), cfg, params, mask=mask)[-1].data
        alone = nc.encode(nc.Tensor(short), cfg, params, mask=all_real(short))[-1].data
        np.testing.assert_allclose(out[0, :3], alone[0], atol=1e-12)
        np.testing.assert_allclose(
            out[1], nc.encode(nc.Tensor(long), cfg, params, mask=all_real(long))[-1].data[0],
            atol=1e-12)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (6, 4))
        params = {"w": nc.Tensor(rng.normal(0, 1, (4, 3)))}

        def build(p):
            y = nc.linear(nc.Tensor(x), p["w"])
            # half the sum of squares: each row of y against itself
            return nc.dot_const(nc.gather_dot(y, y, range(6), [[i] for i in range(6)]),
                                np.full((6, 1), 0.5))

        assert every_entry_error(lambda: build(params), params) < 1e-8

    def test_encoder_cross_entropy(self):
        cfg = nc.EncoderConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32)
        rng = np.random.default_rng(9)
        params = nc.init_encoder_params(cfg, rng, dtype=np.float64)
        for p in params.values():
            if p.data.ndim == 2:
                p.data = p.data * 10.0  # healthy gradient magnitudes
        x = rng.normal(0, 1, (1, 6, 16))

        def build(p):
            hs = nc.encode(nc.Tensor(x), cfg, p, mask=all_real(x))
            logits = nc.gather_dot(hs[-1], hs[0], range(6), [range(6)] * 6)
            lp = nc.log_softmax(logits, mask=np.ones((6, 6), dtype=bool))
            return nc.dot_const(lp, -np.roll(np.eye(6), 1, axis=1) / 6)

        err = nc.grad_check(lambda: build(params), params, epsilon=1e-5,
                            max_entries_per_param=12,
                            rng=np.random.default_rng(3)).max_rel_error
        assert err < 1e-4

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (5, 4))
        params = {"w": nc.Tensor(rng.normal(0, 1, (4, 4)))}

        def doubled_peak(a):
            """``a`` unchanged, with a backward that doubles the largest gradient entry."""
            def back(g):
                g = g.copy()
                g[np.unravel_index(np.argmax(np.abs(g)), g.shape)] *= 2.0
                _accum(a, g)
            return _out(a.data.copy(), "doubled_peak", back)

        def build():
            # the sum of squares of x @ w: each row against itself
            w = doubled_peak(params["w"])
            y = nc.linear(nc.Tensor(x), w)
            return nc.dot_const(nc.gather_dot(y, y, range(5), [[i] for i in range(5)]),
                                np.ones((5, 1)))

        assert every_entry_error(build, params) > 0.3

    def test_entries_under_the_noise_bound_are_counted_not_scored(self):
        # L = 1000 + w0 + 1e-11 w1: the loss's rounding, about 1e-13, swamps
        # w1's part of a central difference, so w1 is counted as below_noise
        # and w0 alone is scored
        params = {"w": nc.Tensor(np.array([0.3, 0.5]))}
        offset = nc.Tensor(np.array([1000.0, 0.0]))
        check = nc.grad_check(
            lambda: nc.dot_const(nc.add(params["w"], offset), np.array([1.0, 1e-11])),
            params, epsilon=1e-5, max_entries_per_param=2, rng=np.random.default_rng(0))
        assert check.below_noise == 1
        assert check.max_rel_error < 1e-6
        assert 1e-11 < nc_gradcheck.noise_bound(1000.0, 1e-5) < 1.0

    def test_requires_float64(self):
        params = {"w": nc.Tensor(np.ones((2, 2), dtype=np.float32))}
        with pytest.raises(NumericError, match="float64"):
            nc.grad_check(lambda: total(params["w"]), params, max_entries_per_param=4,
                          rng=np.random.default_rng(0))

    def test_epsilon_bounds(self):
        params = {"w": nc.Tensor(np.ones((2, 2)))}
        with pytest.raises(ValueError):
            nc.grad_check(lambda: total(params["w"]), params,
                          epsilon=1e-3, max_entries_per_param=4,
                          rng=np.random.default_rng(0))


def flat_gradient(state, grads):
    """Named gradients in the layout of ``state.flat``; a missing one is zero."""
    return np.concatenate([np.zeros(end - start) if grads.get(name) is None
                           else np.reshape(grads[name], -1)
                           for name, start, end in zip(state.names, [0] + state.ends,
                                                       state.ends)],
                          dtype=state.flat.dtype)


class TestOptimizer:
    def test_zero_gradient_is_fixed_point(self):
        params = {"w": nc.Tensor(np.ones(4))}
        state = nc.init_adam_state(params)
        nc.optimizer_step(state, np.zeros(4), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"].data, np.ones(4))

    def test_descends_on_quadratic(self):
        params = {"w": nc.Tensor(np.array([1.0]))}
        state = nc.init_adam_state(params)
        nc.optimizer_step(state, params["w"].data.copy(), lr=0.1)   # d(w^2/2)/dw = w
        assert params["w"].data[0] < 1.0

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            params = {"w": nc.Tensor(rng.normal(0, 1, (3, 3)))}
            state = nc.init_adam_state(params)
            for _ in range(5):
                nc.optimizer_step(state, rng.normal(0, 1, (3, 3)).reshape(-1), lr=1e-2,
                                  weight_decay=0.01)
            return params["w"].data.tobytes()

        assert run() == run()

    def test_non_finite_gradient_rejected(self):
        params = {"a": nc.Tensor(np.ones(3)), "w": nc.Tensor(np.ones(2)),
                  "z": nc.Tensor(np.ones(1))}
        state = nc.init_adam_state(params)
        grad = flat_gradient(state, {"w": np.array([0.0, np.inf])})
        with pytest.raises(NumericError, match="parameter 'w'"):
            nc.optimizer_step(state, grad, lr=0.1)
        # refused before any parameter moved
        assert all(p.data.tobytes() == np.ones(p.data.size).tobytes()
                   for p in params.values())

    def test_refused_step_changes_no_state(self):
        rng = np.random.default_rng(4)
        params = {"a": nc.Tensor(rng.normal(0, 1, 3)), "b": nc.Tensor(rng.normal(0, 1, 2))}
        state = nc.init_adam_state(params)
        nc.optimizer_step(state, rng.normal(0, 1, 5), lr=0.1, weight_decay=0.1)
        before = [state.flat.tobytes(), state.m.tobytes(), state.v.tobytes()]
        grad = rng.normal(0, 1, 5)
        grad[3] = np.nan
        with pytest.raises(NumericError, match="parameter 'b'"):
            nc.optimizer_step(state, grad, lr=0.1, weight_decay=0.1)
        assert state.step == 1
        assert [state.flat.tobytes(), state.m.tobytes(), state.v.tobytes()] == before

    @pytest.mark.parametrize("grad, message", [
        (np.ones(1, np.float32), r"shape \(1,\) and dtype float32 for parameters of shape \(5,\)"),
        (np.ones(4, np.float32), r"shape \(4,\) and dtype float32 for parameters of shape \(5,\)"),
        (np.ones(5), r"shape \(5,\) and dtype float64 for parameters of shape \(5,\) "
                     r"and dtype float32$"),
    ], ids=["one-element", "short", "float64"])
    def test_gradient_outside_the_flat_layout_is_refused(self, grad, message):
        params = {"a": nc.Tensor(np.ones(3, np.float32)), "b": nc.Tensor(np.ones(2, np.float32))}
        state = nc.init_adam_state(params)
        before = [state.flat.tobytes(), state.m.tobytes(), state.v.tobytes()]
        with pytest.raises(NumericError, match=message):
            nc.optimizer_step(state, grad, lr=0.1)
        assert state.step == 0
        assert [state.flat.tobytes(), state.m.tobytes(), state.v.tobytes()] == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_at_either_end_names_its_parameter(self, bad):
        # the first and last index of each parameter: bisect_right's boundaries
        shapes = {"a": (3,), "b": (2, 2), "c": (1,), "d": (2,)}
        params = {n: nc.Tensor(np.ones(s)) for n, s in shapes.items()}
        state = nc.init_adam_state(params)
        for name, start, end in zip(state.names, [0] + state.ends, state.ends):
            for index in (start, end - 1):
                grad = np.zeros(state.flat.size)
                grad[index] = bad
                with pytest.raises(NumericError, match=f"parameter '{name}'$"):
                    nc.optimizer_step(state, grad, lr=0.1)
        assert state.step == 0

    def test_parameters_live_in_the_flat_buffer(self):
        rng = np.random.default_rng(8)
        shapes = {"b": (3, 4), "a": (5,), "c": (2, 3, 2)}
        data = {n: rng.normal(0, 1, s).astype(np.float32) for n, s in shapes.items()}
        params = {n: nc.Tensor(x.copy()) for n, x in data.items()}
        state = nc.init_adam_state(params)
        assert state.names == ["a", "b", "c"] and state.ends == [5, 17, 29]
        arrays = {n: p.data for n, p in params.items()}
        for name, start, end in zip(state.names, [0] + state.ends, state.ends):
            p = params[name]
            assert np.shares_memory(p.data, state.flat)
            assert p.data.shape == shapes[name] and p.data.dtype == np.float32
            assert p.data.tobytes() == data[name].tobytes()
            assert state.flat[start:end].tobytes() == data[name].tobytes()
        nc.optimizer_step(state, rng.normal(0, 1, 29).astype(np.float32), lr=0.1)
        for name, p in params.items():
            assert p.data is arrays[name]
            assert p.data.tobytes() != data[name].tobytes()

    def test_flat_update_matches_per_parameter_reference(self):
        # the per-parameter loop the flat buffer replaced, in sorted-name order
        def reference_step(data, grads, m, v, t, lr, weight_decay):
            bias1, bias2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for name in sorted(data):
                g = grads[name]
                g = np.zeros_like(data[name]) if g is None else g.astype(data[name].dtype)
                m[name] *= BETA1
                m[name] += (1.0 - BETA1) * g
                v[name] *= BETA2
                v[name] += (1.0 - BETA2) * g * g
                update = (m[name] / bias1) / (np.sqrt(v[name] / bias2) + ADAM_EPS)
                if weight_decay:
                    update = update + weight_decay * data[name]
                data[name] = data[name] - lr * update

        rng = np.random.default_rng(21)
        shapes = {"b": (3, 4), "a": (5,), "c": (2, 3, 2)}
        data = {n: rng.normal(0, 1, s).astype(np.float32) for n, s in shapes.items()}
        params = {n: nc.Tensor(x.copy()) for n, x in data.items()}
        state = nc.init_adam_state(params)
        m = {n: np.zeros_like(x) for n, x in data.items()}
        v = {n: np.zeros_like(x) for n, x in data.items()}
        for t in range(1, 6):
            # float64 gradients are cast to the parameters' float32; "a" has none
            grads = {n: rng.normal(0, 1, s) for n, s in shapes.items()}
            grads["a"] = None
            nc.optimizer_step(state, flat_gradient(state, grads), lr=1e-2, weight_decay=0.01)
            reference_step(data, grads, m, v, t, lr=1e-2, weight_decay=0.01)
            for n, p in params.items():
                assert p.data.shape == shapes[n] and p.data.dtype == np.float32
                assert p.data.tobytes() == data[n].tobytes()

    def test_parameters_must_share_one_dtype(self):
        params = {"a": nc.Tensor(np.ones(2)), "b": nc.Tensor(np.ones(2, np.float32))}
        with pytest.raises(ValueError, match="one dtype"):
            nc.init_adam_state(params)

    def test_decoupled_weight_decay_applies_without_gradient(self):
        params = {"w": nc.Tensor(np.array([2.0]))}
        state = nc.init_adam_state(params)
        nc.optimizer_step(state, np.zeros(1), lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(params["w"].data, [2.0 - 0.1 * 0.5 * 2.0])


def tensors(arrays):
    """Named arrays as the named ``Tensor``s ``checkpoint_bytes`` takes."""
    return {name: nc.Tensor(a) for name, a in arrays.items()}


def shapes(arrays):
    """Named arrays as the ``expected_shapes`` ``load_checkpoint`` takes."""
    return {name: a.shape for name, a in arrays.items()}


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"a.w": rng.normal(0, 1, (3, 4)).astype(np.float32),
                  "b": rng.normal(0, 1, 7).astype(np.float32)}
        p1 = tmp_path / "m1.ckpt"
        p2 = tmp_path / "m2.ckpt"
        p1.write_bytes(nc.checkpoint_bytes(tensors(params)))
        loaded = nc.load_checkpoint(p1, shapes(params))
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()
        p2.write_bytes(nc.checkpoint_bytes(tensors(loaded)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        arrays = {"w": np.ones(3, dtype=np.float32)}
        path.write_bytes(nc.checkpoint_bytes(tensors(arrays)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            nc.load_checkpoint(path, shapes(arrays))

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(nc.checkpoint_bytes(tensors({"w": np.ones((2, 3), dtype=np.float32)})))
        with pytest.raises(CheckpointError, match="shape"):
            nc.load_checkpoint(path, expected_shapes={"w": (3, 2)})
        with pytest.raises(CheckpointError, match="names"):
            nc.load_checkpoint(path, expected_shapes={"other": (2, 3)})

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        arrays = {"w": np.ones((4, 4), dtype=np.float32)}
        path.write_bytes(nc.checkpoint_bytes(tensors(arrays)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            nc.load_checkpoint(path, shapes(arrays))


# the checkpoint of a one-layer encoder: several names, ranks and shapes
FUZZ_PARAMS = nc.init_encoder_params(nc.EncoderConfig(d_model=4, n_heads=1, n_layers=1, d_ff=8),
                                     np.random.default_rng(0))
FUZZ_CHECKPOINT = nc.checkpoint_bytes(FUZZ_PARAMS)
FUZZ_SHAPES = {name: p.data.shape for name, p in FUZZ_PARAMS.items()}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(data):
    blob = bytearray(FUZZ_CHECKPOINT)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                         st.integers(1, 255)), max_size=3))
    for offset, bits in flips:
        blob[offset] ^= bits
    cut = data.draw(st.integers(0, len(blob)) | st.just(len(blob)))
    blob = blob[:cut] + data.draw(st.binary(max_size=12))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(bytes(blob))
        try:
            loaded = nc.load_checkpoint(path, expected_shapes=FUZZ_SHAPES)
        except CheckpointError:
            return
    assert all(np.isfinite(arr).all() for arr in loaded.values())

