import math

import numpy as np
import pytest

from groundkit import numcore as nc
from groundkit.numcore import CheckpointError, NumericError
from groundkit.numcore.encoder import layer_from_last


def total(t):
    """Sum of every entry, as a differentiable scalar."""
    return nc.dot_const(t, np.ones(t.data.shape))


def loss_wrapper(build):
    """Adapt a graph-building closure to the grad_check protocol."""
    def loss_fn(params, need_grads=True):
        for p in params.values():
            p.zero_grad()
        with nc.Graph() as g:
            loss = build(params)
            if need_grads:
                g.backward(loss)
                grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                         for k, p in params.items()}
                return float(loss.data), grads
            return float(loss.data), None
    return loss_fn


class TestOps:
    def test_softmax_symmetric(self):
        out = nc.softmax(nc.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = nc.softmax(nc.Tensor(rng.normal(0, 5, (20, 7))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(20), atol=1e-9)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_layer_norm_constant_vector_is_zero(self):
        out = nc.layer_norm(nc.Tensor(np.full((3, 8), 2.5)),
                            nc.Tensor(np.ones(8)), nc.Tensor(np.zeros(8)))
        assert np.max(np.abs(out.data)) < 1e-6

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(NumericError, match=r"\(2, 3\).*\(2, 3\)"):
            nc.matmul(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones((2, 3))))
        with pytest.raises(NumericError, match=r"\(2, 3\).*\(3,\)"):
            nc.add(nc.Tensor(np.ones((2, 3))), nc.Tensor(np.ones(3)))

    def test_non_finite_is_hard_error(self):
        with pytest.raises(NumericError):
            nc.Tensor([np.nan, 1.0])
        big = nc.Tensor(np.full(4, 1e308))
        with pytest.raises(NumericError):
            nc.add(big, big)


class TestBatchedOps:
    def test_matmul_stacks_match_per_slice_products(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (3, 5, 4))
        w = rng.normal(0, 1, (4, 6))
        y = rng.normal(0, 1, (3, 4, 2))
        proj = nc.linear(nc.Tensor(x), nc.Tensor(w)).data
        stacked = nc.matmul(nc.Tensor(x), nc.Tensor(y)).data
        for b in range(3):
            np.testing.assert_allclose(proj[b], x[b] @ w, atol=1e-12)
            np.testing.assert_allclose(stacked[b], x[b] @ y[b], atol=1e-12)
        with pytest.raises(NumericError, match=r"\(3, 5, 4\).*\(2, 4, 2\)"):
            nc.matmul(nc.Tensor(x), nc.Tensor(y[:2]))
        with pytest.raises(NumericError, match=r"\(3, 5, 4\).*\(4, 6\)"):
            nc.matmul(nc.Tensor(x), nc.Tensor(w))

    def test_masked_softmax_matches_softmax_of_kept_entries(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 3, (2, 5))
        mask = np.array([[True, True, True, False, False], [True] * 5])
        out = nc.softmax(nc.Tensor(x), axis=-1, mask=mask).data
        np.testing.assert_allclose(out[0, :3], nc.softmax(nc.Tensor(x[0, :3])).data,
                                   atol=1e-15)
        np.testing.assert_array_equal(out[0, 3:], [0.0, 0.0])
        np.testing.assert_allclose(out[1], nc.softmax(nc.Tensor(x[1])).data, atol=1e-15)

    def test_masked_log_softmax_reads_zero_on_padding(self):
        x = np.array([[1.0, 2.0, 50.0]])
        mask = np.array([[True, True, False]])
        out = nc.log_softmax(nc.Tensor(x), axis=1, mask=mask).data
        np.testing.assert_allclose(out[0, :2], np.log([1 / (1 + np.e), np.e / (1 + np.e)]),
                                   atol=1e-12)
        assert out[0, 2] == 0.0
        # masked entries are constants: gradient reaching them goes nowhere
        params = {"x": nc.Tensor(x.copy())}
        build = lambda p: total(nc.log_softmax(p["x"], axis=1, mask=mask))
        assert nc.grad_check(loss_wrapper(build), params, epsilon=1e-5) < 1e-6
        _loss, grads = loss_wrapper(build)(params)
        assert grads["x"][0, 2] == 0.0

    def test_fully_masked_row_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="softmax"):
            nc.softmax(nc.Tensor(np.ones((2, 3))), mask=np.array([[True] * 3, [False] * 3]))

    def test_gather_dot_and_scatter_rows(self):
        a = nc.Tensor(np.arange(12.0).reshape(4, 3))
        b = nc.Tensor(np.eye(3))
        out = nc.gather_dot(a, b, [2, 0], [[0, 1], [2, 2]]).data
        np.testing.assert_array_equal(out, [[6.0, 7.0], [2.0, 2.0]])
        placed = nc.scatter_rows(nc.Tensor(np.ones((2, 3))), [3, 1], 4).data
        np.testing.assert_array_equal(placed.sum(axis=1), [0.0, 3.0, 0.0, 3.0])

    def test_batched_ops_gradients(self):
        # every new op on one tape: linear, stacked matmul, head reshape and
        # transpose, masked softmax and log-softmax, scatter and
        # gather-dot
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 3, 4))
        mask = np.array([[True, True, False], [True, True, True]])
        params = {"w": nc.Tensor(rng.normal(0, 1, (4, 4))),
                  "b": nc.Tensor(rng.normal(0, 1, 4)),
                  "r": nc.Tensor(rng.normal(0, 1, (3, 4)))}

        def build(p):
            h = nc.add(nc.linear(nc.Tensor(x), p["w"], p["b"]),
                       nc.linear(nc.Tensor(x), nc.scale(p["w"], 0.5)))  # [2, 3, 4]
            heads = nc.transpose(nc.reshape(h, (2, 3, 2, 2)), (0, 2, 1, 3))
            scores = nc.matmul(heads, nc.transpose(heads, (0, 1, 3, 2)))  # [2, 2, 3, 3]
            attn = nc.softmax(scores, axis=-1, mask=mask[:, None, None, :])
            mixed = nc.reshape(nc.transpose(nc.matmul(attn, heads), (0, 2, 1, 3)), (6, 4))
            rows = nc.scatter_rows(p["r"], [0, 5, 2], 6)
            sims = nc.gather_dot(nc.add(mixed, rows), mixed, [0, 4], [[1, 2, 0], [3, 5, 5]])
            logp = nc.log_softmax(sims, axis=1, mask=np.array([[True] * 3, [True, True, False]]))
            return nc.dot_const(logp, -np.array([[0.5, 0.2, 0.0], [0.3, 0.0, 0.0]]))

        assert nc.grad_check(loss_wrapper(build), params, epsilon=1e-5) < 1e-6

    def test_gelu_products_match_powers(self):
        # the cube as a product stays within 2 ulp of ``x ** 3``, and GELU and
        # its derivative stay with the power form to float32 rounding
        x = np.random.default_rng(3).normal(0, 2, (1024, 64)).astype(np.float32)
        assert np.max(np.abs(x * x * x - x ** 3) / np.spacing(np.abs(x ** 3))) <= 2
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        t = np.tanh(c * (x + a * x ** 3))
        ref = 0.5 * x * (1.0 + t)
        ref_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * c * (1.0 + 3.0 * a * x ** 2)
        xt = nc.Tensor(x)
        with nc.Graph() as g:
            out = nc.gelu(xt)
            g.backward(total(out))
        assert out.data.dtype == np.float32
        np.testing.assert_allclose(out.data, ref, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(xt.grad, ref_grad, rtol=1e-6, atol=1e-6)

    def test_backward_releases_tape_but_counts_it(self):
        w = nc.Tensor(np.ones((3, 3)))
        x = nc.Tensor(np.arange(9.0).reshape(3, 3))
        with nc.Graph() as g:
            h = nc.matmul(x, w)
            loss = total(nc.gelu(h))
        g.backward(loss)
        assert len(g.nodes) == 3
        assert all(node is None for node in g.nodes)
        assert h.grad is None and loss.grad is None
        assert w.grad is not None and w.grad.shape == (3, 3)


class TestEncoder:
    def _config(self, n_layers=2):
        return nc.EncoderConfig(d_model=8, n_heads=2, n_layers=n_layers, d_ff=16, seed=5)

    def test_zeroed_projections_reduce_to_double_layer_norm(self):
        # hand-trace oracle: with value/output and feed-forward weights all
        # zero, one layer is x -> LN(LN(x)) with unit gain and zero bias
        cfg = nc.EncoderConfig(d_model=4, n_heads=1, n_layers=1, d_ff=8, seed=0)
        rng = np.random.default_rng(1)
        params = nc.init_encoder_params(cfg, rng, dtype=np.float64)
        for name in ("attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
            params[f"enc.layer0.{name}"].data[:] = 0.0
        x = rng.normal(0, 1, (1, 2, 4))
        out = nc.encode(nc.Tensor(x), cfg, params)[-1]

        def ln(v, eps=1e-5):
            m = v.mean(axis=-1, keepdims=True)
            s = v.var(axis=-1, keepdims=True)
            return (v - m) / np.sqrt(s + eps)

        np.testing.assert_allclose(out.data, ln(ln(x)), atol=1e-12)

    def test_single_layer_final_equals_only_layer(self):
        cfg = self._config(n_layers=1)
        params = nc.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
        hidden = nc.encode(nc.Tensor(np.random.default_rng(2).normal(0, 1, (1, 3, 8))),
                           cfg, params)
        assert len(hidden) == 1
        assert layer_from_last(hidden, 1) is hidden[0]

    def test_layer_from_last_bounds(self):
        cfg = self._config()
        params = nc.init_encoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
        hidden = nc.encode(nc.Tensor(np.zeros((1, 2, 8)) + np.arange(8)), cfg, params)
        with pytest.raises(NumericError):
            layer_from_last(hidden, 3)

    def test_permutation_equivariance(self):
        # no position information in the encoder itself, so permuting input
        # rows permutes output rows
        cfg = self._config()
        params = nc.init_encoder_params(cfg, np.random.default_rng(3), dtype=np.float64)
        x = np.random.default_rng(4).normal(0, 1, (1, 5, 8))
        perm = [3, 0, 4, 1, 2]
        out = nc.encode(nc.Tensor(x), cfg, params)[-1].data
        out_p = nc.encode(nc.Tensor(x[:, perm]), cfg, params)[-1].data
        np.testing.assert_allclose(out_p, out[:, perm], atol=1e-9)

    def test_deterministic_bitwise(self):
        cfg = self._config()
        p1 = nc.init_encoder_params(cfg, np.random.default_rng(7), dtype=np.float32)
        p2 = nc.init_encoder_params(cfg, np.random.default_rng(7), dtype=np.float32)
        for name in p1:
            assert p1[name].data.tobytes() == p2[name].data.tobytes()
        x = np.random.default_rng(8).normal(0, 1, (1, 4, 8)).astype(np.float32)
        a = nc.encode(nc.Tensor(x), cfg, p1)[-1].data
        b = nc.encode(nc.Tensor(x), cfg, p2)[-1].data
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
        alone = nc.encode(nc.Tensor(short), cfg, params)[-1].data
        np.testing.assert_allclose(out[0, :3], alone[0], atol=1e-12)
        np.testing.assert_allclose(out[1], nc.encode(nc.Tensor(long), cfg, params)[-1].data[0],
                                   atol=1e-12)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (6, 4))
        params = {"w": nc.Tensor(rng.normal(0, 1, (4, 3)))}

        def build(p):
            y = nc.matmul(nc.Tensor(x), p["w"])
            # half the sum of squares: the trace of y^T y / 2
            return nc.dot_const(nc.matmul(nc.transpose(y, (1, 0)), y), 0.5 * np.eye(3))

        assert nc.grad_check(loss_wrapper(build), params, epsilon=1e-5) < 1e-8

    def test_encoder_cross_entropy(self):
        cfg = nc.EncoderConfig(d_model=16, n_heads=2, n_layers=2, d_ff=32, seed=9)
        rng = np.random.default_rng(9)
        params = nc.init_encoder_params(cfg, rng, dtype=np.float64)
        for p in params.values():
            if p.data.ndim == 2:
                p.data = p.data * 10.0  # healthy gradient magnitudes
        x = rng.normal(0, 1, (1, 6, 16))

        def build(p):
            hs = [nc.reshape(h, (6, 16)) for h in nc.encode(nc.Tensor(x), cfg, p)]
            logits = nc.matmul(hs[-1], nc.transpose(hs[0], (1, 0)))
            lp = nc.log_softmax(logits, axis=1)
            return nc.dot_const(nc.take_per_row(lp, [1, 2, 3, 4, 5, 0]),
                                -np.full(6, 1.0 / 6))

        err = nc.grad_check(loss_wrapper(build), params, epsilon=1e-5,
                            max_entries_per_param=12,
                            rng=np.random.default_rng(3))
        assert err < 1e-4

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (5, 4))
        params = {"w": nc.Tensor(rng.normal(0, 1, (4, 4)))}
        # the sum of squares of x @ w: the trace of (x @ w)^T (x @ w)
        base = loss_wrapper(lambda p: nc.dot_const(
            nc.matmul(nc.transpose(nc.matmul(nc.Tensor(x), p["w"]), (1, 0)),
                      nc.matmul(nc.Tensor(x), p["w"])), np.eye(4)))

        def corrupted(params, need_grads=True):
            loss, grads = base(params, need_grads=need_grads)
            if grads is not None:
                idx = np.unravel_index(np.argmax(np.abs(grads["w"])), grads["w"].shape)
                grads["w"][idx] *= 2.0
            return loss, grads

        assert nc.grad_check(corrupted, params, epsilon=1e-5) > 0.3

    def test_requires_float64(self):
        params = {"w": nc.Tensor(np.ones((2, 2), dtype=np.float32))}
        with pytest.raises(NumericError, match="float64"):
            nc.grad_check(loss_wrapper(lambda p: total(p["w"])), params)

    def test_epsilon_bounds(self):
        params = {"w": nc.Tensor(np.ones((2, 2)))}
        with pytest.raises(ValueError):
            nc.grad_check(loss_wrapper(lambda p: total(p["w"])), params,
                          epsilon=1e-3)


class TestOptimizer:
    def test_zero_gradient_is_fixed_point(self):
        params = {"w": nc.Tensor(np.ones(4))}
        params["w"].grad = np.zeros(4)
        state = nc.init_adam_state(params)
        nc.optimizer_step(params, state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"].data, np.ones(4))

    def test_descends_on_quadratic(self):
        params = {"w": nc.Tensor(np.array([1.0]))}
        state = nc.init_adam_state(params)
        params["w"].grad = params["w"].data.copy()   # d(w^2/2)/dw = w
        nc.optimizer_step(params, state, lr=0.1)
        assert params["w"].data[0] < 1.0

    def test_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            params = {"w": nc.Tensor(rng.normal(0, 1, (3, 3)))}
            state = nc.init_adam_state(params)
            for _ in range(5):
                params["w"].grad = rng.normal(0, 1, (3, 3))
                nc.optimizer_step(params, state, lr=1e-2, weight_decay=0.01)
            return params["w"].data.tobytes()

        assert run() == run()

    def test_non_finite_gradient_rejected(self):
        params = {"w": nc.Tensor(np.ones(2))}
        state = nc.init_adam_state(params)
        params["w"].grad = np.array([np.inf, 0.0])
        with pytest.raises(NumericError):
            nc.optimizer_step(params, state, lr=0.1)

    def test_decoupled_weight_decay_applies_without_gradient(self):
        params = {"w": nc.Tensor(np.array([2.0]))}
        params["w"].grad = np.zeros(1)
        state = nc.init_adam_state(params)
        nc.optimizer_step(params, state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(params["w"].data, [2.0 - 0.1 * 0.5 * 2.0])


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {"a.w": rng.normal(0, 1, (3, 4)).astype(np.float32),
                  "b": rng.normal(0, 1, 7).astype(np.float32)}
        p1 = tmp_path / "m1.ckpt"
        p2 = tmp_path / "m2.ckpt"
        nc.save_checkpoint(params, p1)
        loaded = nc.load_checkpoint(p1)
        for name in params:
            assert loaded[name].tobytes() == params[name].tobytes()
        nc.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nc.save_checkpoint({"w": np.ones(3, dtype=np.float32)}, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            nc.load_checkpoint(path)

    def test_shape_validation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nc.save_checkpoint({"w": np.ones((2, 3), dtype=np.float32)}, path)
        with pytest.raises(CheckpointError, match="shape"):
            nc.load_checkpoint(path, expected_shapes={"w": (3, 2)})
        with pytest.raises(CheckpointError, match="names"):
            nc.load_checkpoint(path, expected_shapes={"other": (2, 3)})

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nc.save_checkpoint({"w": np.ones((4, 4), dtype=np.float32)}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError):
            nc.load_checkpoint(path)
