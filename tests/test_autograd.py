"""Autograd tests: numerical gradient checks, optimizers, training dynamics."""

import numpy as np
import pytest

from repro.autograd import Adam, Var, mse, ops, softmax_cross_entropy


def numerical_grad(f, var, eps=1e-3):
    """Central-difference gradient of scalar-valued f wrt var.data."""
    grad = np.zeros_like(var.data, dtype=np.float64)
    it = np.nditer(var.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = var.data[idx]
        var.data[idx] = orig + eps
        fp = f()
        var.data[idx] = orig - eps
        fm = f()
        var.data[idx] = orig
        grad[idx] = (fp - fm) / (2 * eps)
    return grad


def check_grads(build_output, variables, rtol=5e-2, seed=0):
    """Backprop a random cotangent and compare against numeric gradients."""
    rng = np.random.default_rng(seed)
    out = build_output()
    cotangent = rng.normal(size=out.shape).astype(np.float32)
    out.backward(cotangent)
    for var in variables:
        num = numerical_grad(lambda: float((build_output().data * cotangent).sum()),
                             var)
        scale = max(np.abs(num).max(), 1e-3)
        assert var.grad is not None, "no gradient flowed"
        np.testing.assert_allclose(var.grad, num, rtol=0, atol=rtol * scale)


class TestBasicOps:
    def test_add_broadcast_grads(self, rng):
        a = Var(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Var(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.add(a, b), [a, b])

    def test_mul_grads(self, rng):
        a = Var(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        b = Var(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.mul(a, b), [a, b])

    def test_matmul_grads(self, rng):
        a = Var(rng.normal(size=(3, 5)).astype(np.float32), requires_grad=True)
        b = Var(rng.normal(size=(5, 2)).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.matmul(a, b), [a, b])

    def test_batched_matmul_grads(self, rng):
        a = Var(rng.normal(size=(2, 3, 4)).astype(np.float32), requires_grad=True)
        b = Var(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.matmul(a, b), [a, b])

    @pytest.mark.parametrize("fn", ["relu", "relu6", "hard_sigmoid",
                                    "hard_swish", "sigmoid", "tanh", "gelu"])
    def test_activation_grads(self, rng, fn):
        x = Var((rng.normal(size=(4, 5)) * 2).astype(np.float32),
                requires_grad=True)
        # Nudge values away from activation kinks where the numeric gradient
        # is ill-defined.
        x.data += 0.05 * np.sign(x.data)
        check_grads(lambda: ops.ACTIVATION_FNS[fn](x), [x])

    def test_softmax_grads(self, rng):
        x = Var(rng.normal(size=(3, 6)).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.softmax(x), [x])

    def test_reshape_concat_slice_grads(self, rng):
        a = Var(rng.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
        b = Var(rng.normal(size=(2, 3)).astype(np.float32), requires_grad=True)

        def build():
            cat = ops.concat([a, b])
            return ops.slice_channels(ops.reshape(cat, (2, 7)), 2, 6)

        check_grads(build, [a, b])

    def test_embedding_grads_accumulate_repeats(self, rng):
        table = Var(rng.normal(size=(5, 3)).astype(np.float32),
                    requires_grad=True)
        ids = np.array([[0, 0, 2]])
        out = ops.embedding(table, ids)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(table.grad[0], 2.0)  # row 0 used twice
        np.testing.assert_allclose(table.grad[1], 0.0)


class TestStructuredOps:
    def test_conv2d_grads(self, rng):
        x = Var(rng.normal(size=(2, 5, 5, 2)).astype(np.float32),
                requires_grad=True)
        w = Var(rng.normal(size=(3, 3, 2, 3)).astype(np.float32) * 0.5,
                requires_grad=True)
        b = Var(rng.normal(size=3).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.conv2d(x, w, b, stride=2, padding="same"),
                    [x, w, b])

    def test_depthwise_grads(self, rng):
        x = Var(rng.normal(size=(2, 5, 5, 3)).astype(np.float32),
                requires_grad=True)
        w = Var(rng.normal(size=(3, 3, 3, 1)).astype(np.float32) * 0.5,
                requires_grad=True)
        check_grads(lambda: ops.depthwise_conv2d(x, w), [x, w])

    def test_avg_pool_grads(self, rng):
        x = Var(rng.normal(size=(1, 6, 6, 2)).astype(np.float32),
                requires_grad=True)
        check_grads(lambda: ops.avg_pool2d(x, 2, padding="same"), [x])

    def test_global_avg_pool_grads(self, rng):
        x = Var(rng.normal(size=(2, 4, 4, 3)).astype(np.float32),
                requires_grad=True)
        check_grads(lambda: ops.global_avg_pool(x), [x])

    def test_batch_norm_grads(self, rng):
        x = Var(rng.normal(size=(8, 4)).astype(np.float32), requires_grad=True)
        g = Var(rng.normal(1, 0.2, 4).astype(np.float32), requires_grad=True)
        bt = Var(rng.normal(0, 0.2, 4).astype(np.float32), requires_grad=True)

        def build():
            running = {"mean": np.zeros(4, np.float32),
                       "variance": np.ones(4, np.float32)}
            return ops.batch_norm_train(x, g, bt, running)

        check_grads(build, [x, g, bt])

    def test_batch_norm_updates_running_stats(self, rng):
        x = Var(rng.normal(3, 2, size=(64, 4)).astype(np.float32))
        running = {"mean": np.zeros(4, np.float32),
                   "variance": np.ones(4, np.float32)}
        ops.batch_norm_train(x, Var(np.ones(4, np.float32)),
                             Var(np.zeros(4, np.float32)), running)
        # momentum 0.9 from a zero running mean keeps a tenth of the batch's
        np.testing.assert_allclose(running["mean"], 0.1 * x.data.mean(0),
                                   rtol=1e-4)

    def test_layer_norm_grads(self, rng):
        x = Var(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
        g = Var(rng.normal(1, 0.2, 6).astype(np.float32), requires_grad=True)
        bt = Var(rng.normal(0, 0.2, 6).astype(np.float32), requires_grad=True)
        check_grads(lambda: ops.layer_norm(x, g, bt), [x, g, bt])


class TestLosses:
    def test_cross_entropy_grad(self, rng):
        logits = Var(rng.normal(size=(6, 5)).astype(np.float32),
                     requires_grad=True)
        labels = rng.integers(0, 5, 6)
        loss = softmax_cross_entropy(logits, labels)
        loss.backward()
        num = numerical_grad(
            lambda: float(softmax_cross_entropy(Var(logits.data), labels).data),
            logits)
        np.testing.assert_allclose(logits.grad, num, atol=1e-3)

    def test_cross_entropy_perfect_prediction_low_loss(self):
        logits = Var(np.array([[100.0, 0.0], [0.0, 100.0]], np.float32))
        loss = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_mse_masked(self, rng):
        pred = Var(rng.normal(size=(2, 3)).astype(np.float32),
                   requires_grad=True)
        target = np.zeros((2, 3), np.float32)
        mask = np.zeros((2, 3), np.float32)
        mask[0, 0] = 1.0
        loss = mse(pred, target, mask)
        loss.backward()
        assert np.count_nonzero(pred.grad) == 1


class TestBackwardMechanics:
    def test_diamond_graph_accumulates(self, rng):
        x = Var(np.array([2.0], np.float32), requires_grad=True)
        y = ops.add(ops.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
        y.backward(np.ones(1, np.float32))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_deep_chain_no_recursion_error(self):
        x = Var(np.ones(1, np.float32), requires_grad=True)
        y = x
        for _ in range(3000):
            y = ops.add(y, Var(np.zeros(1, np.float32)))
        y.backward(np.ones(1, np.float32))
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_requires_scalar_or_grad(self, rng):
        x = Var(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            ops.mul(x, x).backward()

    def test_no_grad_for_constants(self, rng):
        a = Var(rng.normal(size=(2,)).astype(np.float32), requires_grad=True)
        c = Var(rng.normal(size=(2,)).astype(np.float32))
        out = ops.mul(a, c)
        out.backward(np.ones(2, np.float32))
        assert c.grad is None and a.grad is not None


class TestOptimizers:
    def quadratic_problem(self):
        target = np.array([3.0, -2.0], np.float32)
        w = Var(np.zeros(2, np.float32), requires_grad=True)
        return w, target

    def test_adam_converges(self):
        w, target = self.quadratic_problem()
        opt = Adam({"w": w}, lr=0.1)
        for _ in range(200):
            loss = mse(w, target)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-2)

    def test_skips_params_without_grads(self):
        w = Var(np.ones(2, np.float32), requires_grad=True)
        opt = Adam({"w": w})
        opt.step()  # no grad: must not crash or move
        np.testing.assert_allclose(w.data, 1.0)
