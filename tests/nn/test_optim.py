"""Unit tests for SGD and Adam optimisers, including convergence checks."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, Optimizer, Tensor, bce_with_logits


class TestConstruction:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.0)

    def test_momentum_bounds(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0], requires_grad=True)], lr=0.1, momentum=1.0)

    def test_base_step_not_implemented(self):
        opt = Optimizer.__new__(Optimizer)
        opt.parameters = [Tensor([1.0], requires_grad=True)]
        with pytest.raises(NotImplementedError):
            opt.step()


class TestSGD:
    def test_single_step_direction(self):
        p = Tensor([1.0], requires_grad=True)
        (p * 3.0).sum().backward()
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0 - 0.3])

    def test_skips_parameters_without_grad(self):
        p = Tensor([1.0], requires_grad=True)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = Tensor([1.0], requires_grad=True)
        (p * 2.0).sum().backward()
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Tensor([5.0], requires_grad=True)
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(20):
                opt.zero_grad()
                (p * p).sum().backward()
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_converges_on_quadratic(self):
        p = Tensor([4.0, -3.0], requires_grad=True)
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-8)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Tensor([4.0, -3.0], requires_grad=True)
        opt = Adam([p], lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, [0.0, 0.0], atol=1e-4)

    def test_bias_correction_first_step(self):
        p = Tensor([1.0], requires_grad=True)
        (p * 1.0).sum().backward()
        Adam([p], lr=0.1).step()
        # with bias correction the first step has magnitude ~lr
        np.testing.assert_allclose(p.data, [1.0 - 0.1], atol=1e-6)

    def test_trains_logistic_regression(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 4))
        true_w = np.array([1.5, -2.0, 0.5, 1.0])
        y = (x @ true_w > 0).astype(float)
        layer = Linear(4, 1, rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            logits, pullback = layer.forward_vjp(x, accumulate=True)
            _, loss_pullback = bce_with_logits(logits.reshape(200), y)
            pullback(loss_pullback().reshape(200, 1))
            opt.step()
        preds = (layer(x).data.ravel() > 0).astype(float)
        assert (preds == y).mean() > 0.95


def _per_tensor_adam(parameters, grads_per_step, lr=0.01):
    """The tensor-by-tensor Adam update the flat step replaced."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    data = [p.copy() for p in parameters]
    first = [np.zeros_like(p) for p in parameters]
    second = [np.zeros_like(p) for p in parameters]
    for step, grads in enumerate(grads_per_step, start=1):
        bias1 = 1.0 - beta1 ** step
        bias2 = 1.0 - beta2 ** step
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            first[i] *= beta1
            first[i] += (1.0 - beta1) * grad
            second[i] *= beta2
            second[i] += (1.0 - beta2) * grad * grad
            data[i] = data[i] - lr * (first[i] / bias1) / (np.sqrt(second[i] / bias2) + eps)
    return data, first, second


def _per_tensor_sgd(parameters, grads_per_step, lr, momentum):
    """The tensor-by-tensor SGD update the flat step replaced."""
    data = [p.copy() for p in parameters]
    velocity = [np.zeros_like(p) for p in parameters]
    for grads in grads_per_step:
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            if momentum:
                velocity[i] *= momentum
                velocity[i] += grad
                update = velocity[i]
            else:
                update = grad
            data[i] = data[i] - lr * update
    return data, velocity


def _parameters_and_grads(rng, dtypes):
    shapes = [(4, 3), (3,), (3, 1), ()]
    values = [rng.normal(size=shape).astype(dtype) for shape, dtype in zip(shapes, dtypes)]
    grads_per_step = [
        [None if (step + i) % 3 == 0 else rng.normal(size=shape).astype(dtype)
         for i, (shape, dtype) in enumerate(zip(shapes, dtypes))]
        for step in range(6)
    ]
    grads_per_step[-1] = [rng.normal(size=s) for s in shapes]  # float64 grads
    return values, grads_per_step


def _run(optimizer_cls, values, grads_per_step, **kwargs):
    tensors = [Tensor(v.copy(), requires_grad=True) for v in values]
    optimizer = optimizer_cls(tensors, **kwargs)
    for grads in grads_per_step:
        for tensor, grad in zip(tensors, grads):
            tensor.grad = None if grad is None else grad.copy()
        optimizer.step()
    return tensors, optimizer


DTYPE_MIXES = {
    "float64": [np.float64] * 4,
    "float32": [np.float32] * 4,
    "mixed": [np.float32, np.float64, np.float32, np.float64],
}


class TestFlatStep:
    @pytest.mark.parametrize("mix", sorted(DTYPE_MIXES))
    def test_adam_bit_identical_to_per_tensor_update(self, mix):
        values, grads_per_step = _parameters_and_grads(
            np.random.default_rng(7), DTYPE_MIXES[mix])
        tensors, optimizer = _run(Adam, values, grads_per_step, lr=0.01)
        data, first, second = _per_tensor_adam(values, grads_per_step)
        for i, tensor in enumerate(tensors):
            assert tensor.data.dtype == data[i].dtype
            np.testing.assert_array_equal(tensor.data, data[i])
            np.testing.assert_array_equal(optimizer._first_moment[i], first[i])
            np.testing.assert_array_equal(optimizer._second_moment[i], second[i])

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("mix", sorted(DTYPE_MIXES))
    def test_sgd_bit_identical_to_per_tensor_update(self, mix, momentum):
        values, grads_per_step = _parameters_and_grads(
            np.random.default_rng(8), DTYPE_MIXES[mix])
        tensors, optimizer = _run(SGD, values, grads_per_step, lr=0.05,
                                  momentum=momentum)
        data, velocity = _per_tensor_sgd(values, grads_per_step, 0.05, momentum)
        for i, tensor in enumerate(tensors):
            assert tensor.data.dtype == data[i].dtype
            np.testing.assert_array_equal(tensor.data, data[i])
            np.testing.assert_array_equal(optimizer._velocity[i], velocity[i])

    @pytest.mark.parametrize("optimizer_cls", [Adam, SGD])
    def test_parameter_without_grad_keeps_value_and_state(self, optimizer_cls):
        rng = np.random.default_rng(9)
        kwargs = {"lr": 0.1} if optimizer_cls is Adam else {"lr": 0.1, "momentum": 0.9}
        live = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        idle = Tensor(rng.normal(size=4), requires_grad=True)
        optimizer = optimizer_cls([live, idle], **kwargs)
        for step in range(3):
            live.grad = rng.normal(size=(3, 2))
            idle.grad = rng.normal(size=4) if step == 0 else None
            if step == 0:
                optimizer.step()
                data = idle.data
                states = [state[1].copy() for state in _state_lists(optimizer)]
                continue
            optimizer.step()
            assert idle.data is data
            for state, saved in zip(_state_lists(optimizer), states):
                np.testing.assert_array_equal(state[1], saved)
        assert not np.array_equal(live.data, live.grad)  # the live one moved


def _state_lists(optimizer):
    if isinstance(optimizer, Adam):
        return [optimizer._first_moment, optimizer._second_moment]
    return [optimizer._velocity]
