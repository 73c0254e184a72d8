"""First-order optimisers for :mod:`repro.nn` modules.

``SGD`` (with optional momentum) and ``Adam`` cover everything the paper
trains: the black-box classifier, the CF-VAE (Table III uses plain SGD
learning rates of 0.1/0.2) and the gradient-based baselines.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


def _flatten(arrays):
    """``arrays`` raveled and concatenated in order (one array: a view)."""
    if len(arrays) == 1:
        return arrays[0].reshape(-1)
    return np.concatenate([array.reshape(-1) for array in arrays])


def _split(flat, shapes):
    """Views of consecutive pieces of ``flat`` with the given shapes."""
    if len(shapes) == 1:
        return [flat.reshape(shapes[0])]
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class Optimizer:
    """Base optimiser bound to a list of parameter tensors.

    One update runs as a single set of elementwise ops over flat buffers
    instead of once per tensor.  The optimiser state (moments, velocity)
    lives in one flat buffer per parameter dtype and is exposed per
    parameter as views of it.  :meth:`_step_flat` concatenates the values
    and gradients of the parameters that have a gradient, grouped so that
    no value changes dtype, hands each group to the subclass's
    :meth:`_update` and gives each ``.data`` a view of the new array.
    Elementwise ops make this bit-identical to updating tensor by tensor;
    a parameter whose ``.grad`` is ``None`` keeps its value and its state.
    """

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        # each parameter's [start, stop) in the state buffer of its dtype
        self._spans, self._state_sizes = [], {}
        for parameter in self.parameters:
            dtype = parameter.data.dtype
            start = self._state_sizes.get(dtype, 0)
            self._state_sizes[dtype] = start + parameter.data.size
            self._spans.append((dtype, start, self._state_sizes[dtype]))
        # per group of parameter indices: its rows in the state buffer
        self._group_rows = {}

    def zero_grad(self):
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self):
        """Apply one update; subclasses must override."""
        raise NotImplementedError

    def _zero_state(self):
        """Fresh zero state: ``({dtype: flat buffer}, per-parameter views)``."""
        buffers = {dtype: np.zeros(size, dtype=dtype)
                   for dtype, size in self._state_sizes.items()}
        views = [buffers[dtype][start:stop].reshape(parameter.data.shape)
                 for (dtype, start, stop), parameter in zip(self._spans, self.parameters)]
        return buffers, views

    def _state_rows(self, dtype, indices):
        """Positions of ``indices`` in the ``dtype`` state buffer; ``None``
        when they are the whole buffer, in order."""
        spans = [self._spans[i] for i in indices]
        if spans[0][1] == 0 and spans[-1][2] == self._state_sizes[dtype] and all(
                a[2] == b[1] for a, b in zip(spans, spans[1:])):
            return None
        return np.concatenate([np.arange(start, stop) for _, start, stop in spans])

    def _step_flat(self):
        """Update every parameter that has a gradient, one group at a time."""
        groups = {}
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is not None:
                key = (self._spans[index][0], parameter.data.dtype, parameter.grad.dtype)
                groups.setdefault(key, []).append(index)
        for (dtype, _, _), indices in groups.items():
            parameters = [self.parameters[i] for i in indices]
            key = tuple(indices)
            if key not in self._group_rows:
                self._group_rows[key] = self._state_rows(dtype, indices)
            updated = self._update(dtype, self._group_rows[key],
                                   _flatten([parameter.data for parameter in parameters]),
                                   _flatten([parameter.grad for parameter in parameters]))
            views = _split(updated, [parameter.data.shape for parameter in parameters])
            for parameter, view in zip(parameters, views):
                parameter.data = view

    def _update(self, dtype, rows, data, grad):
        """Return the updated flat ``data`` given the flat ``grad``.

        ``rows`` selects the group's entries of the ``dtype`` state
        buffers (``None``: all of them); read them with :func:`_rows` and
        write them back with :func:`_store`.
        """
        raise NotImplementedError


def _rows(buffer, rows):
    """The selected state entries: the buffer itself (updated in place) or a copy."""
    return buffer if rows is None else buffer[rows]


def _store(buffer, rows, values):
    """Write updated state entries back (a no-op for in-place updates)."""
    if rows is not None:
        buffer[rows] = values


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, parameters, lr, momentum=0.0):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity_buffers, self._velocity = self._zero_state()

    def step(self):
        self._step_flat()

    def _update(self, dtype, rows, data, grad):
        if self.momentum:
            buffer = self._velocity_buffers[dtype]
            velocity = _rows(buffer, rows)
            velocity *= self.momentum
            velocity += grad
            _store(buffer, rows, velocity)
            update = velocity
        else:
            update = grad
        return data - self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self._step_count = 0
        self._first_buffers, self._first_moment = self._zero_state()
        self._second_buffers, self._second_moment = self._zero_state()

    def step(self):
        self._step_count += 1
        self._step_flat()

    def _update(self, dtype, rows, data, grad):
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        m = _rows(self._first_buffers[dtype], rows)
        v = _rows(self._second_buffers[dtype], rows)
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        _store(self._first_buffers[dtype], rows, m)
        _store(self._second_buffers[dtype], rows, v)
        m_hat = m / bias1
        v_hat = v / bias2
        return data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
