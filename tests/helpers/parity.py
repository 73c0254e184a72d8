"""Shared batched-vs-loop parity harness.

Every vectorization PR in this repo keeps the per-row loop it replaced
as a parity reference and pins the batched path bit-identical to it on
all registry datasets (the compiled feasibility kernel, the density
selector, the t-SNE perplexity search, the causal repair pass).  The
pattern used to be copy-pasted per test module; this module is the one
home for it:

* :func:`registry_bundle_fixture` — a parametrized module-scoped bundle
  fixture over every registry dataset (assign it to a module-level name
  and pytest picks it up like a locally defined fixture),
* :func:`perturbed` — the standard noisy-candidate generator,
* :func:`assert_bit_identical` — recursive exact equality over arrays,
  dicts, sequences and scalars, with a context label in failures,
* :func:`assert_close` — the float-tolerance variant for matmul-backed
  paths whose BLAS blocking varies with batch shape,
* :func:`assert_batched_matches_loop` — run a batched callable and its
  loop reference on the same inputs and pin the outputs together.
"""

import numpy as np
import pytest

from repro.data import dataset_names, load_dataset

#: Every registry dataset, in sorted order (stable test ids).
DATASETS = tuple(sorted(dataset_names()))


def registry_bundle_fixture(n_instances=900, seed=1, scope="module"):
    """Build a bundle fixture parametrized over all registry datasets.

    Usage::

        from tests.helpers.parity import registry_bundle_fixture
        bundle = registry_bundle_fixture()

        def test_something(bundle): ...
    """

    @pytest.fixture(scope=scope, params=DATASETS)
    def bundle(request):
        return load_dataset(request.param, n_instances=n_instances, seed=seed)

    return bundle


def perturbed(x, rng, scale, m=1):
    """``m`` noisy candidates per row of ``x``, flat in ``np.repeat`` order."""
    noise = rng.normal(0.0, scale, size=(len(x) * m, x.shape[1]))
    return np.clip(np.repeat(x, m, axis=0) + noise, 0.0, 1.0)


def candidate_sweep(x, rng, scale, m):
    """``(n, m, d)`` noisy candidate tensor around ``x``."""
    return perturbed(x, rng, scale, m=m).reshape(len(x), m, x.shape[1])


def _compare(fast, loop, context, leaf):
    if isinstance(fast, np.ndarray) or isinstance(loop, np.ndarray):
        leaf(np.asarray(fast), np.asarray(loop), context)
    elif isinstance(fast, dict) and isinstance(loop, dict):
        assert fast.keys() == loop.keys(), \
            f"{context}: key sets differ ({sorted(fast)} vs {sorted(loop)})"
        for key in fast:
            _compare(fast[key], loop[key], f"{context}[{key!r}]", leaf)
    elif isinstance(fast, (list, tuple)) and isinstance(loop, (list, tuple)):
        assert len(fast) == len(loop), \
            f"{context}: lengths differ ({len(fast)} vs {len(loop)})"
        for index, (f, s) in enumerate(zip(fast, loop)):
            _compare(f, s, f"{context}[{index}]", leaf)
    elif isinstance(fast, float) and isinstance(loop, float):
        leaf(np.asarray(fast), np.asarray(loop), context)
    else:
        assert fast == loop, f"{context}: {fast!r} != {loop!r}"


def assert_bit_identical(fast, loop, context="batched vs loop"):
    """Recursive *exact* equality: the bit-parity contract."""

    def leaf(f, s, where):
        np.testing.assert_array_equal(f, s, err_msg=where)

    _compare(fast, loop, context, leaf)


def assert_close(fast, loop, atol=1e-9, context="batched vs loop"):
    """Recursive float-tolerance equality (matmul-backed paths)."""

    def leaf(f, s, where):
        np.testing.assert_allclose(f, s, atol=atol, err_msg=where)

    _compare(fast, loop, context, leaf)


def assert_grad_matches_fd(penalty_fn, x, n_coords=8, eps=1e-5, rtol=5e-3,
                           atol=1e-6, context="analytic vs finite difference",
                           grad_fn=None):
    """Pin a scalar penalty's backward gradient to central differences.

    ``penalty_fn`` maps a :class:`repro.nn.Tensor` batch to a scalar
    Tensor.  The analytic gradient is taken once via ``backward()``, or
    as ``grad_fn(x)`` when a hand-written gradient (a graph-free
    pullback) is under test; the ``n_coords`` coordinates with the
    largest magnitude are then re-derived by central finite differences
    and compared.  The in-loss surrogates keep their hinges squared
    (C^1) precisely so this check is meaningful at hinge boundaries.
    Returns the full analytic gradient for further domain assertions.
    """
    from repro.nn import Tensor

    x = np.asarray(x, dtype=np.float64)
    if grad_fn is None:
        tensor = Tensor(x.copy(), requires_grad=True)
        penalty_fn(tensor).backward()
        grad = np.asarray(tensor.grad)
    else:
        grad = np.asarray(grad_fn(x.copy()))
    assert np.abs(grad).sum() > 0, f"{context}: gradient is identically zero"
    largest = np.argsort(np.abs(grad).ravel())[::-1][:n_coords]
    for position in largest:
        index = np.unravel_index(position, grad.shape)
        plus, minus = x.copy(), x.copy()
        plus[index] += eps
        minus[index] -= eps
        central = (penalty_fn(Tensor(plus)).item()
                   - penalty_fn(Tensor(minus)).item()) / (2.0 * eps)
        np.testing.assert_allclose(
            grad[index], central, rtol=rtol, atol=atol,
            err_msg=f"{context}: coordinate {index}")
    return grad


def assert_batched_matches_loop(batched_fn, loop_fn, *args, atol=None,
                                context=None, **kwargs):
    """Run both paths on identical inputs and pin the outputs together.

    ``atol=None`` (the default) demands bit-identity; a float switches
    to tolerance comparison.  Returns ``(batched, loop)`` so callers can
    make further domain assertions on either result.
    """
    fast = batched_fn(*args, **kwargs)
    loop = loop_fn(*args, **kwargs)
    where = context or f"{getattr(batched_fn, '__name__', batched_fn)} vs loop"
    if atol is None:
        assert_bit_identical(fast, loop, context=where)
    else:
        assert_close(fast, loop, atol=atol, context=where)
    return fast, loop
