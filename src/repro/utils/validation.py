"""Argument validation helpers shared across the library.

Consistent error messages for the public API: shape checks for encoded
matrices, probability/ratio checks for hyperparameters, and label checks
for binary classification inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SchemaMismatchError", "check_2d", "check_2d_fast",
           "check_binary_labels", "check_encoded_rows", "check_encoded_sweep",
           "check_probability", "check_positive", "check_schema_width",
           "resolve_desired"]


class SchemaMismatchError(ValueError):
    """Input columns do not match the schema a model was trained on.

    Raised by explainers and the serving layer *before* the mismatched
    matrix reaches a matmul, so callers get a description of the schema
    contract instead of a numpy broadcasting error.
    """


def check_schema_width(array, n_expected, name="x", context=None):
    """Validate that a 2-D ``array`` has ``n_expected`` encoded columns.

    ``context`` names the schema owner (e.g. ``"dataset 'adult'"``) so the
    error points the caller at the right encoder.  Returns the array.
    """
    n_got = array.shape[1]
    if n_got != int(n_expected):
        where = f" trained on {context}" if context else ""
        raise SchemaMismatchError(
            f"{name} has {n_got} columns but the schema{where} expects "
            f"{n_expected} encoded columns; encode rows with the same "
            f"TabularEncoder the model was trained with")
    return array


def _coerce_schema_array(array, encoder, name):
    """Coerce a request to float64, mapping dtype failures to schema errors.

    The shared first step of :func:`check_encoded_rows` and
    :func:`check_encoded_sweep`: a non-numeric payload that numpy cannot
    convert is a schema-contract violation, not an internal error.
    """
    try:
        return np.asarray(array, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise SchemaMismatchError(
            f"{name} does not match the encoded schema of dataset "
            f"{encoder.schema.name!r}: {error}") from error


def _require_finite(array, name):
    """Reject NaN/inf cells as a schema-contract violation."""
    if not np.isfinite(array).all():
        raise SchemaMismatchError(f"{name} contains NaN or infinite values")
    return array


def check_encoded_rows(array, encoder, name="x"):
    """Full request validation against a fitted encoder's schema.

    The shared entry check of every explain/serve surface: 2-D + finite
    and the column count of ``encoder`` (:func:`check_schema_width`,
    with the dataset named in the error).  Returns the validated float
    matrix.

    Any content failure — a non-numeric dtype that cannot be coerced, or
    NaN/inf cells — is reported as a :class:`SchemaMismatchError` (a
    ``ValueError`` subclass), so callers fuzzing the serving surfaces see
    one schema-contract error type instead of raw numpy messages.  A
    wrong number of axes stays a plain ``ValueError`` (that is an
    API-shape mistake, not schema drift) — the same contract as
    :func:`check_encoded_sweep`.
    """
    array = _coerce_schema_array(array, encoder, name)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    _require_finite(array, name)
    return check_schema_width(
        array, encoder.n_encoded, name,
        context=f"dataset {encoder.schema.name!r}")


def check_encoded_sweep(candidates, encoder, n_rows=None, name="candidates"):
    """Validate a ``(n_rows, m, d)`` candidate sweep against a schema.

    The 3-D counterpart of :func:`check_encoded_rows`, used by the
    causal layer's ``repair_batch`` (and anything else consuming full
    candidate tensors): float-coercible, finite, 3-D, ``d`` matching the
    encoder width and — when ``n_rows`` is given — the first axis
    matching the input batch.  Content failures raise
    :class:`SchemaMismatchError`; a wrong number of axes stays a plain
    ``ValueError`` (that is an API-shape mistake, not schema drift).
    """
    candidates = _coerce_schema_array(candidates, encoder, name)
    if candidates.ndim != 3:
        raise ValueError(
            f"{name} must be a (n_rows, n_candidates, d) tensor, "
            f"got shape {candidates.shape}")
    if candidates.shape[2] != encoder.n_encoded:
        raise SchemaMismatchError(
            f"{name} has {candidates.shape[2]} encoded columns but the "
            f"schema trained on dataset {encoder.schema.name!r} expects "
            f"{encoder.n_encoded} encoded columns; encode rows with the "
            f"same TabularEncoder the model was trained with")
    if n_rows is not None and candidates.shape[0] != int(n_rows):
        raise ValueError(
            f"{name} holds candidates for {candidates.shape[0]} rows but "
            f"x has {n_rows} rows")
    return _require_finite(candidates, name)


def check_2d(array, name="array"):
    """Return ``array`` as a float 2-D ndarray or raise ``ValueError``."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return array


def check_2d_fast(array, name="array"):
    """Shape-only variant of :func:`check_2d` for per-call hot paths.

    Skips the full-matrix ``isfinite`` scan, which costs as much as a
    small forward pass and would be paid on *every* predict call.  Batch
    entry points (``fit``, ``explain``) still run the full check, so
    non-finite data is caught before it reaches the repeated-call paths.
    Float inputs keep their dtype (float32 stays float32 so the fast
    mode is not silently up-cast); everything else coerces to float64.
    """
    array = np.asarray(array)
    if array.dtype.kind != "f":
        array = array.astype(np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return array


def check_binary_labels(labels, name="labels"):
    """Return ``labels`` as an int array of 0/1 or raise ``ValueError``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {labels.shape}")
    unique = np.unique(labels)
    if not np.isin(unique, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0/1, got values {unique[:10]}")
    return labels.astype(int)


def resolve_desired(blackbox, x, desired):
    """Per-row desired classes for the rows ``x``: the one class policy.

    * ``None`` flips the black box's prediction on every row;
    * a scalar is broadcast to every row;
    * a per-row sequence may mix explicit classes with ``None``, which
      flips that row's prediction.

    The black box is consulted only when some row needs a flip.  The
    black boxes are binary, so a flip is ``1 - prediction`` and a class
    outside {0, 1} can never be reached: it raises ``ValueError``, as do
    a sequence that is not 1-D and one whose length differs from ``x``.
    Returns an int array of shape ``(len(x),)``.
    """
    n_rows = len(x)
    if desired is None:
        return 1 - blackbox.predict(x)
    desired = np.asarray(desired)
    if desired.ndim == 0:
        desired = np.full(n_rows, desired)
    elif desired.ndim != 1:
        raise ValueError(
            f"desired must be a scalar or 1-D vector, got shape {desired.shape}")
    elif len(desired) != n_rows:
        raise ValueError(
            f"desired ({len(desired)}) and x ({n_rows}) row counts differ")
    if desired.dtype == object:
        flip = np.array([value is None for value in desired])
        if flip.any():
            desired = desired.copy()
            desired[flip] = (1 - blackbox.predict(x))[flip]
    binary = (desired == 0) | (desired == 1)
    if not binary.all():
        raise ValueError(
            f"desired classes must be 0 or 1, got {desired[~binary][:10].tolist()}")
    return desired.astype(int)


def check_probability(value, name="probability"):
    """Validate a scalar in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value, name="value"):
    """Validate a strictly positive scalar."""
    value = float(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value
