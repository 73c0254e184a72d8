"""Property tests: serving cache keys and routing keys ignore row layout.

The same encoded request must hit the same cache entry and route to the
same replica whatever array it arrives in: float64 or float32 (for
float32-representable values), an integer array (for integral values),
C or Fortran order, or a strided view into a larger buffer.  Both zeros
are the same input, so a row holding ``-0.0`` keys like the same row
holding ``0.0`` (an integer array cannot carry ``-0.0`` at all).

* cache keys — :meth:`ExplanationService.explain` of a variant after
  the float64 original answers every row from the cache;
* routing keys — :func:`repro.serve.request_key` of each variant row
  equals that of the original row.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import ExplanationService, request_key

#: Exactly representable in float32, and integral where the int layout
#: needs it; both signs of zero.
VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 0.125])
INTEGRAL = st.sampled_from([0.0, -0.0, 1.0])
LAYOUTS = ("float32", "int64", "fortran", "row_stride", "column_stride", "signed_zero")


def relayout(rows, layout):
    """``rows`` (float64, C order) in another array of the same values."""
    if layout == "float32":
        return rows.astype(np.float32)
    if layout == "int64":
        return rows.astype(np.int64)
    if layout == "fortran":
        return np.asfortranarray(rows)
    if layout == "row_stride":
        buffer = np.full((2 * len(rows), rows.shape[1]), 9.0)
        buffer[::2] = rows
        return buffer[::2]
    if layout == "column_stride":
        buffer = np.full((len(rows), 3 * rows.shape[1]), 9.0)
        buffer[:, 1::3] = rows
        return buffer[:, 1::3]
    if layout == "signed_zero":
        return np.where(rows == 0.0, np.where(np.signbit(rows), 0.0, -0.0), rows)
    raise ValueError(layout)


@st.composite
def requests(draw, width):
    """``(rows, layout)``: a float64 batch and a layout to resend it in."""
    layout = draw(st.sampled_from(LAYOUTS))
    n = draw(st.integers(1, 4))
    elements = INTEGRAL if layout == "int64" else VALUES
    rows = draw(hnp.arrays(np.float64, (n, width), elements=elements))
    return rows, layout


def _width(tiny_pipeline):
    return tiny_pipeline.bundle.encoder.n_encoded


def test_relayout_keeps_values():
    rows = np.array([[0.0, -0.0, 1.0], [1.0, -0.0, 0.0]])
    for layout in LAYOUTS:
        np.testing.assert_array_equal(relayout(rows, layout), rows)
    flipped = relayout(rows, "signed_zero")
    np.testing.assert_array_equal(np.signbit(flipped), [[True, False, False],
                                                        [False, False, True]])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cache_key_ignores_layout(tiny_pipeline, data):
    rows, layout = data.draw(requests(_width(tiny_pipeline)))
    service = ExplanationService(tiny_pipeline, cache_size=64)
    service.explain_batch(rows, desired=1)
    hits = service.cache.stats["hits"]
    service.explain_batch(relayout(rows, layout), desired=1)
    assert service.cache.stats["hits"] - hits == len(rows), layout


@settings(max_examples=200, deadline=None)
@given(requests(width=7), st.sampled_from([None, 0, 1]))
def test_routing_key_ignores_layout(request, desired):
    rows, layout = request
    variant = relayout(rows, layout)
    for row, variant_row in zip(rows, variant):
        assert (request_key("fp", variant_row, desired)
                == request_key("fp", row, desired)), layout
