"""Table-driven z-order curve vs the textbook bit-by-bit interleave.

:class:`~repro.lsh.zorder.ZOrderCurve` interleaves by byte lookup
tables.  The functions below are the plain ``bits × dims`` loops the
tables replace; they define the curve, and every property here checks
the tables against them bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.zorder import ZOrderCurve


def reference_encode(coords: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Bit ``b`` of axis ``a`` goes to code bit ``b * dims + dims-1-a``."""
    codes = np.zeros(coords.shape[0], dtype=np.int64)
    for bit in range(bits):
        for axis in range(dims):
            source_bit = (coords[:, axis] >> bit) & 1
            codes |= source_bit << (bit * dims + (dims - 1 - axis))
    return codes


def reference_decode(codes: np.ndarray, dims: int, bits: int) -> np.ndarray:
    coords = np.zeros((codes.shape[0], dims), dtype=np.int64)
    for bit in range(bits):
        for axis in range(dims):
            source = bit * dims + (dims - 1 - axis)
            coords[:, axis] |= ((codes >> source) & 1) << bit
    return coords


def reference_linearize(points: np.ndarray, dims: int, bits: int) -> np.ndarray:
    cells = np.clip(
        (points * (1 << bits)).astype(np.int64), 0, (1 << bits) - 1
    )
    return reference_encode(cells, dims, bits) / (1 << (dims * bits))


@st.composite
def curves(draw):
    dims = draw(st.integers(1, 6))
    bits = draw(st.integers(1, 62 // dims))
    return dims, bits


@st.composite
def curves_with_coords(draw):
    dims, bits = draw(curves())
    top = (1 << bits) - 1
    # Extremes and single set bits exercise every table byte.
    values = st.one_of(
        st.integers(0, top),
        st.sampled_from([0, top]),
        st.integers(0, bits - 1).map(lambda b: 1 << b),
    )
    coords = draw(
        st.lists(
            st.lists(values, min_size=dims, max_size=dims),
            min_size=1,
            max_size=8,
        )
    )
    return dims, bits, np.array(coords, dtype=np.int64)


class TestAgainstReference:
    @given(config=curves_with_coords())
    @settings(max_examples=200, deadline=None)
    def test_encode(self, config):
        dims, bits, coords = config
        curve = ZOrderCurve(dims, bits)
        expected = reference_encode(coords, dims, bits)
        assert np.array_equal(curve.encode(coords), expected)

    @given(config=curves_with_coords())
    @settings(max_examples=200, deadline=None)
    def test_decode_inverts_encode(self, config):
        dims, bits, coords = config
        curve = ZOrderCurve(dims, bits)
        codes = curve.encode(coords)
        assert np.array_equal(curve.decode(codes), coords)
        assert np.array_equal(
            curve.decode(codes), reference_decode(codes, dims, bits)
        )

    @given(config=curves(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_linearize(self, config, data):
        dims, bits = config
        curve = ZOrderCurve(dims, bits)
        edges = [0.0, np.nextafter(1.0, 0.0), 1.0, -0.25, 1.5]
        unit = st.one_of(
            st.floats(0.0, 1.0, allow_nan=False), st.sampled_from(edges)
        )
        points = np.array(
            data.draw(
                st.lists(
                    st.lists(unit, min_size=dims, max_size=dims),
                    min_size=1,
                    max_size=8,
                )
            )
        )
        got = curve.linearize(points)
        expected = reference_linearize(points, dims, bits)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_scalar_decode_keeps_shape(self):
        curve = ZOrderCurve(3, 10)
        code = int(curve.encode(np.array([5, 1000, 77]))[0])
        assert curve.decode(np.int64(code)).tolist() == [5, 1000, 77]

    def test_clip_edges_match_reference(self):
        for dims, bits in [
            (1, 4), (2, 4), (4, 4), (6, 4), (3, 10), (2, 20), (1, 62), (6, 10)
        ]:
            curve = ZOrderCurve(dims, bits)
            rng = np.random.default_rng(dims * 100 + bits)
            points = rng.uniform(size=(64, dims))
            points[0] = 0.0
            points[1] = np.nextafter(1.0, 0.0)
            points[2, ::2] = np.nextafter(1.0, 0.0)
            expected = reference_linearize(points, dims, bits)
            assert np.array_equal(curve.linearize(points), expected)
