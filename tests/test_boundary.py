"""Property test of the request contract of ``segment()``.

On any small Gaussian scene, ``segment()`` either returns P labels in
[0, n) or rejects the request with a ``ValueError`` that is not a LAPACK
failure; requests that cannot fit the input are always rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseg.clustering import SegmentConfig, segment
from subseg.synthcam import TrajectoryMatrix


@st.composite
def requests(draw):
    F = draw(st.integers(1, 4))
    P = draw(st.integers(1, 12))
    m_max = min(2 * F, P)
    # half of the draws stay in range, half may fall outside it
    n = draw(st.integers(1, P) | st.integers(-1, P + 2))
    m = draw(st.integers(1, m_max) | st.integers(-1, m_max + 2))
    projector = draw(st.sampled_from(["pca", "spca"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    data = 100.0 * np.random.default_rng(seed).normal(size=(2 * F, P))
    return TrajectoryMatrix.from_dense(data), n, m, projector


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=25, deadline=None, derandomize=True)
@given(requests())
def test_segment_returns_labels_or_rejects_request(case):
    W, n, m, projector = case
    P = W.points
    try:
        labeling, _ = segment(W, SegmentConfig(n=n, m=m, projector=projector))
    except ValueError as exc:
        assert not isinstance(exc, np.linalg.LinAlgError)
        return
    assert not (n < 1 or m < 1 or n > P or m > min(W.data.shape))
    assert labeling.labels.shape == (P,)
    assert np.all((labeling.labels >= 0) & (labeling.labels < n))
