"""One working-memory bound for every buffer that grows with its input.

Each row of ``ROUTINES`` draws one call of a blocked routine, sized so
that one block of it would not fit the budget.  With ``WORKING_MEMORY``
patched to a drawn budget, the call's ``tracemalloc`` peak stays within
the budget plus the slack its row states, what the routine holds outside
its blocks, plus ``OBJECTS``, the Python objects of one call.  Its output
equals the one-block output at any budget, one block per row or feature
included.
"""

import tracemalloc
from typing import Callable, NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi import models, preprocess
from dualmsi.models import KNearestNeighbors
from dualmsi.preprocess import bilateral_filter


class Call(NamedTuple):
    """One drawn call: ``run`` returns the routine's output; a budget of at
    least ``least`` bytes holds one block; ``slack`` bytes are held outside
    the blocks."""

    run: Callable
    least: int
    slack: int


@st.composite
def knn_calls(draw):
    n_train, n_test = draw(st.integers(500, 3000)), draw(st.integers(100, 1000))
    d = draw(st.integers(1, 8))
    k, n_labels = draw(st.integers(1, min(n_train, 9))), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(0, 3))
    if levels == 0:  # spread rows
        x, q = rng.normal(size=(n_train, d)), rng.normal(size=(n_test, d))
    else:  # rows on a coarse grid: many exact ties, every row a candidate on one level
        x, q = (rng.integers(0, levels, size=(rows, d)) / 3.0 for rows in (n_train, n_test))
    model = KNearestNeighbors(k=k).fit(x, rng.integers(0, n_labels, n_train) * 5.0)
    # one row's distances and partitioned copy in half the budget, and its
    # refine with every training row a candidate in what the other half leaves
    least = 4 * int(models._knn_refine_bytes(n_train, k, n_labels))
    # the training indices and squared norms and the output (np.unique's sort
    # is over before the first block)
    return Call(lambda: model.predict(q), least, 8 * (2 * n_train + n_test))


@st.composite
def split_calls(draw):
    m, n = draw(st.integers(8, 26)), draw(st.integers(1000, 4000))
    n_classes = draw(st.integers(5, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, n_classes, n)
    x = rng.integers(0, draw(st.integers(1, 50)), size=(n, m)).astype(float)
    order = np.argsort(x, axis=0, kind="stable").T
    args = (x.T[np.arange(m)[:, None], order], y[order], np.bincount(y, minlength=n_classes),
            draw(st.integers(1, 3)), np.arange(n_classes)[:, None])
    # one feature's temporaries of one class beside numpy's buffers (8,192
    # elements for each of two operands) for the broadcast class comparison;
    # the gap sizes and their squares
    return Call(lambda: models._best_split(*args), models._split_feature_bytes(n, 1) + 2 * 8 * 8192,
                8 * 4 * n)


@st.composite
def bilateral_calls(draw):
    b, h, w = draw(st.integers(1, 2)), draw(st.integers(24, 40)), draw(st.integers(24, 40))
    window = 2 * draw(st.integers(5, 10)) + 1
    half = window // 2
    stack = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((b, h, w))
    # one padded row and six output rows of the per-offset form
    least = 8 * ((1 + 2 * half) * (w + 2 * half) + 6 * w)
    # the output stack and the strip's row and column indices
    slack = 8 * (b * h * w + h + w + 4 * half)
    return Call(lambda: bilateral_filter(stack, 2.0, 0.1, window), least, slack)


# (routine, the module whose WORKING_MEMORY bounds it, its drawn calls)
ROUTINES = [
    ("knn predict", models, knn_calls()),
    ("best split", models, split_calls()),
    ("bilateral", preprocess, bilateral_calls()),
]
IDS = [name for name, _, _ in ROUTINES]
# array headers, index tuples and the Python frames of one call
OBJECTS = 2**15


def traced_peak(run) -> int:
    """Bytes ``run()`` allocates at its peak beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, module, calls", ROUTINES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_peak_stays_within_the_budget(name, module, calls, data):
    call = data.draw(calls)
    # at least 64 KiB, so that OBJECTS stays small beside the budget
    budget = data.draw(st.integers(max(call.least, 2**16), 2**23), label="budget")
    with mock.patch.object(module, "WORKING_MEMORY", budget):
        call.run()  # first calls fill lazy caches
        peak = traced_peak(call.run)
    assert peak <= budget + call.slack + OBJECTS


@pytest.mark.parametrize("name, module, calls", ROUTINES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_blocked_output_equals_one_block(name, module, calls, data):
    call = data.draw(calls)
    budget = data.draw(st.integers(1, 2**23), label="budget")
    with mock.patch.object(module, "WORKING_MEMORY", 2**40):
        whole = call.run()
    for small in (budget, 1):
        with mock.patch.object(module, "WORKING_MEMORY", small):
            blocked = call.run()
        if isinstance(whole, np.ndarray):
            assert blocked.tobytes() == whole.tobytes()
        else:
            assert blocked == whole


# (stack shape, window, budget): two 4 x 4 frames where the paired form
# would hold 2 * 32,512 buffers of the 258 x 258 padded grid, 48.6 GiB; and
# a frame whose per-offset buffers take strips of rows
WIDE_WINDOWS = [((2, 4, 4), 255, 2**23), ((1, 64, 64), 21, 2**16)]


@pytest.mark.parametrize("shape, window, budget", WIDE_WINDOWS)
def test_wide_bilateral_window_stays_within_the_budget(shape, window, budget):
    stack = np.random.default_rng(8).random(shape)
    with mock.patch.object(preprocess, "WORKING_MEMORY", budget):
        peak = traced_peak(lambda: bilateral_filter(stack, window=window))
    assert peak <= budget + 8 * stack.size + OBJECTS
