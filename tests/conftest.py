import tracemalloc

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def traced_peak():
    """measure(fn) -> (fn(), peak bytes newly allocated while fn ran), as
    traced by tracemalloc (NumPy reports its array buffers to it)."""

    def measure(fn):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return measure
