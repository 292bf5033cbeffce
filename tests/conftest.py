import sys
import threading
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a Python thread running: every helper thread
    the library starts is joined before the call that started it returns."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"
