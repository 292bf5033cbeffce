import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from ccsaa import saa

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


@pytest.fixture
def helper_pools(monkeypatch):
    """Two cores whatever the machine has; records the helper count of every
    thread pool the outcome pass starts."""
    monkeypatch.setattr(saa, "_cores", lambda: 2)
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(saa, "ThreadPoolExecutor", Recording)
    return pools
