import signal

import pytest

HANG_LIMIT_S = 30


@pytest.fixture
def hang_guard():
    """Raise TimeoutError in a test still running after HANG_LIMIT_S, so an
    endless loop fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {HANG_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANG_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
