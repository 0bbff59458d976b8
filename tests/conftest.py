import gc
import signal

import pytest


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the cyclic collector on or off; restore it after.

    The value is the state on entry, which every bulk record builder must
    leave as it found it.
    """
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def deadline():
    """Fail the test if it runs past 10 s, for tests whose fault would be a
    hang (a huge count accepted, a pipe opened twice).

    The alarm fails the test through ``pytest.fail``, a BaseException, so no
    ``except Exception`` or ``except OSError`` in the code under test can
    take it for an error of its own.  Where the platform has no interval
    timer, the test runs without one.
    """
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("past the test's 10 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
