import gc

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
