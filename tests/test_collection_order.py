"""The suite's run order: real-socket smokes go last (tests/conftest.py)."""

import types

from tests.conftest import LIVE_TESTS, pytest_collection_modifyitems


def is_live(item) -> bool:
    return LIVE_TESTS in item.path.parents


def test_live_tests_run_after_the_deterministic_suite(request):
    root = LIVE_TESTS.parent
    names = ["core/test_a.py", "live/test_harness.py", "sim/test_b.py",
             "live/test_proxy.py", "test_z.py"]
    items = [types.SimpleNamespace(path=root / name) for name in names]
    pytest_collection_modifyitems(items)
    assert [str(item.path.relative_to(root)) for item in items] == [
        "core/test_a.py", "sim/test_b.py", "test_z.py",
        "live/test_harness.py", "live/test_proxy.py"]

    # And the session this test runs in was ordered by that hook.
    flags = [is_live(item) for item in request.session.items]
    assert flags == sorted(flags)
