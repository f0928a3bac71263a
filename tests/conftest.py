import os

import pytest


def pytest_collection_modifyitems(config, items):
    """Skip the tests marked ``slow`` (the long liaison chains) unless
    LFORGE_ALLOW_LONG is set."""
    if os.environ.get("LFORGE_ALLOW_LONG"):
        return
    skip = pytest.mark.skip(reason="set LFORGE_ALLOW_LONG=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
