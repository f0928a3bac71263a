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


@pytest.fixture
def no_fp_buchberger(monkeypatch):
    """groebner.buchberger raises on a prime-field ring, so a test that
    takes this fixture fails if any path it runs reaches Buchberger over
    F_p: there every homogeneous basis is a macaulay_basis and every ideal
    operation a graded kernel."""
    from lforge import groebner
    from lforge.fields import PrimeField

    real = groebner.buchberger

    def guarded(gens):
        gens = list(gens)
        if isinstance(gens[0].ring.field, PrimeField):
            raise AssertionError("buchberger reached over F_p")
        return real(gens)

    monkeypatch.setattr(groebner, "buchberger", guarded)
