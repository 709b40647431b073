import pytest

from homsys import moments


@pytest.fixture(autouse=True)
def cold_gamma_memo():
    # each test integrates its own Gammas, and one computed under a monkeypatch does not outlive its test
    moments._gamma.cache_clear()
    yield
    moments._gamma.cache_clear()
