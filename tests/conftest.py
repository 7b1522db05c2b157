import pytest
from hypothesis import HealthCheck, settings

from laplace_stein import seeding

settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def workers(monkeypatch):
    """Set the number of CPUs the package sees, on a fresh pool of that
    many threads, shut down afterwards."""
    def use(count):
        monkeypatch.setattr(seeding, "_workers", lambda: count)
        monkeypatch.setattr(seeding, "_POOL", None)
    yield use
    if seeding._POOL is not None:
        seeding._POOL.shutdown()
