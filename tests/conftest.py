import pytest
from hypothesis import HealthCheck, settings

# GB-backed properties can be slow on unlucky draws; keep example counts
# modest and let individual runs take the time they take.
settings.register_profile(
    "exact",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def QR2():
    from koszul_lab import RingSpec
    return RingSpec("Q", ("x", "y"))


@pytest.fixture(scope="session")
def QR3():
    from koszul_lab import RingSpec
    return RingSpec("Q", ("x", "y", "z"))


@pytest.fixture(scope="session")
def F101_3():
    from koszul_lab import RingSpec
    return RingSpec(101, ("x", "y", "z"))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces the function `name` of `owner`, a
    module or class, for the rest of the test by one that calls it and
    appends 1 to a list, and returns that list: its length is the number of
    calls made since."""
    def count(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return count
