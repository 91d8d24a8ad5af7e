import pytest

from qetsim import checks


@pytest.fixture(scope="session")
def verify_results():
    """The results `qetsim verify` prints (seed 0, default oracle grid),
    keyed by check function; the suite runs once per session."""
    results = checks.run_all(seed=0)
    assert len(results) == len(checks.CHECKS)
    return dict(zip(checks.CHECKS, results))
