import json
import multiprocessing
import pathlib

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process is still running."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == [], f"child processes left running: {left}"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def pilot_success() -> dict:
    return json.loads((FIXTURES / "pilot_success.json").read_text())


@pytest.fixture(scope="session")
def pilot_scheme_trend() -> dict:
    return json.loads((FIXTURES / "pilot_scheme_trend.json").read_text())
