"""Shared test configuration and the file-mutation fixtures.

Hypothesis runs with a bounded example count and no deadline: the suite
targets a single-core box and several properties quantize real arrays.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


def _mutate(data, raw: bytes) -> tuple[bytes, bool]:
    """A truncation, appended bytes or a single-byte overwrite of ``raw``,
    drawn from Hypothesis ``data``, and whether a reader must reject it (an
    overwrite may leave a valid file)."""
    kind = data.draw(st.sampled_from(["truncate", "append", "overwrite"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))], True
    if kind == "append":
        return raw + data.draw(st.binary(min_size=1, max_size=16)), True
    at = data.draw(st.integers(0, len(raw) - 1))
    return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :], False


@pytest.fixture(scope="session")
def mutate():
    """``_mutate``, for the file-format fuzzing tests."""
    return _mutate


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    """A directory that outlives one Hypothesis example."""
    return tmp_path_factory.mktemp("fuzz")
