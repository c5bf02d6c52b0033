import numpy as np
import pytest

import hefl.ckks as ckks
from hefl.model import Architecture, make_toy_dataset


@pytest.fixture(scope="session")
def ctx_small():
    return ckks.get_context(ckks.get_profile("test-small"))


@pytest.fixture(scope="session")
def keys_small(ctx_small):
    return ckks.keygen(ctx_small, 2024)


@pytest.fixture(scope="session")
def ctx_paper():
    return ckks.get_context(ckks.get_profile("paper-128"))


@pytest.fixture(scope="session")
def keys_paper(ctx_paper):
    return ckks.keygen(ctx_paper, 2024)


@pytest.fixture(scope="session")
def mlp_arch():
    return Architecture("mlp2", (8, 8), 10)


@pytest.fixture(scope="session")
def toy_small():
    return make_toy_dataset(64, 5, split=0)


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


@pytest.fixture(scope="session")
def acceptance_log(request):
    """Shared list of one-line acceptance verdicts, echoed after the run."""
    lines: list[str] = []
    request.config._acceptance_lines = lines
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
