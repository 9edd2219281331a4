import pytest

from looprc import reservoir


def _clear_noise_caches() -> None:
    reservoir._noise_block.cache_clear()
    reservoir.noise_seed.cache_clear()


@pytest.fixture
def cold_noise_caches():
    """Empty the in-loop noise memo and the noise-seed cache before and
    after the test, so counts of draws and derivations do not depend on
    the tests that ran before."""
    _clear_noise_caches()
    yield
    _clear_noise_caches()
