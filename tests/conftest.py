import pytest

from looprc import pipeline, reservoir, topology


def _clear_noise_caches() -> None:
    reservoir._noise_block.cache_clear()
    topology._loop_noise_seed.cache_clear()
    pipeline._datapoint_noise_seed.cache_clear()


@pytest.fixture
def cold_noise_caches():
    """Empty the in-loop noise memo and both noise-seed caches before and
    after the test, so counts of draws and derivations do not depend on
    the tests that ran before."""
    _clear_noise_caches()
    yield
    _clear_noise_caches()
