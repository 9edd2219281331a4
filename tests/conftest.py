import pytest

from looprc import pipeline, reservoir


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


@pytest.fixture
def cold_cpu_count():
    """Forget the usable-CPU count measured once per process before and
    after the test, so it measures the files and calls the test patches."""
    pipeline._usable_cpus.cache_clear()
    yield
    pipeline._usable_cpus.cache_clear()
