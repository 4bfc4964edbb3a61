import numpy as np
import pytest

from hpss import Signal, StftConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_config():
    # desk-scale geometry used across the unit tests
    return StftConfig(64, 16)


@pytest.fixture
def bench_config():
    return StftConfig(1024, 256)


def sine_signal(freq_bin: float, n: int, win_len: int, rate: int = 16000,
                phase: float = 0.4) -> Signal:
    t = np.arange(n)
    return Signal(np.cos(2.0 * np.pi * freq_bin * t / win_len + phase), rate)
