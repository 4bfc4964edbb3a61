import sys

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


@pytest.fixture
def force_lanes(monkeypatch):
    """``force_lanes(n)`` makes every StftPlan built afterwards split its frames
    into n lanes, or one per frame when it has fewer, whatever the cores."""
    import hpss.stft

    def force(n):
        monkeypatch.setattr(hpss.stft, "_lane_count", lambda n_frames, block, halo: min(n, n_frames))

    return force


def sine_signal(freq_bin: float, n: int, win_len: int, rate: int = 16000,
                phase: float = 0.4) -> Signal:
    t = np.arange(n)
    return Signal(np.cos(2.0 * np.pi * freq_bin * t / win_len + phase), rate)


@pytest.fixture
def short_switch():
    """Hand the interpreter lock between threads as often as it allows, so that
    frame lanes interleave finely while the test runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
