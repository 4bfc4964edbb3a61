import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpss import (
    HpssConfig,
    HpssProblem,
    Signal,
    SolverParams,
    StftConfig,
    bss_eval,
    estimate_if,
    mf_separate,
    read_wav,
    run,
    separate,
    write_wav,
)
from hpss.pipeline import IF_SOURCE_ORACLE
from hpss.stft import forward

from reference import reference_wav_bytes


def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([]), 44100)
    with pytest.raises(ValueError):
        Signal(np.array([0.0, np.nan]), 44100)
    with pytest.raises(ValueError):
        Signal(np.array([0.0]), 0)
    s = Signal([0.0, 0.5], 8000)
    assert len(s) == 2 and s.duration == pytest.approx(2 / 8000)


@pytest.mark.parametrize("rate", [8000.7, 0.5, float("inf"), float("nan"), "8000", True, -8000],
                         ids=repr)
def test_sample_rate_must_be_a_positive_integral_number(rate):
    # no rounding, truncation or parsing: the rate is taken as given or refused
    with pytest.raises(ValueError, match=r"^sample_rate must be a positive integer, got "):
        Signal([0.0, 0.5], rate)


@pytest.mark.parametrize("rate", [8000, np.int64(8000), 8000.0, np.float64(8000.0)], ids=repr)
def test_integral_sample_rates_are_accepted_as_int(rate):
    s = Signal([0.0, 0.5], rate)
    assert s.sample_rate == 8000 and type(s.sample_rate) is int


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("where", [0, 500, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize(
    "entry", ["separate", "separate-oracle", "mf_separate", "estimate_if", "forward"]
)
def test_non_finite_samples_rejected_at_the_boundary(entry, where, value):
    # a bare array passes through as_samples, which names the fault before any
    # arithmetic can warn about it
    finite = np.random.default_rng(0).normal(size=1000)
    bad = finite.copy()
    bad[where] = value
    config = StftConfig(64, 16)
    cfg = HpssConfig(win_len=64, hop=16, solver=SolverParams(n_iters=2))
    oracle = replace(cfg, if_source=IF_SOURCE_ORACLE)
    call = {
        "separate": lambda: separate(bad, cfg),
        "separate-oracle": lambda: separate(finite, oracle, oracle_h=bad),
        "mf_separate": lambda: mf_separate(bad, config),
        "estimate_if": lambda: estimate_if(bad, config),
        "forward": lambda: forward(bad, config),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^samples must be finite$"):
            call()


ENTRY_POINTS = ["separate", "separate-oracle", "mf_separate", "estimate_if", "forward",
                "bss_eval", "run"]


@pytest.mark.parametrize(
    "entry, kind",
    [pytest.param(entry, "empty", id=entry) for entry in ENTRY_POINTS]
    + [pytest.param(entry, "complex", id=f"{entry}-complex") for entry in ENTRY_POINTS],
)
def test_empty_samples_rejected_at_the_boundary(entry, kind):
    # as_samples names an empty array before any transform divides by its length,
    # and a complex one before float64 conversion drops its imaginary part
    finite = np.random.default_rng(0).normal(size=100)
    bad, message = {"empty": (np.zeros(0), "^expected a non-empty 1-D sample array$"),
                    "complex": (finite + 1j, "^samples must be real$")}[kind]
    config = StftConfig(64, 16)
    cfg = HpssConfig(win_len=64, hop=16, solver=SolverParams(n_iters=2))
    shape = (config.n_frames(finite.size), config.n_bins)
    call = {
        "separate": lambda: separate(bad, cfg),
        "separate-oracle": lambda: separate(
            finite, replace(cfg, if_source=IF_SOURCE_ORACLE), oracle_h=bad),
        "mf_separate": lambda: mf_separate(bad, config),
        "estimate_if": lambda: estimate_if(bad, config),
        "forward": lambda: forward(bad, config),
        "bss_eval": lambda: bss_eval(bad, finite, finite, finite),
        "run": lambda: run(HpssProblem(finite, config, np.zeros(shape), np.ones(shape)), bad),
    }[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call()


def _raw_wav(codec, bits, rate, channels, payload):
    block = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, codec, channels, rate, rate * block, block, bits,
        b"data", len(payload),
    )
    return header + payload


def _write_raw_wav(path, codec, bits, rate, channels, payload):
    path.write_bytes(_raw_wav(codec, bits, rate, channels, payload))


def test_read_16bit_scaling(tmp_path):
    # [0, 16384, -32768] -> [0.0, 0.5, -1.0]
    path = tmp_path / "a.wav"
    _write_raw_wav(path, 1, 16, 44100, 1,
                   np.array([0, 16384, -32768], dtype="<i2").tobytes())
    s = read_wav(path)
    assert s.sample_rate == 44100
    np.testing.assert_allclose(s.samples, [0.0, 0.5, -1.0])


def test_stereo_mean_downmix(tmp_path):
    path = tmp_path / "st.wav"
    left = np.full(64, 1.0, dtype="<f4")
    right = np.zeros(64, dtype="<f4")
    inter = np.empty(128, dtype="<f4")
    inter[0::2] = left
    inter[1::2] = right
    _write_raw_wav(path, 3, 32, 22050, 2, inter.tobytes())
    s = read_wav(path)
    assert len(s) == 64
    np.testing.assert_allclose(s.samples, 0.5)


def test_downmix_linearity(tmp_path, rng):
    ch0 = rng.uniform(-1, 1, 40).astype("<f4")
    ch1 = rng.uniform(-1, 1, 40).astype("<f4")
    inter = np.empty(80, dtype="<f4")
    inter[0::2] = ch0
    inter[1::2] = ch1
    stereo = tmp_path / "s.wav"
    _write_raw_wav(stereo, 3, 32, 8000, 2, inter.tobytes())
    mono0 = tmp_path / "m0.wav"
    mono1 = tmp_path / "m1.wav"
    _write_raw_wav(mono0, 3, 32, 8000, 1, ch0.tobytes())
    _write_raw_wav(mono1, 3, 32, 8000, 1, ch1.tobytes())
    mixed = read_wav(stereo).samples
    mean = (read_wav(mono0).samples + read_wav(mono1).samples) / 2
    np.testing.assert_allclose(mixed, mean)


@pytest.mark.parametrize("channels", range(1, 10))
@pytest.mark.parametrize("codec, bits", [(1, 16), (1, 24), (3, 32)], ids=["16", "24", "float32"])
def test_downmix_bytes_equal_numpy_mean(tmp_path, rng, codec, bits, channels):
    # fewer than 8 channels are summed one after another, from +0.0 as
    # np.mean does, so a frame of -0.0 reads as +0.0; float32 frames span
    # 16 decades, so sums in another order round differently, and also
    # hold subnormals
    n = 301
    if bits == 16:
        ints = rng.integers(-32768, 32768, n * channels)
        payload, raw = ints.astype("<i2").tobytes(), ints / 32768.0
    elif bits == 24:
        ints = rng.integers(-(1 << 23), 1 << 23, n * channels)
        payload = ints.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        raw = ints / 8388608.0
    else:
        scale = 10.0 ** rng.integers(-8, 9, size=(n, channels))
        floats = (rng.normal(size=(n, channels)) * scale).astype("<f4")
        floats[::4] = -0.0
        floats[1::4, ::2] = -0.0
        floats[2::4] = np.float32(1e-40)
        floats[3::8, ::3] = -np.float32(1e-45)
        payload, raw = floats.tobytes(), floats.astype(np.float64).ravel()
    path = tmp_path / "c.wav"
    _write_raw_wav(path, codec, bits, 8000, channels, payload)
    want = raw.reshape(n, channels).mean(axis=1)
    assert read_wav(path).samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("clip", [False, True], ids=["in-range", "clipping"])
@pytest.mark.parametrize("depth", [16, 24, "float32"])
def test_write_bytes_equal_reference_encoder(tmp_path, depth, clip):
    # ties k.5 / 32768 round half to even; -0.0 and +-1e-300 round to 0
    ties = (np.arange(-32768, 32768, 7) + 0.5) / 32768.0
    edges = [1.0, -1.0, -0.0, 0.0, 1e-300, -1e-300, 32767.5 / 32768.0, -32767.5 / 32768.0]
    beyond = [np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 1.0 + 2.0**-15,
              -32768.5 / 32768.0, 1.5, -2.0]
    samples = np.concatenate([ties, edges, beyond if clip else []])
    path = tmp_path / "w.wav"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        write_wav(path, Signal(samples, 44100), depth)
    assert path.read_bytes() == reference_wav_bytes(samples, 44100, depth)
    messages = [f"{path}: clipping {len(beyond)} out-of-range samples to [-1, 1]"] if clip else []
    assert [str(w.message) for w in caught] == messages


def test_float32_round_trip_exact(tmp_path, rng):
    samples = rng.uniform(-1, 1, 1000).astype(np.float32).astype(np.float64)
    s = Signal(samples, 44100)
    path = tmp_path / "f.wav"
    write_wav(path, s, "float32")
    back = read_wav(path)
    assert back.sample_rate == 44100
    assert np.max(np.abs(back.samples - samples)) == 0.0


def test_16bit_round_trip_bound(tmp_path, rng):
    samples = rng.uniform(-1, 1, 1000)
    path = tmp_path / "q.wav"
    write_wav(path, Signal(samples, 32000), 16)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - samples)) <= 2.0**-15


def test_24bit_round_trip_bound(tmp_path, rng):
    samples = rng.uniform(-1, 1, 500)
    path = tmp_path / "q24.wav"
    write_wav(path, Signal(samples, 48000), 24)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - samples)) <= 2.0**-23


def test_out_of_range_clipped_with_warning(tmp_path):
    samples = np.array([0.0, 1.5, -2.0, 0.25])
    path = tmp_path / "c.wav"
    with pytest.warns(UserWarning, match="clipping"):
        write_wav(path, Signal(samples, 44100), 16)
    back = read_wav(path)
    expected = np.clip(samples, -1.0, 1.0)
    assert np.max(np.abs(back.samples - expected)) <= 2.0**-15


def test_missing_file_errors():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/path.wav")


def test_unsupported_codec_errors(tmp_path):
    path = tmp_path / "law.wav"
    _write_raw_wav(path, 7, 8, 8000, 1, b"\x00" * 16)  # mu-law
    with pytest.raises(ValueError, match="unsupported codec"):
        read_wav(path)


def test_zero_length_errors(tmp_path):
    path = tmp_path / "z.wav"
    _write_raw_wav(path, 1, 16, 8000, 1, b"")
    with pytest.raises(ValueError, match="zero-length"):
        read_wav(path)


def _riff(*chunks):
    body = b"".join(struct.pack("<4sI", cid, len(data)) + data for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


SAMPLES_16 = np.array([0, 16384], dtype="<i2").tobytes()


@pytest.mark.parametrize(
    "chunks",
    [
        # trailing short fmt chunk: nothing follows it to read from
        ((b"data", SAMPLES_16), (b"fmt ", struct.pack("<HHI", 1, 1, 8000))),
        # short fmt chunk followed by data: its header must not be read as fmt fields
        ((b"fmt ", struct.pack("<HHIHH", 1, 1, 8000, 2, 16)), (b"data", SAMPLES_16)),
    ],
)
def test_short_fmt_chunk_errors(tmp_path, chunks):
    path = tmp_path / "short.wav"
    path.write_bytes(_riff(*chunks))
    with pytest.raises(ValueError, match="short.wav: fmt chunk shorter than 16 bytes"):
        read_wav(path)


@pytest.mark.filterwarnings("error")
def test_signaling_nan_float_errors_without_warning(tmp_path):
    # a float32 NaN whose cast to float64 warns is rejected before the cast
    path = tmp_path / "snan.wav"
    _write_raw_wav(path, 3, 32, 8000, 1, struct.pack("<2I", 0x3F000000, 0x7F800001))
    with pytest.raises(ValueError) as info:
        read_wav(path)
    assert str(info.value).startswith(f"{path}: ")


def test_not_riff_errors(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"NOTAWAVEFILE")
    with pytest.raises(ValueError, match="RIFF"):
        read_wav(path)


@pytest.mark.parametrize("depth, rate", [(16, 2**31), (24, 2**32 // 3 + 1), ("float32", 2**30)])
def test_rate_beyond_the_header_errors_before_writing(tmp_path, depth, rate):
    # the byte rate fills a 32-bit header field; an out-of-range sample shows
    # that the check comes before the clipping warning
    path = tmp_path / "x.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*byte rate"):
            write_wav(path, Signal([0.1, 2.0], rate), depth)
    assert not path.exists()
    bits = 32 if depth == "float32" else depth
    write_wav(path, Signal([0.1], (2**32 - 1) // (bits // 8)), depth)
    assert read_wav(path).sample_rate == (2**32 - 1) // (bits // 8)


def test_bad_depth_errors(tmp_path):
    for depth in (12, "f32"):
        with pytest.raises(ValueError, match="bit depth"):
            write_wav(tmp_path / "x.wav", Signal([0.1], 8000), depth)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=200,
    ),
    st.sampled_from([8000, 22050, 44100]),
)
def test_round_trip_property(tmp_path_factory, values, rate):
    path = tmp_path_factory.mktemp("wav") / "t.wav"
    s = Signal(np.asarray(values), rate)
    write_wav(path, s, 16)
    back = read_wav(path)
    assert back.sample_rate == rate
    assert len(back) == len(s)
    assert np.max(np.abs(back.samples - s.samples)) <= 2.0**-15


@settings(max_examples=60, deadline=None)
@given(
    payload=st.binary(max_size=40),
    codec_bits=st.sampled_from([(1, 16), (1, 24), (3, 32)]),
    channels=st.integers(min_value=1, max_value=2),
)
def test_partial_sample_payload_property(tmp_path_factory, payload, codec_bits, channels):
    # a data chunk may end mid-sample or mid-frame: whole frames are read,
    # and a failure (no whole frame, non-finite floats) names the file
    codec, bits = codec_bits
    path = tmp_path_factory.mktemp("wav") / "p.wav"
    _write_raw_wav(path, codec, bits, 8000, channels, payload)
    frames = (len(payload) // (bits // 8)) // channels
    try:
        s = read_wav(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        assert frames == 0 or codec == 3
    else:
        assert len(s) == frames


# (offset, struct format) of the 44-byte header's size, channel, rate and bits fields
_HEADER_FIELDS = [(4, "<I"), (16, "<I"), (22, "<H"), (24, "<I"), (34, "<H"), (40, "<I")]


def _encode(values, bits):
    v = np.asarray(values)
    if bits == 16:
        return np.round(v * 32767).astype("<i2").tobytes()
    if bits == 24:
        return b"".join(int(round(x * 8388607)).to_bytes(3, "little", signed=True)
                        for x in v)
    return v.astype("<f4").tobytes()


@st.composite
def mutated_wavs(draw):
    """A valid 16-bit, 24-bit or float32 file with one kind of damage."""
    codec, bits = draw(st.sampled_from([(1, 16), (1, 24), (3, 32)]))
    channels = draw(st.integers(min_value=1, max_value=2))
    values = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=24))
    data = bytearray(_raw_wav(codec, bits, 8000, channels, _encode(values, bits)))
    kind = draw(st.sampled_from(["flip", "field", "truncate", "junk"]))
    if kind == "flip":
        for pos in draw(st.lists(st.integers(0, 43), min_size=1, max_size=4)):
            data[pos] ^= draw(st.integers(1, 255))
    elif kind == "field":
        offset, fmt = draw(st.sampled_from(_HEADER_FIELDS))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        extremes = [0, 1, 2, 3, top // 2, top // 2 + 1, top - 1, top]
        value = draw(st.sampled_from(extremes) | st.integers(0, top))
        struct.pack_into(fmt, data, offset, value)
    elif kind == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    else:
        for _ in range(draw(st.integers(1, 3))):
            cid = draw(st.sampled_from([b"fmt ", b"data", b"LIST"])
                       | st.binary(min_size=4, max_size=4))
            body = draw(st.binary(max_size=24))
            size = draw(st.just(len(body)) | st.integers(0, 2**32 - 1))
            data += struct.pack("<4sI", cid, size) + body
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=mutated_wavs())
def test_mutated_header_property(tmp_path_factory, data):
    # damaged headers and chunks give a finite Signal or a ValueError naming
    # the file, never another exception
    path = tmp_path_factory.mktemp("wav") / "m.wav"
    path.write_bytes(data)
    try:
        s = read_wav(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert len(s) > 0 and s.sample_rate > 0
        assert np.all(np.isfinite(s.samples))
