"""The seeded generators: every stem pinned to recorded values.

Length, energy and the first 8 samples of each stem were recorded from the
generators with their draw order as it stands. rtol 1e-9 lets a libm ulp
difference through, but a changed draw order or constant fails.
"""

import numpy as np
import pytest

from hpss.synth import bench_corpus, criterion_mixture, melody_stem

# (length, energy, first 8 samples) per stem
CORPUS = [
    {
        "mixture": (4000, 24.57069928698949, [
            0.3302350814199943, 0.8108343457826038, -0.09589626507658011, 1.0,
            -0.4685936912047108, 0.24354014060802498, 0.6028190783420525,
            0.06219528568273198]),
        "harmonic": (4000, 12.318541631684397, [
            0.0, 0.0001989688551080934, 0.0009744443239030517, 0.0018437262054498433,
            0.0023593166534417397, 0.0023303783138555845, 0.00192319261084998,
            0.001591692843556545]),
        "percussive": (4000, 12.318541631684404, [
            0.3302350814199943, 0.8106353769274958, -0.09687070940048316,
            0.9981562737945502, -0.47095300785815253, 0.2412097622941694,
            0.6008958857312026, 0.060603592839175435]),
    },
    {
        "mixture": (4000, 15.466567792516473, [
            0.19522800100104418, 0.23182832659678107, -0.1832507305002089,
            0.28373571721356244, -0.6874495387129812, 0.9715050350243363,
            -0.6040232195015214, 0.39291444797864405]),
        "harmonic": (4000, 7.6010665454062245, [
            0.0, 7.074118274592971e-05, -0.000894383267933034, -0.0024067088929795254,
            -0.0037567546731302817, -0.0045249837878579766, -0.004828760706075936,
            -0.005124910705270997]),
        "percussive": (4000, 7.601066545406224, [
            0.19522800100104418, 0.23175758541403513, -0.18235634723227587,
            0.286142426106542, -0.6836927840398509, 0.9760300188121943,
            -0.5991944587954454, 0.3980393586839151]),
    },
]

_TONE = [
    0.05811199722382014, 0.010332270200724815, -0.04705651729298381,
    -0.060682519704569574, -0.017873489928409377, 0.041557970563019575,
    0.06234032060551638, 0.02514587573088015,
]
CRITERION = {
    "mixture": (4000, 15.982096702315744, _TONE),
    "harmonic": (4000, 7.962709394603175, _TONE),
    "percussive": (4000, 7.962709394603177, [0.0] * 8),  # the first burst is at 2000
}


def check_stems(track, pins):
    for stem, (length, energy, head) in pins.items():
        x = getattr(track, stem).samples
        assert x.size == length, stem
        np.testing.assert_allclose(x @ x, energy, rtol=1e-9, err_msg=stem)
        np.testing.assert_allclose(x[:8], head, rtol=1e-9, atol=0, err_msg=stem)


@pytest.mark.parametrize("index", [0, 1])
def test_bench_corpus_is_pinned(index):
    tracks = bench_corpus(0, n_tracks=2, sample_rate=8000, duration=0.5)
    assert [t.name for t in tracks] == ["track00", "track01"]
    assert tracks[index].mixture.sample_rate == 8000
    check_stems(tracks[index], CORPUS[index])


def test_criterion_mixture_is_pinned():
    track = criterion_mixture(0, sample_rate=8000, duration=0.5, win_len=256)
    assert track.name == "sine-plus-bursts"
    check_stems(track, CRITERION)


def test_melody_too_short_for_a_note_draws_nothing():
    # 2 int(0.12 rate) samples hold no note: refused before the first draw
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="more than 1920 samples"):
        melody_stem(rng, 1920, 8000)
    assert rng.uniform() == np.random.default_rng(0).uniform()
    harm, onsets = melody_stem(rng, 1921, 8000)
    assert onsets == [0] and np.any(harm)
