"""Evaluation metrics: beat matching, chord/key agreement, phoneme error rate."""
from __future__ import annotations

import math
import random
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from songpipe import conditioning, metrics, render, score_io
from songpipe.cli import PipelineConfig, run_pipeline
from songpipe.conditioning import KeyLabel
from songpipe.metrics import (
    RHYTHM_TOLERANCE_SEC,
    MatchReport,
    chord_f1,
    chroma_from_audio,
    dedup_lines,
    edit_distance,
    estimate_key,
    key_accuracy,
    match_events,
    per,
    rhythm_f1,
)

from helpers import pcm16_wav_bytes, simple_score


def _max_matching_size(ref, est, tol):
    """Independent maximum bipartite matching via augmenting paths."""
    adj = [
        [j for j, e in enumerate(est) if abs(e - r) <= tol + 1e-9] for r in ref
    ]
    match_est = [-1] * len(est)

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_est[j] == -1 or augment(match_est[j], seen):
                match_est[j] = i
                return True
        return False

    return sum(1 for i in range(len(ref)) if augment(i, set()))


def test_rhythm_f1_perfect_and_empty_cases():
    assert rhythm_f1([0.0, 1.0, 2.0], [0.05, 1.0, 2.06]) == 1.0
    assert rhythm_f1([], []) == 1.0
    assert rhythm_f1([1.0], []) == 0.0
    assert rhythm_f1([], [1.0]) == 0.0


def test_tolerance_is_inclusive_at_seventy_milliseconds():
    assert rhythm_f1([1.0], [1.07]) == 1.0
    assert rhythm_f1([1.0], [1.0701]) == 0.0
    assert rhythm_f1([1.0], [0.93]) == 1.0


def test_match_counts_are_one_to_one():
    # two estimates near one reference: only one may claim it
    report = match_events([1.0], [0.98, 1.02])
    assert (report.true_positives, report.false_positives, report.false_negatives) == (1, 1, 0)


def test_greedy_matching_attains_the_maximum():
    rng = random.Random(31337)
    for _ in range(300):
        ref = sorted(rng.uniform(0, 10) for _ in range(rng.randint(0, 10)))
        est = sorted(rng.uniform(0, 10) for _ in range(rng.randint(0, 10)))
        tol = rng.choice([0.01, 0.07, 0.3])
        got = match_events(ref, est, tol).true_positives
        assert got == _max_matching_size(ref, est, tol)


def test_match_events_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        match_events([0.0], [0.0], -0.1)
    with pytest.raises(ValueError):
        match_events([0.0], [0.0], float("nan"))


def test_match_report_rates():
    report = MatchReport(3, 1, 2)
    assert report.f1 == pytest.approx(2 * 3 / (2 * 3 + 1 + 2))
    assert MatchReport(0, 0, 0).f1 == 1.0


def test_key_accuracy_counts_exact_matches():
    ref = [KeyLabel(0, "major"), KeyLabel(9, "minor"), KeyLabel(7, "major")]
    est = [KeyLabel(0, "major"), KeyLabel(9, "major"), KeyLabel(7, "major")]
    assert key_accuracy(ref, est) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        key_accuracy(ref, est[:2])
    with pytest.raises(ValueError):
        key_accuracy([], [])


def test_chord_f1_cell_level():
    ref = np.zeros((2, 12))
    ref[0, [0, 4, 7]] = 1
    est = np.zeros((2, 12))
    est[0, [0, 4]] = 1
    assert chord_f1(ref, ref) == 1.0
    assert chord_f1(ref, est) == pytest.approx(0.8)  # tp=2 fp=0 fn=1
    assert chord_f1(ref, np.zeros((2, 12))) == 0.0
    assert chord_f1(np.zeros((2, 12)), np.zeros((2, 12))) == 1.0


def test_chord_f1_shape_checks():
    with pytest.raises(ValueError):
        chord_f1(np.zeros((2, 12)), np.zeros((3, 12)))
    with pytest.raises(ValueError):
        chord_f1(np.zeros((2, 11)), np.zeros((2, 11)))


def test_edit_distance_classic_example():
    assert edit_distance(list("kitten"), list("sitting")) == 3
    assert edit_distance([], list("ab")) == 2
    assert edit_distance(list("ab"), list("ab")) == 0


def test_edit_distance_matches_recursive_oracle():
    @lru_cache(maxsize=None)
    def slow(a: tuple, b: tuple) -> int:
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(
            slow(a[1:], b[1:]) + (a[0] != b[0]),
            slow(a[1:], b) + 1,
            slow(a, b[1:]) + 1,
        )

    rng = random.Random(4242)
    for _ in range(300):
        a = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 8)))
        b = tuple(rng.choice("xyz") for _ in range(rng.randint(0, 8)))
        assert edit_distance(list(a), list(b)) == slow(a, b)


def _edit_distance_loop_oracle(reference, hypothesis):
    """Reference Levenshtein distance: one Python step per DP cell."""
    m, n = len(reference), len(hypothesis)
    prev = np.arange(n + 1)
    for i in range(1, m + 1):
        cur = np.empty(n + 1, dtype=np.int64)
        cur[0] = i
        for j in range(1, n + 1):
            sub = prev[j - 1] + (reference[i - 1] != hypothesis[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return int(prev[n])


_TOKEN_ALPHABETS = (
    st.sampled_from(["a"]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["AH0", "AH1", "K", "T", "S"]),
    st.integers(0, 3),
    st.tuples(st.integers(0, 1), st.sampled_from("xy")),
    st.sampled_from([0, 1, 1.0, True, "1", (1,)]),  # 1 == 1.0 == True
)


@st.composite
def _token_pairs(draw):
    tokens = draw(st.sampled_from(_TOKEN_ALPHABETS))
    return (
        draw(st.lists(tokens, max_size=60)),
        draw(st.lists(tokens, max_size=60)),
    )


@settings(max_examples=300, deadline=None)
@given(_token_pairs())
@example(([], []))
@example(([], ["a", "b"]))
@example((["a", "b", "c"], []))
def test_edit_distance_equals_the_loop_oracle(pair):
    reference, hypothesis = pair
    assert edit_distance(reference, hypothesis) == _edit_distance_loop_oracle(
        reference, hypothesis
    )


def test_edit_distance_equals_the_loop_oracle_on_long_sequences():
    rng = random.Random(2026)
    phones = ["AA", "AE", "AH", "B", "D", "IY", "K", "L", "M", "N", "S", "T"]
    reference = [rng.choice(phones) for _ in range(400)]
    hypothesis = [
        rng.choice(phones) if rng.random() < 0.3 else tok for tok in reference
    ]
    del hypothesis[100:130]
    hypothesis[250:250] = rng.choices(phones, k=30)
    assert len(hypothesis) == 400
    expected = _edit_distance_loop_oracle(reference, hypothesis)
    assert edit_distance(reference, hypothesis) == expected
    assert edit_distance(hypothesis, reference) == expected


# The distance holds the shorter side's column as int bits.  CPython ints
# grow a 30-bit digit at 30 and 60 bits, and 64 and 128 are word multiples,
# so lengths on either side of each edge exercise the carries across them.
_BIT_EDGE_LENGTHS = (0, 1, 29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129)


@pytest.mark.parametrize("m", _BIT_EDGE_LENGTHS)
def test_edit_distance_equals_the_loop_oracle_at_bit_vector_edges(m):
    rng = random.Random(m)
    for n in _BIT_EDGE_LENGTHS:
        alphabet = rng.choice(["a", "ab", "abcd", "abcdefghijklmnopqrstuvwxyz"])
        reference = rng.choices(alphabet, k=m)
        hypothesis = rng.choices(alphabet, k=n)
        expected = _edit_distance_loop_oracle(reference, hypothesis)
        assert edit_distance(reference, hypothesis) == expected, (m, n, alphabet)
        assert edit_distance(hypothesis, reference) == expected, (m, n, alphabet)
    same = rng.choices("ab", k=m)
    assert edit_distance(same, same) == 0
    if m:  # a substitution at the last token, the column's top bit
        assert edit_distance(same, same[:-1] + ["c"]) == 1


def test_edit_distance_equals_the_recursive_oracle_at_the_first_bit_edges():
    @lru_cache(maxsize=None)
    def slow(a: tuple, b: tuple) -> int:
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(
            slow(a[1:], b[1:]) + (a[0] != b[0]),
            slow(a[1:], b) + 1,
            slow(a, b[1:]) + 1,
        )

    rng = random.Random(31)
    for m in (0, 1, 29, 30, 31):
        for n in (0, 1, 2, 5):
            a = tuple(rng.choices("xyz", k=m))
            b = tuple(rng.choices("xyz", k=n))
            assert edit_distance(list(a), list(b)) == slow(a, b)
            assert edit_distance(list(b), list(a)) == slow(a, b)


@pytest.mark.parametrize("m, n", [(1, 300), (2, 129), (5, 700), (30, 1000), (65, 900),
                                  (130, 1500)])
def test_edit_distance_equals_the_loop_oracle_on_very_unequal_lengths(m, n):
    rng = random.Random(m * n)
    phones = ["AA", "AH", "K", "S", "T"]
    short = rng.choices(phones, k=m)
    long = rng.choices(phones, k=n)
    expected = _edit_distance_loop_oracle(short, long)
    assert expected >= n - m
    assert edit_distance(short, long) == expected
    assert edit_distance(long, short) == expected


def test_edit_distance_equals_the_loop_oracle_on_a_permuted_distinct_pair():
    # Every token is distinct, so each token of the shorter side has its own
    # mask: the most mask bits the distance keeps for its length.
    reference = [f"p{i}" for i in range(2000)]
    hypothesis = reference[:]
    random.Random(2000).shuffle(hypothesis)
    expected = _edit_distance_loop_oracle(reference, hypothesis)
    assert edit_distance(reference, hypothesis) == expected
    assert edit_distance(hypothesis, reference) == expected


@pytest.mark.parametrize("reference, hypothesis", [
    ([["a"]], []),
    ([], [["a"]]),
    (["a", "b", {}], ["a"]),
    (["a"], ["a", "b", {}]),
    ([("a", ["b"])], ["a", "b", "c"]),
    (["a", "b", "c"], [("a", ["b"])]),
])
def test_edit_distance_refuses_an_unhashable_token_on_either_side(reference, hypothesis):
    with pytest.raises(TypeError, match="unhashable"):
        edit_distance(reference, hypothesis)


def test_per_is_distance_over_reference_length():
    assert per(list("abc"), list("abc")) == 0.0
    assert per(list("abc"), list("axc")) == pytest.approx(1 / 3)
    assert per(list("a"), list("abc")) == 2.0  # may exceed 1
    assert per(list("abc"), []) == 1.0
    with pytest.raises(ValueError):
        per([], list("abc"))


def test_dedup_collapses_consecutive_runs_only():
    lines = ["la", "la", "oh", "la", "la", "la"]
    assert dedup_lines(lines) == ["la", "oh", "la"]
    assert dedup_lines([]) == []


def test_estimate_key_on_plain_triads():
    c_major = np.zeros((4, 12))
    c_major[:, [0, 4, 7]] = 1
    assert estimate_key(c_major) == KeyLabel(0, "major")
    a_minor = np.zeros((4, 12))
    a_minor[:, [9, 0, 4]] = 1
    assert estimate_key(a_minor) == KeyLabel(9, "minor")


def test_estimate_key_is_transposition_covariant():
    base = np.zeros(12)
    base[[0, 2, 4, 5, 7, 9, 11]] = [3, 1, 2, 1, 2.5, 1, 0.5]  # C-major-ish weights
    for k in range(12):
        rolled = np.roll(base, k)
        assert estimate_key(rolled[None, :]) == KeyLabel(k, "major")


def test_estimate_key_rejects_silence_and_bad_shapes():
    with pytest.raises(ValueError):
        estimate_key(np.zeros((4, 12)))
    with pytest.raises(ValueError):
        estimate_key(np.zeros((4, 13)))


def _estimate_key_pearson_oracle(profile):
    """Reference key estimate: one Pearson correlation per rotated template."""
    def pearson(a, b):
        da = a - a.mean()
        db = b - b.mean()
        denom = np.sqrt((da**2).sum() * (db**2).sum())
        if denom == 0.0:
            return 0.0
        return float((da * db).sum() / denom)

    scores = {
        (tonic, mode): pearson(profile, np.roll(np.asarray(template), tonic))
        for tonic in range(12)
        for mode, template in (("major", metrics.KS_MAJOR_PROFILE),
                               ("minor", metrics.KS_MINOR_PROFILE))
    }
    best = max(scores.values())
    tied = [key for key, score in scores.items() if score == best]
    return KeyLabel(*tied[0]), len({tonic for tonic, _ in tied}) > 1


# Period-6 profiles whose best score is an exact tie between two tonics six
# semitones apart; the flat one makes every denominator 0.
_TIED_PROFILES = (
    [3, 3, 0, 2, 4, 3] * 2,
    [3, 2, 3, 2, 4, 1] * 2,
    [0, 2, 0, 0, 4, 0] * 2,
    [1.0] * 12,
)


@pytest.mark.parametrize("profile", _TIED_PROFILES)
def test_estimate_key_breaks_exact_ties_as_the_oracle_does(profile):
    profile = np.asarray(profile, dtype=float)
    expected, tied = _estimate_key_pearson_oracle(profile)
    assert tied  # the case under test really is a tie between tonics
    assert estimate_key(profile[None, :]) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=12, max_size=12).filter(any))
def test_estimate_key_equals_the_pearson_oracle(profile):
    profile = np.asarray(profile)
    assert estimate_key(profile[None, :]) == _estimate_key_pearson_oracle(profile)[0]


def _sines(freqs, duration, sr, amp=0.2):
    t = np.arange(int(duration * sr)) / sr
    return sum(amp * np.sin(2 * np.pi * f * t) for f in freqs)


def test_chroma_from_audio_hears_a_triad():
    sr = 44100
    freqs = [440.0 * 2 ** ((m - 69) / 12) for m in (60, 64, 67)]
    audio = _sines(freqs, 2.0, sr)
    chroma = chroma_from_audio(audio, sr, frame_rate=50)
    assert chroma.shape == (100, 12)
    mid = chroma[30:70]
    assert np.all(mid[:, [0, 4, 7]] == 1.0)
    assert np.all(mid[:, [1, 2, 3, 5, 6, 8, 9, 10, 11]] == 0.0)


def test_chroma_from_audio_silence_is_empty():
    chroma = chroma_from_audio(np.zeros(44100), 44100, frame_rate=50)
    assert np.all(chroma == 0.0)


def test_chroma_from_audio_follows_chord_changes():
    sr = 44100
    c_freqs = [440.0 * 2 ** ((m - 69) / 12) for m in (60, 64, 67)]
    g_freqs = [440.0 * 2 ** ((m - 69) / 12) for m in (67, 71, 74)]
    audio = np.concatenate([_sines(c_freqs, 2.0, sr), _sines(g_freqs, 2.0, sr)])
    chroma = chroma_from_audio(audio, sr, frame_rate=50)
    assert set(np.flatnonzero(chroma[40])) == {0, 4, 7}
    assert set(np.flatnonzero(chroma[160])) == {7, 11, 2}


def test_chroma_from_audio_drops_classes_below_five_percent_of_the_strongest():
    sr = 44100
    c, e, g = (440.0 * 2 ** ((m - 69) / 12) for m in (60, 64, 67))
    audio = _sines([c], 1.0, sr) + _sines([e], 1.0, sr, 0.2 * 0.055) + _sines(
        [g], 1.0, sr, 0.2 * 0.03
    )
    chroma = chroma_from_audio(audio, sr, frame_rate=50)
    assert np.all(chroma[10:40, [0, 4]] == 1.0)
    assert not chroma[10:40, 7].any()


def test_chroma_from_audio_accepts_stereo_and_num_frames():
    sr = 44100
    freqs = [261.6256]
    mono = _sines(freqs, 1.0, sr)
    stereo = np.stack([mono, mono])
    chroma = chroma_from_audio(stereo, sr, frame_rate=50, num_frames=30)
    assert chroma.shape == (30, 12)
    assert np.all(chroma[10:20, 0] == 1.0)


#: The analysis chroma_from_audio documents: an 8192-sample window, notes
#: C3 to B5 and silence below RMS 1e-4.
_WINDOW, _LOW_MIDI, _HIGH_MIDI, _SILENCE = 8192, 48, 84, 1e-4


def _chroma_fft_oracle(samples, sample_rate, frame_rate, num_frames=None):
    """Reference chromagram: one zero-padded FFT per frame, note bins read off it."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2:
        samples = samples.mean(axis=0)
    if samples.ndim != 1:
        raise ValueError("samples must be 1-D or (channels, n)")
    if num_frames is None:
        num_frames = int(np.ceil(len(samples) / sample_rate * frame_rate))
    n_fft = 4 * _WINDOW
    hann = np.hanning(_WINDOW)
    note_freqs = 440.0 * 2.0 ** ((np.arange(_LOW_MIDI, _HIGH_MIDI) - 69) / 12.0)
    note_bins = np.round(note_freqs * n_fft / sample_rate).astype(int)
    note_pcs = np.arange(_LOW_MIDI, _HIGH_MIDI) % 12

    out = np.zeros((num_frames, 12))
    half = _WINDOW // 2
    for f in range(num_frames):
        centre = int(round(f / frame_rate * sample_rate))
        lo = centre - half
        hi = centre + half
        slice_ = np.zeros(_WINDOW)
        src_lo, src_hi = max(lo, 0), min(hi, len(samples))
        if src_hi > src_lo:
            slice_[src_lo - lo : src_hi - lo] = samples[src_lo:src_hi]
        if np.sqrt((slice_**2).mean()) < _SILENCE:
            continue
        spectrum = np.abs(np.fft.rfft(slice_ * hann, n=n_fft))
        energy = np.zeros(12)
        np.maximum.at(energy, note_pcs, spectrum[note_bins])
        top = np.argsort(energy, kind="stable")[-3:]
        active = top[energy[top] > 0.05 * energy.max()]
        out[f, active] = 1.0
    return out


_TRIAD = st.tuples(
    st.integers(45, 80),  # root, MIDI
    st.sampled_from((4, 3)),  # major or minor third
    st.floats(0.005, 0.4),  # amplitude
)


@st.composite
def _chroma_cases(draw):
    # 8000: a window of about a second; 400000: C3 and C#3 share a bin.
    sample_rate = draw(st.sampled_from((44100, 22050, 16000, 8000, 400000)))
    frame_rate = draw(st.sampled_from((50.0, 43, 37.5)))
    n = draw(st.integers(0, int(1.2 * sample_rate)))
    t = np.arange(n) / sample_rate
    audio = np.zeros((2, n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    for lo, hi in zip([0] + cuts, cuts + [n]):
        for channel in (0, 1):
            root, third, amp = draw(_TRIAD)
            for midi in (root, root + third, root + 7):
                freq = 440.0 * 2.0 ** ((midi - 69) / 12.0)
                audio[channel, lo:hi] += amp * np.sin(2 * np.pi * freq * t[lo:hi])
    if draw(st.booleans()):  # a silent stretch
        lo = draw(st.integers(0, n))
        audio[:, lo : lo + draw(st.integers(0, n))] = 0.0
    samples = audio if draw(st.booleans()) else audio[0]
    natural = int(np.ceil(n / sample_rate * frame_rate))
    num_frames = draw(st.one_of(st.none(), st.integers(0, natural + 20)))
    return samples, sample_rate, frame_rate, num_frames


def _weighted_slice(samples, sample_rate, frame_rate, frame):
    """The Hann-weighted slice the oracle transforms for one frame."""
    mono = np.asarray(samples, dtype=float)
    if mono.ndim == 2:
        mono = mono.mean(axis=0)
    lo = int(round(frame / frame_rate * sample_rate)) - _WINDOW // 2
    slice_ = np.zeros(_WINDOW)
    src_lo, src_hi = max(lo, 0), min(lo + _WINDOW, len(mono))
    if src_hi > src_lo:
        slice_[src_lo - lo : src_hi - lo] = mono[src_lo:src_hi]
    return slice_ * np.hanning(_WINDOW)


@settings(max_examples=40, deadline=None)
@given(_chroma_cases(), st.sampled_from((3, 16, 256)))
@example((np.array([0.0, 0.0147]), 44100, 50.0, None), 3)  # one-sample slice
def test_chroma_from_audio_equals_the_fft_oracle(case, chunk):
    samples, sample_rate, frame_rate, num_frames = case
    kwargs = dict(num_frames=num_frames)
    # Small chunks put chunk edges, and chunks wholly inside the signal,
    # within reach of these short inputs.
    with mock.patch.object(metrics, "_CHROMA_CHUNK", chunk):
        fast = chroma_from_audio(samples, sample_rate, frame_rate, **kwargs)
    slow = _chroma_fft_oracle(samples, sample_rate, frame_rate, **kwargs)
    assert fast.shape == slow.shape
    # A weighted slice with one nonzero sample has the same magnitude at
    # every bin: all twelve classes tie exactly, and rounding alone picks
    # the three marked, differently for an FFT and a dot product.  Such a
    # frame (a window that overlaps the signal by a sample or two) must
    # still mark as many classes; every other frame must match exactly.
    for frame in np.flatnonzero((fast != slow).any(axis=1)):
        weighted = _weighted_slice(samples, sample_rate, frame_rate, frame)
        assert np.count_nonzero(weighted) == 1, f"frame {frame} differs"
        assert fast[frame].sum() == slow[frame].sum()


def test_chroma_from_audio_equals_the_fft_oracle_on_a_rendered_song(tmp_path):
    score = simple_score([60, 62, 64, 65, 67, 65, 64, 62] * 2, labels=["verse", "chorus"])
    path = tmp_path / "song.mid"
    path.write_bytes(score_io.write_smf(score))
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(str(path), str(out)))
    bundle = conditioning.bundle_from_json((out / "conditions.json").read_text())
    accomp = render.read_wav(out / "accompaniment.wav")
    args = (accomp.samples, accomp.sample_rate, bundle.frame_rate, bundle.num_frames)
    fast = chroma_from_audio(*args)
    assert fast.any()
    assert np.array_equal(fast, _chroma_fft_oracle(*args))


@pytest.mark.parametrize("chunk", [3, 256])
def test_chroma_from_audio_reads_a_wav_file_as_it_reads_the_decoded_array(tmp_path, chunk):
    score = simple_score([60, 64, 67, 65, 62, 59, 60, 55] * 2, labels=["verse", "chorus"])
    path = tmp_path / "song.mid"
    path.write_bytes(score_io.write_smf(score))
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(str(path), str(out)))
    bundle = conditioning.bundle_from_json((out / "conditions.json").read_text())
    reader = render.WavReader(out / "accompaniment.wav")
    rest = (reader.sample_rate, bundle.frame_rate, bundle.num_frames)
    with mock.patch.object(metrics, "_CHROMA_CHUNK", chunk):
        from_file = chroma_from_audio(reader, *rest)
        from_array = chroma_from_audio(render.read_wav(out / "accompaniment.wav").samples, *rest)
    assert from_file.any()
    assert np.array_equal(from_file, from_array)
    # Every kind of source is read one way: the same rows and the same memo keys.
    buffer = render.read_wav(out / "accompaniment.wav")
    assert buffer.channels == 1
    sources = (reader, buffer, buffer.samples, buffer.samples[0])
    memos: list[dict] = [{} for _ in sources]
    with mock.patch.object(metrics, "_CHROMA_CHUNK", chunk):
        for source, memo in zip(sources, memos):
            assert np.array_equal(chroma_from_audio(source, *rest, memo=memo), from_file)
    assert memos[0] and all(list(memo) == list(memos[0]) for memo in memos[1:])


def _old_frame_rms(samples, sample_rate, frame_rate):
    """Each frame's RMS by the expression chroma_from_audio's silence test used
    before it took a prefix sum: ``np.sqrt((frames**2).mean(axis=1))``."""
    num_frames = int(np.ceil(len(samples) / sample_rate * frame_rate))
    frames = np.zeros((num_frames, _WINDOW))
    for f in range(num_frames):
        lo = int(round(f / frame_rate * sample_rate)) - _WINDOW // 2
        src_lo, src_hi = max(lo, 0), min(lo + _WINDOW, len(samples))
        if src_hi > src_lo:
            frames[f, src_lo - lo : src_hi - lo] = samples[src_lo:src_hi]
    return np.sqrt((frames**2).mean(axis=1))


#: A hop of 1,000 samples: every frame starts at the same phase of the triad
#: below (264.6, 352.8 and 441 Hz, near C4, F4 and A4), whose period is 1,000
#: samples, so all frames inside a stretch of one amplitude have one RMS.
_SILENCE_RATE, _SILENCE_FPS = 44100, 44.1
_TRIAD_PERIOD = sum(np.sin(2 * np.pi * k * np.arange(1000) / 1000) for k in (6, 8, 10))


def _triad(periods: int, scale: float) -> np.ndarray:
    return scale * np.tile(_TRIAD_PERIOD, periods)


def _scales_near(threshold: float) -> dict[float, float]:
    """Scales of the triad by the RMS, within 3 ulps of ``threshold``, that
    one frame of it has by the old expression."""
    frame = _triad(_WINDOW // 1000 + 2, 1.0)[-(_WINDOW // 2) % 1000:][:_WINDOW]

    def rms(scale):
        return np.sqrt(((scale * frame)[None, :] ** 2).mean(axis=1))[0]

    scale = threshold / rms(1.0)
    low, high = threshold, threshold
    for _ in range(3):
        low, high = np.nextafter(low, 0.0), np.nextafter(high, 1.0)
    found = {}
    for step in range(-300, 300):
        value = rms(scale * (1.0 + step * 2.0**-52))
        if low <= value <= high:
            found.setdefault(value, scale * (1.0 + step * 2.0**-52))
    return found


def _silence_case(case: str) -> np.ndarray:
    """The samples of a case of the silence test."""
    if case == "zeros":
        return np.zeros(3 * _SILENCE_RATE)
    scales = _scales_near(1e-4)
    # Each part a whole number of periods, so that every frame sees one phase.
    near = [_triad(30, scale) for _, scale in sorted(scales.items())]
    parts = [np.zeros(4000)] + near + [_triad(20, 1e-5), _triad(20, 0.2)]
    if case == "burst":  # in the chunk of the near-threshold frames
        parts.insert(1, _triad(2, 1e4))
    samples = np.concatenate(parts)
    if case in ("nan", "inf"):  # amid quiet frames, in the chunk's middle
        samples[len(samples) // 3] = np.nan if case == "nan" else -np.inf
    return samples


@pytest.mark.parametrize("case", ["ulps", "zeros", "burst", "nan", "inf"])
def test_chroma_from_audio_decides_silence_as_the_per_frame_rms_did(case):
    samples = _silence_case(case)
    rms = _old_frame_rms(samples, _SILENCE_RATE, _SILENCE_FPS)
    silent = rms < 1e-4
    if case != "zeros":  # frames a few ulps from the threshold, each way
        assert {-1, 0, 1} <= set(np.sign(rms[np.abs(rms - 1e-4) <= 3 * np.spacing(1e-4)] - 1e-4))
        assert silent.any() and not silent.all()
    with mock.patch("warnings.warn"), np.errstate(invalid="ignore", over="ignore"):
        # Every frame's classes, silent or not: the float64 oracle with no silence.
        heard = _chroma_float64_oracle(samples, _SILENCE_RATE, _SILENCE_FPS,
                                       silence_threshold=0.0)
        got = chroma_from_audio(samples, _SILENCE_RATE, _SILENCE_FPS)
    assert heard.any() or case == "zeros"
    assert np.array_equal(got, np.where(silent[:, None], 0.0, heard))


def test_chroma_from_audio_rejects_more_than_two_channels():
    with pytest.raises(ValueError, match="1 or 2 channels"):
        chroma_from_audio(np.zeros((3, 44100)), 44100, frame_rate=50)


@settings(max_examples=40, deadline=None)
@given(_chroma_cases(), st.sampled_from((3, 16, 256)), st.data())
def test_chroma_from_audio_with_a_memo_equals_it_without(case, chunk, data):
    samples, sample_rate, frame_rate, num_frames = case
    kwargs = dict(num_frames=num_frames)
    # An edit: a span of the signal scaled, so some chunks read other samples.
    edited = np.array(samples, dtype=float)
    n = edited.shape[-1]
    lo = data.draw(st.integers(0, n))
    edited[..., lo : lo + data.draw(st.integers(0, n))] *= data.draw(st.sampled_from((0.0, 0.5)))
    memo: dict = {}
    with mock.patch.object(metrics, "_CHROMA_CHUNK", chunk):
        first = chroma_from_audio(samples, sample_rate, frame_rate, memo=memo, **kwargs)
        assert np.array_equal(first, chroma_from_audio(samples, sample_rate, frame_rate, **kwargs))
        assert len(memo) <= -(-len(first) // chunk)
        memo = metrics.memo_from_json(metrics.memo_to_json(memo))
        after = chroma_from_audio(edited, sample_rate, frame_rate, memo=memo, **kwargs)
        fresh_memo: dict = {}
        fresh = chroma_from_audio(edited, sample_rate, frame_rate, memo=fresh_memo, **kwargs)
    assert np.array_equal(after, fresh)
    assert metrics.memo_to_json(memo) == metrics.memo_to_json(fresh_memo)


def test_chroma_memo_keys_change_with_the_parameters():
    t = np.arange(44100) / 44100
    audio = 0.2 * np.sin(2 * np.pi * 261.63 * t)
    keys = []
    for sample_rate, frame_rate in ((44100, 50.0), (22050, 50.0), (44100, 43.0)):
        memo: dict = {}
        chroma_from_audio(audio, sample_rate, frame_rate, memo=memo)
        keys.append(set(memo))
    assert all(a.isdisjoint(b) for i, a in enumerate(keys) for b in keys[i + 1:])


def test_a_chroma_memo_key_is_the_one_earlier_versions_wrote():
    # The key hashes repr((CHROMA_VERSION, sample_rate, 48, 84, 8192, 0.0001)):
    # a change to that tuple would silently invalidate every chroma_memo.json.
    # The triad is rounded to 16-bit steps, so the last bit of np.sin cannot
    # change the samples hashed.
    t = np.arange(44100) / 44100
    triad = sum(0.2 * np.sin(2 * np.pi * 440.0 * 2 ** ((m - 69) / 12) * t) for m in (60, 64, 67))
    memo: dict = {}
    chroma = chroma_from_audio(np.round(triad * 32767) / 32767, 44100, 50.0, memo=memo)
    assert set(np.flatnonzero(chroma[25])) == {0, 4, 7}
    assert list(memo) == ["bae7c504ed02ee8664855792525e55f5bfb328b03cd3556b73b361204f2f3d78"]


@pytest.mark.parametrize("text", [
    "[]",
    '{"format": "chroma-memo", "version": 2, "chunks": []}',
    '{"format": "chroma-memo", "version": 1, "chunks": [["k", "0f"]]}',
    '{"format": "chroma-memo", "version": 1, "chunks": [["k", "-ff"]]}',
    '{"format": "chroma-memo", "version": 1, "chunks": [["k"]]}',
    '{"format": "chroma-memo", "version": 1}',
])
def test_malformed_chroma_memos_are_rejected(text):
    with pytest.raises(ValueError):
        metrics.memo_from_json(text)


def test_chroma_memo_round_trips_twelve_bits_a_row():
    rows = np.zeros((4, 12))
    rows[1, [0, 4, 7]] = 1.0
    rows[2] = 1.0
    rows[3, 11] = 1.0
    text = metrics.memo_to_json({"key": rows})
    assert '"000091fff800"' in text
    assert np.array_equal(metrics.memo_from_json(text)["key"], rows)


# ---------------------------------------------------------------------------
# The float32 projection against the float64 kernel it replaced


@lru_cache(maxsize=8)
def _float64_basis(window_size: int, n_fft: int, bins: tuple) -> np.ndarray:
    phase = (np.outer(np.arange(window_size), bins) % n_fft) * (2.0 * np.pi / n_fft)
    hann = np.hanning(window_size)[:, None]
    return np.hstack([hann * np.cos(phase), hann * np.sin(phase)])


def _float64_energies(samples, sample_rate, frame_rate, num_frames=None,
                      silence_threshold=_SILENCE, chunk=256):
    """Each live frame's class energies, as the float64 kernel computed them.

    Yields ``(frames, energy)`` per chunk of ``chunk`` frames: the indices of
    the chunk's live frames, all projected in one float64 product as the
    kernel did, and their (n, 12) energies.
    """
    mono = np.asarray(samples, dtype=float)
    if mono.ndim == 2:
        mono = mono.mean(axis=0)
    if num_frames is None:
        num_frames = int(np.ceil(len(mono) / sample_rate * frame_rate))
    n_fft = 4 * _WINDOW
    note_freqs = 440.0 * 2.0 ** ((np.arange(_LOW_MIDI, _HIGH_MIDI) - 69) / 12.0)
    note_bins = np.round(note_freqs * n_fft / sample_rate).astype(int)
    note_pcs = np.arange(_LOW_MIDI, _HIGH_MIDI) % 12
    bins, note_cols = np.unique(note_bins, return_inverse=True)
    basis = _float64_basis(_WINDOW, n_fft, tuple(bins.tolist()))
    starts = (np.rint(np.arange(num_frames) / frame_rate * sample_rate).astype(np.int64)
              - _WINDOW // 2)
    for first in range(0, num_frames, chunk):
        frames = np.zeros((len(starts[first : first + chunk]), _WINDOW))
        for row, lo in enumerate(starts[first : first + chunk]):
            src_lo, src_hi = max(lo, 0), min(lo + _WINDOW, len(mono))
            if src_hi > src_lo:
                frames[row, src_lo - lo : src_hi - lo] = mono[src_lo:src_hi]
        live = np.flatnonzero(~(np.sqrt((frames**2).mean(axis=1)) < silence_threshold))
        if live.size:
            proj = frames[live] @ basis
            magnitude = np.hypot(proj[:, : len(bins)], proj[:, len(bins) :])
            energy = np.zeros((len(live), 12))
            np.maximum.at(energy, (slice(None), note_pcs), magnitude[:, note_cols])
            yield first + live, energy


def _chroma_float64_oracle(samples, sample_rate, frame_rate, num_frames=None, **kwargs):
    """The chromagram of the float64 kernel chroma_from_audio ran before it
    projected in float32: the three strongest classes by a stable sort, each
    marked when above 5 % of the strongest."""
    mono = np.asarray(samples, dtype=float)
    if num_frames is None:
        num_frames = int(np.ceil(mono.shape[-1] / sample_rate * frame_rate))
    out = np.zeros((num_frames, 12))
    for frames, energy in _float64_energies(samples, sample_rate, frame_rate, num_frames,
                                            **kwargs):
        top = np.argsort(energy, axis=1, kind="stable")[:, -3:]
        strong = np.take_along_axis(energy, top, axis=1) > 0.05 * energy.max(
            axis=1, keepdims=True)
        row, rank = np.nonzero(strong)
        out[frames[row], top[row, rank]] = 1.0
    return out


def _counting_frames(monkeypatch) -> dict:
    """Count the live frames the float32 pass judged and those measured in float64."""
    counts = {"judged": 0, "float64": 0}
    decided, measured = metrics._decided, metrics._measured

    def judge(energy, *args):
        counts["judged"] += len(energy)
        return decided(energy, *args)

    def measure(segment, offsets, *args):
        counts["float64"] += len(offsets)
        return measured(segment, offsets, *args)

    monkeypatch.setattr(metrics, "_decided", judge)
    monkeypatch.setattr(metrics, "_measured", measure)
    return counts


@settings(max_examples=40, deadline=None)
@given(_chroma_cases(), st.sampled_from((3, 16, 256)), st.booleans())
def test_chroma_from_audio_equals_the_float64_oracle(case, chunk, narrow):
    samples, sample_rate, frame_rate, num_frames = case
    if narrow:  # float32-exact samples take the other memo tag and no rounding
        samples = samples.astype(np.float32).astype(float)
    kwargs = dict(num_frames=num_frames)
    with mock.patch.object(metrics, "_CHROMA_CHUNK", chunk):
        fast = chroma_from_audio(samples, sample_rate, frame_rate, **kwargs)
    assert np.array_equal(fast, _chroma_float64_oracle(samples, sample_rate, frame_rate,
                                                       chunk=chunk, **kwargs))


def _sine(midi: float, amplitude: float, n: int, sample_rate: int = 44100) -> np.ndarray:
    freq = 440.0 * 2.0 ** ((midi - 69) / 12.0)
    return amplitude * np.sin(2 * np.pi * freq * np.arange(n) / sample_rate)


#: A sample rate at which an 8192-sample window puts C3 and C#3 in one bin.
_SHARED_RATE = 400000

#: Three frames 4,410 samples apart; the middle one lies inside the signal.
_NEAR_RATE, _NEAR_FPS, _NEAR_N = 44100, 10.0, 9000


@lru_cache(maxsize=1)
def _amplitudes_at_the_limit() -> tuple[float, ...]:
    """Amplitudes of E4, beside a C4 of 0.2, that put E's energy in the
    middle frame within a few ulps of 5 % of C's, on both sides."""
    def marked(amplitude):
        samples = _sine(60, 0.2, _NEAR_N) + _sine(64, amplitude, _NEAR_N)
        return _chroma_float64_oracle(samples, _NEAR_RATE, _NEAR_FPS)[1, 4] == 1.0

    low, high = 0.005, 0.02
    assert not marked(low) and marked(high)
    while np.nextafter(low, 1.0) < high:
        mid = (low + high) / 2
        low, high = (low, mid) if marked(mid) else (mid, high)
    steps = [low, high]
    for _ in range(3):
        steps = [np.nextafter(steps[0], 0.0)] + steps + [np.nextafter(steps[-1], 1.0)]
    return tuple(float(a) for a in steps)


def _adversarial_case(case: str, tmp_path):
    """``(source, decoded samples, sample rate, frame rate)`` of a case."""
    sr, n = 44100, 30000
    if case.startswith("5 % limit"):
        amplitude = _amplitudes_at_the_limit()[int(case.split()[-1])]
        samples = _sine(60, 0.2, _NEAR_N) + _sine(64, amplitude, _NEAR_N)
        return samples, samples, _NEAR_RATE, _NEAR_FPS
    if case == "3rd and 4th tied in one bin":
        # At 400 kHz an 8192-sample window puts C3 and C#3 in one bin, whose
        # centre this tone at MIDI 48.45 sits on: a tie in every frame inside
        # the signal, below F5 and A5.
        sr = _SHARED_RATE
        samples = (_sine(77, 0.3, n, sr) + _sine(81, 0.3, n, sr)
                   + _sine(48.45, 0.2, n, sr))
    elif case == "3rd and 4th at equal amplitude":
        samples = _sine(60, 0.3, n) + _sine(64, 0.3, n) + _sine(67, 0.1, n) + _sine(69, 0.1, n)
    elif case == "shared bins":
        sr = _SHARED_RATE
        samples = _sine(50, 0.2, n, sr) + _sine(53, 0.2, n, sr) + _sine(57, 0.2, n, sr)
    elif case in ("nan", "inf", "-inf"):
        samples = _sine(60, 0.2, n) + _sine(63, 0.2, n) + _sine(67, 0.2, n)
        samples[n // 2] = float(case)
    elif case in ("stereo WAV", "PCM-16 WAV"):
        left = _sine(60, 0.2, n) + _sine(64, 0.2, n) + _sine(67, 0.2, n)
        right = _sine(57, 0.2, n) + _sine(60, 0.2, n) + _sine(64, 0.2, n)
        stereo = case == "stereo WAV"
        buffer = render.AudioBuffer(sr, np.stack([left, right]) if stereo else left)
        path = tmp_path / "source.wav"
        if stereo:
            render.write_wav(buffer, path)
        else:
            path.write_bytes(pcm16_wav_bytes(buffer))
        return render.WavReader(path), render.read_wav(path).samples, sr, 50.0
    return samples, samples, sr, 50.0


_ADVERSARIAL = ["3rd and 4th tied in one bin", "3rd and 4th at equal amplitude",
                *(f"5 % limit {i}" for i in range(8)), "shared bins",
                "nan", "inf", "-inf", "stereo WAV", "PCM-16 WAV"]


@pytest.mark.parametrize("case", _ADVERSARIAL)
def test_chroma_from_audio_equals_the_float64_oracle_on_adversarial_inputs(
        case, tmp_path, monkeypatch):
    source, samples, sample_rate, frame_rate = _adversarial_case(case, tmp_path)
    counts = _counting_frames(monkeypatch)
    with mock.patch("warnings.warn"), np.errstate(invalid="ignore", over="ignore"):
        got = chroma_from_audio(source, sample_rate, frame_rate)
        want = _chroma_float64_oracle(samples, sample_rate, frame_rate)
    assert want.any()
    assert np.array_equal(got, want)
    if case.startswith(("3rd", "5 %", "nan", "inf", "-inf")):
        assert counts["float64"] > 0  # the case reached the float64 fallback


def test_an_undecided_chroma_chunk_is_projected_in_float64_whole(tmp_path, monkeypatch):
    # The middle frame lies at the 5 % limit, its neighbours do not: the
    # float64 product must still take all of the chunk's live frames, as the
    # oracle's does, since BLAS may sum a row differently in a smaller product.
    source, samples, sample_rate, frame_rate = _adversarial_case("5 % limit 3", tmp_path)
    (live, _), = _float64_energies(samples, sample_rate, frame_rate)
    counts = _counting_frames(monkeypatch)
    chroma_from_audio(source, sample_rate, frame_rate)
    assert counts["float64"] == len(live) == 3


def test_the_adversarial_chroma_inputs_are_what_they_say(tmp_path):
    _, samples, sr, fps = _adversarial_case("3rd and 4th tied in one bin", tmp_path)
    tied = [np.sort(energy, axis=1)[:, -4:-2] for _, energy in
            _float64_energies(samples, sr, fps)]
    assert any((pair[:, 0] == pair[:, 1]).any() for pair in tied)
    gaps = []
    for amplitude in _amplitudes_at_the_limit():
        samples = _sine(60, 0.2, _NEAR_N) + _sine(64, amplitude, _NEAR_N)
        (frames, energy), = _float64_energies(samples, _NEAR_RATE, _NEAR_FPS)
        middle = energy[list(frames).index(1)]
        limit = 0.05 * middle.max()
        gaps.append((middle[4] - limit) / np.spacing(limit))
    # E4 lies a few ulps of the limit below it, and a few above it.
    assert min(gaps) < 0 < max(gaps)
    assert max(map(abs, gaps)) <= 8


def test_the_chroma_float64_fallback_sees_under_one_percent_of_a_rendered_songs_frames(
        tmp_path, monkeypatch):
    score = simple_score([60, 64, 67, 65, 62, 59, 60, 55, 57, 64, 62, 60] * 6,
                         labels=["verse", "chorus", "verse", "chorus"])
    path = tmp_path / "song.mid"
    path.write_bytes(score_io.write_smf(score))
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(str(path), str(out)))
    bundle = conditioning.bundle_from_json((out / "conditions.json").read_text())
    reader = render.WavReader(out / "accompaniment.wav")
    counts = _counting_frames(monkeypatch)
    got = chroma_from_audio(reader, reader.sample_rate, bundle.frame_rate, bundle.num_frames)
    assert counts["judged"] > 1000
    assert counts["float64"] < 0.01 * counts["judged"]
    samples = render.read_wav(out / "accompaniment.wav").samples
    assert np.array_equal(got, _chroma_float64_oracle(samples, reader.sample_rate,
                                                      bundle.frame_rate, bundle.num_frames))


@pytest.mark.parametrize("sample_rate", [44100, 8000, 400000])
def test_the_chroma_float32_error_scale_is_the_proven_bound(sample_rate):
    from fractions import Fraction

    bins = np.unique(np.round(440.0 * 2.0 ** ((np.arange(48, 84) - 69) / 12.0)
                              * (4 * _WINDOW) / sample_rate).astype(int))
    basis = metrics._note_bin_basis(bins)
    v, u, h = Fraction(1, 2**24), Fraction(1, 2**53), Fraction(1, 2**50)

    def g(e):
        return _WINDOW * e / (1 - _WINDOW * e)

    c = 2 * v + v * v + (1 + v) ** 2 * g(v) + g(u)
    k = len(bins)
    beta = max(np.sqrt(sum(math.fsum(col**2) for col in (basis[:, j], basis[:, k + j])))
               for j in range(k))
    proven = (1 + Fraction(1, 2**20)) * ((1 + h) * c + 2 * h * (1 + c)) * Fraction(beta)
    assert Fraction(metrics._error_scale(basis)) >= proven * (1 - Fraction(1, 2**40))


def _judged(top4, proj=(0.0, 0.0)):
    """``_decided`` of one frame whose four strongest classes have energies
    ``top4`` (4th to 1st, the rest 0), with an error bound of 1."""
    energy = np.zeros((1, 12))
    energy[0, 8:] = top4
    order = np.argsort(energy, axis=1, kind="stable")
    # A scale of 1 and a sum of squares of 1: the bound is 1 + 2**-100.
    return bool(metrics._decided(energy, order, np.array([proj]), 1.0, np.ones(1))[0])


def test_decided_chroma_frames_keep_the_margins_of_the_proof():
    # The 3rd strongest must exceed the 4th by more than twice the bound.
    assert _judged([100.0, 102.0 + 1e-9, 900.0, 1000.0])
    assert not _judged([100.0, 102.0, 900.0, 1000.0])
    # Each of the three must lie more than 1.1 bounds from 5 % of the strongest:
    # the strongest moves by the bound, so the limit moves by 0.05 of it too.
    assert _judged([10.0, 50.0 + 1.1 + 1e-9, 900.0, 1000.0])
    assert not _judged([10.0, 50.0 + 1.1 - 1e-9, 900.0, 1000.0])
    assert _judged([10.0, 50.0 - 1.1 - 1e-9, 900.0, 1000.0])
    assert not _judged([10.0, 50.0 - 1.1 + 1e-9, 900.0, 1000.0])
    # A non-finite float32 projection is never decided.
    assert _judged([1.0, 5.0, 900.0, 1000.0])
    assert not _judged([1.0, 5.0, 900.0, 1000.0], proj=(np.inf, 0.0))


def test_chroma_memo_keys_follow_the_samples_as_stored(tmp_path):
    t = np.arange(44100) / 44100
    audio = 0.2 * np.sin(2 * np.pi * 261.63 * t) + 0.2 * np.sin(2 * np.pi * 329.63 * t)
    narrow = audio.astype(np.float32).astype(float)
    keys = []
    for source in (audio, narrow, np.stack([narrow, narrow])):
        memo: dict = {}
        chroma_from_audio(source, 44100, 50.0, memo=memo)
        keys.append(list(memo))
    # Float64 samples key apart from their float32 rounding; a stereo source
    # whose channel mean is float32-exact keys as its mono mix.
    assert set(keys[0]).isdisjoint(keys[1])
    assert keys[2] == keys[1]
    path = tmp_path / "stereo.wav"
    render.write_wav(render.AudioBuffer(44100, np.stack([narrow, narrow])), path)
    memo = {}
    chroma_from_audio(render.WavReader(path), 44100, 50.0, memo=memo)
    assert list(memo) == keys[1]
