"""Stub accompaniment rendering, mixing, WAV and event-log formats."""
from __future__ import annotations

import hashlib
import os
import random
import struct
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from songpipe import render
from songpipe.conditioning import ConditionBundle
from songpipe.planner import REFERENCE_NONE, GenerationWindow, WindowReference
from songpipe.render import (
    CLICK_AMPLITUDE,
    DOWNBEAT_GAIN,
    MIX_PEAK,
    AudioBuffer,
    RenderEvent,
    WavFormatError,
    WavReader,
    format_events,
    local_maxima,
    midi_to_hz,
    mix,
    open_wav,
    parse_events,
    read_wav,
    render_stub,
    wav_bytes,
    wav_from_bytes,
    write_wav,
)

from helpers import pcm16_wav_bytes, random_buffer

SR = 44100


def _bundle(
    T: int = 100,
    fr: float = 50.0,
    chroma_rows=None,
    beat_frames=(),
    down_frames=(),
) -> ConditionBundle:
    rhythm = np.zeros((T, 2))
    for f in beat_frames:
        rhythm[f, 0] = 1.0
    for f in down_frames:
        rhythm[f, 1] = 1.0
    chroma = np.zeros((T, 12))
    if chroma_rows:
        for (f0, f1), pcs in chroma_rows:
            for pc in pcs:
                chroma[f0:f1, pc] = 1.0
    return ConditionBundle(
        frame_rate=fr,
        rhythm=rhythm,
        chroma=chroma,
        structure=np.zeros(T, dtype=np.int64),
        pitch_contour=np.zeros(T),
        keys=(),
    )


def _window(start: float, end: float) -> GenerationWindow:
    return GenerationWindow(start, end, 0, 0, WindowReference(REFERENCE_NONE))


def test_midi_to_hz_reference_points():
    assert midi_to_hz(69) == pytest.approx(440.0)
    assert midi_to_hz(60) == pytest.approx(261.6256, abs=1e-3)


def test_local_maxima_basics():
    x = np.array([0.0, 1.0, 0.0, 0.6, 0.6, 0.2, 0.9])
    assert local_maxima(x, 0.5).tolist() == [1, 3, 6]  # plateau counts once
    assert local_maxima(x, 0.95).tolist() == [1]
    assert local_maxima(np.zeros(0), 0.5).tolist() == []


def test_click_lands_on_the_exact_sample():
    bundle = _bundle(beat_frames=[50])
    audio, events = render_stub(bundle, _window(0.0, 2.0), SR)
    samples = audio.samples[0]
    assert np.all(samples[:SR] == 0.0)  # silent before the click at 1.0 s
    assert np.any(samples[SR : SR + 441] != 0.0)
    assert SR <= np.argmax(np.abs(samples)) <= SR + 30
    assert events == [RenderEvent(SR / SR, "beat")]


def test_downbeat_clicks_are_louder():
    beat, _ = render_stub(_bundle(beat_frames=[50]), _window(0.0, 2.0), SR)
    down, _ = render_stub(_bundle(down_frames=[50]), _window(0.0, 2.0), SR)
    assert np.abs(down.samples).max() / np.abs(beat.samples).max() == pytest.approx(DOWNBEAT_GAIN)


def test_coincident_beat_and_downbeat_click_once():
    bundle = _bundle(beat_frames=[50], down_frames=[50])
    audio, events = render_stub(bundle, _window(0.0, 2.0), SR)
    assert events == [RenderEvent(1.0, "downbeat")]
    only_down, _ = render_stub(_bundle(down_frames=[50]), _window(0.0, 2.0), SR)
    np.testing.assert_array_equal(audio.samples, only_down.samples)


def test_activation_plateau_clicks_once():
    bundle = _bundle(T=100)
    rhythm = bundle.rhythm.copy()
    rhythm[40:43, 0] = 0.8  # three-frame plateau
    plateau = ConditionBundle(
        bundle.frame_rate, rhythm, bundle.chroma, bundle.structure,
        bundle.pitch_contour, bundle.keys,
    )
    _, events = render_stub(plateau, _window(0.0, 2.0), SR)
    assert [e.kind for e in events] == ["beat"]
    assert events[0].time_sec == pytest.approx(40 / 50)


def test_pad_spectrum_shows_the_triad():
    bundle = _bundle(T=200, chroma_rows=[((0, 200), (0, 4, 7))])
    audio, _ = render_stub(bundle, _window(0.0, 4.0), SR)
    sl = audio.samples[0][22050 : 22050 + 16384]
    mag = np.abs(np.fft.rfft(sl * np.hanning(16384)))
    peaks = local_maxima(mag, 0.0)
    top3 = sorted(sorted(peaks, key=lambda i: -mag[i])[:3])
    expected = [round(midi_to_hz(60 + pc) * 16384 / SR) for pc in (0, 4, 7)]
    for got, want in zip(top3, expected):
        assert abs(got - want) <= 2


def test_chord_change_logged_at_true_boundary_only():
    bundle = _bundle(
        chroma_rows=[((0, 50), (0, 4, 7)), ((50, 100), (7, 11, 2))]
    )
    _, events = render_stub(bundle, _window(0.0, 2.0), SR)
    assert events == [RenderEvent(1.0, "chord_change")]


def test_silence_gap_produces_single_chord_change():
    bundle = _bundle(
        chroma_rows=[((0, 25), (0, 4, 7)), ((50, 100), (7, 11, 2))]
    )
    audio, events = render_stub(bundle, _window(0.0, 2.0), SR)
    assert events == [RenderEvent(1.0, "chord_change")]
    # the gap frames are silent
    gap = audio.samples[0][int(0.6 * SR) : int(0.9 * SR)]
    assert np.all(gap == 0.0)


def test_windows_concatenate_seamlessly():
    bundle = _bundle(
        T=100,
        chroma_rows=[((0, 100), (0, 4, 7))],
        beat_frames=[0, 25, 50, 75],
        down_frames=[0, 50],
    )
    whole, whole_events = render_stub(bundle, _window(0.0, 2.0), SR)
    left, left_events = render_stub(bundle, _window(0.0, 1.0), SR)
    right, right_events = render_stub(bundle, _window(1.0, 2.0), SR)
    stitched = np.concatenate([left.samples, right.samples], axis=1)
    np.testing.assert_array_equal(stitched, whole.samples)
    merged = sorted(left_events + right_events, key=lambda e: (e.time_sec, e.kind))
    assert merged == whole_events


def test_fades_only_at_chord_boundaries():
    bundle = _bundle(T=100, chroma_rows=[((0, 100), (0,))])
    audio, _ = render_stub(bundle, _window(0.0, 2.0), SR)
    samples = audio.samples[0]
    # fade-in: first sample is exactly zero, mid-ramp is attenuated
    assert samples[0] == 0.0
    interior = np.abs(samples[SR // 2 : SR // 2 + 4410])
    assert interior.max() == pytest.approx(0.2, abs=1e-3)


def test_render_rejects_windows_outside_the_bundle():
    bundle = _bundle(T=100)
    with pytest.raises(ValueError):
        render_stub(bundle, _window(0.0, 3.0), SR)


def test_mix_normalizes_peak(tmp_path):
    silence = AudioBuffer(SR, np.zeros((1, 1000)))
    tone = AudioBuffer(SR, 0.5 * np.sin(np.linspace(0, 20, 1000))[None, :])
    path = tmp_path / "mix.wav"
    assert mix(silence, tone, path) == pytest.approx(MIX_PEAK, rel=1e-12)
    assert np.abs(read_wav(path).samples).max() == pytest.approx(MIX_PEAK, rel=1e-7)  # float32


def test_mix_keeps_silence_silent(tmp_path):
    a = AudioBuffer(SR, np.zeros((1, 500)))
    b = AudioBuffer(SR, np.zeros((2, 300)))
    path = tmp_path / "mix.wav"
    assert mix(a, b, path) == 0.0
    out = read_wav(path)
    assert np.abs(out.samples).max() == 0.0
    assert out.channels == 2 and out.n_samples == 500


def test_mix_upmixes_mono_to_stereo(tmp_path):
    mono = AudioBuffer(SR, np.full((1, 100), 0.25))
    stereo = AudioBuffer(SR, np.stack([np.full(100, 0.5), np.full(100, -0.5)]))
    path = tmp_path / "mix.wav"
    mix(mono, stereo, path)
    out = read_wav(path)
    assert out.channels == 2
    assert out.samples[0, 0] == pytest.approx(MIX_PEAK)  # 0.75 scaled to peak
    assert out.samples[1, 0] == pytest.approx(-0.25 * MIX_PEAK / 0.75)


def test_mix_rejects_rate_mismatch(tmp_path):
    with pytest.raises(ValueError):
        mix(AudioBuffer(44100, np.zeros((1, 10))), AudioBuffer(48000, np.zeros((1, 10))),
            tmp_path / "mix.wav")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mix_rejects_a_sample_that_is_not_finite(bad, tmp_path):
    # A NaN peak would skip the scaling and pass the NaN through; an
    # infinite one would scale every sample by 0, turning the inf into NaN.
    samples = np.full((1, 100), 0.25)
    samples[0, 40] = bad
    with pytest.raises(ValueError, match="not finite"):
        mix(AudioBuffer(SR, np.zeros((1, 100))), AudioBuffer(SR, samples), tmp_path / "mix.wav")
    assert not list(tmp_path.iterdir())


def test_mix_rejects_a_peak_too_small_to_scale(tmp_path):
    # 0.95 / 5e-324 overflows to inf, which would write [inf, nan, -inf].
    path = tmp_path / "mix.wav"
    silence = AudioBuffer(SR, np.zeros((1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^cannot mix: the summed peak .* too small"):
            mix(AudioBuffer(SR, [[5e-324, 0.0, -2.5e-324]]), silence, path)
        assert not list(tmp_path.iterdir())
        # A peak of 1e-308 is still scaled: 0.95 / 1e-308 is below the float64 maximum.
        assert mix(AudioBuffer(SR, [[1e-308, 0.0, -0.5e-308]]), silence, path) == \
            pytest.approx(MIX_PEAK, rel=1e-12)
    assert read_wav(path).samples[0].tolist() == pytest.approx([MIX_PEAK, 0.0, -MIX_PEAK / 2])


def test_a_signalling_nan_sample_reads_as_nan_without_a_warning(tmp_path):
    # The float32 bit pattern 0x7FA00000 is a signalling NaN: casting it to
    # float64 raises the FPU's invalid flag, which numpy reports as a warning.
    samples = np.full(8, 0.25, dtype="<f4")
    samples.view("<u4")[3] = 0x7FA00000
    data = wav_bytes(AudioBuffer(SR, np.zeros((1, 8))))[:-32] + samples.tobytes()
    path = tmp_path / "snan.wav"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (WavReader(path).read(0, 8), wav_from_bytes(data).samples):
            assert np.isnan(read).tolist() == [[i == 3 for i in range(8)]]
        with pytest.raises(ValueError, match="cannot mix: a summed sample is not finite"):
            mix(AudioBuffer(SR, np.zeros((1, 8))), WavReader(path), tmp_path / "mix.wav")
    assert sorted(os.listdir(tmp_path)) == ["snan.wav"]


def test_audio_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(SR, np.zeros((3, 10)))
    with pytest.raises(ValueError):
        AudioBuffer(0, np.zeros((1, 10)))
    promoted = AudioBuffer(SR, np.zeros(10))
    assert promoted.channels == 1


def test_float32_wav_round_trip_is_bit_exact():
    rng = random.Random(11)
    for _ in range(25):
        buf = AudioBuffer(rng.choice([22050, 44100]), random_buffer(rng))
        back = wav_from_bytes(wav_bytes(buf))
        assert back.sample_rate == buf.sample_rate
        np.testing.assert_array_equal(back.samples, buf.samples)


def test_float_wav_carries_fact_chunk():
    data = wav_bytes(AudioBuffer(SR, np.zeros((1, 10))))
    assert b"fact" in data


def test_wav_files_round_trip_on_disk(tmp_path):
    buf = AudioBuffer(SR, np.linspace(-0.5, 0.5, 64, dtype=np.float32)[None, :].astype(float))
    path = tmp_path / "x.wav"
    write_wav(buf, path)
    back = read_wav(path)
    np.testing.assert_array_equal(back.samples, buf.samples)


def test_unknown_chunks_and_padding_are_skipped():
    base = pcm16_wav_bytes(AudioBuffer(SR, np.zeros((1, 4))))
    # splice an odd-sized stranger chunk between WAVE and fmt
    stranger = b"junk" + struct.pack("<I", 3) + b"abc" + b"\x00"
    data = base[:12] + stranger + base[12:]
    data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
    buf = wav_from_bytes(data)
    assert buf.n_samples == 4


def _with_bit_depth(data: bytes, bits: int) -> bytes:
    off = data.index(b"fmt ") + 8 + 14  # bits-per-sample field of the fmt chunk
    return data[:off] + struct.pack("<H", bits) + data[off + 2 :]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d[:8], "short"),
        (lambda d: b"RIFX" + d[4:], "RIFF"),
        (lambda d: _with_bit_depth(d, 24), "unsupported format"),
        (lambda d: d.replace(b"fmt ", b"fmx "), "missing fmt"),
        (lambda d: d.replace(b"data", b"dada"), "missing data"),
    ],
)
def test_wav_errors_are_typed(mutate, message):
    base = pcm16_wav_bytes(AudioBuffer(SR, np.zeros((1, 4))))
    with pytest.raises(WavFormatError) as err:
        wav_from_bytes(mutate(base))
    assert message in str(err.value)


def test_wav_rejects_partial_frames():
    base = pcm16_wav_bytes(AudioBuffer(SR, np.zeros((2, 4))))
    # shrink the data chunk by one byte
    idx = base.rindex(b"data")
    (size,) = struct.unpack("<I", base[idx + 4 : idx + 8])
    data = base[: idx + 4] + struct.pack("<I", size - 1) + base[idx + 8 : -1]
    data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
    with pytest.raises(WavFormatError):
        wav_from_bytes(data)


def test_wav_fuzz_never_crashes():
    rng = random.Random(999)
    base = pcm16_wav_bytes(AudioBuffer(SR, random_buffer(rng, max_samples=64)))
    for _ in range(2000):
        if rng.random() < 0.5:
            n = rng.randint(0, 120)
            data = bytes(rng.randrange(256) for _ in range(n))
            if rng.random() < 0.5:
                data = b"RIFF" + data
        else:
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            data = bytes(mutated)
        try:
            wav_from_bytes(data)
        except WavFormatError:
            pass


def test_event_text_round_trip():
    events = [
        RenderEvent(0.0, "downbeat"),
        RenderEvent(0.5, "beat"),
        RenderEvent(1.25, "chord_change"),
    ]
    assert parse_events(format_events(events)) == events
    assert parse_events("# comment\n\n" + format_events(events)) == events


def test_parse_events_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_events("0.5\n")
    with pytest.raises(ValueError):
        parse_events("oops\tbeat\n")


# ---------------------------------------------------------------------------
# Streamed mix against the whole-buffer mix it replaced


def _mix_oracle(vocal: AudioBuffer, accompaniment: AudioBuffer) -> AudioBuffer:
    """The in-memory mix: one zero-padded whole-song sum, scaled once."""
    channels = max(vocal.channels, accompaniment.channels)
    n = max(vocal.n_samples, accompaniment.n_samples)
    total = np.zeros((channels, n))
    for buf in (vocal, accompaniment):
        samples = buf.samples
        if buf.channels < channels:
            samples = np.repeat(samples, channels, axis=0)
        total[:, : buf.n_samples] += samples
    peak = np.abs(total).max() if n else 0.0
    if peak > 0.0:
        total *= MIX_PEAK / peak
    return AudioBuffer(vocal.sample_rate, total)


#: WAV bytes by sample format: songpipe writes float32, ``wave`` writes PCM-16.
_ENCODERS = {"pcm16": pcm16_wav_bytes, "float32": wav_bytes}


@st.composite
def _audio(draw):
    """(channels, n) samples, float32-representable, with signed zeros; maybe all silent."""
    rows = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(0, 40))
    zeros = st.sampled_from((0.0, -0.0))
    value = zeros if draw(st.booleans()) else st.one_of(zeros, st.floats(-1.5, 1.5, width=32))
    cells = draw(st.lists(value, min_size=rows * n, max_size=rows * n))
    return np.array(cells, dtype=float).reshape(rows, n)


@settings(max_examples=60, deadline=None)
@given(
    vocal=_audio(),
    vocal_format=st.sampled_from(("pcm16", "float32")),
    accompaniment=_audio(),
    chunk=st.sampled_from((3, 16, render.STREAM_FRAMES)),
)
@example(np.full((1, 40), 0.25), "float32", np.full((1, 7), -0.5), 3)  # vocal longer
@example(np.full((2, 5), -0.25), "pcm16", np.full((1, 33), 0.5), 16)  # vocal shorter
@example(np.full((2, 9), -0.0), "float32", np.full((1, 9), -0.0), 3)  # silent, -0.0
def test_streamed_mix_matches_the_in_memory_mix_byte_for_byte(
    vocal, vocal_format, accompaniment, chunk
):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(render, "STREAM_FRAMES", chunk):
        vocal_path = os.path.join(tmp, "vocal.wav")
        accomp_path = os.path.join(tmp, "accompaniment.wav")
        with open(vocal_path, "wb") as fh:
            fh.write(_ENCODERS[vocal_format](AudioBuffer(SR, vocal)))
        write_wav(AudioBuffer(SR, accompaniment), accomp_path)
        oracle = _mix_oracle(read_wav(vocal_path), read_wav(accomp_path))
        expected = wav_bytes(oracle)

        out = os.path.join(tmp, "mix.wav")
        peak = mix(open_wav(vocal_path), open_wav(accomp_path), out)
        with open(out, "rb") as fh:
            assert fh.read() == expected
        assert sorted(os.listdir(tmp)) == ["accompaniment.wav", "mix.wav", "vocal.wav"]
        assert oracle.n_samples == max(vocal.shape[1], accompaniment.shape[1])
        assert peak == np.abs(oracle.samples).max(initial=0.0)


@settings(max_examples=40, deadline=None)
@given(
    audio=_audio(),
    sample_format=st.sampled_from(("pcm16", "float32")),
    lo=st.integers(0, 45),
    width=st.integers(0, 45),
)
def test_wav_reader_ranges_equal_the_decoded_file(audio, sample_format, lo, width):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.wav")
        with open(path, "wb") as fh:
            fh.write(_ENCODERS[sample_format](AudioBuffer(SR, audio)))
        with open(path, "rb") as fh:
            whole = wav_from_bytes(fh.read())
        reader = WavReader(path)
        assert (reader.sample_rate, reader.channels, reader.n_samples) == (
            SR, whole.channels, whole.n_samples)
        np.testing.assert_array_equal(reader.read(lo, lo + width), whole.read(lo, lo + width))


def test_wav_reader_checks_chunk_sizes_against_the_file_size(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(AudioBuffer(SR, np.zeros((1, 100))), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(WavFormatError, match="runs past end of file"):
        WavReader(path)
    with pytest.raises(WavFormatError, match=f"cannot read {path}: chunk"):
        open_wav(path)


def test_mix_keeps_the_old_file_when_the_stream_fails(tmp_path):
    class FailingBuffer(AudioBuffer):
        """Reads that fail once the peak pass is over and the write pass is under way."""

        reads = 0

        def read(self, lo, hi):
            FailingBuffer.reads += 1
            if FailingBuffer.reads > 4:  # 3 chunks in the peak pass, 1 in the write pass
                raise RuntimeError("interrupted mid-stream")
            return super().read(lo, hi)

    path = tmp_path / "x.wav"
    write_wav(AudioBuffer(SR, np.full((1, 10), 0.5)), path)
    before = path.read_bytes()
    silence = AudioBuffer(SR, np.zeros((1, 10)))
    with mock.patch.object(render, "STREAM_FRAMES", 4), pytest.raises(RuntimeError):
        mix(FailingBuffer(SR, np.full((1, 10), 0.25)), silence, path)
    assert FailingBuffer.reads == 5
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["x.wav"]


# ---------------------------------------------------------------------------
# render_stub reads only the rows of window_frames


_ORACLE_TABLE_SIZE = 16384
_ORACLE_TABLE = np.round(
    np.sin(2.0 * np.pi * np.arange(_ORACLE_TABLE_SIZE) / _ORACLE_TABLE_SIZE), 9)
_ORACLE_PAD_AMPLITUDE = 0.2


def _oracle_index(freq_hz, times_sec):
    """The sine-table index as a float remainder of the phase, then floor."""
    phase = times_sec * freq_hz
    return np.floor((phase % 1.0) * _ORACLE_TABLE_SIZE).astype(np.int64) % _ORACLE_TABLE_SIZE


def _oracle_sine(freq_hz, times_sec):
    return _ORACLE_TABLE[_oracle_index(freq_hz, times_sec)]


def _render_stub_oracle(bundle, window, sample_rate):
    """render_stub as it was before it sliced the bundle: every chord run and
    local maximum of the whole song, clipped to the window afterwards, with
    whole-run tone, envelope and product arrays and its own table lookup."""
    duration = bundle.duration_sec
    fr = bundle.frame_rate
    first_sample = round(window.start_sec * sample_rate)
    last_sample = round(window.end_sec * sample_rate)
    n = last_sample - first_sample
    out = np.zeros(n)
    events = []
    fade_len = int(round(render.FADE_SEC * sample_rate))
    for f0, f1 in render._chord_segments(bundle.chroma):
        pcs = np.nonzero(bundle.chroma[f0])[0]
        seg_start = f0 / fr
        seg_end = min(f1 / fr, duration)
        a = max(round(seg_start * sample_rate), first_sample)
        b = min(round(seg_end * sample_rate), last_sample)
        if len(pcs) == 0 or b <= a:
            continue
        times = np.arange(a, b) / sample_rate
        seg = np.zeros(b - a)
        for pc in pcs:
            seg += _ORACLE_PAD_AMPLITUDE * _oracle_sine(
                midi_to_hz(render.PAD_OCTAVE_BASE_MIDI + pc), times)
        env = np.ones(b - a)
        true_start = round(seg_start * sample_rate)
        true_end = round(seg_end * sample_rate)
        ramp = min(fade_len, b - a)
        if a == true_start and ramp > 0:
            env[:ramp] = np.minimum(env[:ramp], np.arange(ramp) / max(fade_len, 1))
        if b == true_end and ramp > 0:
            env[-ramp:] = np.minimum(env[-ramp:], np.arange(ramp, 0, -1) / max(fade_len, 1))
        out[a - first_sample : b - first_sample] += seg * env
        if f0 > 0 and first_sample <= true_start < last_sample:
            events.append(RenderEvent(true_start / sample_rate, "chord_change"))
    beats = set(local_maxima(bundle.rhythm[:, 0], render.CLICK_THRESHOLD).tolist())
    downs = set(local_maxima(bundle.rhythm[:, 1], render.CLICK_THRESHOLD).tolist())
    click_len = int(round(render.CLICK_SEC * sample_rate))
    click_t = np.arange(click_len) / sample_rate
    click_env = np.exp(-click_t / render.CLICK_DECAY_SEC)
    for f in sorted(beats | downs):
        s_abs = round(f / fr * sample_rate)
        if not first_sample <= s_abs < last_sample:
            continue
        amp = CLICK_AMPLITUDE * (DOWNBEAT_GAIN if f in downs else 1.0)
        burst = amp * click_env * _oracle_sine(render.CLICK_FREQ_HZ, click_t)
        local = s_abs - first_sample
        stop = min(local + click_len, n)
        out[local:stop] += burst[: stop - local]
        events.append(RenderEvent(s_abs / sample_rate, "downbeat" if f in downs else "beat"))
    events.sort(key=lambda e: (e.time_sec, e.kind))
    return out, events


@st.composite
def _bundles_and_windows(draw):
    frames = draw(st.integers(1, 120))
    frame_rate = draw(st.sampled_from((50.0, 43.0, 7.3, 1000.0)))
    # Chord runs of 1 to 9 frames, some silent; rhythm with plateaus and ties.
    chroma = np.zeros((frames, 12))
    f = 0
    while f < frames:
        run = draw(st.integers(1, 9))
        for pc in draw(st.lists(st.integers(0, 11), max_size=3)):
            chroma[f : f + run, pc] = 1.0
        f += run
    levels = st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0))
    rhythm = np.array([[draw(levels), draw(levels)] for _ in range(frames)])
    bundle = ConditionBundle(frame_rate, rhythm, chroma, np.zeros(frames, dtype=np.int64),
                             np.zeros(frames), ())
    duration = bundle.duration_sec
    a = draw(st.integers(0, frames - 1))
    b = draw(st.integers(a + 1, frames))
    # Window edges on frame boundaries, or anywhere in between.
    start = draw(st.sampled_from((a / frame_rate, a / frame_rate + 0.37 / frame_rate)))
    end = draw(st.sampled_from((b / frame_rate, min(b / frame_rate + 0.61 / frame_rate, duration))))
    end = min(max(end, start + 1e-6), duration)
    return bundle, _window(start, end)


def _silence_around(frame_rate, frames, run, pcs):
    """A bundle silent but for one chord run of ``pcs`` over frames ``run``."""
    chroma = np.zeros((frames, 12))
    chroma[run[0]:run[1], list(pcs)] = 1.0
    return ConditionBundle(frame_rate, np.zeros((frames, 2)), chroma,
                           np.zeros(frames, dtype=np.int64), np.zeros(frames), ())


# Ramps that overlap: runs of 5 and 15 ms against 10 ms fades, so the
# envelope is the minimum of the two ramps over the whole run or its middle.
_SHORT_RUNS = [(_silence_around(1000.0, 60, (20, 20 + ms), (0, 4, 7)), _window(0.0, 0.06))
               for ms in (5, 15)]
# The triad is negative at its onset (frame 8 at 50 fps, sample 7056 at
# 44.1 kHz), where the fade-in gain is 0: the product is -0.0, the sum +0.0.
_NEGATIVE_ONSET = (_silence_around(50.0, 50, (8, 50), (0, 4, 7)), _window(0.0, 1.0))
# One chord run through a whole 47 s window, with clicks: no fade, 2,072,700 samples.
_LONG_RUN = (
    ConditionBundle(50.0, np.tile([[1.0, 0.0], [0.0, 0.0], [0.2, 0.0], [0.0, 1.0]], (625, 1)),
                    np.tile(np.eye(12)[[0, 4, 7]].sum(axis=0), (2500, 1)),
                    np.zeros(2500, dtype=np.int64), np.zeros(2500), ()),
    _window(1.5, 48.5),
)


@settings(max_examples=300, deadline=None)
@given(case=_bundles_and_windows(),
       sample_rate=st.sampled_from((1, 37, 101, 997, 8000, 44100, 48000)))
@example(case=_SHORT_RUNS[0], sample_rate=44100)
@example(case=_SHORT_RUNS[1], sample_rate=44100)
@example(case=_SHORT_RUNS[1], sample_rate=48000)
@example(case=_NEGATIVE_ONSET, sample_rate=44100)
@example(case=_LONG_RUN, sample_rate=44100)
def test_render_stub_on_its_window_frames_equals_the_whole_bundle_render(case, sample_rate):
    bundle, window = case
    audio, events = render_stub(bundle, window, sample_rate)
    samples, expected = _render_stub_oracle(bundle, window, sample_rate)
    assert audio.samples[0].tobytes() == samples.tobytes()
    assert events == expected
    # The fingerprint reads the same rows: rows outside them change nothing.
    lo, hi = render.window_frames(bundle, window, sample_rate)
    outside = ConditionBundle(
        bundle.frame_rate, bundle.rhythm.copy(), bundle.chroma.copy(), bundle.structure,
        bundle.pitch_contour, ())
    outside.chroma[:lo] = 1.0 - outside.chroma[:lo]
    outside.chroma[hi:] = 1.0 - outside.chroma[hi:]
    outside.rhythm[:lo] = 1.0 - outside.rhythm[:lo]
    outside.rhythm[hi:] = 1.0 - outside.rhythm[hi:]
    assert render.window_fingerprint(outside, window, sample_rate) == \
        render.window_fingerprint(bundle, window, sample_rate)
    audio_outside, events_outside = render_stub(outside, window, sample_rate)
    assert audio_outside.samples.tobytes() == audio.samples.tobytes()
    assert events_outside == events


def test_window_files_and_their_hashes_are_the_bytes_of_wav_bytes(tmp_path):
    bundle = _bundle(T=150, chroma_rows=[((0, 80), (0, 4, 7)), ((80, 150), (2, 5, 9))],
                     beat_frames=(10, 60, 110), down_frames=(10,))
    windows = [GenerationWindow(start, end, 0, order, WindowReference(REFERENCE_NONE))
               for order, (start, end) in enumerate([(1.0, 3.0), (0.0, 1.0)])]
    path = tmp_path / "song.wav"
    record, events = render.render_windows(bundle, windows, SR, str(path))
    assert os.listdir(tmp_path) == ["song.wav"]
    entries = record["windows"]
    assert [entry["order"] for entry in entries] == [0, 1]
    assert events == sorted((e for w in windows for e in render_stub(bundle, w, SR)[1]),
                            key=lambda e: (e.time_sec, e.kind))
    song = path.read_bytes()
    start = len(song) - 4 * 3 * SR  # the windows tile 3 s of mono float32
    for window, entry in zip(windows, entries):
        audio = render_stub(bundle, window, SR)[0]
        encoded = wav_bytes(audio)
        data = encoded[len(encoded) - 4 * audio.n_samples:]
        first, last = render.window_samples(window, SR)
        assert song[start + 4 * first : start + 4 * last] == data
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    buf = AudioBuffer(SR, np.random.default_rng(3).uniform(-1.2, 1.2, (2, 500)))
    path = tmp_path / "float32.wav"
    write_wav(buf, path)
    assert path.read_bytes() == wav_bytes(buf)


def test_window_fingerprint_changes_with_what_the_window_reads():
    bundle = _bundle(T=200, chroma_rows=[((0, 200), (0, 4, 7))], beat_frames=(10, 150))
    window = _window(1.0, 2.0)
    base = render.window_fingerprint(bundle, window, SR)
    lo, hi = render.window_frames(bundle, window, SR)
    assert (lo, hi) == (49, 102)
    inside = _bundle(T=200, chroma_rows=[((0, 200), (0, 4, 7)), ((60, 61), (2,))],
                     beat_frames=(10, 150))
    beat_inside = _bundle(T=200, chroma_rows=[((0, 200), (0, 4, 7))], beat_frames=(10, 101, 150))
    changed = [
        render.window_fingerprint(inside, window, SR),
        render.window_fingerprint(beat_inside, window, SR),
        render.window_fingerprint(bundle, _window(1.0, 2.02), SR),
        render.window_fingerprint(bundle, window, 22050),
        render.window_fingerprint(_bundle(T=201, chroma_rows=[((0, 200), (0, 4, 7))],
                                          beat_frames=(10, 150)), window, SR),
    ]
    assert len({base, *changed}) == 6
    # Frame 150 lies outside the rows the window reads.
    beat_outside = _bundle(T=200, chroma_rows=[((0, 200), (0, 4, 7))], beat_frames=(10,))
    assert render.window_fingerprint(beat_outside, window, SR) == base
    with mock.patch.object(render, "RENDER_VERSION", render.RENDER_VERSION + 1):
        assert render.window_fingerprint(bundle, window, SR) != base


def test_a_negative_onset_at_gain_zero_renders_plus_zero():
    bundle, window = _NEGATIVE_ONSET
    onset = round(8 / 50 * SR)
    times = np.array([onset / SR])
    assert sum(_oracle_sine(midi_to_hz(60 + pc), times)[0] for pc in (0, 4, 7)) < 0.0
    sample = render_stub(bundle, window, SR)[0].samples[0, onset]
    assert sample == 0.0 and not np.signbit(sample)


# ---------------------------------------------------------------------------
# The integer table index equals the float-remainder formula

_INDEX_FREQS = [midi_to_hz(render.PAD_OCTAVE_BASE_MIDI + pc) for pc in range(12)] + [
    render.CLICK_FREQ_HZ]
_FOUR_HOURS = 4 * 3600


@settings(max_examples=300, deadline=None)
@given(
    freq=st.sampled_from(_INDEX_FREQS),
    sample_rate=st.integers(8000, 96000),
    start=st.floats(0.0, _FOUR_HOURS),
    edge=st.floats(0.0, 1.0),
)
@example(freq=_INDEX_FREQS[0], sample_rate=44100, start=0.0, edge=0.0)
@example(freq=_INDEX_FREQS[-1], sample_rate=96000, start=_FOUR_HOURS, edge=1.0)
def test_table_index_equals_the_float_remainder_formula(freq, sample_rate, start, edge):
    # 512 sample times from `start`, as render_stub forms them ...
    first = round(start * sample_rate)
    samples = np.arange(first, first + 512) / sample_rate
    # ... and the times within 8 ulps of a table-cell edge up to four hours in.
    cell = round(edge * _FOUR_HOURS * freq * _ORACLE_TABLE_SIZE)
    below = above = cell / _ORACLE_TABLE_SIZE / freq
    near = [below]
    for _ in range(8):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        near += [below, above]
    near = np.array([t for t in near if t >= 0.0])
    on_edge = np.mod(near * freq * _ORACLE_TABLE_SIZE, 1.0) == 0.0
    assume(on_edge.any())
    times = np.concatenate([samples, near])
    assert render._table_index(freq, times).tolist() == _oracle_index(freq, times).tolist()


def test_render_stub_holds_little_more_than_its_window():
    # 40 s at 44.1 kHz inside one chord run, with clicks: the output is one
    # float64 copy of the window, and the rest must stay small.
    bundle, _ = _LONG_RUN
    tracemalloc.start()
    try:
        audio, _ = render_stub(bundle, _window(1.0, 41.0), SR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audio.samples.nbytes == 40 * SR * 8
    assert peak <= 2.5 * audio.samples.nbytes


def test_the_wav_header_refuses_sizes_a_riff_file_cannot_hold():
    frames = render.WAV_MAX_DATA // 4  # the most mono float32 frames
    header = render._wav_header(1, 44100, frames)
    assert struct.unpack("<I", header[4:8]) == (48 + 4 * frames,)
    for channels, sample_rate, n_frames in ((1, 44100, frames + 1), (2, 1 << 30, 1)):
        with pytest.raises(ValueError, match="too large for one RIFF file"):
            render._wav_header(channels, sample_rate, n_frames)
