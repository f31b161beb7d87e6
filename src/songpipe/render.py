"""Deterministic stub renderer, mixing, and WAV (RIFF) I/O.

The stub renderer stands in for the neural accompaniment generator so the
whole pipeline can run closed-loop: it turns a condition bundle into audio
that *encodes the conditions audibly* — a triad sine pad (octave 4, one
sinusoid per active pitch class at amplitude 0.2, 10 ms linear fades at
chord changes) plus a short 1 kHz click at every rhythm-activation maximum
at or above 0.5 (amplitude 0.3; 1.5x at downbeats).  Every emitted event is
logged with its sample-accurate time, so closed-loop tests can compare the
log, the audio and the conditions independently.

Sines come from a fixed 16384-entry lookup table rounded to 1e-9.  The
entry for a frequency at a time is an exact integer function of the float
product of the song time and the frequency (see :func:`_table_index`), and
phase is derived from absolute song time, so equal inputs render
byte-identical audio and windows tiled over one song concatenate
seamlessly.
"""
from __future__ import annotations

import hashlib
import os
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .conditioning import ConditionBundle
from .formats import data_lines, read_document, replacing, write_file
from .planner import GenerationWindow

DEFAULT_SAMPLE_RATE = 44100

PAD_TONE_AMPLITUDE = 0.2
PAD_OCTAVE_BASE_MIDI = 60  # active pitch class pc sounds at MIDI 60 + pc
FADE_SEC = 0.01
CLICK_FREQ_HZ = 1000.0
CLICK_SEC = 0.01
CLICK_AMPLITUDE = 0.3
DOWNBEAT_GAIN = 1.5
CLICK_DECAY_SEC = 0.0025
CLICK_THRESHOLD = 0.5
MIX_PEAK = 0.95
EVENT_KINDS = ("beat", "downbeat", "chord_change")  # the kinds render_stub logs

#: Part of every window fingerprint: change it whenever :func:`render_stub`
#: renders different audio or events from the same inputs.
RENDER_VERSION = 1

_TABLE_SIZE = 16384
_SINE_TABLE = np.round(np.sin(2.0 * np.pi * np.arange(_TABLE_SIZE) / _TABLE_SIZE), 9)
#: One pad tone: the same bits as scaling each looked-up entry.
_PAD_TABLE = PAD_TONE_AMPLITUDE * _SINE_TABLE
#: Samples of a chord run synthesised at a time; bounds the temporaries.
_PAD_CHUNK = 1 << 16


class WavFormatError(ValueError):
    """Raised for malformed or unsupported WAV input."""


@dataclass(frozen=True)
class AudioBuffer:
    """Float samples at a fixed rate, shape (channels, n), 1 or 2 channels."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[None, :]
        if samples.ndim != 2 or samples.shape[0] not in (1, 2):
            raise ValueError(
                f"samples must be (channels, n) with 1 or 2 channels, got {samples.shape}"
            )
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples ``[lo, hi)`` (``0 <= lo``), clipped to the buffer; as :meth:`WavReader.read`."""
        return self.samples[:, lo:hi]


@dataclass(frozen=True)
class RenderEvent:
    """One emitted event: sample-accurate time and kind, one of :data:`EVENT_KINDS`."""

    time_sec: float
    kind: str


def _table_index(freq_hz: float, times_sec: np.ndarray) -> np.ndarray:
    """Sine-table index of ``freq_hz`` at the absolute times ``times_sec``, each ``>= 0``.

    With ``N = _TABLE_SIZE`` and ``fl`` the float64 rounding of an exact
    result, the index of time ``t`` is defined as
    ``floor((fl(t * f) % 1.0) * N) % N``, and computed without a float
    remainder as ``int64(fl(t * (f * N))) & (N - 1)``.  The two are equal,
    bit for bit, because ``N`` is a power of two:

    * ``f * N`` is exact, and ``fl(t * (f * N)) == fl(t * f) * N``: scaling
      by a power of two commutes with rounding when nothing overflows or
      becomes subnormal (a sample time ``t`` is 0 or at least one sample
      period, so ``t * f`` is far above the subnormal range);
    * for ``x = fl(t * f) >= 0``, ``fmod`` makes ``x % 1.0`` exactly
      ``x - floor(x)``, so ``(x % 1.0) * N`` is exactly
      ``x * N - N * floor(x)``, whose floor is ``floor(x * N)`` less a
      multiple of ``N``;
    * truncation equals ``floor`` for values in ``[0, 2**63)`` (so for
      ``t * f`` below ``2**49`` cycles), and ``& (N - 1)`` equals ``% N``
      for non-negative integers.
    """
    idx = (times_sec * (freq_hz * _TABLE_SIZE)).astype(np.int64)
    idx &= _TABLE_SIZE - 1
    return idx


def _fade_ends(run: np.ndarray, fade_in: bool, fade_out: bool, fade_len: int) -> None:
    """Apply a chord run's linear fades in place, as ``0.0 + run * env`` would.

    ``env`` rises over the first ``fade_len`` samples when ``fade_in``, falls
    over the last ``fade_len`` when ``fade_out``, and is 1 elsewhere; only
    the ramp samples are touched.  Where a short run's ramps overlap, ``env``
    is the smaller of the two.  Adding 0.0 turns the ``-0.0`` of a negative
    sample times gain 0 into ``+0.0``, as summing into a zeroed buffer does.
    """
    n = len(run)
    ramp = min(fade_len, n)
    if ramp == 0:
        return
    rise, fall = np.arange(ramp) / fade_len, np.arange(ramp, 0, -1) / fade_len
    if fade_in and fade_out and 2 * ramp > n:
        env = np.ones(n)
        env[:ramp] = rise
        env[n - ramp:] = np.minimum(env[n - ramp:], fall)
        ramps = [(run, env)]
    else:
        ramps = []
        if fade_in:
            ramps.append((run[:ramp], rise))
        if fade_out:
            ramps.append((run[n - ramp:], fall))
    for part, env in ramps:
        part *= env
        part += 0.0


def midi_to_hz(pitch: float) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


def local_maxima(x: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of local maxima at or above threshold (plateaus count once)."""
    if len(x) == 0:
        return np.zeros(0, dtype=np.int64)
    left = np.empty_like(x)
    left[0] = -np.inf
    left[1:] = x[:-1]
    right = np.empty_like(x)
    right[-1] = -np.inf
    right[:-1] = x[1:]
    mask = (x >= threshold) & (x > left) & (x >= right)
    return np.nonzero(mask)[0]


def _chord_segments(chroma: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of identical chroma rows as (first_frame, last_frame + 1)."""
    t = len(chroma)
    if t == 0:
        return []
    change = np.any(chroma[1:] != chroma[:-1], axis=1)
    starts = [0] + (np.nonzero(change)[0] + 1).tolist()
    return [(a, b) for a, b in zip(starts, starts[1:] + [t])]


def window_samples(window: GenerationWindow, sample_rate: int) -> tuple[int, int]:
    """The song samples ``[first, last)`` of ``window`` at ``sample_rate``."""
    return round(window.start_sec * sample_rate), round(window.end_sec * sample_rate)


def window_frames(
    bundle: ConditionBundle, window: GenerationWindow, sample_rate: int
) -> tuple[int, int]:
    """The frames ``[lo, hi)`` whose condition rows :func:`render_stub` reads for ``window``.

    Frame ``f`` starts at sample ``round(f / frame_rate * sample_rate)``.
    ``lo`` is the last frame that starts before the window's first sample
    and ``hi - 1`` the first frame that starts after its last sample, each
    clipped to the bundle.  Rendering from these rows alone equals rendering
    from the whole bundle: a chord run cut at ``lo`` or ``hi`` starts before
    or ends after the window either way (so it has no fade or
    ``chord_change`` there), and every frame that can click in the window
    keeps both neighbours of its local-maximum test.
    """
    fr = bundle.frame_rate

    def start(f: int) -> int:
        return round(f / fr * sample_rate)

    frames = range(bundle.num_frames)
    first, last = window_samples(window, sample_rate)
    lo = max(bisect_left(frames, first, key=start) - 1, 0)
    hi = min(bisect_right(frames, last, key=start) + 1, bundle.num_frames)
    return lo, hi


def window_fingerprint(
    bundle: ConditionBundle, window: GenerationWindow, sample_rate: int
) -> str:
    """SHA-256 of everything :func:`render_stub` reads to render ``window``.

    That is :data:`RENDER_VERSION`, the sample and frame rates, the bundle's
    frame count (which sets its duration), the window's fields, and the
    chroma and rhythm rows of :func:`window_frames`.
    """
    lo, hi = window_frames(bundle, window, sample_rate)
    digest = hashlib.sha256(repr(
        (RENDER_VERSION, sample_rate, bundle.frame_rate, bundle.num_frames, window, lo, hi)
    ).encode("utf-8"))
    for rows in (bundle.chroma[lo:hi], bundle.rhythm[lo:hi]):
        rows = np.ascontiguousarray(rows, dtype="<f8")
        digest.update(repr(rows.shape).encode("ascii"))
        digest.update(rows)
    return digest.hexdigest()


def render_stub(
    bundle: ConditionBundle,
    window: GenerationWindow,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> tuple[AudioBuffer, list[RenderEvent]]:
    """Render one window of a bundle to mono audio plus an event log.

    The window must lie inside the bundle's time span.  Event times are
    absolute (song time), quantized to the sample grid.  Only the condition
    rows of :func:`window_frames` are read.
    """
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    duration = bundle.duration_sec
    if window.start_sec < -1e-9 or window.end_sec > duration + 1e-9:
        raise ValueError(
            f"window [{window.start_sec}, {window.end_sec}) outside the bundle's "
            f"[0, {duration:.3f}) span"
        )
    fr = bundle.frame_rate
    lo, hi = window_frames(bundle, window, sample_rate)
    chroma, rhythm = bundle.chroma[lo:hi], bundle.rhythm[lo:hi]
    first_sample, last_sample = window_samples(window, sample_rate)
    n = last_sample - first_sample
    out = np.zeros(n)
    events: list[RenderEvent] = []

    fade_len = int(round(FADE_SEC * sample_rate))
    for f0, f1 in _chord_segments(chroma):
        pcs = np.nonzero(chroma[f0])[0]
        f0, f1 = f0 + lo, f1 + lo  # song frames from here on
        true_start, true_end = round(f0 / fr * sample_rate), round(f1 / fr * sample_rate)
        a, b = max(true_start, first_sample), min(true_end, last_sample)
        is_change = f0 > 0 and len(pcs) > 0
        if len(pcs) == 0 or b <= a:
            # Log silent-to-chord boundaries handled by the next segment;
            # nothing to synthesize for an empty row.
            continue
        # Chord runs do not overlap and clicks come later, so each run sums
        # its tones into zeros.  a >= true_start >= 0, so every time passed
        # to _table_index is >= 0.
        freqs = [midi_to_hz(PAD_OCTAVE_BASE_MIDI + pc) for pc in pcs]
        for start in range(a, b, _PAD_CHUNK):
            stop = min(start + _PAD_CHUNK, b)
            times = np.arange(start, stop, dtype=float)  # exact: integers below 2**53
            times /= sample_rate
            dest = out[start - first_sample : stop - first_sample]
            for freq in freqs:
                dest += _PAD_TABLE[_table_index(freq, times)]
        # fade-in only at the real chord onset, fade-out only at its real end
        _fade_ends(out[a - first_sample : b - first_sample],
                   a == true_start, b == true_end, fade_len)
        if is_change and first_sample <= true_start < last_sample:
            events.append(RenderEvent(true_start / sample_rate, "chord_change"))

    beat_frames = local_maxima(rhythm[:, 0], CLICK_THRESHOLD) + lo
    down_frames = set((local_maxima(rhythm[:, 1], CLICK_THRESHOLD) + lo).tolist())
    click_len = int(round(CLICK_SEC * sample_rate))
    click_t = np.arange(click_len) / sample_rate
    click_env = np.exp(-click_t / CLICK_DECAY_SEC)
    click_sine = _SINE_TABLE[_table_index(CLICK_FREQ_HZ, click_t)]
    for f in sorted(set(beat_frames.tolist()) | down_frames):
        t_event = f / fr
        s_abs = round(t_event * sample_rate)
        if not first_sample <= s_abs < last_sample:
            continue
        is_down = f in down_frames
        amp = CLICK_AMPLITUDE * (DOWNBEAT_GAIN if is_down else 1.0)
        burst = amp * click_env * click_sine
        local = s_abs - first_sample
        stop = min(local + click_len, n)
        out[local:stop] += burst[: stop - local]
        events.append(RenderEvent(s_abs / sample_rate, "downbeat" if is_down else "beat"))

    events.sort(key=lambda e: (e.time_sec, e.kind))
    return AudioBuffer(sample_rate, out[None, :]), events


def mix(vocal, accompaniment, path) -> float:
    """Sum two sources into a float32 WAV at ``path``, its peak normalized to 0.95.

    Each source is an :class:`AudioBuffer` or a :class:`WavReader`.  Sample
    rates must match; the shorter source is zero-padded and a mono source is
    duplicated up to stereo when channel counts differ.  All-silent input
    stays silent instead of being scaled; a NaN or infinite sum, or a peak
    too small to scale to 0.95, is refused before anything is written.

    The sum is formed :data:`STREAM_FRAMES` frames at a time, twice: once for
    the global peak, once to scale it and stream it into the file.  Returns
    the peak of the scaled sum.
    """
    if vocal.sample_rate != accompaniment.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: {vocal.sample_rate} vs {accompaniment.sample_rate}"
        )
    channels = max(vocal.channels, accompaniment.channels)
    n = max(vocal.n_samples, accompaniment.n_samples)
    starts = range(0, n, STREAM_FRAMES)

    def total(lo: int) -> np.ndarray:
        # Starting from zeros also turns a -0.0 sample into +0.0.
        out = np.zeros((channels, min(STREAM_FRAMES, n - lo)))
        for source in (vocal, accompaniment):
            part = source.read(lo, lo + STREAM_FRAMES)
            if source.channels < channels:
                part = np.repeat(part, channels, axis=0)
            out[:, : part.shape[1]] += part
        return out

    peak = float(np.max([np.abs(total(lo)).max() for lo in starts])) if n else 0.0
    if not np.isfinite(peak):  # NaN would skip the scaling and inf would scale by 0
        raise ValueError(f"cannot mix: a summed sample is not finite (peak {peak})")
    scale = MIX_PEAK / peak if peak > 0.0 else 1.0
    if scale == np.inf:  # below about 5.3e-309 the factor overflows
        raise ValueError(f"cannot mix: the summed peak {peak} is too small to scale")
    with replacing(path) as fh:
        fh.write(_wav_header("float32", channels, vocal.sample_rate, n))
        for lo in starts:
            out = total(lo)
            out *= scale
            fh.write(_wav_payload(out, "float32"))
    return peak * scale  # the largest scaled sample, as rounding is monotonic


# ---------------------------------------------------------------------------
# Event-log text format: time <TAB> kind


def format_events(events: list[RenderEvent]) -> str:
    lines = [f"{e.time_sec:.6f}\t{e.kind}" for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_events(text: str) -> list[RenderEvent]:
    events = []
    for lineno, (time, kind) in data_lines(text, "event", 2):
        if kind not in EVENT_KINDS:
            raise ValueError(f"event line {lineno}: unknown kind {kind!r}")
        try:
            events.append(RenderEvent(float(time), kind))
        except ValueError:
            raise ValueError(f"event line {lineno}: bad time column") from None
    return events


# ---------------------------------------------------------------------------
# WAV (RIFF) I/O: PCM-16 and IEEE float-32, 1-2 channels.  Files are read by
# frame range and written chunk by chunk, so no whole song need be in memory.

#: Frames per chunk when audio streams through :func:`mix` and file copies.
STREAM_FRAMES = 1 << 17

#: ``sample_format`` to (format tag, bits per sample, little-endian dtype).
_WAV_FORMATS = {"pcm16": (1, 16, "<i2"), "float32": (3, 32, "<f4")}


@dataclass(frozen=True)
class WavHeader:
    """What a WAV header says: sample format, layout, and where the frames are."""

    sample_format: str
    sample_rate: int
    channels: int
    n_frames: int
    data_offset: int

    @property
    def dtype(self) -> str:
        return _WAV_FORMATS[self.sample_format][2]

    @property
    def block_align(self) -> int:
        return self.channels * _WAV_FORMATS[self.sample_format][1] // 8


def _wav_header(sample_format: str, channels: int, sample_rate: int, n_frames: int) -> bytes:
    """The bytes of a WAV file before its frames, sized for ``n_frames`` frames."""
    if sample_format not in ("pcm16", "float32"):
        raise ValueError(f"sample_format must be 'pcm16' or 'float32', got {sample_format!r}")
    fmt_tag, bits, _ = _WAV_FORMATS[sample_format]
    block_align = channels * bits // 8
    byte_rate = sample_rate * block_align
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, sample_rate, byte_rate, block_align, bits)
    chunks = [b"fmt " + struct.pack("<I", len(fmt)) + fmt]
    if fmt_tag == 3:  # float WAVs conventionally carry a fact chunk
        chunks.append(b"fact" + struct.pack("<II", 4, n_frames))
    data_size = n_frames * block_align
    chunks.append(b"data" + struct.pack("<I", data_size))
    head = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(head) + data_size) + head


def _wav_payload(samples: np.ndarray, sample_format: str) -> memoryview:
    """Interleaved frames of (channels, n) float samples in ``sample_format``, as a view."""
    interleaved = samples.T.reshape(-1)
    if sample_format == "pcm16":
        interleaved = np.clip(np.round(interleaved * 32768.0), -32768, 32767)
    return memoryview(interleaved.astype(_WAV_FORMATS[sample_format][2]))


def _parse_wav_header(read_at, size: int) -> WavHeader:
    """Parse the header of a RIFF/WAVE file of ``size`` bytes.

    ``read_at(pos, n)`` returns ``n`` bytes of the file from ``pos``.  Only
    chunk headers and the fmt chunk are read; every chunk size is checked
    against ``size``.  Raises :class:`WavFormatError` on bad input.
    """
    if size < 12:
        raise WavFormatError("file too short for a RIFF header")
    head = read_at(0, 12)
    if head[:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")
    pos = 12
    fmt_fields = None
    data = None
    while pos + 8 <= size:
        tag, chunk_size = struct.unpack("<4sI", read_at(pos, 8))
        pos += 8
        if pos + chunk_size > size:
            raise WavFormatError(f"chunk {tag!r} runs past end of file")
        if tag == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError("fmt chunk shorter than 16 bytes")
            fmt_fields = struct.unpack("<HHIIHH", read_at(pos, 16))
        elif tag == b"data":
            data = (pos, chunk_size)
        pos += chunk_size + (chunk_size & 1)  # chunks are word-aligned
    if fmt_fields is None:
        raise WavFormatError("missing fmt chunk")
    if data is None:
        raise WavFormatError("missing data chunk")
    fmt_tag, channels, sample_rate, _, block_align, bits = fmt_fields
    if channels not in (1, 2):
        raise WavFormatError(f"unsupported channel count {channels}")
    if sample_rate <= 0:
        raise WavFormatError(f"invalid sample rate {sample_rate}")
    by_tag = {(tag_, bits_): name for name, (tag_, bits_, _) in _WAV_FORMATS.items()}
    sample_format = by_tag.get((fmt_tag, bits))
    if sample_format is None:
        raise WavFormatError(
            f"unsupported format: tag {fmt_tag} with {bits} bits "
            "(PCM-16 and float-32 only)"
        )
    if block_align != channels * bits // 8:
        raise WavFormatError(f"block align {block_align} inconsistent with format")
    if data[1] % block_align:
        raise WavFormatError("data chunk length is not a whole number of frames")
    return WavHeader(sample_format, sample_rate, channels, data[1] // block_align, data[0])


def _wav_samples(raw: np.ndarray, header: WavHeader) -> np.ndarray:
    """C-contiguous float64 (channels, k) samples of raw interleaved frames."""
    with np.errstate(invalid="ignore"):  # a signalling NaN is cast to a NaN
        flat = raw.astype(float)
    if header.sample_format == "pcm16":
        flat /= 32768.0
    return np.ascontiguousarray(flat.reshape(-1, header.channels).T)


def wav_bytes(buffer: AudioBuffer, sample_format: str = "float32") -> bytes:
    """Encode a buffer as a RIFF/WAVE byte string.

    ``float32`` is bit-exact for float32-representable samples; ``pcm16``
    quantizes to 16-bit integers (values outside [-1, 1] clip).
    """
    header = _wav_header(sample_format, buffer.channels, buffer.sample_rate, buffer.n_samples)
    return header + _wav_payload(buffer.samples, sample_format)


def wav_from_bytes(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte string, raising :class:`WavFormatError` on bad input."""
    header = _parse_wav_header(lambda pos, n: data[pos : pos + n], len(data))
    raw = np.frombuffer(
        data, header.dtype, header.n_frames * header.channels, header.data_offset
    )
    return AudioBuffer(header.sample_rate, _wav_samples(raw, header))


class WavReader:
    """A WAV file whose frames are read on demand, a range at a time.

    Only the header is read on construction.  :meth:`read` seeks to a frame
    range and reads just that range, so a song-long file is never held
    whole.  Its format errors do not name the file; :func:`open_wav` does.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            def read_at(pos: int, n: int) -> bytes:
                fh.seek(pos)
                return fh.read(n)

            self.header = header = _parse_wav_header(read_at, os.fstat(fh.fileno()).st_size)
        self.sample_rate, self.channels = header.sample_rate, header.channels
        self.n_samples = header.n_frames

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Frames ``[lo, hi)`` (``0 <= lo``) as float64 (channels, k), clipped to the file."""
        return _wav_samples(np.frombuffer(self.read_bytes(lo, hi), self.header.dtype),
                            self.header)

    def read_bytes(self, lo: int, hi: int) -> bytes:
        """Frames ``[lo, hi)`` (``0 <= lo``) as the file holds them, clipped to the file."""
        header = self.header
        size = max(min(hi, header.n_frames) - lo, 0) * header.block_align
        with open(self.path, "rb") as fh:
            fh.seek(header.data_offset + lo * header.block_align)
            data = fh.read(size)
        if len(data) != size:
            raise WavFormatError("file is shorter than its header says")
        return data


def open_wav(path) -> WavReader:
    """A :class:`WavReader` on ``path``; a format error names the file."""
    try:
        return WavReader(path)
    except WavFormatError as exc:
        raise WavFormatError(f"cannot read {path}: {exc}") from None


def read_wav(path) -> AudioBuffer:
    reader = open_wav(path)
    return AudioBuffer(reader.sample_rate, reader.read(0, reader.n_samples))


def write_wav(buffer: AudioBuffer, path, sample_format: str = "float32") -> None:
    write_file(path, wav_bytes(buffer, sample_format))


# ---------------------------------------------------------------------------
# A whole plan rendered into one WAV, with a record of each window's bytes


#: Format name and version of the render record.
RENDER_RECORD = ("render", 2)


def render_windows(
    bundle: ConditionBundle,
    windows: list[GenerationWindow],
    sample_rate: int,
    path,
    recorded: dict[int, dict] | None = None,
    old: WavReader | None = None,
) -> tuple[dict, list[RenderEvent]]:
    """Render every window of a plan into one mono float32 WAV at ``path``.

    The windows, by start time, must tile the song up to the bundle's last
    frame; only then is the file written.  Each window's float32 samples are
    written once, in plan order, at the window's offset in the new file; no
    file per window is written.  A window whose ``recorded`` entry (see
    :func:`record_from_json`) has its :func:`window_fingerprint` is copied
    from ``old``, the accompaniment of an earlier render (it may be the file
    being replaced, which stays in place until the new one is whole),
    :data:`STREAM_FRAMES` frames at a time, and hashed as it is copied.  Any
    other window, and one whose copy's SHA-256 is not the entry's or whose
    ``old`` is None or not a mono float32 WAV at ``sample_rate``,
    is rendered again over that range: encoded by :func:`wav_bytes`, with the
    bytes after its header written and hashed.  The float32 cast of a
    concatenation is the concatenation of the casts, so the file holds the
    whole song's bytes.  One window's audio, or one copy chunk, is in
    memory at a time.

    Returns the render record and the windows' events, sorted.  The record
    holds, per window in plan order, its order, fingerprint, the SHA-256 of
    its bytes in the file, and events.
    """
    if not windows:
        raise ValueError("the plan has no windows")
    by_start = sorted(windows, key=lambda w: w.start_sec)
    for w, end in zip(by_start, [0.0] + [w.end_sec for w in by_start]):
        if w.start_sec != end:  # exact: plans are JSON round trips of the same cuts
            raise ValueError(f"window {w.order} starts at {w.start_sec} s, not at {end} s")
    last, fr = by_start[-1], bundle.frame_rate
    if not (bundle.num_frames - 1) / fr - 1e-9 < last.end_sec <= bundle.num_frames / fr + 1e-9:
        raise ValueError(f"window {last.order} ends at {last.end_sec} s, not in the last frame "
                         f"of the {bundle.duration_sec} s conditions")
    if old and (old.header.sample_format, old.channels, old.sample_rate) != (
        "float32", 1, sample_rate
    ):
        old = None  # its frames are not stored as this render stores them
    header = _wav_header("float32", 1, sample_rate, window_samples(last, sample_rate)[1])
    entries: list[dict] = []
    events: list[RenderEvent] = []
    with replacing(path) as fh:
        fh.write(header)
        for window in sorted(windows, key=lambda w: w.order):
            fingerprint = window_fingerprint(bundle, window, sample_rate)
            entry = (recorded or {}).get(window.order)
            first, end = window_samples(window, sample_rate)
            offset = len(header) + 4 * first
            fh.seek(offset)
            if not (old and entry and entry["fingerprint"] == fingerprint
                    and end <= old.n_samples and _copied(old, fh, first, end) == entry["sha256"]):
                audio, window_events = render_stub(bundle, window, sample_rate)
                if audio.n_samples != end - first:
                    raise ValueError(f"window {window.order} rendered {audio.n_samples} "
                                     f"samples, not {end - first}")
                encoded = wav_bytes(audio)
                data = memoryview(encoded)[len(encoded) - 4 * audio.n_samples:]
                fh.seek(offset)
                fh.write(data)
                entry = {"order": window.order, "fingerprint": fingerprint,
                         "sha256": hashlib.sha256(data).hexdigest(),
                         "events": [[e.time_sec, e.kind] for e in window_events]}
                del audio, encoded, data  # freed before the next window renders
            entries.append(entry)
            events.extend(RenderEvent(t, kind) for t, kind in entry["events"])
    events.sort(key=lambda e: (e.time_sec, e.kind))
    return {"format": RENDER_RECORD[0], "version": RENDER_RECORD[1], "windows": entries}, events


def _copied(old: WavReader, fh, first: int, end: int) -> str:
    """Copy frames ``[first, end)`` of ``old`` to ``fh``; the SHA-256 of the bytes copied."""
    digest = hashlib.sha256()
    for lo in range(first, end, STREAM_FRAMES):
        data = old.read_bytes(lo, min(lo + STREAM_FRAMES, end))
        digest.update(data)
        fh.write(data)
    return digest.hexdigest()


def record_from_json(text: str) -> dict[int, dict]:
    """The well-formed window entries of a render record, by order.

    An entry that is not well formed is left out, so only its window renders again.
    """
    def build(doc: dict) -> dict[int, dict]:
        entries = {}
        for entry in doc["windows"]:
            try:
                order, fingerprint, sha256 = entry["order"], entry["fingerprint"], entry["sha256"]
                events = [[t, kind] for t, kind in entry["events"]]
            except (KeyError, TypeError, ValueError):
                continue
            if (type(order) is int and isinstance(fingerprint, str) and isinstance(sha256, str)
                    and all(type(t) is float and kind in EVENT_KINDS for t, kind in events)):
                # rebuilt from its fields, so a reused entry is written as a new one is
                entries[order] = {"order": order, "fingerprint": fingerprint, "sha256": sha256,
                                  "events": events}
        return entries
    return read_document(text, *RENDER_RECORD, build)
