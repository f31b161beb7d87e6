"""Evaluation metrics for rhythm, key, chords and phoneme transcripts.

Conventions shared by the beat metric follow common MIR practice: an
estimate matches a reference event when they differ by at most 70 ms
(inclusive, with a small numeric slack), each event may be used once, and
matching is greedy left-to-right over the two sorted lists — which attains
the maximum one-to-one matching for a fixed symmetric window.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conditioning import ConditionBundle, KeyLabel
from .formats import read_document
from .render import CLICK_THRESHOLD, AudioBuffer, RenderEvent, WavReader, local_maxima

#: Beat-matching tolerance in seconds.
RHYTHM_TOLERANCE_SEC = 0.07

#: Absolute slack so comparisons at exactly the tolerance are inclusive.
_SLACK = 1e-9

#: Krumhansl-Schmuckler key profiles (probe-tone ratings), tonic first.
KS_MAJOR_PROFILE = (6.35, 2.23, 3.48, 2.33, 4.38, 4.09, 2.52, 5.19, 2.39, 3.66, 2.29, 2.88)
KS_MINOR_PROFILE = (6.33, 2.68, 3.52, 5.38, 2.60, 3.53, 2.54, 4.75, 3.98, 2.69, 3.34, 3.17)


@dataclass(frozen=True)
class MatchReport:
    """Counts and derived rates of a one-to-one matching evaluation."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.true_positives + self.false_positives + self.false_negatives
        if denom == 0:
            # Nothing to find and nothing found: perfect agreement.
            return 1.0
        return 2 * self.true_positives / denom


def match_events(
    reference: list[float],
    estimate: list[float],
    tolerance: float = RHYTHM_TOLERANCE_SEC,
) -> MatchReport:
    """Greedily match two sorted event lists one-to-one within a tolerance."""
    if not tolerance >= 0:  # also true for NaN
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    ref = sorted(reference)
    est = sorted(estimate)
    i = j = tp = 0
    while i < len(ref) and j < len(est):
        delta = est[j] - ref[i]
        if abs(delta) <= tolerance + _SLACK:
            tp += 1
            i += 1
            j += 1
        elif delta < 0:
            j += 1
        else:
            i += 1
    return MatchReport(tp, len(est) - tp, len(ref) - tp)


def rhythm_f1(
    reference: list[float],
    estimate: list[float],
    tolerance: float = RHYTHM_TOLERANCE_SEC,
) -> float:
    """F1 of matched beat events at the given tolerance (default 70 ms).

    Both lists empty scores 1.0; one empty list scores 0.0.
    """
    return match_events(reference, estimate, tolerance).f1


def key_accuracy(
    reference: list[KeyLabel], estimate: list[KeyLabel]
) -> float:
    """Fraction of positions where tonic and mode both agree."""
    if len(reference) != len(estimate):
        raise ValueError(
            f"length mismatch: {len(reference)} reference vs {len(estimate)} estimated keys"
        )
    if not reference:
        raise ValueError("key lists are empty")
    hits = sum(1 for r, e in zip(reference, estimate) if r == e)
    return hits / len(reference)


def chord_f1(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Micro-averaged binary F1 over all chromagram cells.

    Both arguments are (T, 12) arrays; any nonzero cell counts as active.
    Identical all-zero chromagrams score 1.0 (nothing to find, nothing
    found); an all-zero estimate against a nonempty reference scores 0.0.
    """
    ref = np.asarray(reference) != 0
    est = np.asarray(estimate) != 0
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {est.shape}")
    if ref.ndim != 2 or ref.shape[1] != 12:
        raise ValueError(f"chromagrams must have shape (T, 12), got {ref.shape}")
    tp = int(np.sum(ref & est))
    fp = int(np.sum(~ref & est))
    fn = int(np.sum(ref & ~est))
    return MatchReport(tp, fp, fn).f1


def edit_distance(reference: list, hypothesis: list) -> int:
    """Levenshtein distance (substitutions, deletions, insertions all cost 1).

    Tokens must be hashable; they are interned to int64 ids, so two tokens
    match when they are equal as dict keys.  Each DP row is whole-array: the
    insertion chain ``cur[j] = min(a[j], cur[j - 1] + 1)`` is
    ``minimum.accumulate(a - j) + j``, exact in int64.
    """
    m, n = len(reference), len(hypothesis)
    ids: dict = {}
    ref = np.array([ids.setdefault(tok, len(ids)) for tok in reference], dtype=np.int64)
    hyp = np.array([ids.setdefault(tok, len(ids)) for tok in hypothesis], dtype=np.int64)
    j = np.arange(n + 1, dtype=np.int64)
    prev = j.copy()
    cur = np.empty(n + 1, dtype=np.int64)
    for i in range(1, m + 1):
        cur[0] = i
        np.add(prev[:-1], hyp != ref[i - 1], out=cur[1:])
        np.minimum(cur[1:], prev[1:] + 1, out=cur[1:])
        cur -= j
        np.minimum.accumulate(cur, out=cur)
        cur += j
        prev, cur = cur, prev
    return int(prev[n])


def per(reference: list, hypothesis: list) -> float:
    """Phoneme error rate: edit distance over the reference length.

    Values can exceed 1.0 when the hypothesis is much longer than the
    reference.  An empty reference is undefined and raises.
    """
    if not reference:
        raise ValueError("reference sequence is empty; error rate is undefined")
    return edit_distance(reference, hypothesis) / len(reference)


def dedup_lines(lines: list[str]) -> list[str]:
    """Collapse runs of consecutive identical lines to one occurrence."""
    return [line for line, _ in groupby(lines)]


def estimate_key(chroma: np.ndarray) -> KeyLabel:
    """Estimate a key from a chromagram by template correlation.

    The chromagram is summed over time and Pearson-correlated against the 24
    rotated Krumhansl-Schmuckler profiles; the best-correlated (tonic, mode)
    wins, ties resolving to the lower tonic with major before minor.  An
    all-zero chromagram raises.
    """
    chroma = np.asarray(chroma, dtype=float)
    if chroma.ndim == 1:
        chroma = chroma[None, :]
    if chroma.ndim != 2 or chroma.shape[1] != 12:
        raise ValueError(f"chroma must have shape (T, 12), got {chroma.shape}")
    profile = chroma.sum(axis=0)
    if not np.any(profile):
        raise ValueError("chromagram is all-zero; key is undefined")
    da, da_squares = _centred(profile)
    keys = []
    for tonic, mode_index, db, db_squares in _KS_TEMPLATES:
        denom = np.sqrt(da_squares * db_squares)
        score = 0.0 if denom == 0.0 else float((da * db).sum() / denom)
        keys.append((-score, tonic, mode_index))
    _, tonic, mode_index = min(keys)
    return KeyLabel(tonic, "major" if mode_index == 0 else "minor")


def _centred(values: np.ndarray) -> tuple[np.ndarray, np.float64]:
    d = values - values.mean()
    return d, (d**2).sum()


#: The 24 rotated profiles' (tonic, mode index, _centred parts), in tie order.
_KS_TEMPLATES = tuple(
    (tonic, mode_index, *_centred(np.roll(np.asarray(template), tonic)))
    for tonic in range(12)
    for mode_index, template in enumerate((KS_MAJOR_PROFILE, KS_MINOR_PROFILE))
)


# ---------------------------------------------------------------------------
# Audio-side chroma estimation (closed-loop oracle for the stub renderer)

#: Frames per matrix product in :func:`chroma_from_audio`.
_CHROMA_CHUNK = 256

#: Samples in :func:`chroma_from_audio`'s analysis window.
CHROMA_WINDOW = 8192

#: Part of every chunk key of :func:`chroma_from_audio`'s memo: change it
#: whenever a chunk's rows change for the same samples and parameters.
CHROMA_VERSION = 1


def chroma_from_audio(
    samples: np.ndarray,
    sample_rate: int,
    frame_rate: float,
    num_frames: int | None = None,
    low_midi: int = 48,
    high_midi: int = 84,
    window_size: int = CHROMA_WINDOW,
    silence_threshold: float = 1e-4,
    memo: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Estimate a binary (T, 12) chromagram from audio by DFT peak picking.

    Each frame takes a Hann-windowed slice centred on the frame time and
    evaluates the DFT directly at the bin nearest every equal-tempered note
    frequency between ``low_midi`` and ``high_midi``, on a grid of
    ``4 * window_size`` bins: these are exactly the bins a zero-padded
    ``4 * window_size``-point FFT of the slice would give, without computing
    the rest.  The magnitudes fold into pitch classes (the strongest note of
    each class) and the three strongest classes are marked — or none when the
    slice is essentially silent.  Designed as an independent check of the
    stub renderer's triad pad, not a general transcription tool.

    ``samples`` is a 1-D or (channels, n) array of 1 or 2 channels, a
    :class:`songpipe.render.AudioBuffer`, or a :class:`songpipe.render.WavReader`;
    an array is wrapped as an ``AudioBuffer``.  Channels are averaged, and
    samples outside the signal read as zeros.  Frames are measured
    ``_CHROMA_CHUNK`` at a time, each chunk from its own span of samples, so
    a file source is never read whole.

    ``memo`` maps a chunk key to that chunk's rows.  A chunk's key is the
    SHA-256 of everything its rows depend on: the samples it reads, its frame
    starts relative to the first of them, and the parameters.  A chunk whose
    key is in ``memo`` is copied from it instead of measured.  On return
    ``memo`` holds the keys and rows of this call's chunks only.
    """
    source = samples if hasattr(samples, "read") else AudioBuffer(sample_rate, samples)
    n_samples = source.n_samples
    if num_frames is None:
        num_frames = int(np.ceil(n_samples / sample_rate * frame_rate))
    n_fft = 4 * window_size
    note_freqs = 440.0 * 2.0 ** ((np.arange(low_midi, high_midi) - 69) / 12.0)
    note_bins = np.round(note_freqs * n_fft / sample_rate).astype(int)
    note_pcs = np.arange(low_midi, high_midi) % 12
    # Notes that share a bin share one basis column, so they tie exactly.
    bins, note_cols = np.unique(note_bins, return_inverse=True)
    basis = None  # built on the first chunk measured

    half = window_size // 2
    span = 2 * half  # samples read per frame; an odd window ends in a zero
    centres = np.rint(np.arange(num_frames) / frame_rate * sample_rate)
    starts = centres.astype(np.int64) - half
    params = repr((CHROMA_VERSION, sample_rate, low_midi, high_midi, window_size,
                   silence_threshold)).encode("ascii")

    out = np.zeros((num_frames, 12))
    chunks: dict[str, np.ndarray] = {}
    for first in range(0, num_frames, _CHROMA_CHUNK):
        chunk_starts = starts[first : first + _CHROMA_CHUNK]
        rows = out[first : first + len(chunk_starts)]
        # The samples this chunk's rows read, clipped to the signal.
        begin, end = int(chunk_starts[0]), int(chunk_starts[-1]) + span
        lo = min(max(begin, 0), n_samples)
        hi = max(min(end, n_samples), lo)
        segment = source.read(lo, hi).mean(axis=0)
        relative = chunk_starts - lo
        if memo is not None:
            digest = hashlib.sha256(params + repr((len(relative), len(segment))).encode("ascii"))
            digest.update(np.ascontiguousarray(relative, dtype="<i8"))
            digest.update(np.ascontiguousarray(segment, dtype="<f8"))
            key = digest.hexdigest()
            cached = memo.get(key)
            if cached is not None and cached.shape == rows.shape:
                rows[:] = cached
                chunks[key] = cached
                continue
        if (lo, hi) != (begin, end):
            padded = np.zeros(end - begin)
            padded[lo - begin : hi - begin] = segment
            segment = padded
        offsets = chunk_starts - begin
        live = np.flatnonzero(~_silent(segment, offsets, window_size, silence_threshold))
        if live.size:
            frames = _frames(segment, offsets[live], window_size)
            if basis is None:
                basis = _note_bin_basis(window_size, n_fft, bins)
            proj = frames @ basis
            magnitude = np.hypot(proj[:, : len(bins)], proj[:, len(bins) :])
            energy = np.zeros((len(live), 12))
            np.maximum.at(energy, (slice(None), note_pcs), magnitude[:, note_cols])
            top = np.argsort(energy, axis=1, kind="stable")[:, -3:]
            strong = np.take_along_axis(energy, top, axis=1) > 0.05 * energy.max(
                axis=1, keepdims=True
            )
            row, rank = np.nonzero(strong)
            rows[live[row], top[row, rank]] = 1.0
        if memo is not None:
            chunks[key] = rows.copy()
    if memo is not None:
        memo.clear()
        memo.update(chunks)
    return out


#: Format name and version of :func:`memo_to_json` documents.
MEMO_FORMAT = "chroma-memo"
MEMO_VERSION = 1

_ROW_BITS = 1 << np.arange(12)
_PACKED_ROWS = re.compile(r"(?:[0-9a-f]{3})*")


def memo_to_json(memo: dict[str, np.ndarray]) -> str:
    """A :func:`chroma_from_audio` memo as JSON: ``[key, rows]`` per chunk, in
    memo order.  ``rows`` has three hex digits per row, bit ``i`` for pitch
    class ``i``."""
    chunks = [
        [key, "".join(f"{v:03x}" for v in (rows != 0).astype(np.int64) @ _ROW_BITS)]
        for key, rows in memo.items()
    ]
    return json.dumps({"format": MEMO_FORMAT, "version": MEMO_VERSION, "chunks": chunks},
                      indent=1) + "\n"


def memo_from_json(text: str) -> dict[str, np.ndarray]:
    """Parse :func:`memo_to_json` output; raises ``ValueError`` if malformed."""
    def build(doc: dict) -> dict[str, np.ndarray]:
        memo = {}
        for key, packed in doc["chunks"]:
            if not (isinstance(key, str) and isinstance(packed, str)
                    and _PACKED_ROWS.fullmatch(packed)):
                raise ValueError("a chunk must be [key, rows] with three hex digits per row")
            values = np.array([int(packed[i : i + 3], 16) for i in range(0, len(packed), 3)],
                              dtype=np.int64)
            memo[key] = ((values[:, None] & _ROW_BITS) != 0).astype(float).reshape(-1, 12)
        return memo
    return read_document(text, MEMO_FORMAT, MEMO_VERSION, build)


def _frames(segment: np.ndarray, offsets: np.ndarray, window_size: int) -> np.ndarray:
    """One row per offset: ``window_size`` samples of ``segment`` from it, an odd
    window ending in a zero."""
    span = 2 * (window_size // 2)
    frames = sliding_window_view(segment, span)[offsets]
    if window_size > span:
        frames = np.hstack([frames, np.zeros((len(frames), 1))])
    return frames


def _silent(segment: np.ndarray, offsets: np.ndarray, window_size: int,
            threshold: float) -> np.ndarray:
    """Whether each frame of :func:`_frames` is silent, exactly as
    ``np.sqrt((frames**2).mean(axis=1)) < threshold`` decides it.

    A prefix sum of the squared samples gives each frame's energy ``E`` (the
    sum of its squares) in O(1).  With ``u = 2**-53`` and ``n`` samples in
    ``segment``, every prefix is within ``n*u`` (to first order) of its exact
    value relative to itself, as the terms are not negative, so ``E`` is
    within ``4*(n+1)*u`` times its ending prefix of the exact sum ``S``.  The
    expression above sums the same squares in another order, within
    ``window_size*u*S`` of ``S``, then rounds twice more (mean and square
    root), as does the limit ``threshold**2 * window_size``.  So a frame
    whose ``E`` lies, with its error, farther than ``2*(window_size+8)*u``
    relative from that limit is decided by ``E``.  The rest are measured by
    the expression itself, as are all frames of a segment whose squares do
    not sum to a finite number, and all frames when the limit is not a
    normal number far from underflow (where the relative bounds would not
    hold) or ``threshold`` is not positive.
    """
    sums = np.empty(len(segment) + 1)
    sums[0] = 0.0
    np.cumsum(segment * segment, out=sums[1:])
    span = 2 * (window_size // 2)
    limit = threshold * threshold * window_size
    silent = np.zeros(len(offsets), dtype=bool)
    unsure = np.ones(len(offsets), dtype=bool)
    if threshold > 0 and 2.0**-900 < limit < 2.0**900 and np.isfinite(sums[-1]):
        ends = sums[offsets + span]
        energy = ends - sums[offsets]
        error = 4 * (len(segment) + 1) * 2.0**-53 * ends
        margin = 2 * (window_size + 8) * 2.0**-53 * limit
        silent = energy + error < limit - margin
        unsure = ~silent & ~(energy - error > limit + margin)
    if unsure.any():
        frames = _frames(segment, offsets[unsure], window_size)
        silent[unsure] = np.sqrt((frames**2).mean(axis=1)) < threshold
    return silent


def _note_bin_basis(window_size: int, n_fft: int, bins: np.ndarray) -> np.ndarray:
    """Hann-weighted cos columns then sin columns of the given n_fft-point DFT bins."""
    # Reduce k*n modulo n_fft in integers so the phase stays exact for large n.
    phase = (np.outer(np.arange(window_size), bins) % n_fft) * (2.0 * np.pi / n_fft)
    hann = np.hanning(window_size)[:, None]
    return np.hstack([hann * np.cos(phase), hann * np.sin(phase)])


# ---------------------------------------------------------------------------
# Closed-loop report: rendered audio against the conditions it was rendered from


def steady_frames(chroma: np.ndarray, radius: int) -> np.ndarray:
    """Frames whose neighbours within ``radius`` frames all share their chroma row.

    A frame near a chord change is not steady: an analysis window centred
    on it straddles two chords.
    """
    t = len(chroma)
    run = np.zeros(t, dtype=np.int64)
    run[1:] = np.cumsum(np.any(chroma[1:] != chroma[:-1], axis=1))
    frames = np.arange(t)
    return run[np.maximum(frames - radius, 0)] == run[np.minimum(frames + radius, t - 1)]


def self_report(
    bundle: ConditionBundle,
    events: list[RenderEvent],
    accompaniment: AudioBuffer | WavReader,
    memo: dict | None = None,
) -> dict:
    """Closed-loop metrics of rendered audio against its own conditions.

    ``memo`` is passed to :func:`chroma_from_audio`.  Keys are estimated only
    on frames whose chroma analysis window lies inside one chord run, so
    that a window straddling two chords cannot tip a near-tie.
    """
    beat_frames = local_maxima(bundle.rhythm[:, 0], CLICK_THRESHOLD)
    expected_beats = [f / bundle.frame_rate for f in beat_frames]
    logged_beats = [e.time_sec for e in events if e.kind in ("beat", "downbeat")]
    beat_f1 = rhythm_f1(expected_beats, logged_beats)

    audio_chroma = chroma_from_audio(accompaniment, accompaniment.sample_rate,
                                     bundle.frame_rate, bundle.num_frames, memo=memo)
    chord = chord_f1(bundle.chroma, audio_chroma)

    hop = accompaniment.sample_rate / bundle.frame_rate
    steady = steady_frames(bundle.chroma, math.ceil(CHROMA_WINDOW // 2 / hop))
    ref_keys: list[KeyLabel] = []
    est_keys: list[KeyLabel] = []
    for sec in sorted(set(bundle.structure.tolist())):
        mask = (bundle.structure == sec) & bundle.chroma.any(axis=1) & steady
        if not mask.any() or not audio_chroma[mask].any():
            continue
        ref_keys.append(estimate_key(bundle.chroma[mask]))
        est_keys.append(estimate_key(audio_chroma[mask]))
    key_acc = key_accuracy(ref_keys, est_keys) if ref_keys else None

    return {
        "rhythm_f1_log_vs_conditions": beat_f1,
        "chord_f1_audio_vs_conditions": chord,
        "key_accuracy_audio_vs_conditions": key_acc,
        "num_expected_beats": len(expected_beats),
        "num_logged_beats": len(logged_beats),
        "num_key_segments": len(ref_keys),
        "num_key_masked_frames": int(bundle.num_frames - steady.sum()),
    }
