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
    """Counts and F1 score of a one-to-one matching evaluation."""

    true_positives: int
    false_positives: int
    false_negatives: int

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

    Tokens must be hashable and match when equal as dict keys.  The distance
    is symmetric, so the DP column of the shorter sequence (length m) is held
    as bits of Python ints and the bit-parallel recurrence of Myers (1999), in
    Hyyrö's (2003) Levenshtein form, steps over the n tokens of the longer one
    with a few big-int operations each: O(n·⌈m/64⌉) word operations, and one
    match mask per distinct token of the shorter one, at most (distinct) × m bits.
    """
    short, long = sorted((reference, hypothesis), key=len)
    masks: dict = {}
    for i, tok in enumerate(short):
        masks[tok] = masks.get(tok, 0) | 1 << i
    m = len(short)
    full, top = (1 << m) - 1, 1 << m
    pv, mv, score = full, 0, m  # vertical deltas +1 / -1 down the column; D[m][0]
    for tok in long:  # an unhashable token raises TypeError in the lookup
        eq = masks.get(tok, 0)
        xv, xh = eq | mv, (((eq & pv) + pv) ^ pv) | eq
        ph, mh = (mv | ~(xh | pv)) << 1 | 1, (pv & xh) << 1  # row 0 grows by 1
        score += (ph & top != 0) - (mh & top != 0)
        pv, mv = (mh | ~(xv | ph)) & full, ph & xv  # & full only bounds the int size
    return score


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

#: Samples in :func:`chroma_from_audio`'s analysis window, the MIDI notes it
#: measures (C3 to B5, the high end excluded) and the RMS below which a frame is silent.
CHROMA_WINDOW = 8192
CHROMA_LOW_MIDI, CHROMA_HIGH_MIDI = 48, 84
CHROMA_SILENCE = 1e-4
_N_FFT = 4 * CHROMA_WINDOW  # the DFT grid of the note bins
_NOTE_FREQS = 440.0 * 2.0 ** ((np.arange(CHROMA_LOW_MIDI, CHROMA_HIGH_MIDI) - 69) / 12.0)
_NOTE_PCS = np.arange(CHROMA_LOW_MIDI, CHROMA_HIGH_MIDI) % 12

#: Part of every chunk key of :func:`chroma_from_audio`'s memo: change it
#: whenever a chunk's rows change for the same samples and parameters.
CHROMA_VERSION = 2


def chroma_from_audio(
    samples: np.ndarray,
    sample_rate: int,
    frame_rate: float,
    num_frames: int | None = None,
    memo: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Estimate a binary (T, 12) chromagram from audio by DFT peak picking.

    Each frame takes a Hann-windowed slice of ``CHROMA_WINDOW`` samples
    centred on the frame time and evaluates the DFT directly at the bin
    nearest every equal-tempered note frequency from ``CHROMA_LOW_MIDI`` up
    to ``CHROMA_HIGH_MIDI``, on a grid of ``4 * CHROMA_WINDOW`` bins: these
    are exactly the bins a zero-padded ``4 * CHROMA_WINDOW``-point FFT of
    the slice would give, without computing the rest.  The magnitudes fold
    into pitch classes (the strongest note of each class) and the three
    strongest classes are marked — or none when the slice's RMS is below
    ``CHROMA_SILENCE``.  Designed as an independent check of the
    stub renderer's triad pad, not a general transcription tool.

    ``samples`` is a 1-D or (channels, n) array of 1 or 2 channels, a
    :class:`songpipe.render.AudioBuffer`, or a :class:`songpipe.render.WavReader`;
    an array is wrapped as an ``AudioBuffer``.  Channels are averaged, and
    samples outside the signal read as zeros.  Frames are measured
    ``_CHROMA_CHUNK`` at a time, each chunk from its own span of samples, so
    a file source is never read whole.  A mono float32 WAV's samples are
    taken as the file stores them; any other source's channel mean is taken
    in float64.

    The projection onto the note bins runs in float32.  A chunk keeps the
    classes its frames mark there only when :func:`_decided` proves, for
    every live frame, that the float64 projection marks the same ones.  Any
    other chunk, and every chunk with a non-finite sample, is projected once
    in float64 by :func:`_measured`, as one product of all its live frames.
    So every row is the float64 expression's, bit for bit, whatever the BLAS
    kernel and thread count.

    ``memo`` maps a chunk key to that chunk's rows.  A chunk's key is the
    SHA-256 of everything its rows depend on: the samples it reads, its frame
    starts relative to the first of them, the sample rate and the constants
    above.  The samples are hashed as float32 bytes, under their own tag,
    when their channel mean is exactly float32 (so a float32 WAV and its
    decoded array key alike), and as float64 bytes under another tag
    otherwise.  A chunk whose
    key is in ``memo`` is copied from it instead of measured.  On return
    ``memo`` (a throwaway dict when None) holds the keys and rows of this
    call's chunks only.
    """
    if memo is None:
        memo = {}
    source = samples if hasattr(samples, "read") else AudioBuffer(sample_rate, samples)
    n_samples = source.n_samples
    as_stored = (isinstance(source, WavReader) and source.channels == 1
                 and source.header.sample_format == "float32")
    if num_frames is None:
        num_frames = int(np.ceil(n_samples / sample_rate * frame_rate))
    note_bins = np.round(_NOTE_FREQS * _N_FFT / sample_rate).astype(int)
    # Notes that share a bin share one basis column, so they tie exactly.
    bins, note_cols = np.unique(note_bins, return_inverse=True)
    basis = None  # built on the first chunk measured

    centres = np.rint(np.arange(num_frames) / frame_rate * sample_rate)
    starts = centres.astype(np.int64) - CHROMA_WINDOW // 2
    params = repr((CHROMA_VERSION, sample_rate, CHROMA_LOW_MIDI, CHROMA_HIGH_MIDI,
                   CHROMA_WINDOW, CHROMA_SILENCE)).encode("ascii")

    out = np.zeros((num_frames, 12))
    chunks: dict[str, np.ndarray] = {}
    for first in range(0, num_frames, _CHROMA_CHUNK):
        chunk_starts = starts[first : first + _CHROMA_CHUNK]
        rows = out[first : first + len(chunk_starts)]
        # The samples this chunk's rows read, clipped to the signal.
        begin, end = int(chunk_starts[0]), int(chunk_starts[-1]) + CHROMA_WINDOW
        lo = min(max(begin, 0), n_samples)
        hi = max(min(end, n_samples), lo)
        if as_stored:
            segment = narrow = np.frombuffer(source.read_bytes(lo, hi), "<f4")
        else:
            segment = source.read(lo, hi).mean(axis=0)
            with np.errstate(over="ignore"):
                narrow = segment.astype(np.float32)
            if np.array_equal(narrow, segment):
                segment = narrow
        relative = chunk_starts - lo
        digest = hashlib.sha256(params + repr(
            (segment.dtype.name, len(relative), len(segment))).encode("ascii"))
        digest.update(np.ascontiguousarray(relative, dtype="<i8"))
        digest.update(np.ascontiguousarray(segment, dtype=segment.dtype.newbyteorder("<")))
        key = digest.hexdigest()
        cached = memo.get(key)
        if cached is not None and cached.shape == rows.shape:
            rows[:] = cached
            chunks[key] = cached
            continue
        if (lo, hi) != (begin, end):
            narrow = _padded(narrow, lo - begin, end - begin)
            segment = (narrow if segment.dtype == np.float32
                       else _padded(segment, lo - begin, end - begin))
        offsets = chunk_starts - begin
        silent, squares = _silent(segment, offsets)
        live = np.flatnonzero(~silent)
        if live.size:
            if basis is None:
                basis = _note_bin_basis(bins)
                basis32, scale = basis.astype(np.float32), _error_scale(basis)
            decided = False
            if squares is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    proj = _frames(narrow, offsets[live]) @ basis32
                    energy, order, strong = _classes(proj.astype(float), note_cols)
                    decided = _decided(energy, order, proj, scale, squares[live]).all()
            if not decided:
                order, strong = _measured(segment, offsets[live], basis, note_cols)
            # Mark each frame's strong classes among its three strongest.
            row, rank = np.nonzero(strong)
            rows[live[row], order[row, rank - 3]] = 1.0
        chunks[key] = rows.copy()
    memo.clear()
    memo.update(chunks)
    return out


def _padded(samples: np.ndarray, at: int, size: int) -> np.ndarray:
    """``size`` zeros of ``samples``' dtype with ``samples`` written from ``at``."""
    padded = np.zeros(size, dtype=samples.dtype)
    padded[at : at + len(samples)] = samples
    return padded


def _classes(proj: np.ndarray, note_cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's class energies (the strongest note of each pitch class, from
    the cos then sin halves of ``proj``), its classes in stable ascending order
    of energy, and which of its three strongest exceed 5 % of the strongest."""
    n_bins = proj.shape[1] // 2
    magnitude = np.hypot(proj[:, :n_bins], proj[:, n_bins:])
    energy = np.zeros((len(proj), 12))
    np.maximum.at(energy, (slice(None), _NOTE_PCS), magnitude[:, note_cols])
    order = np.argsort(energy, axis=1, kind="stable")
    strong = np.take_along_axis(energy, order[:, -3:], axis=1) > 0.05 * energy.max(
        axis=1, keepdims=True
    )
    return energy, order, strong


def _measured(segment: np.ndarray, offsets: np.ndarray, basis: np.ndarray,
              note_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_classes`' order and marks of the frames at ``offsets``, projected
    in float64: the float64 expression that every row must equal.  It is
    always given all live frames of a chunk, so that it makes the product
    the expression makes: BLAS may sum a row in another order when a
    product has fewer rows."""
    with np.errstate(invalid="ignore"):  # a signalling NaN is cast to a NaN
        frames = _frames(segment, offsets).astype(float, copy=False)
    _, order, strong = _classes(frames @ basis, note_cols)
    return order, strong


def _decided(energy: np.ndarray, order: np.ndarray, proj: np.ndarray, scale: float,
             squares: np.ndarray) -> np.ndarray:
    """Whether each frame's :func:`_classes`, from its float32 projection
    ``proj``, mark what they mark from the float64 one, given ``scale`` from
    :func:`_error_scale` and ``squares`` from :func:`_silent`.

    Write ``x`` for a frame in float64 (``W`` samples, ``W`` the window
    size), ``b`` for a basis column, ``x'`` and ``b'`` for their float32
    roundings, ``v = 2**-24``, ``u = 2**-53`` and ``g(e) = W*e / (1 - W*e)``.
    Summed in any order, the float32 product is within ``g(v)*S'`` of
    ``x'.b'``, where ``S' = sum|x'_i*b'_i| <= (1+v)**2 * S`` and
    ``S = sum|x_i*b_i|``; ``x'.b'`` is within ``(2v + v*v)*S`` of ``x.b``,
    and the float64 product within ``g(u)*S``.  So the two products differ
    by at most ``c*S``, ``c = 2v + v*v + (1+v)**2 * g(v) + g(u)``.  By
    Cauchy-Schwarz ``S <= |x|*|b|`` in the 2-norm, so a note's (cos, sin)
    pairs differ by at most ``c*|x|*beta``, with ``beta`` the largest
    ``sqrt(|cos|**2 + |sin|**2)`` of the basis, and so do their lengths.
    ``hypot`` rounds within ``h = 2**-50`` relative (the C library's is
    within one ulp), and a float32-side length is below ``(1+c)*|x|*beta``,
    so the two magnitudes differ by at most ``((1+h)*c + 2h*(1+c))*|x|*beta``.
    Underflow adds at most ``2**-150`` per float32 rounding, under
    ``2**-100 * (1 + |x|)`` in all for any ``W`` below ``2**40``, and
    underflowing squares hide less than ``2**-500`` of ``|x|``.  The
    float64 evaluation of all this and of the tests below rounds within a
    few ``u*|x|*beta``, which the factor ``1 + 2**-20`` covers, as
    ``2**-20 * c >= 2**-43``.  ``scale`` is that factor times
    ``((1+h)*c + 2h*(1+c))*beta``, plus ``2**-100``; the bound is
    ``delta = scale*|x| + 2**-100``, where ``|x|**2`` is at most
    ``squares``: :func:`_silent`'s ``E`` plus its error.

    A class energy is a maximum of magnitudes, as is the frame's strongest,
    so each moves by at most ``delta``.  When the 3rd strongest exceeds the
    4th by more than ``2*delta``, every class of the three is above every
    other on both sides, so the stable sort picks the same three whatever
    its ties.  The limit ``0.05 * max`` then moves by at most ``0.05 *
    (1+u) * delta`` plus its rounding, so each of the three lies on the same
    side of it on both sides when it is more than ``1.1*delta`` from the
    float32 limit.  A frame with a non-finite float32 value (an overflow) is
    not decided.
    """
    ranked = np.take_along_axis(energy, order[:, -4:], axis=1)
    limit = 0.05 * energy.max(axis=1, keepdims=True)
    delta = scale * np.sqrt(squares)[:, None] + 2.0**-100
    return (np.isfinite(proj).all(axis=1) & (ranked[:, 1] - ranked[:, 0] > 2 * delta[:, 0])
            & (np.abs(ranked[:, 1:] - limit) > 1.1 * delta).all(axis=1))


def _error_scale(basis: np.ndarray) -> float:
    """The scale of :func:`_decided`'s bound per unit of a frame's 2-norm."""
    w, n_bins = basis.shape[0], basis.shape[1] // 2
    v, u, h = 2.0**-24, 2.0**-53, 2.0**-50
    g = [w * e / (1 - w * e) if w * e < 0.5 else math.inf for e in (v, u)]
    beta = math.sqrt(float((basis[:, :n_bins] ** 2 + basis[:, n_bins:] ** 2).sum(axis=0).max()))
    c = 2 * v + v * v + (1 + v) ** 2 * g[0] + g[1]
    return (1 + 2.0**-20) * ((1 + h) * c + 2 * h * (1 + c)) * beta + 2.0**-100


#: Format name and version of :func:`memo_to_json` documents.
MEMO_FORMAT = "chroma-memo"
MEMO_VERSION = 1

_ROW_BITS = 1 << np.arange(12)
_PACKED_ROWS = re.compile(r"(?:[0-9a-f]{3})*")
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
#: The value of each lowercase hex digit, by its ASCII code.
_HEX_VALUES = np.zeros(256, dtype=np.int64)
_HEX_VALUES[_HEX_DIGITS] = np.arange(16)


def memo_to_json(memo: dict[str, np.ndarray]) -> str:
    """A :func:`chroma_from_audio` memo as JSON: ``[key, rows]`` per chunk, in
    memo order.  ``rows`` has three hex digits per row, bit ``i`` for pitch
    class ``i``."""
    values = np.concatenate([(rows != 0) @ _ROW_BITS for rows in memo.values()] or [[]])
    digits = _HEX_DIGITS[(values.astype(np.int64)[:, None] >> [8, 4, 0]) & 15]
    text = digits.tobytes().decode("ascii")
    ends = 3 * np.cumsum([len(rows) for rows in memo.values()], dtype=np.int64)
    chunks = [[key, text[end - 3 * len(rows) : end]]
              for (key, rows), end in zip(memo.items(), ends.tolist())]
    return json.dumps({"format": MEMO_FORMAT, "version": MEMO_VERSION, "chunks": chunks},
                      indent=1) + "\n"


def memo_from_json(text: str) -> dict[str, np.ndarray]:
    """Parse :func:`memo_to_json` output; raises ``ValueError`` if malformed."""
    def build(doc: dict) -> dict[str, np.ndarray]:
        keys, packs = [], []
        for key, packed in doc["chunks"]:
            if not (isinstance(key, str) and isinstance(packed, str)
                    and _PACKED_ROWS.fullmatch(packed)):
                raise ValueError("a chunk must be [key, rows] with three hex digits per row")
            keys.append(key)
            packs.append(packed)
        digits = _HEX_VALUES[np.frombuffer("".join(packs).encode("ascii"), dtype=np.uint8)]
        values = digits.reshape(-1, 3) @ np.array([256, 16, 1])
        rows = ((values[:, None] & _ROW_BITS) != 0).astype(float)
        ends = np.cumsum([len(packed) // 3 for packed in packs], dtype=np.int64)
        return dict(zip(keys, np.split(rows, ends[:-1])))
    return read_document(text, MEMO_FORMAT, MEMO_VERSION, build)


def _frames(segment: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """One row per offset: ``CHROMA_WINDOW`` samples of ``segment`` from it,
    in ``segment``'s dtype."""
    return sliding_window_view(segment, CHROMA_WINDOW)[offsets]


def _silent(segment: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Whether each frame of :func:`_frames` is silent, exactly as
    ``np.sqrt((frames**2).mean(axis=1)) < CHROMA_SILENCE`` decides it in
    float64, and each frame's energy plus its error (a bound of its sum of
    squares), or None when the squares of ``segment`` do not sum to a finite
    number.

    A prefix sum of the squared samples gives each frame's energy ``E`` (the
    sum of its squares) in O(1).  With ``u = 2**-53``, ``W = CHROMA_WINDOW``
    and ``n`` samples in ``segment``, every prefix is within ``n*u`` (to
    first order) of its exact value relative to itself, as the terms are not
    negative, so ``E`` is within ``4*(n+1)*u`` times its ending prefix of the
    exact sum ``S``.  The expression above sums the same squares in another
    order, within ``W*u*S`` of ``S``, then rounds twice more (mean and square
    root), as does the limit ``CHROMA_SILENCE**2 * W``, a normal number far
    from underflow.  So a frame whose ``E`` lies, with its error, farther
    than ``2*(W+8)*u`` relative from that limit is decided by ``E``.  The
    rest, and all frames of a segment whose squares do not sum to a finite
    number, are measured by the expression itself.  A float32 ``segment``
    is squared in float64, where the square of a float32 number is exact.
    """
    sums = np.empty(len(segment) + 1)
    sums[0] = 0.0
    with np.errstate(invalid="ignore"):  # a signalling NaN is cast to a NaN
        np.cumsum(np.square(segment, dtype=float), out=sums[1:])
    silent = np.zeros(len(offsets), dtype=bool)
    unsure = np.ones(len(offsets), dtype=bool)
    squares = None
    if np.isfinite(sums[-1]):
        ends = sums[offsets + CHROMA_WINDOW]
        energy = ends - sums[offsets]
        error = 4 * (len(segment) + 1) * 2.0**-53 * ends
        squares = energy + error
        limit = CHROMA_SILENCE * CHROMA_SILENCE * CHROMA_WINDOW
        margin = 2 * (CHROMA_WINDOW + 8) * 2.0**-53 * limit
        silent = squares < limit - margin
        unsure = ~silent & ~(energy - error > limit + margin)
    if unsure.any():
        with np.errstate(invalid="ignore"):
            squared = np.square(_frames(segment, offsets[unsure]), dtype=float)
        silent[unsure] = np.sqrt(squared.mean(axis=1)) < CHROMA_SILENCE
    return silent, squares


def _note_bin_basis(bins: np.ndarray) -> np.ndarray:
    """Hann-weighted cos columns then sin columns of the given ``_N_FFT``-point DFT bins."""
    # Reduce k*n modulo _N_FFT in integers so the phase stays exact for large n.
    phase = (np.outer(np.arange(CHROMA_WINDOW), bins) % _N_FFT) * (2.0 * np.pi / _N_FFT)
    hann = np.hanning(CHROMA_WINDOW)[:, None]
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
