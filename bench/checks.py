"""Correctness checks made apart from the program.

Every expected value here is derived from the generator's own description
of an input (tempo map, sections, known substitutions) or re-measured from
raw artifact bytes: tempo-map arithmetic is exact (``Fraction``), WAV data
is read straight from the RIFF chunks, and matching, penalties and click
detection are written out again rather than called from songpipe.  Each
check raises :class:`CheckFailed` with a message naming what differed.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from fractions import Fraction
from statistics import median

import numpy as np

from inputs import BAR, INTRO_BARS, TPQ, Song

#: Section-label ids of the conditions format, in the model's fixed order.
SECTION_LABELS = ("intro", "verse", "chorus", "bridge", "solo", "break", "inst", "outro")
FRAME_RATE = 50
SIGMA = 0.05
MAX_WINDOW_SEC = 47.0
CLICK_FREQ_HZ = 1000.0
MIX_PEAK = 0.95
#: Frames closer than this to a bar or section edge may fall either side.
EDGE_SEC = 1e-6


class CheckFailed(Exception):
    """An output disagreed with its independently derived expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(directory: str) -> dict[str, str]:
    return {name: sha256_file(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))}


# ---------------------------------------------------------------------------
# Tempo-map arithmetic


class Timeline:
    """The song as the pipeline sees it after harmonize: intro prepended
    when the score has none, tempo map and sections shifted to match."""

    def __init__(self, song: Song):
        tempo, sections = list(song.tempo), list(song.sections)
        if not any(label == "intro" for label, _, _ in sections):
            shift = INTRO_BARS * BAR
            tempo = [(0, tempo[0][1])] + [(t + shift, us) for t, us in tempo if t > 0]
            sections = [("intro", 0, shift)] + [(lab, a + shift, b + shift) for lab, a, b in sections]
        self.tempo = tempo
        self.sections = sections
        self.end_tick = sections[-1][2]
        self.bars = self.end_tick // BAR

    def seconds(self, tick: int) -> Fraction:
        total = Fraction(0)
        for i, (start, us) in enumerate(self.tempo):
            stop = self.tempo[i + 1][0] if i + 1 < len(self.tempo) else None
            span_end = tick if stop is None else min(tick, stop)
            if span_end <= start:
                break
            total += Fraction((span_end - start) * us, TPQ * 1_000_000)
        return total

    @property
    def duration(self) -> Fraction:
        return self.seconds(self.end_tick)

    def num_frames(self) -> int:
        return math.ceil(self.duration * FRAME_RATE)

    def beats(self) -> list[float]:
        return [float(self.seconds(t)) for t in range(0, self.end_tick, TPQ)]

    def bar_edges(self) -> list[Fraction]:
        return [self.seconds(b * BAR) for b in range(self.bars + 1)]

    def frames_in(self, start: Fraction, end: Fraction) -> range:
        """Frames whose time f / FRAME_RATE lies in [start, end)."""
        return range(math.ceil(start * FRAME_RATE), math.ceil(end * FRAME_RATE))


def frame_owner(edges: list[Fraction], num_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the span [edges[i], edges[i+1]) holding each frame, and a
    mask of frames far enough from every edge to be unambiguous."""
    times = np.arange(num_frames) / FRAME_RATE
    e = np.array([float(x) for x in edges])
    owner = np.clip(np.searchsorted(e, times, side="right") - 1, 0, len(e) - 2)
    nearest = np.minimum(np.abs(times - e[owner]), np.abs(e[owner + 1] - times))
    return owner, nearest > EDGE_SEC


# ---------------------------------------------------------------------------
# Artifact readers (plain parsing, no songpipe code)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_chords(path: str) -> list[tuple[float, float, int, str]]:
    names = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            start, end, chord = line.split()
            root, quality = chord.split(":")
            out.append((float(start), float(end), names.index(root), quality))
    return out


def triad(root: int, quality: str) -> np.ndarray:
    row = np.zeros(12)
    row[[root % 12, (root + (4 if quality == "maj" else 3)) % 12, (root + 7) % 12]] = 1.0
    return row


def read_events(path: str) -> list[tuple[float, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [(float(t), kind) for t, kind in (line.split() for line in fh)]


def wav_data(path: str) -> tuple[int, np.ndarray]:
    """Sample rate and a read-only (channels, n) float32 view of a float WAV."""
    with open(path, "rb") as fh:
        head = fh.read(4096)
    require(head[:4] == b"RIFF" and head[8:12] == b"WAVE", f"{path}: not RIFF/WAVE")
    pos, fmt = 12, None
    while pos + 8 <= len(head):
        tag, size = head[pos:pos + 4], struct.unpack("<I", head[pos + 4:pos + 8])[0]
        if tag == b"fmt ":
            fmt = struct.unpack("<HHIIHH", head[pos + 8:pos + 24])
        elif tag == b"data":
            require(fmt is not None and fmt[0] == 3 and fmt[5] == 32, f"{path}: not float32")
            channels = fmt[1]
            data = np.memmap(path, dtype="<f4", mode="r", offset=pos + 8,
                             shape=(size // (4 * channels), channels))
            return fmt[2], data.T
        pos += 8 + size + (size & 1)
    raise CheckFailed(f"{path}: no data chunk in the first 4 KiB")


def peak_abs(samples: np.ndarray) -> float:
    step = 1 << 20
    return max(float(np.abs(samples[:, i:i + step]).max()) for i in range(0, samples.shape[1], step))


# ---------------------------------------------------------------------------
# Independent algorithms


def matched(reference: list[float], estimate: list[float], tolerance: float) -> int:
    """One-to-one matches within a tolerance, greedy over sorted lists."""
    ref, est = sorted(reference), sorted(estimate)
    i = j = hits = 0
    while i < len(ref) and j < len(est):
        if abs(est[j] - ref[i]) <= tolerance + 1e-9:
            hits, i, j = hits + 1, i + 1, j + 1
        elif est[j] < ref[i]:
            j += 1
        else:
            i += 1
    return hits


def f1(reference: list[float], estimate: list[float], tolerance: float) -> float:
    hits = matched(reference, estimate, tolerance)
    denom = len(reference) + len(estimate)
    return 1.0 if denom == 0 else 2 * hits / denom


def click_onsets(samples: np.ndarray, sample_rate: int) -> list[float]:
    """Click onsets from audio alone: 1 kHz demodulated energy in a 5 ms
    moving window, local maxima above 45 % of the loudest, merged within
    50 ms.  Works chunk by chunk so memory stays small on long songs."""
    mono = samples[0]
    width = int(round(0.005 * sample_rate))
    n_env = mono.shape[0] - width + 1
    if n_env <= 0:
        return []
    step = 1 << 20

    def envelope(a: int, b: int) -> np.ndarray:  # envelope[a:b]
        idx = np.arange(a, b + width - 1)
        demod = mono[a:b + width - 1] * np.exp(-2j * np.pi * CLICK_FREQ_HZ / sample_rate * idx)
        run = np.concatenate(([0j], np.cumsum(demod)))
        return np.abs(run[width:] - run[:-width]) / width

    peak = max(float(envelope(a, min(a + step, n_env)).max()) for a in range(0, n_env, step))
    if peak <= 0.0:
        return []
    times: list[float] = []
    for a in range(0, n_env, step):
        b = min(a + step, n_env)
        lo, hi = max(a - 1, 0), min(b + 1, n_env)
        env = envelope(lo, hi)
        left = np.concatenate(([-np.inf], env[:-1]))
        right = np.concatenate((env[1:], [-np.inf]))
        hits = np.nonzero((env >= 0.45 * peak) & (env > left) & (env >= right))[0] + lo
        for index in hits[(hits >= a) & (hits < b)]:
            onset = index / sample_rate
            if not times or onset - times[-1] > 0.05:
                times.append(onset)
    return times


def penalty_total(target, candidate) -> float:
    """Shape penalty of a candidate lyric sheet, from the method's formula:
    0.4 x line-count gap + 0.4 x token-profile gap + 0.2 x tag mismatch."""
    n_t, n_c = len(target), len(candidate)
    sentence = abs(n_t - n_c) / max(n_t, n_c)
    ct = [float(len(tokens)) for _, tokens in target]
    cc = [float(len(tokens)) for _, tokens in candidate]
    scale = max(max(ct), max(cc))
    if len(ct) < len(cc):
        ct += [float(median(len(t) for _, t in target))] * (len(cc) - len(ct))
    elif len(cc) < len(ct):
        cc += [float(median(len(t) for _, t in candidate))] * (len(ct) - len(cc))
    profile = sum(abs(a - b) for a, b in zip(ct, cc)) / len(ct) / scale
    mismatches = sum(1 for (a, _), (b, _) in zip(target, candidate) if a != b)
    structure = (mismatches + abs(n_t - n_c)) / max(n_t, n_c)
    return 0.4 * sentence + 0.4 * profile + 0.2 * structure


# ---------------------------------------------------------------------------
# Checks on pipeline outputs


def check_plan(outdir: str, timeline: Timeline) -> int:
    """Windows tile [0, duration), each at most 47 s, and every reference
    points at an earlier-ordered window.  Returns the window count."""
    windows = read_json(os.path.join(outdir, "plan.json"))["windows"]
    chrono = sorted(windows, key=lambda w: w["start_sec"])
    require(chrono[0]["start_sec"] == 0.0, "plan does not start at 0")
    for a, b in zip(chrono, chrono[1:]):
        require(a["end_sec"] == b["start_sec"], f"plan gap or overlap at {a['end_sec']}")
    require(abs(chrono[-1]["end_sec"] - float(timeline.duration)) <= 1e-9,
            f"plan ends at {chrono[-1]['end_sec']}, song at {float(timeline.duration)}")
    first_of_section: dict[int, int] = {}
    for w in windows:
        require(w["end_sec"] - w["start_sec"] <= MAX_WINDOW_SEC + 1e-9, "window longer than 47 s")
        s = w["anchor_section"]
        first_of_section[s] = min(first_of_section.get(s, w["order"]), w["order"])
    for prev, w in zip(chrono, chrono[1:]):
        ref = w["reference"]
        if ref["kind"] == "previous_window":
            require(prev["order"] < w["order"], f"window {w['order']} refers forward")
        elif ref["kind"] == "backward":
            require(first_of_section[ref["section"]] < w["order"],
                    f"window {w['order']} refers to a later window")
    return len(windows)


def check_conditions(outdir: str, timeline: Timeline, rng, samples: int = 200) -> dict:
    """Rhythm against a brute-force bump maximum on sampled frames; chroma
    against the chords.txt bar covering each frame; structure against the
    section starts; one key per section.  Returns the parsed document."""
    doc = read_json(os.path.join(outdir, "conditions.json"))
    frames = timeline.num_frames()
    require(doc["num_frames"] == frames, f"{doc['num_frames']} frames, expected {frames}")
    rhythm = np.asarray(doc["rhythm"], dtype=float)
    beats = np.asarray(timeline.beats())
    # 1e-12, widened to what float64 times can resolve on a long song: the
    # bump's slope (at most 1 / sigma) times a few ulps of the song length.
    tolerance = max(1e-12, 8 * math.ulp(float(timeline.duration)) / SIGMA)
    for column, events in ((0, beats), (1, beats[::4])):
        for f in rng.sample(range(frames), min(samples, frames)):
            t = f / FRAME_RATE
            expected = float(np.max(np.exp(-((t - events) ** 2) / (2.0 * SIGMA * SIGMA))))
            require(abs(rhythm[f, column] - expected) <= tolerance,
                    f"rhythm[{f}, {column}] = {rhythm[f, column]}, brute force {expected}")

    chords = read_chords(os.path.join(outdir, "chords.txt"))
    edges = timeline.bar_edges()
    require(len(chords) == timeline.bars, f"{len(chords)} chord lines for {timeline.bars} bars")
    for (start, _, _, _), edge in zip(chords, edges):
        require(abs(start - float(edge)) <= 1e-6, f"chord line at {start} s, bar at {float(edge)} s")
    owner, clear = frame_owner(edges, frames)
    table = np.array([triad(root, quality) for _, _, root, quality in chords])
    chroma = np.asarray(doc["chroma"], dtype=float)
    bad = np.nonzero(clear & np.any(chroma != table[owner], axis=1))[0]
    require(len(bad) == 0, f"chroma differs from the chords.txt triad on {len(bad)} frames")

    sec_edges = [timeline.seconds(a) for _, a, _ in timeline.sections] + [timeline.duration]
    owner, clear = frame_owner(sec_edges, frames)
    ids = np.array([SECTION_LABELS.index(label) for label, _, _ in timeline.sections])
    structure = np.asarray(doc["structure"])
    require(not np.any(clear & (structure != ids[owner])), "structure ids do not follow section starts")
    require(sorted(k["section"] for k in doc["keys"]) == list(range(len(timeline.sections))),
            "keys do not give exactly one key per section")
    return doc


def check_report(outdir: str) -> dict:
    """Criterion 3's rhythm and chord thresholds.  Its key accuracy of 1.0 is
    not required: per-section key estimates of audio and condition chroma
    flip on near-ties, so a correct render misses it on some seeds."""
    report = read_json(os.path.join(outdir, "report.json"))
    require(report["rhythm_f1_log_vs_conditions"] >= 0.99, f"report rhythm F1 {report}")
    require(report["chord_f1_audio_vs_conditions"] >= 0.95, f"report chord F1 {report}")
    return report


def check_beats(outdir: str, timeline: Timeline) -> list[float]:
    """events.txt beats against every quarter note of the tempo map, within
    half a frame, downbeats on every fourth; returns the logged beat times."""
    events = read_events(os.path.join(outdir, "events.txt"))
    logged = [(t, kind) for t, kind in events if kind in ("beat", "downbeat")]
    derived = timeline.beats()
    require(len(logged) == len(derived), f"{len(logged)} logged beats, {len(derived)} derived")
    for i, ((t, kind), b) in enumerate(zip(logged, derived)):
        require(abs(t - b) <= 0.5 / FRAME_RATE, f"beat {i} logged at {t}, derived {b}")
        require((kind == "downbeat") == (i % 4 == 0), f"beat {i} logged as {kind}")
    return [t for t, _ in logged]


def check_clicks(outdir: str, logged: list[float]) -> None:
    """Clicks recovered from accompaniment.wav alone match the log within 5 ms."""
    rate, samples = wav_data(os.path.join(outdir, "accompaniment.wav"))
    score = f1(logged, click_onsets(samples, rate), 0.005)
    require(score >= 0.99, f"clicks recovered from audio match the log at F1 {score:.4f}")


def check_mix(outdir: str) -> None:
    _, samples = wav_data(os.path.join(outdir, "mix.wav"))
    peak = peak_abs(samples)
    require(abs(peak - MIX_PEAK) <= 1e-6, f"mix peaks at {peak}")
