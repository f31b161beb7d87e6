"""Seeded input generator for the benchmark.

Everything here is built from ``random.Random(seed)`` and plain Python, so
the same seed gives the same files byte for byte.  Nothing is imported from
songpipe or from the test suite: a change to either cannot change the
inputs.  Scores are written as format-0 Standard MIDI Files by the small
writer below; lyric sheets, transcripts, beat lists, chromagrams and key
lists are written in the plain-text or JSON forms the ``run`` and ``eval``
subcommands read.

Sizes that set the cost of a workload (bar counts, tempi, token counts,
frame counts) depend only on an input's position, never on the seed, so
run-to-run spread comes from the machine rather than from the inputs.
"""
from __future__ import annotations

import json
import math
import os
import random
import struct
from dataclasses import dataclass

TPQ = 480
BAR = 4 * TPQ
#: Bars of instrumental intro the pipeline prepends when a score has none.
INTRO_BARS = 4

SECTION_POOL = ("verse", "chorus", "bridge", "inst", "outro")
SYLLABLES = ("la", "li", "lu", "na", "no", "sol", "mi", "ya", "ve", "ro")
WORDS = ("love", "night", "light", "road", "home", "sky", "heart", "rain",
         "fire", "time", "dream", "sea", "gold", "wind", "song", "stone")
#: ARPAbet phonemes; transcripts never contain the ``X<n>`` substitutes.
PHONEMES = ("AA", "AE", "AH", "AO", "AW", "AY", "B", "CH", "D", "DH", "EH",
            "ER", "EY", "F", "G", "HH", "IH", "IY", "JH", "K", "L", "M", "N",
            "NG", "OW", "OY", "P", "R", "S", "SH", "T", "TH", "UH", "UW", "V",
            "W", "Y", "Z", "ZH")
PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")


@dataclass(frozen=True)
class Song:
    """A generated score in ticks, plus the lyric sheet written beside it."""

    name: str
    tempo: tuple[tuple[int, int], ...]  # (tick, microseconds per quarter)
    sections: tuple[tuple[str, int, int], ...]  # (label, start_tick, end_tick)
    notes: tuple[tuple[int, int, int, str | None], ...]  # onset, ticks, pitch, syllable
    lyrics: tuple[tuple[str, tuple[str, ...]], ...]  # (tag, tokens) per line

    @property
    def end_tick(self) -> int:
        return self.sections[-1][2]


def bpm_us(bpm: float) -> int:
    return int(round(60e6 / bpm))


# ---------------------------------------------------------------------------
# Scores


def make_song(
    rng: random.Random,
    name: str,
    bars: int,
    bpm: float,
    tempo_changes: tuple[float, ...] = (),
    with_intro: bool = False,
) -> Song:
    """A valid 4/4 song: bar-aligned sections, monophonic melody, lyric sheet.

    ``tempo_changes`` holds one tempo ratio per change; each change lands on
    a seeded bar line inside its own equal share of the song.
    """
    tempo = [(0, bpm_us(bpm))]
    for i, ratio in enumerate(tempo_changes):
        share = bars // (len(tempo_changes) + 1)
        bar = share * (i + 1) + rng.randint(-share // 4, share // 4)
        tempo.append((bar * BAR, bpm_us(bpm * ratio)))

    sections: list[tuple[str, int, int]] = []
    bar = 0
    if with_intro:
        sections.append(("intro", 0, 4 * BAR))
        bar = 4
    label = "verse"
    while bar < bars:
        length = min(rng.choice((4, 8, 8, 12, 16)), bars - bar)
        if bars - bar - length < 4:  # no stub section at the end
            length = bars - bar
        sections.append((label, bar * BAR, (bar + length) * BAR))
        bar += length
        label = rng.choice(SECTION_POOL)

    notes: list[tuple[int, int, int, str | None]] = []
    pitch = rng.randint(57, 69)
    for label, start, end in sections:
        if label in ("intro", "inst"):
            continue  # instrumental: no vocal notes
        tick = start
        while tick < end:
            dur = min(rng.choice((TPQ // 2, TPQ, TPQ, 2 * TPQ)), end - tick)
            if rng.random() < 0.85:
                pitch = max(48, min(76, pitch + rng.choice((-4, -2, -1, 0, 1, 2, 4, 5, -5))))
                syllable = rng.choice(SYLLABLES) if rng.random() < 0.8 else None
                notes.append((tick, dur, pitch, syllable))
            tick += dur

    lyrics = []
    for label, start, end in sections:
        if label in ("intro", "inst"):
            continue
        for _ in range(max(1, (end - start) // (4 * BAR))):
            k = rng.randint(3, 10)
            lyrics.append((label, tuple(rng.choice(WORDS) for _ in range(k))))
    return Song(name, tuple(tempo), tuple(sections), tuple(notes), tuple(lyrics))


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _meta(kind: int, payload: bytes) -> bytes:
    return bytes([0xFF, kind]) + _vlq(len(payload)) + payload


def smf_bytes(song: Song) -> bytes:
    """The song as a format-0 Standard MIDI File (480 ticks per quarter)."""
    events: list[tuple[int, int, bytes]] = [(0, 0, _meta(0x58, bytes([4, 2, 24, 8])))]
    for tick, us in song.tempo:
        events.append((tick, 0, _meta(0x51, us.to_bytes(3, "big"))))
    for label, start, _ in song.sections:
        events.append((start, 1, _meta(0x06, label.encode())))
    for onset, dur, pitch, syllable in song.notes:
        if syllable is not None:
            events.append((onset, 2, _meta(0x05, syllable.encode())))
        events.append((onset, 4, bytes([0x90, pitch, 0x40])))
        events.append((onset + dur, 3, bytes([0x80, pitch, 0x40])))
    events.append((song.end_tick, 5, _meta(0x2F, b"")))
    events.sort(key=lambda e: (e[0], e[1]))
    track = bytearray()
    last = 0
    for tick, _, payload in events:
        track += _vlq(tick - last) + payload
        last = tick
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, TPQ)
    return header + struct.pack(">4sI", b"MTrk", len(track)) + bytes(track)


def lyrics_text(lines) -> str:
    return "".join(f"[{tag}] {' '.join(tokens)}\n" for tag, tokens in lines)


def write(path: str, data: str | bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


# ---------------------------------------------------------------------------
# Workload input sets

#: song-long: the scale of the ROADMAP baseline, 160 bars at 100 BPM (384 s).
SONG_LONG_BARS = 160
SONG_LONG_BPM = 100.0

#: prepare-batch: (minutes, bpm, tempo ratios, starts with an intro).
BATCH_SHAPES = (
    (1.0, 112.0, (), True),
    (2.0, 96.0, (1.1,), False),
    (4.0, 120.0, (), False),
    (7.0, 88.0, (1.15, 0.95), False),
    (12.0, 104.0, (), True),
    (20.0, 100.0, (0.9,), False),
)
BANK_SIZE = 300


def song_long(rng: random.Random, directory: str) -> Song:
    song = make_song(rng, "song", SONG_LONG_BARS, SONG_LONG_BPM)
    write(os.path.join(directory, "song.mid"), smf_bytes(song))
    return song


def random_sheet(rng: random.Random) -> tuple[tuple[str, tuple[str, ...]], ...]:
    tags = ("verse", "chorus", "bridge", "intro", "outro")
    return tuple(
        (rng.choice(tags), tuple(rng.choice(WORDS) for _ in range(rng.randint(2, 12))))
        for _ in range(rng.randint(4, 60))
    )


def prepare_batch(rng: random.Random, directory: str) -> tuple[list[Song], list]:
    """Six scores with lyric sheets, and a bank of reference sheets."""
    songs = []
    for i, (minutes, bpm, ratios, intro) in enumerate(BATCH_SHAPES):
        bars = int(round(minutes * 60 * bpm / 240))
        song = make_song(rng, f"song{i}", bars, bpm, ratios, intro)
        write(os.path.join(directory, f"{song.name}.mid"), smf_bytes(song))
        write(os.path.join(directory, f"{song.name}.lyrics.txt"), lyrics_text(song.lyrics))
        songs.append(song)
    bank_dir = os.path.join(directory, "bank")
    os.makedirs(bank_dir, exist_ok=True)
    bank = [random_sheet(rng) for _ in range(BANK_SIZE)]
    for j, sheet in enumerate(bank):
        write(os.path.join(bank_dir, f"ref_{j:04d}.txt"), lyrics_text(sheet))
    return songs, bank


# ---------------------------------------------------------------------------
# Evaluation set: every file carries an answer known by construction.

#: Reference transcript lengths in tokens, after line deduplication.
PER_TOKENS = (500, 900, 1400, 2000)
BEATS_PER_LIST = 1500
CHROMA_PAIRS = 4
CHROMA_FRAMES = 15000
KEY_PAIRS = 4
KEYS_PER_LIST = 200
#: Seconds per beat of each reference beat list.
BEAT_STEPS = (0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75)
#: (song seconds, seconds per beat, silent gaps as (start, end) seconds)
#: for beat-grid rebuilds.
GAP_SONGS = ((120.0, 0.6, ((30.0, 42.0),)), (150.0, 0.48, ((20.0, 31.0), (90.0, 104.0))))
GAP_SAMPLE_RATE = 22050


@dataclass(frozen=True)
class PerCase:
    ref: str
    hyp: str
    tokens: int  # reference length after deduplication
    substitutions: int


@dataclass(frozen=True)
class MatchCase:
    ref: str
    est: str
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class BeatCase(MatchCase):
    down_tp: int
    down_fn: int


@dataclass(frozen=True)
class KeyCase:
    ref: str
    est: str
    hits: int
    total: int


@dataclass(frozen=True)
class GapCase:
    seconds: float
    gaps: tuple[tuple[float, float], ...]
    step: float  # seconds per beat of the known grid
    seed: int


@dataclass(frozen=True)
class EvalSet:
    per: list[PerCase]
    beats: list[BeatCase]
    chroma: list[MatchCase]
    keys: list[KeyCase]
    gaps: list[GapCase]


def _transcript(rng: random.Random, tokens: int) -> list[list[str]]:
    """Lines of 4-12 phonemes, no two consecutive lines equal."""
    lines: list[list[str]] = []
    left = tokens
    while left > 0:
        k = min(rng.randint(4, 12), left)
        line = [rng.choice(PHONEMES) for _ in range(k)]
        if lines and line == lines[-1]:
            continue
        lines.append(line)
        left -= k
    return lines


def _with_runs(lines: list[list[str]], shift: int) -> list[str]:
    """Text lines where every sixth line repeats 2-4 times in a row; the run
    lengths depend on the position and ``shift`` only."""
    out = []
    for i, line in enumerate(lines):
        out.extend([" ".join(line)] * (2 + (i + shift) % 3 if i % 6 == 3 else 1))
    return out


def _beat_text(times: list[float], down: set[int]) -> str:
    return "".join(f"{t:.6f}\t{1 if i in down else 2}\n" for i, t in enumerate(times))


def evaluate_set(rng: random.Random, directory: str) -> EvalSet:
    per = []
    for i, n in enumerate(PER_TOKENS):
        ref_lines = _transcript(rng, n)
        hyp_lines = [list(line) for line in ref_lines]
        positions = [(li, ti) for li, line in enumerate(ref_lines) for ti in range(len(line))]
        k = rng.randint(n // 20, n // 8)
        for s, (li, ti) in enumerate(rng.sample(positions, k)):
            hyp_lines[li][ti] = f"X{s}"
        ref, hyp = (os.path.join(directory, f"per{i}.{kind}.txt") for kind in ("ref", "hyp"))
        write(ref, "\n".join(_with_runs(ref_lines, 0)) + "\n")
        write(hyp, "\n".join(_with_runs(hyp_lines, 1)) + "\n")
        per.append(PerCase(ref, hyp, n, k))

    beats = []
    for i, step in enumerate(BEAT_STEPS):
        truth = [0.5 + j * step for j in range(BEATS_PER_LIST)]
        dropped = set(rng.sample(range(BEATS_PER_LIST), rng.randint(10, 60)))
        inserted = set(rng.sample(range(BEATS_PER_LIST - 1), rng.randint(10, 60)))
        est: list[tuple[float, bool]] = []
        for j, t in enumerate(truth):
            if j not in dropped:
                # jitter within half the 70 ms tolerance
                est.append((t + rng.uniform(-0.03, 0.03), j % 4 == 0))
            if j in inserted:  # midway between beats, far from any reference
                est.append((t + step / 2, False))
        ref_down = {j for j in range(BEATS_PER_LIST) if j % 4 == 0}
        ref, est_path = (os.path.join(directory, f"beats{i}.{kind}.txt") for kind in ("ref", "est"))
        write(ref, _beat_text(truth, ref_down))
        write(est_path, _beat_text([t for t, _ in est], {j for j, (_, d) in enumerate(est) if d}))
        tp = BEATS_PER_LIST - len(dropped)
        down_fn = len(ref_down & dropped)
        beats.append(BeatCase(ref, est_path, tp, len(inserted), len(dropped),
                              len(ref_down) - down_fn, down_fn))

    chroma = []
    for i in range(CHROMA_PAIRS):
        rows = []
        root, minor = 0, False
        for f in range(CHROMA_FRAMES):
            if f % 100 == 0:
                root, minor = rng.randrange(12), rng.random() < 0.5
            row = [0] * 12
            for pc in (root, root + (3 if minor else 4), root + 7):
                row[pc % 12] = 1
            rows.append(row)
        est_rows = [list(r) for r in rows]
        cells = rng.sample(range(CHROMA_FRAMES * 12), rng.randint(200, 2000))
        on = off = 0
        for c in cells:
            r, col = divmod(c, 12)
            est_rows[r][col] ^= 1
            if est_rows[r][col]:
                on += 1
            else:
                off += 1
        active = sum(map(sum, rows))
        ref, est_path = (os.path.join(directory, f"chroma{i}.{kind}.json") for kind in ("ref", "est"))
        write(ref, json.dumps({"chroma": rows}))
        write(est_path, json.dumps({"chroma": est_rows}))
        chroma.append(MatchCase(ref, est_path, active - off, on, off))

    keys = []
    for i in range(KEY_PAIRS):
        ref_keys = [(rng.randrange(12), rng.choice(("maj", "min"))) for _ in range(KEYS_PER_LIST)]
        wrong = set(rng.sample(range(KEYS_PER_LIST), rng.randint(1, KEYS_PER_LIST // 4)))
        est_keys = [
            ((t + rng.randint(1, 11)) % 12, m) if j in wrong else (t, m)
            for j, (t, m) in enumerate(ref_keys)
        ]
        ref, est_path = (os.path.join(directory, f"keys{i}.{kind}.txt") for kind in ("ref", "est"))
        for path, items in ((ref, ref_keys), (est_path, est_keys)):
            write(path, "".join(f"{PITCH_CLASS_NAMES[t]}:{m}\n" for t, m in items))
        keys.append(KeyCase(ref, est_path, KEYS_PER_LIST - len(wrong), KEYS_PER_LIST))

    gaps = [GapCase(seconds, gap_list, step, rng.randrange(2**31))
            for seconds, step, gap_list in GAP_SONGS]
    return EvalSet(per, beats, chroma, keys, gaps)


def gap_audio(case: GapCase):
    """Mono sine audio for a gap case, silent inside every gap."""
    import numpy as np

    t = np.arange(int(case.seconds * GAP_SAMPLE_RATE)) / GAP_SAMPLE_RATE
    audio = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    for a, b in case.gaps:
        audio[(t >= a) & (t < b)] = 0.0
    return audio


def gap_truth(case: GapCase) -> list[float]:
    return [i * case.step for i in range(int(math.floor(case.seconds / case.step)) + 1)]
