"""Shared builders for test scores, lyric sheets, buffers and PCM-16 WAVs."""
from __future__ import annotations

import io
import random
import wave

import numpy as np

from songpipe.render import AudioBuffer
from songpipe.prep import SheetShape
from songpipe.score import SECTION_LABELS, Note, Section, VocalScore


def bpm_to_us(bpm: float) -> int:
    return int(round(60e6 / bpm))


def simple_score(
    pitches,
    bpm: float = 120.0,
    tpq: int = 480,
    note_ticks: int = 480,
    labels: tuple[str, ...] | None = None,
    syllables: bool = False,
) -> VocalScore:
    """A constant-tempo score with one note per quarter from tick 0.

    Sections default to a single verse covering everything; pass ``labels``
    to split the span evenly into that many labelled sections (bar-aligned
    only when the note count cooperates).
    """
    notes = tuple(
        Note(i * note_ticks, note_ticks, p, f"la{i}" if syllables else None)
        for i, p in enumerate(pitches)
    )
    end = max(len(pitches) * note_ticks, 4 * tpq)
    if labels is None:
        sections = (Section("verse", 0, end),)
    else:
        edges = [round(end * i / len(labels)) for i in range(len(labels) + 1)]
        sections = tuple(
            Section(lab, edges[i], edges[i + 1]) for i, lab in enumerate(labels)
        )
    return VocalScore(
        notes=notes,
        tempo_map=((0, bpm_to_us(bpm)),),
        ticks_per_quarter=tpq,
        sections=sections,
    )


def random_score(
    rng: random.Random,
    min_bars: int = 2,
    max_bars: int = 8,
    min_bpm: float = 60.0,
    max_bpm: float = 160.0,
    with_intro: bool | None = None,
    with_syllables: bool = True,
    multi_tempo: bool = False,
) -> VocalScore:
    """A valid random score: bar-aligned sections, monophonic melody."""
    tpq = 480
    bar = 4 * tpq
    n_bars = rng.randint(min_bars, max_bars)
    bpm = rng.uniform(min_bpm, max_bpm)

    # Partition bars into sections; always include at least one verse.
    labels = []
    if with_intro is None:
        with_intro = rng.random() < 0.5
    if with_intro:
        labels.append("intro")
    labels.append("verse")
    pool = ("verse", "chorus", "bridge", "inst", "outro")
    while len(labels) < min(4, n_bars):
        labels.append(rng.choice(pool))
    cuts = sorted(rng.sample(range(1, n_bars), len(labels) - 1)) if len(labels) > 1 else []
    edges = [0] + cuts + [n_bars]
    sections = tuple(
        Section(lab, edges[i] * bar, edges[i + 1] * bar)
        for i, lab in enumerate(labels)
    )

    notes = []
    pitch = rng.randint(55, 72)
    tick = sections[1].start_tick if with_intro else 0
    idx = 0
    while tick < n_bars * bar - 1:
        dur = rng.choice((tpq // 2, tpq, tpq, 2 * tpq))
        dur = min(dur, n_bars * bar - tick)
        if rng.random() < 0.85:  # note, else rest
            pitch = max(40, min(84, pitch + rng.choice((-4, -2, -1, 0, 1, 2, 4, 5, -5))))
            syllable = None
            if with_syllables and rng.random() < 0.8:
                syllable = rng.choice(("la", "li", "lu", "sol", "mi", "ya"))
            notes.append(Note(tick, dur, pitch, syllable))
            idx += 1
        tick += dur

    tempo_map = [(0, bpm_to_us(bpm))]
    if multi_tempo and n_bars > 2:
        change_tick = rng.randint(1, n_bars * bar - 1)
        tempo_map.append((change_tick, bpm_to_us(rng.uniform(min_bpm, max_bpm))))

    return VocalScore(
        notes=tuple(notes),
        tempo_map=tuple(tempo_map),
        ticks_per_quarter=tpq,
        sections=sections,
    )


def random_sheet(rng: random.Random, max_lines: int = 8) -> SheetShape:
    tags = ("verse", "chorus", "bridge", "intro", "outro")
    n = rng.randint(1, max_lines)
    counts, tag_ids = [], []
    for _ in range(n):
        k = rng.randint(1, 9)
        for _ in range(k):  # draw each token as before, so a seed keeps its shapes
            rng.choice("abcdefg")
            rng.randint(1, 3)
        counts.append(k)
        tag_ids.append(SECTION_LABELS.index(rng.choice(tags)))
    return SheetShape(tuple(counts), tuple(tag_ids))


def random_buffer(rng: random.Random, max_samples: int = 4000) -> "np.ndarray":
    channels = rng.choice((1, 2))
    n = rng.randint(1, max_samples)
    # float32-representable values so the float-32 WAV round trip is bit-exact
    data = np.asarray(
        [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(channels)],
        dtype=np.float32,
    ).astype(float)
    return data


def pcm16_wav_bytes(buffer: AudioBuffer) -> bytes:
    """A PCM-16 WAV of ``buffer``, written by the standard library's ``wave``.

    Each sample is scaled by 32768, rounded and clipped to 16 bits, so songpipe's
    reader is tested against a writer that is not its own.
    """
    frames = np.clip(np.round(buffer.samples.T * 32768.0), -32768, 32767).astype("<i2")
    out = io.BytesIO()
    with wave.open(out, "wb") as wav:
        wav.setnchannels(buffer.channels)
        wav.setsampwidth(2)
        wav.setframerate(buffer.sample_rate)
        wav.writeframes(frames.tobytes())
    return out.getvalue()
