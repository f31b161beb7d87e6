"""Score serialization: Standard MIDI File subset and canonical JSON text.

The SMF subset covers exactly what a :class:`~songpipe.score.VocalScore`
holds: one merged note stream, tempo (meta 0x51), time signature (meta 0x58,
which must declare 4/4), section markers (meta 0x06), per-syllable lyrics
(meta 0x05) and end-of-track (meta 0x2F).  Files are written as format 0 with
a single track; both format 0 and format 1 are accepted on read, with format
1 tracks merged.

Marker text is the bare section label, or ``"label: prompt"`` when the
section carries a prompt, so section prompts survive a round trip.

The canonical text form is a small versioned JSON document (see
:func:`score_to_json`); it is the preferred on-disk format inside pipeline
working directories.

All malformed input is reported as :class:`ScoreFormatError`; the readers
never raise anything else, no matter what bytes they are fed.
"""
from __future__ import annotations

import json
import struct
from typing import Iterator

from .formats import read_document, read_file, typed, write_file
from .score import (
    DEFAULT_TEMPO_US,
    SECTION_LABELS,
    Note,
    Section,
    VocalScore,
    validate_score,
)

SCORE_JSON_FORMAT = "score"
SCORE_JSON_VERSION = 1

_MAX_VLQ_BYTES = 4


class ScoreFormatError(ValueError):
    """Raised for any malformed SMF or canonical-text score input."""


# ---------------------------------------------------------------------------
# Variable-length quantities


def _encode_vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError("vlq value must be non-negative")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    for i in range(_MAX_VLQ_BYTES):
        if pos >= len(data):
            raise ScoreFormatError("truncated variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise ScoreFormatError("variable-length quantity longer than 4 bytes")


# ---------------------------------------------------------------------------
# Writing


def write_smf(score: VocalScore) -> bytes:
    """Serialize a validated score as a format-0 Standard MIDI File."""
    problems = validate_score(score)
    if problems:
        raise ValueError("cannot write invalid score: " + "; ".join(problems))

    # Collect absolute-tick events, then emit with delta times.  Sort order at
    # equal ticks: meta events first, then note-offs before note-ons so that
    # back-to-back notes at the same pitch re-trigger cleanly.
    events: list[tuple[int, int, bytes]] = []

    def add(tick: int, rank: int, payload: bytes) -> None:
        events.append((tick, rank, payload))

    add(0, 0, bytes([0xFF, 0x58, 0x04, 4, 2, 24, 8]))  # 4/4, the only meter a valid score has
    for tick, tempo in score.tempo_map:
        add(tick, 0, bytes([0xFF, 0x51, 0x03]) + tempo.to_bytes(3, "big"))
    for sec in score.sections:
        text = sec.label if sec.prompt is None else f"{sec.label}: {sec.prompt}"
        add(sec.start_tick, 1, _meta(0x06, text))
    for note in score.notes:
        if note.syllable is not None:
            add(note.onset_tick, 2, _meta(0x05, note.syllable))
        add(note.onset_tick, 4, bytes([0x90, note.pitch, 0x40]))
        add(note.end_tick, 3, bytes([0x80, note.pitch, 0x40]))
    add(score.end_tick, 5, bytes([0xFF, 0x2F, 0x00]))

    events.sort(key=lambda e: (e[0], e[1]))
    track = bytearray()
    last_tick = 0
    for tick, _, payload in events:
        track += _encode_vlq(tick - last_tick)
        track += payload
        last_tick = tick

    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, score.ticks_per_quarter)
    return header + struct.pack(">4sI", b"MTrk", len(track)) + bytes(track)


def _meta(kind: int, text: str) -> bytes:
    data = text.encode("utf-8")
    return bytes([0xFF, kind]) + _encode_vlq(len(data)) + data


# ---------------------------------------------------------------------------
# Reading


def read_smf(data: bytes) -> VocalScore:
    """Parse an SMF byte string into a validated :class:`VocalScore`.

    Accepts format 0 and format 1 (tracks merged).  Raises
    :class:`ScoreFormatError` on anything outside the supported subset:
    SMPTE divisions, meters other than 4/4, unmatched note-ons/offs,
    zero-duration notes, overlapping notes, unknown section labels.
    """
    if len(data) < 14:
        raise ScoreFormatError("file too short for MThd header")
    magic, length, fmt, ntrks, division = struct.unpack(">4sIHHH", data[:14])
    if magic != b"MThd":
        raise ScoreFormatError("missing MThd header")
    if length != 6:
        raise ScoreFormatError(f"unexpected MThd length {length}")
    if fmt not in (0, 1):
        raise ScoreFormatError(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise ScoreFormatError("SMPTE time division is not supported")
    if division == 0:
        raise ScoreFormatError("time division must be positive")
    if ntrks == 0:
        raise ScoreFormatError("file declares zero tracks")

    pos = 14
    merged: list[tuple[int, int, tuple]] = []  # (tick, seq, event)
    seq = 0
    for _ in range(ntrks):
        if pos + 8 > len(data):
            raise ScoreFormatError("truncated track header")
        tag, tlen = struct.unpack(">4sI", data[pos : pos + 8])
        if tag != b"MTrk":
            raise ScoreFormatError(f"expected MTrk chunk, got {tag!r}")
        pos += 8
        if pos + tlen > len(data):
            raise ScoreFormatError("track length runs past end of file")
        for tick, event in _parse_track(data[pos : pos + tlen]):
            merged.append((tick, seq, event))
            seq += 1
        pos += tlen

    merged.sort(key=lambda e: (e[0], e[1]))
    return _assemble_score(merged, division)


def _parse_track(chunk: bytes) -> Iterator[tuple[int, tuple]]:
    """Yield ``(tick, event)`` pairs from one MTrk chunk body.

    Events are small tuples: ``("on", pitch)``, ``("off", pitch)``,
    ``("tempo", us)``, ``("timesig", nn, dd)``, ``("marker", text)``,
    ``("lyric", text)``, ``("eot",)``.  Unrecognized channel messages are
    skipped; running status is honoured.
    """
    pos = 0
    tick = 0
    running: int | None = None
    while pos < len(chunk):
        delta, pos = _read_vlq(chunk, pos)
        tick += delta
        if pos >= len(chunk):
            raise ScoreFormatError("event missing after delta time")
        status = chunk[pos]
        if status == 0xFF:
            pos += 1
            if pos >= len(chunk):
                raise ScoreFormatError("truncated meta event")
            kind = chunk[pos]
            pos += 1
            length, pos = _read_vlq(chunk, pos)
            if pos + length > len(chunk):
                raise ScoreFormatError("meta event runs past end of track")
            payload = chunk[pos : pos + length]
            pos += length
            if kind == 0x51:
                if length != 3:
                    raise ScoreFormatError("tempo meta event must carry 3 bytes")
                yield tick, ("tempo", int.from_bytes(payload, "big"))
            elif kind == 0x58:
                if length != 4:
                    raise ScoreFormatError("time-signature meta event must carry 4 bytes")
                yield tick, ("timesig", payload[0], 1 << payload[1])
            elif kind == 0x06:
                yield tick, ("marker", _decode_text(payload))
            elif kind == 0x05:
                yield tick, ("lyric", _decode_text(payload))
            elif kind == 0x2F:
                yield tick, ("eot",)
                return
            # other meta kinds are carried by real-world files; ignore them
            running = None
        elif status in (0xF0, 0xF7):  # sysex: length-prefixed, skipped
            pos += 1
            length, pos = _read_vlq(chunk, pos)
            if pos + length > len(chunk):
                raise ScoreFormatError("sysex event runs past end of track")
            pos += length
            running = None
        else:
            if status & 0x80:
                pos += 1
                running = status
            elif running is None:
                raise ScoreFormatError(f"data byte {status:#04x} without running status")
            else:
                status = running
            kind = status & 0xF0
            n_data = 1 if kind in (0xC0, 0xD0) else 2
            if pos + n_data > len(chunk):
                raise ScoreFormatError("truncated channel message")
            d = chunk[pos : pos + n_data]
            pos += n_data
            if any(b & 0x80 for b in d):
                raise ScoreFormatError("channel message data byte has high bit set")
            if kind == 0x90 and d[1] > 0:
                yield tick, ("on", d[0])
            elif kind == 0x80 or (kind == 0x90 and d[1] == 0):
                yield tick, ("off", d[0])
            # other channel messages (aftertouch, CC, program...) are skipped
    raise ScoreFormatError("track ends without end-of-track meta event")


def _decode_text(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        return payload.decode("latin-1")


def _assemble_score(events: list[tuple[int, int, tuple]], division: int) -> VocalScore:
    tempo_map: list[tuple[int, int]] = []
    notes: list[Note] = []
    markers: list[tuple[int, str, str | None]] = []
    lyrics: dict[int, str] = {}
    open_notes: dict[int, int] = {}  # pitch -> onset tick
    end_tick = 0

    for tick, _, event in events:
        end_tick = max(end_tick, tick)
        kind = event[0]
        if kind == "tempo":
            if tempo_map and tempo_map[-1][0] == tick:
                tempo_map[-1] = (tick, event[1])
            else:
                tempo_map.append((tick, event[1]))
        elif kind == "timesig" and event[1:] != (4, 4):
            raise ScoreFormatError(
                f"only 4/4 meter is supported, file declares {event[1]}/{event[2]}")
        elif kind == "marker":
            label, _, prompt = event[1].partition(":")
            label = label.strip()
            if label not in SECTION_LABELS:
                raise ScoreFormatError(f"unknown section label: {label!r}")
            markers.append((tick, label, prompt.strip() or None if prompt else None))
        elif kind == "lyric":
            lyrics[tick] = event[1]
        elif kind == "on":
            pitch = event[1]
            if pitch in open_notes:
                raise ScoreFormatError(
                    f"note-on for pitch {pitch} at tick {tick} while already sounding"
                )
            open_notes[pitch] = tick
        elif kind == "off":
            pitch = event[1]
            if pitch not in open_notes:
                raise ScoreFormatError(f"note-off for pitch {pitch} without a note-on")
            onset = open_notes.pop(pitch)
            if tick <= onset:
                raise ScoreFormatError(f"zero-duration note at tick {onset}")
            notes.append(Note(onset, tick - onset, pitch, lyrics.get(onset)))

    if open_notes:
        pitch = sorted(open_notes)[0]
        raise ScoreFormatError(f"unmatched note-on for pitch {pitch}")

    notes.sort(key=lambda n: n.onset_tick)
    if not tempo_map:
        tempo_map = [(0, DEFAULT_TEMPO_US)]
    elif tempo_map[0][0] != 0:
        tempo_map.insert(0, (0, DEFAULT_TEMPO_US))

    sections = []
    for i, (tick, label, prompt) in enumerate(markers):
        close = markers[i + 1][0] if i + 1 < len(markers) else end_tick
        if close <= tick:
            raise ScoreFormatError(f"section marker at tick {tick} opens an empty section")
        sections.append(Section(label, tick, close, prompt))

    score = VocalScore(
        notes=tuple(notes),
        tempo_map=tuple(tempo_map),
        ticks_per_quarter=division,
        sections=tuple(sections),
    )
    problems = validate_score(score)
    if problems:
        raise ScoreFormatError("decoded score is invalid: " + "; ".join(problems))
    return score


# ---------------------------------------------------------------------------
# Canonical JSON text format


def score_to_json(score: VocalScore) -> str:
    """Serialize a score as the canonical versioned JSON document."""
    doc = {
        "format": SCORE_JSON_FORMAT,
        "version": SCORE_JSON_VERSION,
        "title": score.title,
        "ticks_per_quarter": score.ticks_per_quarter,
        "time_signature": [4, 4],  # the only meter a score has
        "tempo_map": [[t, u] for t, u in score.tempo_map],
        "sections": [
            {
                "label": s.label,
                "start_tick": s.start_tick,
                "end_tick": s.end_tick,
                "prompt": s.prompt,
            }
            for s in score.sections
        ],
        "notes": [
            {
                "onset_tick": n.onset_tick,
                "duration_ticks": n.duration_ticks,
                "pitch": n.pitch,
                "syllable": n.syllable,
            }
            for n in score.notes
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def score_from_json(text: str | bytes) -> VocalScore:
    """Parse the canonical JSON document, raising :class:`ScoreFormatError` on bad input."""
    score = read_document(text, SCORE_JSON_FORMAT, SCORE_JSON_VERSION, _score_from_doc,
                          ScoreFormatError)
    problems = validate_score(score)
    if problems:
        raise ScoreFormatError("score document is invalid: " + "; ".join(problems))
    return score


def _score_from_doc(doc: dict) -> VocalScore:
    if doc["time_signature"] != [4, 4]:
        raise ValueError(f"time signature must be 4/4, got {doc['time_signature']!r}")
    return VocalScore(
        notes=tuple(
            Note(
                typed(n["onset_tick"], int, "onset_tick"),
                typed(n["duration_ticks"], int, "duration_ticks"),
                typed(n["pitch"], int, "pitch"),
                _opt_str(n.get("syllable")),
            )
            for n in doc["notes"]
        ),
        tempo_map=tuple((typed(t, int, "tempo_map tick"), typed(u, int, "tempo_map tempo"))
                        for t, u in doc["tempo_map"]),
        ticks_per_quarter=typed(doc["ticks_per_quarter"], int, "ticks_per_quarter"),
        sections=tuple(
            Section(
                typed(s["label"], str, "section label"),
                typed(s["start_tick"], int, "start_tick"),
                typed(s["end_tick"], int, "end_tick"),
                _opt_str(s.get("prompt")),
            )
            for s in doc["sections"]
        ),
        title=typed(doc.get("title", ""), str, "title"),
    )


def _opt_str(value) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ScoreFormatError(f"expected string or null, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# Path-level helpers


def load_score(path) -> VocalScore:
    """Read a score from ``path``, choosing the codec by content sniffing.

    Files starting with ``MThd`` parse as SMF; anything else is treated as the
    canonical JSON text.  A format error names ``path``.
    """
    return read_file(path, lambda data: read_smf(data) if data[:4] == b"MThd"
                     else score_from_json(data), ScoreFormatError, "rb")


def save_score(score: VocalScore, path) -> None:
    """Write a score to ``path``; ``.mid``/``.midi`` selects SMF, else JSON.

    The file replaces ``path`` whole or not at all (see :func:`formats.write_file`).
    """
    midi = str(path).lower().endswith((".mid", ".midi"))
    write_file(path, write_smf(score) if midi else score_to_json(score))
