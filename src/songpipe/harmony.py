"""Bar-level melody harmonization over the 24 major/minor triads.

One chord is chosen per 4/4 bar by Viterbi dynamic programming.  The
emission score of a chord for a bar is the duration-weighted fraction of the
bar's melody pitch classes that fall inside the chord's triad (0 for an
all-rest bar); the transition score between consecutive bars rewards shared
triad tones and charges a flat penalty for changing chords:

    transition(c1, c2) = transition_weight * |tones(c1) & tones(c2)|
                         - chord_change_penalty * [c1 != c2]

Score ties are broken toward the lower chord index; chords are indexed by
root C..B with major before minor at each root, so the ordering is
C:maj, C:min, C#:maj, ... B:min.  With the default weights an all-rest bar
holds the previous bar's chord, because staying put keeps all three common
tones and avoids the change penalty.

The harmonize stage's song (:func:`harmonize_song`: an optional intro, and
one chord span per bar timed by the song's own tempo map) and the condition
stage's section keys (:func:`section_keys`) are built here too.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import metrics
from .conditioning import ChordSequence, ChordSpan, KeyLabel, triad_pitch_classes
from .score import VocalScore, prepend_instrumental, tick_to_seconds

#: All 24 candidate chords in tie-break order.
CHORDS: tuple[tuple[int, str], ...] = tuple(
    (root, quality) for root in range(12) for quality in ("maj", "min")
)

NUM_CHORDS = len(CHORDS)

#: Row ``c`` is 1 on the triad tones of ``CHORDS[c]``, shape (24, 12).
_TRIADS = np.array([[pc in triad_pitch_classes(r, q) for pc in range(12)] for r, q in CHORDS],
                   dtype=float)

#: Default ``intro_bars``: the bars of instrumental lead-in :func:`harmonize_song` prepends.
DEFAULT_INTRO_BARS = 4


@dataclass(frozen=True)
class HarmonizerWeights:
    """Scoring weights for the harmonizer DP."""

    emission_weight: float = 1.0
    transition_weight: float = 0.1
    chord_change_penalty: float = 0.05

    def __post_init__(self) -> None:
        for name in ("emission_weight", "transition_weight", "chord_change_penalty"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and non-negative, got {value}")


def chord_index(root: int, quality: str) -> int:
    """Index of a chord in the canonical tie-break ordering."""
    if not 0 <= root <= 11:
        raise ValueError(f"chord root must be in [0, 11], got {root}")
    if quality not in ("maj", "min"):
        raise ValueError(f"chord quality must be 'maj' or 'min', got {quality!r}")
    return root * 2 + (0 if quality == "maj" else 1)


def bar_pitch_class_weights(score: VocalScore) -> np.ndarray:
    """Per-bar pitch-class tick totals, shape (num_bars, 12).

    A note straddling a bar line contributes its overlap ticks to each bar it
    touches.
    """
    n_bars = score.num_bars
    weights = np.zeros((n_bars, 12))
    bar_len = score.ticks_per_bar
    for note in score.notes:
        first = note.onset_tick // bar_len
        last = (note.end_tick - 1) // bar_len
        for bar in range(first, last + 1):
            lo = max(note.onset_tick, bar * bar_len)
            hi = min(note.end_tick, (bar + 1) * bar_len)
            if hi > lo:
                weights[bar, note.pitch % 12] += hi - lo
    return weights


def emission_matrix(bar_weights: np.ndarray) -> np.ndarray:
    """Emission scores, shape (num_bars, 24): in-triad duration fractions.

    The in-triad sums are exact in any summation order, because bar weights
    are whole tick counts.
    """
    totals = bar_weights.sum(axis=1, keepdims=True)
    in_triad = bar_weights @ _TRIADS.T
    return np.divide(in_triad, totals, out=np.zeros_like(in_triad), where=totals > 0)


def transition_matrix(weights: HarmonizerWeights) -> np.ndarray:
    """Transition scores between all chord pairs, shape (24, 24)."""
    common = _TRIADS @ _TRIADS.T
    change = 1.0 - np.eye(NUM_CHORDS)
    return weights.transition_weight * common - weights.chord_change_penalty * change


def harmonize(
    score: VocalScore, weights: HarmonizerWeights | None = None
) -> ChordSequence:
    """Choose one chord per bar by Viterbi DP and return timed chord spans.

    The returned sequence has exactly one entry per bar (adjacent bars may
    repeat the same chord), with boundaries converted to seconds through the
    score's tempo map.
    """
    if weights is None:
        weights = HarmonizerWeights()
    n_bars = score.num_bars
    if n_bars == 0:
        raise ValueError("score is empty; nothing to harmonize")
    emis = weights.emission_weight * emission_matrix(bar_pitch_class_weights(score))
    path = viterbi_path(emis, transition_matrix(weights))
    return _bar_chords(score, [CHORDS[c] for c in path])


def _bar_chords(score: VocalScore, bars: Sequence[tuple[int, str]]) -> ChordSequence:
    """Chord ``bars[b]``, a ``(root, quality)`` pair, over bar ``b`` of ``score``; a bar
    that collapses to zero seconds (a final partial bar on a pathological map) has none."""
    bar_len, end_tick = score.ticks_per_bar, score.end_tick
    edges = [tick_to_seconds(score, min(b * bar_len, end_tick)) for b in range(len(bars) + 1)]
    return ChordSequence(tuple(ChordSpan(start, end, *chord) for start, end, chord
                               in zip(edges, edges[1:], bars) if end > start))


def viterbi_path(emissions: np.ndarray, transitions: np.ndarray) -> list[int]:
    """Best-scoring chord index per step; ties resolve to the lowest index.

    ``emissions`` is (steps, states), ``transitions`` (states, states).  The
    path maximizes ``sum(emissions[t, path[t]]) + sum(transitions[path[t-1],
    path[t]])``.  Tie-breaking is deterministic: the final state takes the
    lowest optimal index, then each predecessor the lowest index consistent
    with the chosen suffix.
    """
    steps, states = emissions.shape
    if steps == 0:
        return []
    # delta[s] = best total score of any path ending in state s.
    delta = emissions[0].copy()
    back = np.zeros((steps, states), dtype=np.int64)
    for t in range(1, steps):
        cand = delta[:, None] + transitions  # (prev, cur)
        # argmax returns the first (lowest) index on ties, which combined
        # with the final backward pass yields the lexicographically smallest
        # optimal path.
        best_prev = cand.argmax(axis=0)
        delta = cand[best_prev, np.arange(states)] + emissions[t]
        back[t] = best_prev
    path = [int(delta.argmax())]
    for t in range(steps - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path


def path_score(
    path: list[int], emissions: np.ndarray, transitions: np.ndarray
) -> float:
    """Total DP objective of a chord path (emissions plus transitions)."""
    total = sum(emissions[t, c] for t, c in enumerate(path))
    total += sum(
        transitions[path[t - 1], path[t]] for t in range(1, len(path))
    )
    return float(total)


def harmonize_song(score: VocalScore, intro_bars: int) -> tuple[VocalScore, ChordSequence]:
    """The song to accompany and its chords, one span per bar of the song.

    An instrumental intro of ``intro_bars`` bars is prepended only when the
    score has no ``intro`` section and ``0 < intro_bars <= score.num_bars``;
    otherwise ``score`` itself and :func:`harmonize`'s chords are returned.
    Song bar ``b`` carries score bar ``b``'s chord while ``b < intro_bars`` and
    score bar ``b - intro_bars``'s after that; the intro runs at tick 0's tempo.
    """
    chords = harmonize(score)
    # Chord i is score bar i's: only a collapsed final bar can be missing.
    if any(s.label == "intro" for s in score.sections) or not 0 < intro_bars <= len(chords):
        return score, chords
    bars = [(c.root, c.quality) for c in chords]
    song = prepend_instrumental(score, intro_bars)
    return song, _bar_chords(song, bars[:intro_bars] + bars)


def section_key_estimates(score: VocalScore) -> list[tuple[int, KeyLabel]]:
    """Per-section key labels from duration-weighted pitch-class histograms.

    Sections without any notes (instrumental intros, breaks) fall back to
    the whole-score histogram.
    """
    on, off, pc = np.array([(n.onset_tick, n.end_tick, n.pitch % 12) for n in score.notes],
                           dtype=np.int64).reshape(-1, 3).T
    # Tick overlaps are integers, so these float64 sums are exact in any order.
    per_section = np.array([np.bincount(
        pc, np.maximum(np.minimum(off, s.end_tick) - np.maximum(on, s.start_tick), 0), minlength=12
    ) for s in score.sections]).reshape(-1, 12)
    overall = per_section.sum(axis=0)
    if not overall.any():
        raise ValueError("score has no notes; cannot estimate keys")
    keys = []
    for i in range(len(score.sections)):
        hist = per_section[i] if per_section[i].any() else overall
        keys.append((i, metrics.estimate_key(hist[None, :])))
    return keys


def section_keys(score: VocalScore, labels: Sequence[str] | None) -> list[tuple[int, KeyLabel]]:
    """One key per section: ``labels`` parsed in section order, or estimated if None."""
    if labels is None:
        return section_key_estimates(score)
    if len(labels) != len(score.sections):
        raise ValueError(f"{len(labels)} section keys given for {len(score.sections)} sections")
    return [(i, KeyLabel.parse(k)) for i, k in enumerate(labels)]
