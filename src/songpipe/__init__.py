"""songpipe: deterministic symbolic backbone for compositional song generation.

The package models monophonic vocal scores, derives the time-varying
conditioning signals an accompaniment generator consumes (beat/downbeat
activation, chord chromagrams, keys, structure, pitch contour), plans
bounded generation windows, harmonizes melodies, renders a deterministic
stand-in accompaniment for closed-loop testing, and evaluates the results.
"""
from .beatgrid import BeatGrid, VoicedSegment, detect_voiced_segments, interpolate_beats
from .conditioning import (
    ChordSequence,
    ChordSpan,
    ConditionBundle,
    KeyLabel,
    build_condition_bundle,
)
from .harmony import HarmonizerWeights, harmonize
from .metrics import MatchReport, chord_f1, dedup_lines, estimate_key, key_accuracy, per, rhythm_f1
from .planner import GenerationWindow, TrainingSlice, plan_inference, plan_training_slices
from .prep import (
    PenaltyBreakdown,
    RegisterDecision,
    SingerProfile,
    apply_transpose,
    penalty_score,
    register_match,
    select_reference,
)
from .render import AudioBuffer, mix, read_wav, render_stub, write_wav
from .score import LyricsSheet, Note, Section, VocalScore, tick_to_seconds, validate_score
from .score_io import ScoreFormatError, load_score, read_smf, save_score, write_smf

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "BeatGrid",
    "ChordSequence",
    "ChordSpan",
    "ConditionBundle",
    "GenerationWindow",
    "HarmonizerWeights",
    "KeyLabel",
    "LyricsSheet",
    "MatchReport",
    "Note",
    "PenaltyBreakdown",
    "RegisterDecision",
    "ScoreFormatError",
    "Section",
    "SingerProfile",
    "TrainingSlice",
    "VocalScore",
    "VoicedSegment",
    "apply_transpose",
    "build_condition_bundle",
    "chord_f1",
    "dedup_lines",
    "detect_voiced_segments",
    "estimate_key",
    "harmonize",
    "interpolate_beats",
    "key_accuracy",
    "load_score",
    "mix",
    "penalty_score",
    "per",
    "plan_inference",
    "plan_training_slices",
    "read_smf",
    "read_wav",
    "register_match",
    "render_stub",
    "rhythm_f1",
    "save_score",
    "select_reference",
    "tick_to_seconds",
    "validate_score",
    "write_smf",
    "write_wav",
]
