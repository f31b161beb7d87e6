"""Command-line interface and pipeline orchestration.

``songpipe run`` drives the full deterministic chain

    load -> validate -> register -> harmonize -> condition -> plan
         -> render -> mix -> report

writing the stages' artifacts into the output directory, with a manifest
describing everything produced.  Every stage reads only on-disk artifacts
from earlier stages, so any intermediate file can be edited by hand and the
pipeline resumed from that point (``--from STAGE``) without touching what
came before.

The remaining subcommands expose the individual stages over explicit files:
``validate``, ``harmonize``, ``register``, ``condition``, ``plan``,
``render``, ``mix`` and ``eval``.
"""
from __future__ import annotations

import argparse
import contextvars
import json
import logging
import math
import os
import sys
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import beatgrid, conditioning, harmony, metrics, planner, prep, render, score_io
from .conditioning import ChordSequence, KeyLabel
from .formats import content_lines, file_sha256, json_text, read_file, write_file
from .harmony import harmonize_song, section_keys
from .metrics import self_report
from .prep import DEFAULT_PROFILES, SingerProfile
from .render import render_windows
from .score import VocalScore

LOGGER = logging.getLogger(__name__)

MANIFEST_FORMAT = "manifest"
MANIFEST_VERSION = 1


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _exactly(kind: type):
    """A parser that passes a JSON value of type ``kind`` (not a subtype) through."""
    def check(name: str, value):
        if type(value) is not kind:
            raise TypeError(f"expected a JSON {kind.__name__}")
        return value
    return check


def _optional_path(name: str, value) -> str | None:
    # open() takes an int as a file descriptor, so a number here is refused.
    if value is not None and not isinstance(value, str):
        raise TypeError("expected a path or null")
    return value


def _profiles(name: str, value) -> tuple[SingerProfile, ...]:
    """Singer profiles, each a :class:`SingerProfile` or a JSON object of its fields."""
    if type(value) not in (list, tuple):
        raise TypeError("expected a JSON list")
    if not value:
        raise ValueError(f"{name} must hold at least one profile, got {value!r}")
    text, pitch = _exactly(str), _exactly(int)
    return tuple(p if type(p) is SingerProfile else SingerProfile(
        text(name, p["name"]), pitch(name, p["low"]), pitch(name, p["high"])) for p in value)


def _number(*rules: tuple, kind: type = float):
    """A parser of a JSON number, returned as ``kind``, that passes each ``(test, rule)``.

    ``test`` sees the number as a float (NaN for an int beyond the float range)
    and ``rule`` words it.  Strings and booleans are refused.
    """
    def parse(name: str, value):
        if type(value) not in (int, float):
            raise TypeError("expected a JSON number")
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
        for test, rule in rules:
            if not test(number):
                raise ValueError(f"{name} must {rule}, got {value}")
        return kind(value)
    return parse


_WHOLE = (float.is_integer, "be a whole number")


def _section_keys(name: str, keys) -> tuple[str, ...] | None:
    """One key name per section, such as ``"C:maj"``; None or empty means estimated keys."""
    if keys is not None and not (
        isinstance(keys, (list, tuple)) and all(isinstance(k, str) for k in keys)
    ):
        raise ValueError(f'{name} must be a list of key names such as "C:maj", got {keys!r}')
    return tuple(keys) if keys else None


def _field(parse, default=MISSING, flag: str | None = None):
    """A config field whose every value goes through ``parse(name, value)``; ``flag`` sets it."""
    return field(default=default, metadata={"parse": parse, "flag": flag})


@dataclass(frozen=True)
class PipelineConfig:
    """Everything ``run`` needs; file paths plus all tunable parameters."""

    score_path: str = _field(_exactly(str))
    output_dir: str = _field(_exactly(str))
    vocal_path: str | None = _field(_optional_path, None)
    lyrics_path: str | None = _field(_optional_path, None)
    reference_bank: str | None = _field(_optional_path, None)
    reject_fewer_lines: bool = _field(_exactly(bool), False)
    profiles: tuple[SingerProfile, ...] = _field(_profiles, DEFAULT_PROFILES)
    frame_rate: float = _field(_number((lambda x: 0.0 < x < math.inf, "be finite and > 0 fps")),
                               conditioning.DEFAULT_FRAME_RATE, "--frame-rate")
    sigma: float = _field(_number(
        (lambda x: 0.0 < x < math.inf, "be finite and > 0 s"),
        (lambda x: 2.0 * x * x > 0.0,  # rhythm_activation divides by 2*sigma*sigma
         "be > 2**-538 s (about 1.1e-162 s) so that 2*sigma*sigma > 0"),
    ), conditioning.DEFAULT_SIGMA, "--sigma")
    max_window_sec: float = _field(_number((lambda x: 0.0 < x <= planner.MAX_WINDOW_SEC,
                                            f"be > 0 and at most {planner.MAX_WINDOW_SEC} s")),
                                   planner.MAX_WINDOW_SEC, "--max-window")
    intro_bars: int = _field(_number((lambda x: x >= 0.0, "be >= 0"), _WHOLE, kind=int),
                             harmony.DEFAULT_INTRO_BARS, "--intro-bars")
    sample_rate: int = _field(
        _number((lambda x: 1.0 <= x < math.inf, "be finite and >= 1 Hz"), _WHOLE, kind=int),
        render.DEFAULT_SAMPLE_RATE, "--sample-rate")
    seed: int = _field(_exactly(int), 0)
    section_keys: tuple[str, ...] | None = _field(_section_keys, None)

    def __post_init__(self) -> None:
        # A config built in code passes the same checks as a config file.
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, f.metadata["parse"](f.name, value))
            except (TypeError, KeyError) as exc:
                raise ValueError(f"config key {f.name!r} cannot be {value!r} "
                                 f"({type(exc).__name__}: {exc})") from exc

    def to_manifest_dict(self, input_hashes: dict) -> dict:
        # output_dir is omitted and input paths are reduced to their base
        # names, so the same song run from any directory or checkout gives the
        # same bytes; the input files are identified by ``input_hashes``
        # (``score_sha256``, ``vocal_sha256``, ``lyrics_sha256``) instead.
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output_dir"}
        for name in ("score_path", "vocal_path", "lyrics_path", "reference_bank"):
            if doc[name] is not None:
                doc[name] = os.path.basename(os.path.normpath(doc[name]))
        doc.update(input_hashes)
        doc["profiles"] = [asdict(p) for p in self.profiles]
        return doc


def config_from_json(text: str, output_dir: str | None = None) -> PipelineConfig:
    """The config a JSON object describes; keys it leaves out keep their defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "score_path" not in doc:
        raise ValueError("config is missing 'score_path'")
    if output_dir or doc.get("output_dir", "") == "":
        doc["output_dir"] = output_dir or "songpipe_out"
    return PipelineConfig(**doc)


def _add_flag(parser: argparse.ArgumentParser, name: str, **kwargs) -> None:
    """Add config field ``name``'s flag, by default with the field's default.

    Its text is read as a number (an int if it is one) for the field's parser.
    """
    f = next(f for f in fields(PipelineConfig) if f.name == name)

    def number(text: str):
        try:
            value = int(text)
        except ValueError:
            value = float(text)  # a ValueError here is argparse's "invalid number value"
        try:
            return f.metadata["parse"](name, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    kwargs.setdefault("default", f.default)
    parser.add_argument(f.metadata["flag"], type=number, **kwargs)


# ---------------------------------------------------------------------------
# Pipeline stages.  Each core is given the earlier artifacts its row of
# _STAGE_TABLE names and returns the text artifacts it made, which _drive
# writes; nothing else passes between stages.

ART = {
    "input_score": "input.score.json",
    "load_inputs": "load.json",
    "reference": "reference.json",
    "register": "register.json",
    "registered_score": "registered.score.json",
    "song_score": "song.score.json",
    "chords": "chords.txt",
    "conditions": "conditions.json",
    "plan": "plan.json",
    "accompaniment": "accompaniment.wav",
    "events": "events.txt",
    "render_record": "render.json",
    "mix": "mix.wav",
    "mix_inputs": "mix.json",
    "report": "report.json",
    "chroma_memo": "chroma_memo.json",
    "manifest": "manifest.json",
}


def _art(outdir: str, key: str) -> str:
    return os.path.join(outdir, ART[key])


def _codec(key: str):
    """``(encode, decode)`` of artifact ``key``: value to file data and back.

    Built on each call, so that a module attribute replaced at run time
    (``score_io.score_to_json`` wrapped by a tracer, say) is the one used.
    """
    score = (score_io.score_to_json, score_io.score_from_json)
    return {
        "input_score": score,
        "registered_score": score,
        "song_score": score,
        "chords": (conditioning.format_chords, conditioning.parse_chords),
        "conditions": (conditioning.bundle_to_json, conditioning.bundle_from_json),
        "plan": (planner.plan_to_json, planner.plan_from_json),
        "events": (render.format_events, render.parse_events),
        "render_record": (json_text, render.record_from_json),
        "chroma_memo": (metrics.memo_to_json, metrics.memo_from_json),
    }.get(key, (json_text, json.loads))


#: Inside a :func:`run_pipeline` call, the file text and the value :func:`_read`
#: last decoded of each artifact in :data:`_SHARED`, by path; None outside one.
_DECODED: contextvars.ContextVar[dict[str, tuple[str, object]] | None] = (
    contextvars.ContextVar("decoded", default=None))


def _read(outdir: str, key: str, stage: str):
    """Artifact ``key`` decoded, a WAV as a :class:`render.WavReader` on the file.

    The file is read on every call, but inside a :func:`run_pipeline` call a
    shared artifact whose text is that last decoded is not decoded again.
    Any failure is a :class:`StageError` naming the file.
    """
    path = _art(outdir, key)
    decoded = _DECODED.get()
    cache = decoded if decoded is not None and key in _SHARED else {}

    def decode(text: str):
        if path not in cache or cache[path][0] != text:
            cache[path] = (text, _codec(key)[1](text))
        return cache[path][1]
    try:
        if path.endswith(".wav"):
            return render.WavReader(path)
        return read_file(path, decode, name=ART[key])
    except FileNotFoundError as exc:
        raise StageError(stage, f"missing artifact {ART[key]}; run earlier stages first") from exc
    except (OSError, render.WavFormatError) as exc:
        raise StageError(stage, f"cannot read {ART[key]}: {exc}") from exc
    except ValueError as exc:  # read_file names the file
        raise StageError(stage, str(exc)) from exc


def _stage_load(config: PipelineConfig, outdir: str) -> dict:
    outputs = {"input_score": score_io.load_score(config.score_path), "reference": None}
    hashes = {"score_sha256": file_sha256(config.score_path), "lyrics_sha256": None}
    if config.lyrics_path:
        sheet = prep.load_lyrics(config.lyrics_path)
        hashes["lyrics_sha256"] = file_sha256(config.lyrics_path)
        if config.reference_bank:
            names, bank = prep.load_reference_bank(config.reference_bank)
            if not sheet.counts:
                raise ValueError(f"lyrics file {config.lyrics_path} has no lyric lines")
            index, breakdown = prep.select_reference(sheet, bank, config.reject_fewer_lines)
            outputs["reference"] = {
                "bank_index": index,
                "bank_file": names[index],
                "penalty": asdict(breakdown),
            }
    outputs["load_inputs"] = hashes
    return outputs


def _stage_validate(config: PipelineConfig, outdir: str, score: VocalScore) -> dict:
    return {}  # reading the score refused any score that breaks an invariant


def _stage_register(config: PipelineConfig, outdir: str, score: VocalScore) -> dict:
    decision = prep.register_match(score, config.profiles)
    return {"register": {
        "profile": decision.profile.name,
        "low": decision.profile.low,
        "high": decision.profile.high,
        "shift": decision.shift,
        "in_range": decision.in_range,
        "total_notes": decision.total_notes,
    }, "registered_score": prep.apply_transpose(score, decision.shift)}


def _stage_harmonize(config: PipelineConfig, outdir: str, score: VocalScore) -> dict:
    song, chords = harmonize_song(score, config.intro_bars)
    return {"song_score": song, "chords": chords}


def _stage_condition(
    config: PipelineConfig, outdir: str, score: VocalScore, chords: ChordSequence
) -> dict:
    return {"conditions": conditioning.build_condition_bundle(
        score, chords, section_keys(score, config.section_keys),
        config.frame_rate, config.sigma,
    )}


def _stage_plan(config: PipelineConfig, outdir: str, score: VocalScore) -> dict:
    return {"plan": planner.plan_inference(score, config.max_window_sec)}


def _stage_render(
    config: PipelineConfig, outdir: str, bundle: conditioning.ConditionBundle,
    windows: list[planner.GenerationWindow], recorded: dict[int, dict] | None,
    old: render.WavReader | None,
) -> dict:
    record, events = render_windows(bundle, windows, config.sample_rate,
                                    _art(outdir, "accompaniment"), recorded, old)
    return {"events": events, "render_record": record}


def _stage_mix(config: PipelineConfig, outdir: str, accomp: render.WavReader) -> dict:
    if config.vocal_path:
        vocal = render.open_wav(config.vocal_path)
    else:  # no vocal track given: an empty one, which mix zero-pads to silence
        vocal = render.AudioBuffer(accomp.sample_rate, np.zeros((1, 0)))
    render.mix(vocal, accomp, _art(outdir, "mix"))
    return {"mix_inputs":
            {"vocal_sha256": file_sha256(config.vocal_path) if config.vocal_path else None}}


def _stage_report(
    config: PipelineConfig, outdir: str, bundle: conditioning.ConditionBundle,
    events: list[render.RenderEvent], accomp: render.WavReader, loaded, mixed,
    memo: dict | None,
) -> dict:
    # The input-file hashes load and mix recorded; the manifest copies them.
    hashes = {}
    for key, doc, names in (("load_inputs", loaded, ("score_sha256", "lyrics_sha256")),
                            ("mix_inputs", mixed, ("vocal_sha256",))):
        for name in names:
            hashes[name] = doc.get(name, 0) if isinstance(doc, dict) else 0
            if not (hashes[name] is None or isinstance(hashes[name], str)):
                raise ValueError(f"{ART[key]} does not record {name} as a hash or null")
    memo = memo or {}
    outputs = {"report": self_report(bundle, events, accomp, memo), "chroma_memo": memo}
    # The manifest lists what this core returns and what is already on disk.
    outputs["manifest"] = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "config": config.to_manifest_dict(hashes),
        "artifacts": {key: name for key, name in ART.items() if key in outputs
                      or key != "manifest" and os.path.exists(_art(outdir, key))},
        "report": outputs["report"],
    }
    return outputs


def _drive(stage: str, core, inputs: tuple[str, ...], caches: tuple[str, ...]):
    """``core`` as a stage ``fn(config, outdir)``.

    The artifacts named by ``inputs`` are read and passed to ``core`` in
    order, then those named by ``caches``, each None if it is missing or
    unreadable: a cache only saves work, and ``core`` rebuilds what it
    lacks.  ``core`` returns ``{key: value}`` of the text artifacts it made,
    None for one this run does not make, whose file is removed.  All are
    encoded before any file is written or removed, so a core that fails
    leaves them as they were.  A ``ValueError``, ``OSError``,
    ``ArithmeticError`` or ``MemoryError`` becomes a :class:`StageError`.
    """
    def run(config: PipelineConfig, outdir: str) -> None:
        values = [_read(outdir, key, stage) for key in inputs]
        for key in caches:
            try:
                values.append(_read(outdir, key, stage)
                              if os.path.exists(_art(outdir, key)) else None)
            except StageError as exc:
                LOGGER.info("%s; rebuilding it", exc)
                values.append(None)
        try:
            made = core(config, outdir, *values)
            texts = {key: _codec(key)[0](v) for key, v in made.items() if v is not None}
            for key in made:
                if key in texts:
                    write_file(_art(outdir, key), texts[key])
                else:  # drop what an earlier run wrote
                    with suppress(FileNotFoundError):
                        os.remove(_art(outdir, key))
        except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
            raise StageError(stage, str(exc)) from exc
    return run


#: Each stage, its core, the artifacts it reads and the artifacts it reuses
#: if they are there, in pipeline order.  A stage reads no other artifact.
_STAGE_TABLE = (
    ("load", _stage_load, (), ()),
    ("validate", _stage_validate, ("input_score",), ()),
    ("register", _stage_register, ("input_score",), ()),
    ("harmonize", _stage_harmonize, ("registered_score",), ()),
    ("condition", _stage_condition, ("song_score", "chords"), ()),
    ("plan", _stage_plan, ("song_score",), ()),
    ("render", _stage_render, ("conditions", "plan"), ("render_record", "accompaniment")),
    ("mix", _stage_mix, ("accompaniment",), ()),
    ("report", _stage_report, ("conditions", "events", "accompaniment", "load_inputs",
                               "mix_inputs"), ("chroma_memo",)),
)
#: Stage name to ``fn(config, outdir)``, in pipeline order.
_STAGE_FUNCS = {stage: _drive(stage, *row) for stage, *row in _STAGE_TABLE}
STAGES = tuple(_STAGE_FUNCS)
#: The artifacts more than one stage reads: decoded once per run_pipeline call.
_SHARED = frozenset(key for key in ART
                    if sum(key in inputs for _, _, inputs, _ in _STAGE_TABLE) > 1)


def run_pipeline(config: PipelineConfig, from_stage: str = "load") -> dict:
    """Run the pipeline from ``from_stage`` to the end; returns the manifest.

    Stages communicate only through files in ``config.output_dir``, so
    resuming from a later stage picks up whatever artifacts are on disk
    (hand-edited or not).  Raises :class:`StageError` on the first failure.
    """
    if from_stage not in STAGES:
        raise ValueError(f"unknown stage {from_stage!r}; expected one of {STAGES}")
    os.makedirs(config.output_dir, exist_ok=True)
    token = _DECODED.set({})
    try:
        for stage in STAGES[STAGES.index(from_stage):]:
            LOGGER.info("stage %s", stage)
            _STAGE_FUNCS[stage](config, config.output_dir)
        return _read(config.output_dir, "manifest", "report")
    finally:
        _DECODED.reset(token)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_validate(args) -> int:
    score_io.load_score(args.score)  # refuses a score that breaks an invariant
    print("OK")
    return 0


def _cmd_harmonize(args) -> int:
    _, chords = harmonize_song(score_io.load_score(args.score), args.intro_bars)
    text = conditioning.format_chords(chords)
    if args.output:
        write_file(args.output, text)
    else:
        print(text, end="")
    return 0


def _parse_profile(spec: str) -> SingerProfile:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"profile must look like name:low:high, got {spec!r}"
        )
    try:
        return SingerProfile(parts[0], int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_register(args) -> int:
    score = score_io.load_score(args.score)
    profiles = tuple(args.profile) if args.profile else DEFAULT_PROFILES
    decision = prep.register_match(score, profiles)
    print(
        f"profile={decision.profile.name} range=[{decision.profile.low}, "
        f"{decision.profile.high}] shift={decision.shift:+d} "
        f"in_range={decision.in_range}/{decision.total_notes}"
    )
    if args.apply:
        transposed = prep.apply_transpose(score, decision.shift)
        score_io.save_score(transposed, args.apply)
    return 0


def _cmd_condition(args) -> int:
    score = score_io.load_score(args.score)
    chords = read_file(args.chords, conditioning.parse_chords)
    labels = [k.strip() for k in args.keys.split(",")] if args.keys else None
    bundle = conditioning.build_condition_bundle(
        score, chords, section_keys(score, labels), args.frame_rate, args.sigma
    )
    write_file(args.output, conditioning.bundle_to_json(bundle))
    print(f"wrote {bundle.num_frames} frames to {args.output}")
    return 0


def _cmd_plan(args) -> int:
    score = score_io.load_score(args.score)
    windows = planner.plan_inference(score, args.max_window)
    print(planner.format_plan_table(windows), end="")
    if args.output:
        write_file(args.output, planner.plan_to_json(windows))
    return 0


def _cmd_render(args) -> int:
    bundle = read_file(args.conditions, conditioning.bundle_from_json)
    windows = read_file(args.plan, planner.plan_from_json)
    os.makedirs(args.output_dir, exist_ok=True)
    _, events = render_windows(bundle, windows, args.sample_rate,
                               _art(args.output_dir, "accompaniment"))
    write_file(_art(args.output_dir, "events"), render.format_events(events))
    print(f"rendered {len(windows)} windows into {args.output_dir}")
    return 0


def _cmd_mix(args) -> int:
    peak = render.mix(render.open_wav(args.vocal), render.open_wav(args.accompaniment),
                      args.output)
    print(f"wrote {args.output} (peak {peak:.3f})")
    return 0


def _parse_chroma(text: str) -> np.ndarray:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "chroma" not in doc:
        raise ValueError("expected a JSON object with a 'chroma' key")
    return conditioning.rows_of(doc["chroma"], 12, "chroma")


def _lines(text: str) -> list[str]:
    """The stripped lines of ``text`` that are not blank; PER text has no ``#`` comments."""
    return [line for line in map(str.strip, text.splitlines()) if line]


def _parse_keys(text: str) -> list[KeyLabel]:
    return [KeyLabel.parse(line) for _, line in content_lines(text)]


def _text_tokens(lines: list[str], dedup: bool) -> list[str]:
    return [token for line in (metrics.dedup_lines(lines) if dedup else lines)
            for token in prep.tokenize_lyric_text(line)]


def _beat_rows(args, ref: beatgrid.BeatGrid, est: beatgrid.BeatGrid) -> list[tuple[str, float]]:
    rows = [("rhythm_f1", metrics.rhythm_f1(list(ref.beats), list(est.beats), args.tolerance))]
    if ref.downbeats and est.downbeats:
        rows.append(("downbeat_f1", metrics.rhythm_f1(
            list(ref.downbeats), list(est.downbeats), args.tolerance)))
    return rows


#: ``eval``'s file pairs: the reference and estimate options, the parser of
#: either file, and the result rows of the two parsed files.  The rows look
#: ``metrics`` up at call time, so that a wrapped metric is the one used.
_EVAL_PAIRS = (
    ("ref_beats", "est_beats", beatgrid.parse_beat_grid, _beat_rows),
    ("ref_chroma", "est_chroma", _parse_chroma,
     lambda args, ref, est: [("chord_f1", metrics.chord_f1(ref, est))]),
    ("ref_keys", "est_keys", _parse_keys,
     lambda args, ref, est: [("key_accuracy", metrics.key_accuracy(ref, est))]),
    ("ref_text", "hyp_text", _lines,
     lambda args, ref, est: [("per", metrics.per(_text_tokens(ref, args.dedup),
                                                 _text_tokens(est, args.dedup)))]),
)


def _cmd_eval(args) -> int:
    rows: list[tuple[str, float]] = []
    for ref_option, est_option, parse, pair_rows in _EVAL_PAIRS:
        ref, est = getattr(args, ref_option), getattr(args, est_option)
        if not (ref or est):
            continue
        if not (ref and est):
            flags = [f"--{o.replace('_', '-')}" for o in (ref_option, est_option)]
            raise ValueError(f"{flags[0]} and {flags[1]} must be given together")
        rows += pair_rows(args, read_file(ref, parse), read_file(est, parse))
    if not rows:
        raise ValueError("nothing to evaluate; pass at least one file pair")

    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value:.6f}")
    if args.json:
        write_file(args.json, json_text(dict(rows)))
    return 0


def _cmd_run(args) -> int:
    if args.config:
        config = read_file(args.config, lambda text: config_from_json(text, args.output))
    elif args.score:
        config = PipelineConfig(args.score, args.output or "songpipe_out")
    else:
        raise ValueError("either --config or --score is required")
    overrides = {name: getattr(args, arg) for arg, name in (
        ("score", "score_path"), ("vocal", "vocal_path"),
        ("lyrics", "lyrics_path"), ("bank", "reference_bank"),
    ) if getattr(args, arg)}
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = replace(config, **overrides)
    try:
        manifest = run_pipeline(config, args.from_stage)
    except StageError as exc:
        print(f"error in stage '{exc.stage}': {exc}", file=sys.stderr)
        return 1
    report = manifest.get("report", {})
    for name in sorted(report):
        print(f"{name}: {report[name]}")
    print(f"manifest: {os.path.join(config.output_dir, ART['manifest'])}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="songpipe",
        description="Deterministic symbolic song-accompaniment pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a score file against the model invariants")
    p.add_argument("score")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("harmonize", help="choose one chord per bar for a melody")
    p.add_argument("score")
    p.add_argument("-o", "--output", help="write chords here instead of stdout")
    _add_flag(p, "intro_bars", default=0,
              help="prepend this many bars of duplicated opening chords")
    p.set_defaults(func=_cmd_harmonize)

    p = sub.add_parser("register", help="pick a singer profile and octave shift")
    p.add_argument("score")
    p.add_argument("--profile", action="append", type=_parse_profile,
                   metavar="NAME:LOW:HIGH")
    p.add_argument("--apply", metavar="OUT", help="write the shifted score here")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("condition", help="build framewise conditioning signals")
    p.add_argument("score")
    p.add_argument("--chords", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--keys", help="comma-separated per-section keys, e.g. C:maj,A:min")
    _add_flag(p, "frame_rate")
    _add_flag(p, "sigma")
    p.set_defaults(func=_cmd_condition)

    p = sub.add_parser("plan", help="tile a score into ordered generation windows")
    p.add_argument("score")
    p.add_argument("-o", "--output", help="also write the plan as JSON")
    _add_flag(p, "max_window_sec")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("render", help="render conditions to audio with the stub generator")
    p.add_argument("--conditions", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("-o", "--output-dir", required=True)
    _add_flag(p, "sample_rate")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("mix", help="sum vocal and accompaniment, peak-normalized")
    p.add_argument("vocal")
    p.add_argument("accompaniment")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("eval", help="score predictions against references")
    p.add_argument("--ref-beats")
    p.add_argument("--est-beats")
    p.add_argument("--tolerance", type=float, default=metrics.RHYTHM_TOLERANCE_SEC)
    p.add_argument("--ref-chroma")
    p.add_argument("--est-chroma")
    p.add_argument("--ref-keys")
    p.add_argument("--est-keys")
    p.add_argument("--ref-text")
    p.add_argument("--hyp-text")
    p.add_argument("--dedup", action="store_true",
                   help="collapse consecutive duplicate lines before scoring")
    p.add_argument("--json", help="also write results to this JSON file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="run the whole pipeline into an output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--score", help="score path (overrides config)")
    p.add_argument("--output", help="output directory (overrides config)")
    p.add_argument("--vocal", help="vocal WAV to mix in")
    p.add_argument("--lyrics", help="lyric sheet for reference selection")
    p.add_argument("--bank", help="reference-bank directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--from", dest="from_stage", default="load", choices=STAGES,
                   help="resume from this stage using existing artifacts")
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    # argparse takes a value such as "-1e-3" or "-inf" for an option, so a
    # number that starts with "-" is joined to its flag as "--flag=VALUE".
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        flag = tokens[-1] if tokens else ""
        if token.startswith("-") and flag.startswith("--") and flag != "--" and "=" not in flag:
            with suppress(ValueError):
                float(token)
                tokens[-1] = f"{flag}={token}"
                continue
        tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
