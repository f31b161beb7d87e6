"""The three workloads: song-long, prepare-batch and evaluate.

Each workload generates its inputs from the seed in :meth:`setup`, then
runs whole rounds of the same operations.  An operation has a timed action
(a call into songpipe's public entry points) and an untimed check against
expectations derived in :mod:`checks`.  Every operation also yields the
SHA-256 of each artifact it produced; these must agree across rounds, across
traced and untraced rounds, and across runs of the same seed and code.

Each round has a ``full`` part (everything from the input files) and one
or more ``edit`` operations (one small hand edit, then only the work that
depends on it).  Short edits repeat within a round so that their median
rests on several samples.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import inputs
from checks import CheckFailed, Timeline, require
from spans import written_bytes

UPSTREAM = ("input.score.json", "lyrics.txt", "reference.json", "validation.json",
            "register.json", "registered.score.json", "song.score.json", "harmonize.json")
#: Stages ``run`` executes up to the plan; no audio is made past these.
SYMBOLIC_STAGES = ("load", "validate", "register", "harmonize", "condition", "plan")


@dataclass
class Round:
    """Wall time of the full part, of each edit, bytes written, CPU time."""

    full_s: float = 0.0
    edits: list[float] = field(default_factory=list)
    written: int = 0
    cpu_s: float = 0.0


class Workload:
    name = ""

    def __init__(self, modules: dict, seed: int, work: str, known: dict):
        self.modules = modules  # songpipe modules by name
        self.seed = seed
        self.work = work
        self.known = known  # op -> artifact digests from an earlier run
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.tracer = None
        self.rounds = 0
        self.op_id = ""
        self.window_ratio = 0.0  # windows changed per window re-rendered

    def setup(self, directory: str) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def _op(self, rnd: Round, name: str, kind: str, action, check) -> None:
        """Time ``action``, then check its result; never raises."""
        self.attempted += 1
        self.op_id = f"{self.rounds}:{name}"
        if self.tracer is not None:
            self.tracer.op = self.op_id
        wrote, cpu, start = written_bytes(), time.process_time(), time.perf_counter()
        try:
            try:
                result = action()
            finally:
                elapsed = time.perf_counter() - start
                rnd.cpu_s += time.process_time() - cpu
                rnd.written += written_bytes() - wrote
                if kind == "full":
                    rnd.full_s += elapsed
                else:
                    rnd.edits.append(elapsed)
            artifacts = check(result)
            earlier = self.seen.setdefault(name, artifacts)
            reference = self.known.get(name, earlier)
            for other in (earlier, reference):
                differ = sorted(k for k in set(artifacts) | set(other)
                                if artifacts.get(k) != other.get(k))
                require(not differ, f"artifacts differ from an earlier run of this seed: {differ}")
        except CheckFailed as exc:
            self.failed += 1
            self.incorrect += 1
            print(f"FAILED CHECK {self.name} {name}: {exc}", file=sys.stderr)
        except Exception:  # a program error fails this operation only
            self.failed += 1
            print(f"FAILED {self.name} {name}:\n{traceback.format_exc()}", file=sys.stderr)

    @contextlib.contextmanager
    def _resuming(self):
        """Name stage spans ``resume.<stage>`` while an edit is redone."""
        if self.tracer is None:
            yield
            return
        self.tracer.stage_prefix = "resume"
        try:
            yield
        finally:
            self.tracer.stage_prefix = "stage"

    def _fresh(self, path: str) -> str:
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def _edit_chord(outdir: str, bar: int, rng: random.Random) -> tuple[int, str]:
    """Give one bar of chords.txt another chord; returns the new chord."""
    path = os.path.join(outdir, "chords.txt")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    start, end, chord = lines[bar].split()
    names = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
    root, quality = chord.split(":")
    new_root = (names.index(root) + rng.randint(1, 11)) % 12
    new_quality = rng.choice(("maj", "min"))
    lines[bar] = f"{start} {end} {names[new_root]}:{new_quality}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return new_root, new_quality


def _check_chord_edit(before: dict, after: dict, timeline: Timeline, bar: int, chord) -> None:
    """Only the edited bar's frames changed, and they hold the new triad."""
    import numpy as np

    old = np.asarray(before["chroma"], dtype=float)
    new = np.asarray(after["chroma"], dtype=float)
    edges = timeline.bar_edges()
    frames = timeline.frames_in(edges[bar], edges[bar + 1])
    changed = np.nonzero(np.any(old != new, axis=1))[0]
    require(changed.tolist() == list(frames),
            f"chroma changed on frames {changed[:3].tolist()}..{changed[-3:].tolist()}, "
            f"edited bar spans {frames}")
    require(bool(np.all(new[frames.start:frames.stop] == checks.triad(*chord))),
            "edited bar does not hold the new triad")
    for key in ("rhythm", "structure", "pitch_contour", "keys", "num_frames"):
        require(before[key] == after[key], f"{key} changed after a chord edit")


# ---------------------------------------------------------------------------


class SongLong(Workload):
    """One 160-bar song: a full ``run``, then a one-bar chord edit and a
    resume from ``condition``."""

    name = "song-long"

    def setup(self, directory: str) -> None:
        rng = random.Random(self.seed)
        song = inputs.song_long(rng, directory)
        self.score = os.path.join(directory, "song.mid")
        self.timeline = Timeline(song)
        edit_rng = random.Random(self.seed + 1)
        self.edit_bar = edit_rng.randint(inputs.INTRO_BARS + 1, self.timeline.bars - 2)
        self.edit_seed = edit_rng.randrange(2**31)
        # warm-up: a short song down the same path
        warm = inputs.make_song(rng, "warm", 8, inputs.SONG_LONG_BPM)
        inputs.write(os.path.join(directory, "warm.mid"), inputs.smf_bytes(warm))
        config = self.modules["cli"].PipelineConfig(os.path.join(directory, "warm.mid"),
                                               os.path.join(directory, "warm_out"))
        self.modules["cli"].run_pipeline(config)
        self.modules["cli"].run_pipeline(config, "condition")

    def run_round(self) -> Round:
        cli = self.modules["cli"]
        rnd = Round()
        out = self._fresh(os.path.join(self.work, "out"))
        config = cli.PipelineConfig(self.score, out)
        state: dict = {}

        def check_run(_):
            state["before"] = checks.digests(out)
            state["conditions"] = checks.read_json(os.path.join(out, "conditions.json"))
            checks.check_plan(out, self.timeline)
            checks.check_clicks(out, checks.check_beats(out, self.timeline))
            checks.check_report(out)
            checks.check_mix(out)
            return state["before"]

        self._op(rnd, "run", "full", lambda: cli.run_pipeline(config), check_run)

        def resume():
            chord = _edit_chord(out, self.edit_bar, random.Random(self.edit_seed))
            cli.run_pipeline(config, "condition")
            return chord

        def check_resume(chord):
            after = checks.digests(out)
            before = state.get("before", {})
            for name in UPSTREAM:
                require(after.get(name) == before.get(name), f"{name} changed on resume")
            doc = checks.read_json(os.path.join(out, "conditions.json"))
            _check_chord_edit(state.get("conditions", {}), doc, self.timeline, self.edit_bar, chord)
            checks.check_beats(out, self.timeline)
            checks.check_mix(out)
            if self.tracer is not None:
                changed = sum(after[n] != before.get(n) for n in after if n.startswith("window_"))
                self.window_ratio = changed / self.tracer.count_in("render.render_stub", self.op_id)
            return after

        with self._resuming():
            self._op(rnd, "resume", "edit", resume, check_resume)
        self.rounds += 1
        return rnd


class PrepareBatch(Workload):
    """Six songs, 1 to 20 minutes, from score and lyric sheet to
    ``conditions.json`` and ``plan.json``; then three chord edits in the
    12-minute song, each followed by its condition and plan stages."""

    name = "prepare-batch"
    EDIT_SONG = 4
    EDITS = 3

    def setup(self, directory: str) -> None:
        rng = random.Random(self.seed)
        self.songs, self.bank = inputs.prepare_batch(rng, directory)
        self.timelines = [Timeline(s) for s in self.songs]
        self.dir = directory
        edit_rng = random.Random(self.seed + 1)
        self.edit_bars = edit_rng.sample(
            range(inputs.INTRO_BARS + 1, self.timelines[self.EDIT_SONG].bars - 1), self.EDITS)
        self.edit_seed = edit_rng.randrange(2**31)
        self.best: dict[int, tuple[int, float]] = {}
        self._prepare(0, os.path.join(directory, "warm_out"))  # warm-up

    def _config(self, i: int, out: str):
        name = self.songs[i].name
        return self.modules["cli"].PipelineConfig(
            os.path.join(self.dir, f"{name}.mid"), out,
            lyrics_path=os.path.join(self.dir, f"{name}.lyrics.txt"),
            reference_bank=os.path.join(self.dir, "bank"))

    def _prepare(self, i: int, out: str, stages=SYMBOLIC_STAGES) -> None:
        os.makedirs(out, exist_ok=True)
        config = self._config(i, out)
        for stage in stages:
            self.modules["cli"]._STAGE_FUNCS[stage](config, out)

    def _best_reference(self, i: int) -> tuple[int, float]:
        """Linear-scan argmin of the shape penalty over the bank."""
        if i not in self.best:
            totals = [checks.penalty_total(self.songs[i].lyrics, sheet) for sheet in self.bank]
            j = min(range(len(totals)), key=lambda k: (totals[k], k))
            self.best[i] = (j, totals[j])
        return self.best[i]

    def _check_song(self, i: int, out: str) -> dict:
        timeline = self.timelines[i]
        checks.check_conditions(out, timeline, random.Random(self.seed * 31 + i))
        checks.check_plan(out, timeline)
        chosen = checks.read_json(os.path.join(out, "reference.json"))
        index, total = self._best_reference(i)
        require(chosen["bank_index"] == index,
                f"reference {chosen['bank_index']} chosen, linear scan gives {index}")
        require(abs(chosen["penalty"]["total"] - total) <= 1e-12, "reference penalty differs")
        return checks.digests(out)

    def run_round(self) -> Round:
        rnd = Round()
        outs = [self._fresh(os.path.join(self.work, f"out{i}")) for i in range(len(self.songs))]
        for i, out in enumerate(outs):
            self._op(rnd, f"song{i}", "full", lambda i=i, out=out: self._prepare(i, out),
                     lambda _, i=i, out=out: self._check_song(i, out))

        i, out = self.EDIT_SONG, outs[self.EDIT_SONG]
        try:
            state = {"before": checks.digests(out),
                     "conditions": checks.read_json(os.path.join(out, "conditions.json"))}
        except (OSError, ValueError):  # the song failed; so will its edits
            state = {}
        rng = random.Random(self.edit_seed)

        def edit(bar):
            chord = _edit_chord(out, bar, rng)
            self._prepare(i, out, ("condition", "plan"))
            return chord

        def check_edit(chord, bar):
            digests = self._check_song(i, out)
            for name in UPSTREAM + ("plan.json",):
                require(digests.get(name) == state["before"].get(name), f"{name} changed on edit")
            doc = checks.read_json(os.path.join(out, "conditions.json"))
            before, state["conditions"] = state["conditions"], doc
            _check_chord_edit(before, doc, self.timelines[i], bar, chord)
            return digests

        with self._resuming():
            for k, bar in enumerate(self.edit_bars):
                self._op(rnd, f"edit{k}", "edit", lambda bar=bar: edit(bar),
                         lambda chord, bar=bar: check_edit(chord, bar))
        self.rounds += 1
        return rnd


class Evaluate(Workload):
    """PER with line deduplication, Rhythm F1, Chord F1 and Key Accuracy
    through the ``eval`` subcommand, and beat grids rebuilt across silent
    gaps with ``beatgrid``; then four phonemes of one transcript corrected,
    one at a time, each followed by scoring the pair again."""

    name = "evaluate"
    EDIT_PAIR = 1
    EDITS = 4

    def setup(self, directory: str) -> None:
        rng = random.Random(self.seed)
        self.set = inputs.evaluate_set(rng, directory)
        self.audio = [inputs.gap_audio(c) for c in self.set.gaps]
        case = self.set.per[self.EDIT_PAIR]
        with open(case.hyp, "r", encoding="utf-8") as fh:
            self.hyp_text = fh.read()
        lines = self.hyp_text.splitlines()
        # phonemes on lines that are not part of a duplicate run
        positions = [(j, k) for j in range(1, len(lines) - 1)
                     if lines[j - 1] != lines[j] != lines[j + 1]
                     for k, t in enumerate(lines[j].split()) if not t.startswith("X")]
        self.edit_positions = random.Random(self.seed + 1).sample(positions, self.EDITS)
        self.out = os.path.join(directory, "results")
        os.makedirs(self.out, exist_ok=True)
        # warm-up: one file pair of each kind and one beat-grid rebuild
        s = self.set
        self._eval("warm", ["--ref-text", s.per[0].ref, "--hyp-text", s.per[0].hyp, "--dedup"])
        self._eval("warm", ["--ref-beats", s.beats[0].ref, "--est-beats", s.beats[0].est,
                            "--ref-chroma", s.chroma[0].ref, "--est-chroma", s.chroma[0].est,
                            "--ref-keys", s.keys[0].ref, "--est-keys", s.keys[0].est])
        self._rebuild(0)

    def _eval(self, name: str, argv: list[str]) -> dict:
        path = os.path.join(self.out, f"{name}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.modules["cli"].main(["eval", *argv, "--json", path])
        if code != 0:
            raise RuntimeError(f"eval exited with {code}")
        result = checks.read_json(path)
        with open(path, "rb") as fh:
            result["_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        return result

    def _rebuild(self, i: int):
        """Segments from audio, jittered beats inside them, grid across gaps."""
        beatgrid = self.modules["beatgrid"]
        case = self.set.gaps[i]
        segments = beatgrid.detect_voiced_segments(self.audio[i], inputs.GAP_SAMPLE_RATE)
        jitter = random.Random(case.seed)
        truth = inputs.gap_truth(case)
        offsets = [jitter.uniform(-0.005, 0.005) for _ in truth]
        lists = [[b + o for b, o in zip(truth, offsets)
                  if seg.start_sec + 0.02 <= b <= seg.end_sec - 0.02] for seg in segments]
        grid = beatgrid.interpolate_beats(lists, segments, case.seconds)
        with open(os.path.join(self.out, f"grid{i}.txt"), "w", encoding="utf-8") as fh:
            fh.write(beatgrid.format_beat_grid(grid))
        return segments, grid

    def _check_rebuild(self, i: int, result) -> dict:
        segments, grid = result
        case = self.set.gaps[i]
        require(len(segments) == len(case.gaps) + 1,
                f"{len(segments)} voiced segments for {len(case.gaps)} gaps")
        for seg, (a, b) in zip(segments, case.gaps):
            require(abs(seg.end_sec - a) <= 0.05, f"segment ends at {seg.end_sec}, gap at {a}")
        for seg, (a, b) in zip(segments[1:], case.gaps):
            require(abs(seg.start_sec - b) <= 0.05, f"segment starts at {seg.start_sec}, gap ends {b}")
        score = checks.f1(inputs.gap_truth(case), list(grid.beats), 0.07)
        require(score >= 0.95, f"rebuilt grid matches the known grid at F1 {score:.4f}")
        return {"grid": checks.sha256_file(os.path.join(self.out, f"grid{i}.txt"))}

    @staticmethod
    def _f1(tp: int, fp: int, fn: int) -> float:
        return 2 * tp / (2 * tp + fp + fn)

    def run_round(self) -> Round:
        rnd = Round()
        s = self.set
        with open(s.per[self.EDIT_PAIR].hyp, "w", encoding="utf-8") as fh:
            fh.write(self.hyp_text)  # undo the previous round's edit

        def expect(rows: dict, **values) -> dict:
            for key, value in values.items():
                require(rows.get(key) == value, f"{key} = {rows.get(key)}, expected {value}")
            return {"json": rows["_sha256"]}

        for i, c in enumerate(s.per):
            self._op(rnd, f"per{i}", "full",
                     lambda c=c, i=i: self._eval(f"per{i}", ["--ref-text", c.ref, "--hyp-text", c.hyp, "--dedup"]),
                     lambda rows, c=c: expect(rows, per=c.substitutions / c.tokens))
        for i, c in enumerate(s.beats):
            self._op(rnd, f"beats{i}", "full",
                     lambda c=c, i=i: self._eval(f"beats{i}", ["--ref-beats", c.ref, "--est-beats", c.est]),
                     lambda rows, c=c: expect(rows, rhythm_f1=self._f1(c.tp, c.fp, c.fn),
                                              downbeat_f1=self._f1(c.down_tp, 0, c.down_fn)))
        for i, c in enumerate(s.chroma):
            self._op(rnd, f"chroma{i}", "full",
                     lambda c=c, i=i: self._eval(f"chroma{i}", ["--ref-chroma", c.ref, "--est-chroma", c.est]),
                     lambda rows, c=c: expect(rows, chord_f1=self._f1(c.tp, c.fp, c.fn)))
        for i, c in enumerate(s.keys):
            self._op(rnd, f"keys{i}", "full",
                     lambda c=c, i=i: self._eval(f"keys{i}", ["--ref-keys", c.ref, "--est-keys", c.est]),
                     lambda rows, c=c: expect(rows, key_accuracy=c.hits / c.total))
        for i in range(len(s.gaps)):
            self._op(rnd, f"gap{i}", "full", lambda i=i: self._rebuild(i),
                     lambda result, i=i: self._check_rebuild(i, result))

        c = s.per[self.EDIT_PAIR]

        def edit(e):
            with open(c.hyp, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            line, token = self.edit_positions[e]
            tokens = lines[line].split()
            tokens[token] = f"XEDIT{e}"
            lines[line] = " ".join(tokens)
            with open(c.hyp, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            return self._eval(f"edit{e}", ["--ref-text", c.ref, "--hyp-text", c.hyp, "--dedup"])

        for e in range(self.EDITS):
            self._op(rnd, f"edit{e}", "edit", lambda e=e: edit(e),
                     lambda rows, e=e: expect(rows, per=(c.substitutions + e + 1) / c.tokens))
        self.rounds += 1
        return rnd


WORKLOADS = {w.name: w for w in (SongLong, PrepareBatch, Evaluate)}
