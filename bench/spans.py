"""Spans and counts taken from outside the program.

:class:`Tracer` replaces module attributes of songpipe with thin wrappers
that record a span per call: name, start, end, parent span and operation
id.  Calls between songpipe functions go through module globals, so a
wrapper on ``conditioning.rhythm_activation`` also sees the call made from
inside ``build_condition_bundle``.  The entries of ``cli._STAGE_FUNCS`` are
wrapped too, with CPU time, bytes written and peak RSS per stage.

Spans and counts stay in memory; :meth:`Tracer.write` saves them once, at
the end of a run, outside every pipeline output directory.  Wrappers are
installed only around traced rounds, so untraced rounds run the program
exactly as shipped.
"""
from __future__ import annotations

import json
import resource
import time
from collections import defaultdict


def written_bytes() -> int:
    """Bytes this process has passed to write(2) so far."""
    with open("/proc/self/io", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: (module, function, count name, count of one call from (args, result)).
#: A span is named ``<module>.<function>`` without leading underscores.
WRAPPED = (
    ("cli", "self_report", None, None),
    ("cli", "_cmd_eval", None, None),
    ("score_io", "load_score", None, None),
    ("score_io", "score_to_json", None, None),
    ("score_io", "score_from_json", None, None),
    ("prep", "load_reference_bank", None, None),
    ("prep", "select_reference", "prep.select_reference.candidates", lambda a, r: len(a[1])),
    ("harmony", "harmonize", None, None),
    ("conditioning", "rhythm_activation", "conditioning.rhythm_activation.cells",
     lambda a, r: (len(a[0]) + len(a[1])) * r.shape[0]),
    ("conditioning", "build_condition_bundle", "conditioning.frames", lambda a, r: r.num_frames),
    ("conditioning", "bundle_to_json", "conditioning.json_bytes", lambda a, r: len(r)),
    ("conditioning", "bundle_from_json", None, None),
    ("planner", "plan_inference", "planner.windows", lambda a, r: len(r)),
    ("render", "render_stub", "render.samples", lambda a, r: r[0].n_samples),
    ("render", "wav_bytes", "render.wav_bytes.bytes", lambda a, r: len(r)),
    ("render", "wav_from_bytes", None, None),
    ("render", "mix", None, None),
    ("metrics", "chroma_from_audio", "metrics.chroma_from_audio.frames", lambda a, r: r.shape[0]),
    ("metrics", "edit_distance", "metrics.edit_distance.cells", lambda a, r: len(a[0]) * len(a[1])),
    ("metrics", "match_events", None, None),
    ("metrics", "chord_f1", None, None),
    ("metrics", "estimate_key", None, None),
    ("beatgrid", "detect_voiced_segments", None, None),
    ("beatgrid", "interpolate_beats", None, None),
)

class Tracer:
    """Records spans and counts while installed; see the module doc."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_stats: dict[str, float] = defaultdict(float)
        self.stage_rss: dict[str, float] = {}
        self.op = ""
        self.stage_prefix = "stage"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, name: str, fn, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in on return
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.op)

    def _function(self, name: str, fn, count_name, count):
        def wrapper(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                self.counts[count_name] += count(args, result)
            return result
        return wrapper

    def _stage(self, stage: str, fn):
        def wrapper(config, outdir):
            name = f"{self.stage_prefix}.{stage}"
            cpu, wrote = time.process_time(), written_bytes()
            try:
                return self._span(name, fn, (config, outdir), {})
            finally:
                self.stage_stats[name + ".cpu_s"] += time.process_time() - cpu
                self.stage_stats[name + ".bytes"] += written_bytes() - wrote
                self.stage_rss[name + ".rss_mb"] = peak_rss_mb()
        return wrapper

    def install(self) -> None:
        for module_name, attr, count_name, count in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            name = f"{module_name}.{attr.lstrip('_')}"
            self._undo.append((module, attr, original))
            setattr(module, attr, self._function(name, original, count_name, count))
        table = self.modules["cli"]._STAGE_FUNCS
        for stage, fn in list(table.items()):
            self._undo.append((table, stage, fn))
            table[stage] = self._stage(stage, fn)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed span seconds per name, and summed self seconds per layer."""
        out: dict[str, float] = defaultdict(float)
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _ in self.spans:
            out[name + ".s"] += end - start
            layer = name.split(".")[0]
            layer = "cli" if layer in ("stage", "resume") else layer
            out[f"self.{layer}.s"] += end - start - child_time[span_id]
        return out

    def count_in(self, name: str, op: str) -> int:
        return sum(1 for s in self.spans if s[1] == name and s[5] == op)

    def write(self, path: str) -> None:
        doc = {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "op"), s))
                      for s in self.spans],
            "counts": dict(self.counts),
            "stages": dict(self.stage_stats),
            "stage_rss_mb": self.stage_rss,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
