"""songpipe benchmark: one workload per process, closed loop, one caller.

Run from the root of a source checkout:

    python3 bench/run.py --workload song-long --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` during set-up, then
whole rounds of its operations run until ``--seconds`` have passed (at
least one round).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` every traced
round is followed by an untraced one, and the last line carries the
per-layer metrics and the tracing overhead.  Scratch files go to
``.bench_work/`` in the checkout.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3

STAGES = ("load", "validate", "register", "harmonize", "condition", "plan",
          "render", "mix", "report")
RESUMED = STAGES[4:]
LAYERS = ("cli", "score_io", "prep", "harmony", "conditioning", "planner", "render",
          "metrics", "beatgrid")

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("written_mb", "MB"),
)

#: Per-layer metrics: (name, unit, better).  Spans are per traced round.
PER_LAYER = (
    [(f"stage.{s}.{m}", u, "lower") for s in STAGES
     for m, u in (("s", "s"), ("cpu_s", "s"), ("bytes", "bytes"), ("rss_mb", "MB"))]
    + [(f"resume.{s}.s", "s", "lower") for s in RESUMED]
    + [
        ("cli.self_report.s", "s", "lower"),
        ("cli.cmd_eval.s", "s", "lower"),
        ("metrics.chroma_from_audio.s", "s", "lower"),
        ("metrics.chroma_from_audio.frames", "count", "lower"),
        ("metrics.edit_distance.s", "s", "lower"),
        ("metrics.edit_distance.cells", "count", "lower"),
        ("metrics.match_events.s", "s", "lower"),
        ("metrics.chord_f1.s", "s", "lower"),
        ("metrics.estimate_key.s", "s", "lower"),
        ("render.render_stub.s", "s", "lower"),
        ("render.render_stub.calls", "count", "lower"),
        ("render.samples", "count", "lower"),
        ("render.wav_bytes.s", "s", "lower"),
        ("render.wav_bytes.bytes", "bytes", "lower"),
        ("render.wav_from_bytes.s", "s", "lower"),
        ("render.mix.s", "s", "lower"),
        ("resume.windows_changed_per_rendered", "ratio", "higher"),
        ("conditioning.rhythm_activation.s", "s", "lower"),
        ("conditioning.rhythm_activation.cells", "count", "lower"),
        ("conditioning.build_condition_bundle.s", "s", "lower"),
        ("conditioning.bundle_to_json.s", "s", "lower"),
        ("conditioning.bundle_from_json.s", "s", "lower"),
        ("conditioning.frames", "count", "lower"),
        ("conditioning.json_bytes", "bytes", "lower"),
        ("harmony.harmonize.s", "s", "lower"),
        ("planner.plan_inference.s", "s", "lower"),
        ("planner.windows", "count", "lower"),
        ("prep.load_reference_bank.s", "s", "lower"),
        ("prep.select_reference.s", "s", "lower"),
        ("prep.select_reference.candidates", "count", "lower"),
        ("score_io.load_score.s", "s", "lower"),
        ("score_io.score_to_json.s", "s", "lower"),
        ("score_io.score_from_json.s", "s", "lower"),
        ("beatgrid.detect_voiced_segments.s", "s", "lower"),
        ("beatgrid.interpolate_beats.s", "s", "lower"),
    ]
    + [(f"self.{layer}.s", "s", "lower") for layer in LAYERS]
    + [
        ("round.full_s", "s", "lower"),
        ("round.edit_s", "s", "lower"),
        ("trace.full_overhead_s", "s", "lower"),
        ("trace.edit_overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("song-long", "prepare-batch", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fingerprint() -> str:
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for directory in (os.path.join(SRC, "songpipe"), BENCH):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="ascii") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "songpipe", "__init__.py")):
        print(f"error: no songpipe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import songpipe
    from songpipe import beatgrid, cli, conditioning, harmony, metrics, planner, prep, render, score_io
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(songpipe.__file__)) != os.path.join(SRC, "songpipe"):
        print(f"error: imported songpipe from {songpipe.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer, peak_rss_mb

    modules = {"cli": cli, "score_io": score_io, "prep": prep, "harmony": harmony,
               "conditioning": conditioning, "planner": planner, "render": render,
               "metrics": metrics, "beatgrid": beatgrid}
    code = fingerprint()
    tag = f"{args.workload}-{args.seed}"
    run_dir = os.path.join(WORK, f"run-{tag}")
    store = os.path.join(WORK, "digests", f"{tag}-{code[:16]}.json")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(os.path.dirname(store), exist_ok=True)
    known = {}
    if os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)

    workload = workloads.WORKLOADS[args.workload](modules, args.seed, run_dir, known)
    try:
        setups = []
        for r in range(SETUP_REPEATS):
            directory = os.path.join(run_dir, f"inputs{r}")
            os.makedirs(directory)
            t = time.perf_counter()
            workload.setup(directory)
            setups.append(time.perf_counter() - t)

        tracer = Tracer(modules) if args.trace else None
        traced, untraced = [], []
        begin = time.perf_counter()
        while not untraced or time.perf_counter() - begin < args.seconds:
            if tracer is not None:
                tracer.install()
                workload.tracer = tracer
                try:
                    traced.append(workload.run_round())
                finally:
                    tracer.uninstall()
                    workload.tracer = None
            untraced.append(workload.run_round())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not os.path.exists(store) and workload.failed == 0:
        with open(store, "w", encoding="utf-8") as fh:
            json.dump(workload.seen, fh, sort_keys=True)

    if tracer is None:
        values = {
            "setup_s": import_s + median(setups),
            "round_s": median(r.full_s + sum(r.edits) for r in untraced),
            "peak_rss_mb": peak_rss_mb(),
            "written_mb": median(r.written for r in untraced) / 1e6,
        }
        units = dict(END_TO_END)
    else:
        tracer.write(os.path.join(WORK, f"trace-{tag}.json"))
        values = layer_values(tracer, workload, traced, untraced)
        units = {name: unit for name, unit, _ in PER_LAYER}

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(),
        "code_sha256": code,
    }
    result = {
        "correct": workload.incorrect == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(WORK, f"result-{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "rounds": len(untraced), "env": env,
                   "setup_repeats_s": setups, "import_s": import_s,
                   "rounds_s": [[r.full_s, r.edits, r.cpu_s] for r in untraced],
                   "traced_rounds_s": [[r.full_s, r.edits, r.cpu_s] for r in traced],
                   **result}, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} rounds"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {workload.attempted} operations attempted, {workload.failed} failed;"
          + f" full part {median(r.full_s for r in untraced):.3f} s,"
          + f" edit {median(t for r in untraced for t in r.edits):.3f} s (medians)")
    for name, metric in result["metrics"].items():
        print(f"  {name:<42} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


def layer_values(tracer, workload, traced, untraced) -> dict:
    n = len(traced)
    totals = tracer.totals()
    values = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".rss_mb"):
            values[name] = tracer.stage_rss.get(name, 0.0)
        elif name.endswith((".cpu_s", ".bytes")) and name.startswith("stage."):
            values[name] = tracer.stage_stats.get(name, 0.0) / n
        elif unit == "s":
            values[name] = totals.get(name, 0.0) / n
        else:
            values[name] = tracer.counts.get(name, 0.0) / n
    values["resume.windows_changed_per_rendered"] = workload.window_ratio
    values["round.full_s"] = median(r.full_s for r in untraced)
    values["round.edit_s"] = median(t for r in untraced for t in r.edits)
    values["trace.full_overhead_s"] = (median(r.full_s for r in traced)
                                       - median(r.full_s for r in untraced))
    values["trace.edit_overhead_s"] = (median(t for r in traced for t in r.edits)
                                       - median(t for r in untraced for t in r.edits))
    values["trace.spans"] = len(tracer.spans) / n
    return values


if __name__ == "__main__":
    sys.exit(main())
