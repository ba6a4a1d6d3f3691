"""dvmer benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {extract,train,infer} --seed N --seconds S --trace {0,1}

Run from the repository root. The run generates the workload's inputs from
the seed (in a child process), times a fresh-process import of `dvmer.cli`
several times (`setup_s`), then starts the workload process (`child.py`),
which repeats the workload's round through `dvmer.cli.main` for S seconds.
Afterwards every round's outputs are checked. Human-readable lines (the
environment, the per-command figures and, with --trace 1, the per-layer
table) go to stdout first; the last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from alternating untraced/traced rounds. Scratch files go
to .bench_work/ under the root and are deleted at exit. NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import median  # noqa: E402

SETUP_SAMPLES = 7
TIME_LIMIT = 170.0  # seconds for the whole run, below the 180 s a run may take
SETUP_CODE = ("import time; t = time.perf_counter(); import dvmer.cli; "
              "dvmer.cli.build_parser(); print(time.perf_counter() - t)")

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-command figures: label, the round commands it covers, unit
COMMAND_METRICS = (
    ("cli.extract_features_tracks_per_s", ("extract",), "tracks/s"),
    ("cli.train_samples_per_s", ("train",), "samples/s"),
    ("cli.eval_tracks_per_s", ("eval_train", "eval_test"), "tracks/s"),
    ("cli.export_embeddings_tracks_per_s", ("export",), "tracks/s"),
)
TRACE_UNITS = {"trace.overhead_ms": "ms", "trace.overhead_ratio": "ratio",
               "trace.coverage": "ratio", "trace.glue_self_ms": "ms", "trace.rounds": "count"}


def per_layer_units() -> dict[str, str]:
    """Every metric a --trace 1 run reports, with its unit."""
    commands = {name: unit for name, _, unit in COMMAND_METRICS}
    return {**probes.LAYER_METRICS, **TRACE_UNITS, **commands, "training.loss_final": "loss"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_child(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py on spec; returns its result and its peak RSS in MB."""
    spec_path = os.path.join(spec["work"], f"{spec['mode']}.spec.json")
    spec = dict(spec, result=os.path.join(spec["work"], f"{spec['mode']}.result.json"))
    workloads.dump(spec_path, spec)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "child.py"), spec_path],
                            env=child_env(), stdout=sys.stderr)
    while True:
        # wait4 rather than Popen.wait: it also reports the child's peak RSS
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{spec['mode']} step ran past the time limit")
        time.sleep(0.1)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} step exited {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def measure_setup(deadline: float) -> list[float]:
    """Seconds to import dvmer.cli and build its parser, each in a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"importing dvmer.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return samples


# -- environment ---------------------------------------------------------------


def blas_threads() -> str:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return str(fn())
    return "unknown"


def git_commit() -> str:
    # the ceiling stops git from reporting a repository that merely encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


# -- checking and reporting ----------------------------------------------------


def check_rounds(workload: str, inputs: dict, rounds: list[dict]) -> tuple[int, list[str], list[float]]:
    """Failed operations over all rounds, the problems found, and (train) the
    final loss of each round."""
    failed, problems, losses = 0, [], []
    items = inputs["items"]
    if workload == "extract":
        from dvmer.features import FeatureConfig

        config_hash = FeatureConfig().config_hash()
        for r in rounds:
            for name in inputs["tracks"]:
                found = checks.check_cache(os.path.join(r["out"], f"{name}.dmrf"), name, config_hash)
                failed += bool(found)
                problems += found
        ref = inputs["tracks"][workloads.REFERENCE_TRACK]
        found = checks.check_reference(os.path.join(rounds[0]["out"], f"{ref}.dmrf"),
                                       os.path.join(inputs["wavs"], f"{ref}.wav"))
        failed += bool(found)
        problems += found
    elif workload == "train":
        for r in rounds:
            cmd = r["commands"]["train"]
            found = [] if cmd["exit"] == 0 else [f"train exited {cmd['exit']}"]
            more, loss = checks.check_train_run(r["out"], inputs["config"], workloads.TRAIN_EPOCHS)
            found += more
            losses.append(loss)
            failed += inputs["ops"] if found else 0
            problems += found
    else:
        try:
            expected = checks.infer_expectations(inputs)
        except Exception as exc:  # no reference to check against: every operation failed
            return inputs["ops"] * len(rounds), [f"recomputing eval metrics: {exc!r}"], losses
        for r in rounds:
            cmds = r["commands"]
            for label, split in (("eval_train", "train"), ("eval_test", "test")):
                found = checks.check_eval_payload(cmds[label]["payload"], expected, split)
                failed += items[label] if found else 0
                problems += found
            found = [] if cmds["export"]["exit"] == 0 else [f"export exited {cmds['export']['exit']}"]
            found += checks.check_export_csv(os.path.join(r["out"], "embeddings.csv"), expected)
            failed += items["export"] if found else 0
            problems += found
    return failed, problems, losses


def command_metrics(items: dict[str, int], rounds: list[dict], losses: list[float]) -> dict[str, tuple[float, str]]:
    """Per-command throughput medians over the untraced rounds (0 for
    commands the workload does not run) and the final training loss."""
    plain = [r for r in rounds if not r["traced"]]
    out = {}
    for name, labels, unit in COMMAND_METRICS:
        if all(label in items for label in labels):
            rates = [sum(items[k] for k in labels) / sum(r["commands"][k]["wall"] for k in labels) for r in plain]
            out[name] = (median(rates), unit)
        else:
            out[name] = (0.0, unit)
    out["training.loss_final"] = (median(losses) if losses else 0.0, "loss")
    return out


def paired_overhead(rounds: list[dict]) -> float:
    """Median over traced rounds of the wall time minus the mean of the
    untraced rounds next to it; pairing neighbours cancels slow drift."""
    diffs = []
    for i, r in enumerate(rounds):
        if r["traced"]:
            near = [rounds[j]["wall"] for j in (i - 1, i + 1) if 0 <= j < len(rounds) and not rounds[j]["traced"]]
            diffs.append(r["wall"] - sum(near) / len(near))
    return median(diffs)


def trace_metrics(result: dict) -> dict[str, float]:
    """Tracing overhead, and coverage: the self time of the spans that back
    per-layer metrics over the traced wall time. Glue spans (probes.GLUE_SPANS)
    do not count, so work that no layer metric carries lowers coverage."""
    rounds = result["rounds"]
    overhead = paired_overhead(rounds)
    traced = [r["wall"] for r in rounds if r["traced"]]
    return {
        "trace.overhead_ms": 1e3 * overhead,
        "trace.overhead_ratio": overhead / median([r["wall"] for r in rounds if not r["traced"]]),
        "trace.coverage": result["layer_self_total"] / sum(traced),
        "trace.glue_self_ms": 1e3 * result["glue_self_total"] / len(traced),
        "trace.rounds": float(len(traced)),
    }


def print_table(title: str, rows: dict[str, tuple[float, str]]):
    print(f"# {title}")
    for name, (value, unit) in rows.items():
        print(f"#   {name:<40} {value:>14.6g} {unit}")


def bench(args) -> dict:
    start = time.monotonic()
    deadline = start + TIME_LIMIT
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work)
    try:
        spec = {"workload": args.workload, "seed": args.seed, "work": work}
        inputs, _ = run_child(dict(spec, mode="prepare"), deadline)
        setup = measure_setup(deadline)
        result, peak_rss_mb = run_child(
            dict(spec, mode="run", inputs=inputs, seconds=args.seconds, trace=args.trace), deadline)
        rounds = result["rounds"]
        failed, problems, losses = check_rounds(args.workload, inputs, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run is using it
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    attempted = inputs["ops"] * len(rounds)
    plain = [r for r in rounds if not r["traced"]]
    items = sum(inputs["items"].values())
    end_to_end = {
        "items_per_s": median([items / r["wall"] for r in plain]),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    commands = command_metrics(inputs["items"], rounds, losses)

    env = environment(args.workload, args.seed)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {len(plain)} untraced round(s), {len(rounds) - len(plain)} traced; "
          f"round = {inputs['items']} items")
    print("# round walls (s): " + " ".join(f"{r['wall']:.3f}{'t' if r['traced'] else ''}" for r in rounds))
    print("# round cpu (s): " + " ".join(f"{r['cpu']:.3f}" for r in rounds))
    rows = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end.items()}
    rows["failed_ratio"] = (failed / attempted, "fraction")
    rows.update({k: v for k, v in commands.items() if v[0] != 0.0})
    print_table("end-to-end", rows)

    if args.trace:
        if not result["wrappers_removed"]:
            raise BenchError("tracing wrappers were not removed")
        values = {**result["layers"], **trace_metrics(result), **{k: v for k, (v, _) in commands.items()}}
        units = per_layer_units()
        print_table("per-layer (per round unless named otherwise)", {k: (values[k], units[k]) for k in units})
    else:
        values, units = end_to_end, END_TO_END_UNITS
    return {
        "correct": failed == 0 and all(math.isfinite(v) for v in values.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dvmer", "cli.py")):
        print(f"dvmer sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
