"""The workload process. `run.py` starts it with a JSON spec file:

    python3 bench/child.py SPEC.json

mode "prepare" generates the workload's inputs; mode "run" repeats the
workload's round through `dvmer.cli.main` until `seconds` have passed.
With trace on, untraced and traced rounds alternate: the probes are
installed before each traced round and removed after it, so untraced rounds
run the plain program and give the reference for the tracing overhead.
The result (per-round times, exit codes, command payloads and, when traced,
the per-layer metrics) is written as JSON to the spec's "result" path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

import workloads


def run_command(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed command, reported with its traceback
        code = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    payload = None
    lines = out.getvalue().strip().splitlines()
    if lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
    if code != 0:
        sys.stderr.write(f"dvmer {argv[0]} exited {code}\n{err.getvalue()}")
    return {"wall": wall, "exit": code, "payload": payload}


def run_rounds(spec: dict) -> dict:
    from dvmer import cli

    workload, work, inputs = spec["workload"], spec["work"], spec["inputs"]
    probes = None
    if spec["trace"]:
        from probes import Probes

        probes = Probes()
    rounds = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        traced = probes is not None and len(rounds) % 2 == 1
        out = os.path.join(work, "out", f"r{len(rounds)}")
        os.makedirs(out)
        if traced:
            probes.install()
        cpu = time.process_time()
        try:
            commands = {label: run_command(cli, argv)
                        for label, argv in workloads.round_commands(workload, inputs, out)}
        finally:
            if traced:
                probes.remove()
        rounds.append({"out": out, "traced": traced, "cpu": time.process_time() - cpu,
                       "wall": sum(c["wall"] for c in commands.values()), "commands": commands})
        enough = len(rounds) >= (2 if probes is not None else 1)
        if enough and time.perf_counter() >= deadline:
            break

    result = {"rounds": rounds}
    if probes is not None:
        traced = [r for r in rounds if r["traced"]]
        result["layers"] = probes.layer_metrics(len(traced))
        result["layer_self_total"], result["glue_self_total"] = probes.self_time_split()
        result["wrappers_removed"] = not probes.tracer.installed
    return result


def prepare(spec: dict) -> dict:
    """Inputs of the workload; for infer also a checkpoint trained by one
    `dvmer train` with the workload's run config."""
    inputs = workloads.prepare(spec["workload"], spec["work"], spec["seed"])
    if spec["workload"] == "infer":
        from dvmer import cli

        run_dir = os.path.join(spec["work"], "trained")
        (_, argv), = workloads.round_commands("train", inputs, run_dir)
        if run_command(cli, argv)["exit"] != 0:
            raise RuntimeError("training the inference checkpoint failed")
        inputs["checkpoint"] = os.path.join(run_dir, "checkpoint.dmrc")
    return inputs


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["mode"] == "prepare":
        result = prepare(spec)
    else:
        result = run_rounds(spec)
    workloads.dump(spec["result"], result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
