"""quandlekit benchmark: three workloads through the CLI, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload {tables,theorem,search}
        --seed N --seconds S --trace {0,1}

The run generates its inputs and expected outputs from the seed (numpy only,
no quandlekit), then starts one client process (perfbench/client.py) that
runs rounds of the op list in-process through `quandlekit.cli.main`, checks
every output outside the timed region, and between ops measures set-up time
in fresh interpreters.

--trace 0 prints the end-to-end metrics: wall_s (the op list's time, as the
sum over its ops of each op's median over the rounds), setup_s (median of
twelve fresh-interpreter imports plus build_parser, spread over the run) and
peak_rss_mb (the client's ru_maxrss).  --trace 1 adds one round with every
public function wrapped in a span and prints the per-layer metrics from it,
plus the per-subcommand times of the untraced rounds and the tracing
overhead (traced round minus wall_s).  The last
stdout line is the result as JSON; run artefacts (plan, result, spans) stay
in perfbench/work/.

Only own-process measures are used: perf_counter around each call and
ru_maxrss of the client.  Nothing traces or samples the whole system.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170

OP_KINDS = ("validate", "construct", "analyze", "search", "fix_block")


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "clock": "time.perf_counter around each call, in the client process",
        "memory": "ru_maxrss of the client process",
        "system_wide_tracing": False,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUANDLEKIT_MAX_ORDER", None)  # the workloads rely on default caps
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = "1"  # numpy's import starts no BLAS thread pool
    return env


def run_client(workdir: Path, seconds: int, trace: int, deadline: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "client.py"), str(workdir), str(seconds), str(trace)],
        env=child_env(), start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the client and its set-up probe
        proc.wait()
        raise RuntimeError("client exceeded the time limit")
    if code != 0:
        raise RuntimeError(f"client exited with code {code}")
    return json.loads((workdir / "result.json").read_text())


def op_medians(rounds: list[dict]) -> list[tuple[str, float]]:
    """(kind, median seconds over the rounds) of each op of the list."""
    return [
        (ops[0]["kind"], statistics.median(op["seconds"] for op in ops))
        for ops in zip(*(r["ops"] for r in rounds))
    ]


def kind_seconds(rounds: list[dict]) -> dict[str, float]:
    """Summed per-op medians per op kind."""
    sums = dict.fromkeys(OP_KINDS, 0.0)
    for kind, seconds in op_medians(rounds):
        sums[kind] += seconds
    return {f"e2e.{kind}_s": v for kind, v in sums.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + TIME_LIMIT_S

    if not (SRC / "quandlekit" / "__init__.py").is_file():
        print(f"error: no quandlekit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, workdir)
        (workdir / "plan.json").write_text(json.dumps(plan, indent=1))
        result = run_client(workdir, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir / "in", ignore_errors=True)
        shutil.rmtree(workdir / "out", ignore_errors=True)

    rounds = result["rounds"]
    setup = result["setup_samples"]
    measured = rounds + ([result["traced"]] if result["traced"] else [])
    attempted = sum(len(r["ops"]) for r in measured)
    failed = sum(1 for r in measured for op in r["ops"] if op["error"])
    wall_s = sum(seconds for _, seconds in op_medians(rounds))
    if args.trace:
        values = dict(result["traced"]["layers"])
        values.update(kind_seconds(rounds))
        values["trace.overhead_s"] = result["traced"]["wall_s"] - wall_s
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup_samples": setup,
        "round_walls": [r["wall_s"] for r in rounds], "per_kind": kind_seconds(rounds),
        "fail_ratio": {"failed": failed, "attempted": attempted,
                       "base": "ops attempted in the measured rounds"},
        "metrics": metrics,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    print("environment: " + json.dumps(record["environment"]))
    print(f"rounds: {len(rounds)}, walls: {[round(w, 3) for w in record['round_walls']]}")
    print(f"fail_ratio: {failed}/{attempted} (base: ops attempted in the measured rounds)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
