"""The workload process: a single closed-loop client in a fresh interpreter.

Usage: python3 perfbench/client.py WORKDIR SECONDS TRACE

Reads WORKDIR/plan.json, imports quandlekit from the checkout's `src`, and
runs the ops one at a time through `quandlekit.cli.main(argv)` (or
`fix_block_report`), timing each call with perf_counter.  Outputs are checked
against the plan's expectations after each call, outside the timed region.

Rounds of the whole op list repeat while another round still fits in
SECONDS, and at least MIN_ROUNDS times, so that each op is timed several
times spread over the run.  With TRACE 1 one more round follows with the
span recorder installed.  Set-up probes (a fresh interpreter importing
quandlekit and building the CLI parser) run between ops, spread over the
untraced rounds.  Writes WORKDIR/result.json.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

# Twelve probes, one before the first round and then one per twelfth of the
# run where ops allow, so that their median spans the run on a shared machine.
SETUP_PROBES = 12

# Each op's reported time is its median over the rounds; fewer than three
# samples give no median worth the name.
MIN_ROUNDS = 3

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import quandlekit
from quandlekit import cli
cli.build_parser()
elapsed = time.perf_counter() - start
if not quandlekit.__file__.startswith(sys.argv[1]):
    sys.exit("quandlekit imported from outside " + sys.argv[1])
print(elapsed)
"""


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import quandlekit and build the parser."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _lookup(doc, path: str):
    for key in path.split("."):
        doc = len(doc) if key == "#" else doc[key]
    return doc


def check(expect: dict, rc, stdout: str, stderr: str, out: str | None) -> str | None:
    """None when the op produced the expected outcome, else what differs."""
    if rc != expect["exit"]:
        return f"exit code {rc}, expected {expect['exit']}: {stderr.strip()[:200]}"
    if "stdout" in expect and stdout != expect["stdout"]:
        return f"stdout differs from the reference: {stdout[:200]!r}"
    if "stderr_prefix" in expect and not stderr.startswith(expect["stderr_prefix"]):
        return f"stderr {stderr[:200]!r}, expected prefix {expect['stderr_prefix']!r}"
    if "json" in expect:
        try:
            doc = json.loads(stdout)
            for path, want in expect["json"].items():
                got = _lookup(doc, path)
                if got != want:
                    return f"{path} = {got!r}, expected {want!r}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"bad JSON report: {exc!r}"
    if "out_sha256" in expect:
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        if digest != expect["out_sha256"]:
            return "output file differs from the reference rendering"
    return None


class Client:
    def __init__(self, plan: dict):
        sys.path.insert(0, str(SRC))
        import quandlekit
        from quandlekit import cli, core, shq

        if Path(quandlekit.__file__).resolve().parent != SRC / "quandlekit":
            raise SystemExit(f"quandlekit imported from {quandlekit.__file__}, not {SRC}")
        self.cli, self.shq = cli, shq
        self.plan = plan
        self.tables = {path: core.read_qdl(path) for path in plan["preload"]}
        self.recorder = None
        self.setup: list[float] = []
        self.probe_every: float | None = None  # seconds between set-up probes
        self.start = 0.0  # when the first untraced round began

    def run_op(self, op: dict) -> dict:
        ctx = self.recorder.op_span(op["id"], op["kind"]) if self.recorder else nullcontext()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        try:
            if op["kind"] == "fix_block":
                q = self.tables[op["table"]]
                with ctx:
                    start = perf_counter()
                    report = self.shq.fix_block_report(q)
                    seconds = perf_counter() - start
                outcome = {"passed": report.passed, "checked": report.checked}
                want = op.get("expect")
                error = None if want is None or outcome == want else f"{outcome}, expected {want}"
                return {"id": op["id"], "kind": op["kind"], "seconds": seconds, "error": error}
            with redirect_stdout(out), redirect_stderr(err), ctx:
                start = perf_counter()
                try:
                    rc = self.cli.main(op["argv"])
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                seconds = perf_counter() - start
        except Exception:  # a crash fails this op; the run goes on
            return {"id": op["id"], "kind": op["kind"], "seconds": 0.0,
                    "error": traceback.format_exc()}
        stdout = out.getvalue()
        error = None
        if "expect" in op:
            error = check(op["expect"], rc, stdout, err.getvalue(), op.get("out"))
        if self.recorder:
            counts = self.recorder.counts
            counts["cli.out_bytes"] += len(stdout.encode())
            if op.get("out"):
                counts["cli.out_bytes"] += Path(op["out"]).stat().st_size
            if op["kind"] == "search" and error is None:
                stats = json.loads(stdout)["stats"]
                counts["search.raw_candidates"] += sum(stats["per_generator_raw"])
                counts["search.unary_survivors"] += sum(stats["per_generator_unary"])
                counts["search.nodes"] += stats["nodes_expanded"]
                counts["search.hits"] += stats["connectivity"]
        return {"id": op["id"], "kind": op["kind"], "seconds": seconds, "error": error}

    def run_round(self) -> dict:
        ops = []
        for op in self.plan["ops"]:
            ops.append(self.run_op(op))
            due = self.probe_every and perf_counter() - self.start >= len(self.setup) * self.probe_every
            if due and len(self.setup) < SETUP_PROBES:
                self.setup.append(setup_probe())
        for op in ops:
            if op["error"]:
                print(f"FAILED {op['id']}: {op['error']}", file=sys.stderr)
        return {"wall_s": sum(op["seconds"] for op in ops), "ops": ops}

    def run(self, seconds: float, trace: bool, workdir: Path) -> dict:
        for op in self.plan["warmup"]:
            self.run_op(op)
        rounds = []
        traced = None
        self.setup.append(setup_probe())
        self.probe_every = seconds / SETUP_PROBES
        self.start = perf_counter()
        while True:
            rounds.append(self.run_round())
            elapsed = perf_counter() - self.start
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        self.probe_every = None
        while len(self.setup) < SETUP_PROBES:
            self.setup.append(setup_probe())
        if trace:
            from spans import Recorder

            self.recorder = Recorder()
            wrapped = self.recorder.install()
            traced = self.run_round()
            traced["layers"] = self.recorder.layer_metrics()
            traced["wrapped_functions"] = wrapped
            self.recorder.write(workdir / "spans.jsonl.gz")
        return {
            "rounds": rounds,
            "traced": traced,
            "setup_samples": self.setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def main(argv: list[str]) -> int:
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    plan = json.loads((workdir / "plan.json").read_text())
    result = Client(plan).run(seconds, trace, workdir)
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
