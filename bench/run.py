"""Benchmark of the spinberry command line: one workload, one seed, one run.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run measures set-up (fresh interpreters importing ``spinberry.cli``),
then runs whole rounds for about ``--seconds``, two at least: a round is
one call of each of the workload's commands through
``spinberry.cli.main``, in a process forked from this one after it has
only imported the package, so no round sees program state from an
earlier one.  Every output is checked apart from the program
(``checks.py``), outside the timed region.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (``tracing.py``) with ``--trace 1``.  Each run is also appended
to ``bench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 4
MIN_ROUNDS = 2  # a run's median round time rests on two rounds at least
MAX_ROUNDS = 400
RUN_BUDGET_S = 160.0  # every run ends well inside 180 s
SETUP_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up time ----------------------------------------------------------------

_SETUP_CODE = ("import time\nimport spinberry.cli\n"
               "print(repr(time.perf_counter()))\n")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds of ``import spinberry.cli`` spent in numpy, scipy and the rest.

    ``-X importtime`` prints each module after the modules it imported,
    one indentation level deeper per nesting level.  Each module's own
    time goes to the outermost numpy or scipy module that encloses it,
    and otherwise to spinberry.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, _, name = line.split(":", 1)[1].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(self_us) * 1e-6))
    first = next((i for i, (lv, n, _) in enumerate(entries)
                  if lv == 0 and n.split(".")[0] == "spinberry"), None)
    if first is None:
        raise BenchError("no spinberry import in the -X importtime report")
    start = max([i for i in range(first) if entries[i][0] == 0], default=-1) + 1
    totals = {"numpy": 0.0, "scipy": 0.0, "spinberry": 0.0}
    stack: list[tuple[int, str]] = []  # (level, owner) from the root down
    for level, name, self_s in reversed(entries[start:]):
        while stack and stack[-1][0] >= level:
            stack.pop()
        owner = stack[-1][1] if stack else "spinberry"
        top = name.split(".")[0]
        if owner == "spinberry" and top in ("numpy", "scipy"):
            owner = top
        stack.append((level, owner))
        totals[owner] += self_s
    return totals


def measure_setup(trace: bool) -> dict:
    """Median set-up time over fresh interpreters, and its import breakdown."""
    raw, normalized, parts = [], [], []
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", _SETUP_CODE]
    for _ in range(SETUP_SAMPLES):
        sampler = speed.Sampler()
        sampler.bracket()
        t_launch = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        t_after = time.perf_counter()
        sampler.bracket()
        if proc.returncode != 0:
            raise BenchError(f"importing spinberry.cli failed:\n{proc.stderr[-2000:]}")
        t_done = float(proc.stdout.strip().splitlines()[-1])
        if not t_launch < t_done < t_after:
            raise BenchError("perf_counter is not shared with child processes")
        net, norm = sampler.normalize(t_launch, t_done)
        raw.append(net)
        normalized.append(norm)
        if trace:
            parts.append(parse_importtime(proc.stderr))
    out = {"raw_s": raw, "normalized_s": normalized}
    if trace:
        out["parts"] = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    return out


# -- rounds -------------------------------------------------------------------------

def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def call_cli(main, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; exceptions exit 1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the command crashed: a failed operation, not a result
        err.write(traceback.format_exc())
        code = 1
    return int(code or 0), out.getvalue(), err.getvalue()


def execute_round(plan, trace: bool) -> dict:
    """Run one round of commands, then check their outputs (untimed)."""
    from spinberry import cli

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    sampler = None if trace else speed.Sampler()
    results = []
    with sampler or nullcontext():
        for argv, meta in plan:
            if sampler:
                sampler.bracket()
            span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
            t0 = time.perf_counter()
            with span:
                code, stdout, stderr = call_cli(cli.main, argv)
            t1 = time.perf_counter()
            if sampler:
                sampler.bracket()
            results.append({"argv": argv, "meta": meta, "code": code,
                            "stdout": stdout, "stderr": stderr[-2000:],
                            "t0": t0, "t1": t1})
    rss_kb = peak_rss_kb()
    out = {"peak_rss_kb": rss_kb, "commands": []}
    if tracer:
        tracer.uninstall()
        spans = tracer.arrays()
        out["spans"], out["names"] = spans, tracer.names
        out["layers"] = tracing.layer_metrics(
            spans, tracer.names, sum(len(r["stdout"].encode()) for r in results))
    for r in results:
        raw, norm = r["t1"] - r["t0"], None
        if sampler:
            raw, norm = sampler.normalize(r["t0"], r["t1"])
        failures = checks.check(r["argv"], r["stdout"], r["meta"]) if r["code"] == 0 else []
        out["commands"].append({"argv": r["argv"], "code": r["code"], "raw_s": raw,
                                "normalized_s": norm, "failures": failures,
                                "stderr": r["stderr"] if r["code"] else ""})
    return out


def run_forked(fn, args, timeout: float):
    """Run ``fn(*args)`` in a forked child; its result, or None if it died."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks, deadline = [], time.monotonic() + timeout
    try:
        with os.fdopen(read_fd, "rb") as fh:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([fh], [], [], left)[0]:
                    os.kill(pid, signal.SIGKILL)
                    break
                chunk = os.read(fh.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not chunks:
        return None
    return pickle.loads(b"".join(chunks))


def make_plan(workload: str, seed: int, k: int, lambda_max, tmpdir: Path):
    """[(argv, meta)] of round k; the cycle schedule file is written here."""
    rng = workloads.round_rng(workload, seed, k)
    if workload == "scan":
        return [(argv, None) for argv in workloads.scan_round(rng)]
    if workload == "propagate":
        return [(argv, None) for argv in workloads.propagate_round(rng, lambda_max)]
    lambda0 = workloads.cycle_lambda0(rng)
    path = tmpdir / f"cycle-{k}.sched"
    path.write_text(workloads.cycle_schedule(lambda0), encoding="utf-8")
    return [(["cycle", "--schedule", str(path), "--spin", "2",
              "--m", "1"], {"lambda0": lambda0})]


# -- the run ------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args) -> tuple[dict, dict]:
    """(result line, run record)."""
    t_start = time.monotonic()
    if not (SRC / "spinberry" / "cli.py").is_file():
        raise BenchError(f"no spinberry sources under {SRC}; "
                         f"run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spinberry.cli  # noqa: F401  (the rounds fork from this import)
    import spinberry.entangle

    if not Path(spinberry.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"spinberry was imported from {spinberry.cli.__file__}")
    setup = measure_setup(bool(args.trace))
    lambda_max = (spinberry.entangle.lambda_max_solve()
                  if args.workload == "propagate" else None)

    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    rounds, walls, planned = [], [], 1
    try:
        k = 0
        while k < planned:
            plan = make_plan(args.workload, args.seed, k, lambda_max, tmpdir)
            t0 = time.monotonic()
            left = RUN_BUDGET_S - (t0 - t_start)
            res = run_forked(execute_round, (plan, bool(args.trace)), max(left, 1.0))
            walls.append(time.monotonic() - t0)
            rounds.append((plan, res))
            k += 1
            if k == 1:
                # Whole rounds fill the requested time, at least MIN_ROUNDS
                # of them, within the run budget.
                planned = max(MIN_ROUNDS, min(MAX_ROUNDS, round(args.seconds / walls[0])))
                fit = int((RUN_BUDGET_S - (time.monotonic() - t_start)) // (1.25 * walls[0]))
                planned = max(1, min(planned, 1 + fit))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    s = summarize(rounds)
    attempted, failed, correct = s["attempted"], s["failed"], s["correct"]
    round_norm, round_raw, rss, problems = s["norm"], s["raw"], s["rss"], s["problems"]
    layer_rounds, spans = s["layers"], s["spans"]
    if args.trace:
        keys = layer_rounds[0].keys() if layer_rounds else []
        values = {key: statistics.fmean(r[key] for r in layer_rounds) for key in keys}
        for name in ("numpy", "scipy", "spinberry"):
            values[f"setup.import_{name}_s"] = setup["parts"][name]
        units = tracing_units(values)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        if spans:
            write_spans(args, spans)
    else:
        metrics = {}
        if round_norm:
            metrics["round_s"] = {"value": statistics.median(round_norm), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup["normalized_s"]),
                              "unit": "s"}
        if rss:
            metrics["peak_rss_mb"] = {"value": max(rss) * 1024 / 1e6, "unit": "MB"}
    if "round_s" not in metrics and not args.trace:
        correct = False
        problems.append("no round completed")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **environment(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "rounds": len(rounds), "round_wall_s": walls,
        "round_raw_s": round_raw, "round_normalized_s": round_norm,
        "setup": setup, "problems": problems,
    }
    return result, record


def summarize(rounds) -> dict:
    """Operation counts, check results and times of a run's rounds.

    A command that exits nonzero is a failed operation: it is counted, and
    its round gives no round time.  A round whose process died counts all
    its commands as failed.  A check failure makes the run incorrect.
    """
    s = {"attempted": 0, "failed": 0, "correct": True, "norm": [], "raw": [],
         "rss": [], "problems": [], "layers": [], "spans": []}
    for k, (plan, res) in enumerate(rounds):
        s["attempted"] += len(plan)
        if res is None:
            s["failed"] += len(plan)
            s["correct"] = False
            s["problems"].append(f"round {k}: the round's process died")
            continue
        s["rss"].append(res["peak_rss_kb"])
        complete = True
        for c in res["commands"]:
            if c["code"] != 0:
                s["failed"] += 1
                complete = False
                s["problems"].append(f"round {k}: {' '.join(c['argv'])} exited "
                                     f"{c['code']}: {c['stderr'].strip()[-300:]}")
            for f in c["failures"]:
                s["correct"] = False
                s["problems"].append(f"round {k}: {' '.join(c['argv'])}: {f}")
        if complete:
            s["raw"].append(sum(c["raw_s"] for c in res["commands"]))
            if all(c["normalized_s"] is not None for c in res["commands"]):
                s["norm"].append(sum(c["normalized_s"] for c in res["commands"]))
        if "layers" in res:
            s["layers"].append(res["layers"])
            s["spans"].append((k, res["names"], res["spans"]))
    return s


def tracing_units(values: dict) -> dict:
    units = {}
    for key in values:
        if key.endswith("_s") or key.endswith(".s"):
            units[key] = "s"
        elif key.endswith("_per_spectrum") or key.endswith("_per_step") \
                or key.endswith(".evals"):
            units[key] = "ratio"
        elif key.endswith("bytes"):
            units[key] = "bytes"
        else:
            units[key] = "count"
    return units


def write_spans(args, spans) -> None:
    """All spans of the run, one row each, with their round."""
    import numpy as np

    names = sorted({n for _, round_names, _ in spans for n in round_names})
    index = {n: i for i, n in enumerate(names)}
    columns = {"round": [], "name": [], "parent": [], "start": [], "end": [],
               "count": [], "eigensolves": []}
    for k, round_names, arr in spans:
        remap = np.array([index[n] for n in round_names] or [0])
        columns["round"].append(np.full(arr["name"].size, k, dtype=np.int32))
        columns["name"].append(remap[arr["name"]].astype(np.int32))
        for key in ("parent", "start", "end", "count", "eigensolves"):
            columns[key].append(arr[key])
    OUT.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(OUT / f"spans-{args.workload}.npz",
                        names=np.array(names),
                        **{k: np.concatenate(v) for k, v in columns.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in record["problems"]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
