"""gecsyntax benchmark: three batch workloads, timed end to end, checked, traced.

    python3 bench/run.py --workload treebank|encode|ensemble \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory.
``--trace 0`` runs the workload's chain of fresh processes (the CLI, or the
encode driver) again and again for about ``--seconds`` seconds and prints
the end-to-end metrics.  ``--trace 1`` runs the chain once, then the
in-process driver with spans off and on, and prints the per-layer metrics.
Either way every output is checked, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units are those listed in ``BENCHMARK.json``.  See
``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

DEFAULT_SEEDS = {"treebank": 909, "encode": 808, "ensemble": 707}
DEFAULT_SIZES = {"treebank": 5_000, "encode": 1_000, "ensemble": 10_000}
SETUPS_PER_CHAIN = 2
CHILD_TIMEOUT_S = 150
PY = sys.executable
CLI = [PY, "-m", "gecsyntax.cli"]


@dataclass
class Step:
    """One command of a chain; ``prepare`` runs in this process, untimed, first."""
    name: str
    argv: list
    prepare: Callable[[], None] | None = None

    @property
    def cli_args(self) -> list:
        """The arguments after ``python -m gecsyntax.cli``."""
        if self.argv[:len(CLI)] != CLI:
            raise ValueError(f"{self.name} is not a CLI command")
        return self.argv[len(CLI):]


@dataclass
class StepResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


@dataclass
class Chain:
    steps: list[StepResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

    @property
    def ok(self) -> bool:
        return all(s.returncode == 0 for s in self.steps)


def run_step(step: Step, log_dir: Path) -> StepResult:
    """Run one child to completion; wall time from spawn to reap, rusage from wait4."""
    if step.prepare is not None:
        step.prepare()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log_dir / f"{step.name}.stdout", "wb") as out, \
            open(log_dir / f"{step.name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in step.argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (log_dir / f"{step.name}.stderr").read_text(errors="replace")[-2000:]
        print(f"{step.name} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return StepResult(step.name, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, proc.returncode)


def run_chain(steps: list[Step], log_dir: Path) -> Chain:
    chain = Chain()
    for step in steps:
        chain.steps.append(run_step(step, log_dir))
        if chain.steps[-1].returncode != 0:
            break
    return chain


# --- workloads ------------------------------------------------------------

def _cli(*args) -> list:
    return [*CLI, *args]


def _inproc(workload: str, inp: Path, out: Path, spans: int) -> list:
    return [PY, BENCH / "inproc.py", workload, inp, out, "--spans", str(spans)]


def treebank_steps(inp: Path, out: Path) -> list[Step]:
    return [
        Step("project", _cli("project", inp / "pairs.tsv", inp / "targets.trees",
                             "-o", out / "source.trees", "--summary", out / "summary.json")),
        Step("subword", _cli("subword", out / "source.trees", inp / "seg.tsv",
                             "-o", out / "sub.trees")),
        Step("strip", _cli("strip", out / "source.trees", "-o", out / "stripped.trees")),
    ]


def encode_steps(inp: Path, out: Path) -> list[Step]:
    return [Step("encode", _inproc("encode", inp, out, 0))]


def ensemble_steps(inp: Path, out: Path) -> list[Step]:
    hyps = sorted(inp.glob("hyp*.txt"))

    def write_pairs():
        with open(inp / "src.txt", encoding="utf-8") as src, \
                open(out / "out.txt", encoding="utf-8") as hyp, \
                open(out / "pairs.tsv", "w", encoding="utf-8") as pairs:
            for s, h in zip(src, hyp):
                pairs.write(s.rstrip("\n") + "\t" + h)

    return [
        Step("ensemble-train", _cli("ensemble-train", inp / "src.txt", *hyps,
                                    inp / "gold.m2", "-o", out / "model.json")),
        Step("ensemble-apply", _cli("ensemble-apply", inp / "src.txt", *hyps,
                                    out / "model.json", "-o", out / "out.txt")),
        Step("align", _cli("align", "--format", "m2", out / "pairs.tsv",
                           "-o", out / "hyp.m2"), prepare=write_pairs),
        Step("score", _cli("score", out / "hyp.m2", inp / "gold.m2",
                           "-o", out / "score.json")),
    ]


STEPS = {"treebank": treebank_steps, "encode": encode_steps, "ensemble": ensemble_steps}
# Output files whose digests are stored for the default seed.
DIGESTED_OUTPUTS = {"treebank": ["source.trees", "sub.trees", "stripped.trees",
                                 "summary.json"],
                    "encode": [],
                    "ensemble": ["out.txt", "hyp.m2", "score.json"]}


def run_checks(workload: str, inp: Path, out: Path, n: int, expected: dict):
    """(failed item indices, messages, workload metrics) for one chain's outputs."""
    import checks

    extra: dict = {}
    try:
        if workload == "treebank":
            failed, messages = checks.treebank(inp, out, n)
        elif workload == "encode":
            report = json.loads((out / "inproc.json").read_text(encoding="utf-8"))
            failed, messages = checks.encode(inp, out, n, len(report["latencies_s"]))
        else:
            failed, messages, score = checks.ensemble(inp, out, n, expected.get("f05"))
            extra = {"f05": score["F05"], "precision": score["P"],
                     "union_precision": score.get("union_precision")}
    except Exception:  # a malformed output fails the run, it does not crash it
        return set(range(n)), [f"output check crashed:\n{traceback.format_exc()}"], extra
    for name, digest in expected.get("outputs", {}).items():
        if sha256(out / name) != digest:
            messages.append(f"output {name} differs from the stored digest")
            failed = set(range(n))
    return failed, messages, extra


# --- environment --------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS library and thread count as numpy's OpenBLAS reports them."""
    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
                return info
    return info


def environment(seed: int) -> dict:
    import numpy as np

    rev = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        rev = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            **blas_info(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
            "seed": seed}


def unit_of(metric: str) -> str:
    """Every metric's unit follows from its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_us", "us"), ("_mb", "MB"),
                         ("_s", "s"), ("flops", "flop"), ("ratio", "ratio"),
                         ("share", "ratio"), ("f05", "ratio")):
        if metric.endswith(suffix) or f"{suffix}." in metric:
            return unit
    return "count"


# --- runs ---------------------------------------------------------------------

def measure(workload: str, inp: Path, setup_inp: Path, work: Path, n: int,
            seconds: float, expected: dict) -> dict:
    """Untraced: whole chains, each after two one-item setups, for about ``seconds``.

    Timings on a shared machine drift over seconds, so setups are spread
    through the run and every metric is a median.  Outputs of the first
    chain are checked; later chains must reproduce them byte for byte.
    """
    setup_out = work / "setup_out"
    setup_out.mkdir()
    setup_step = STEPS[workload](setup_inp, setup_out)[0]
    run_step(setup_step, setup_out)  # the first run also compiles bytecode caches

    setups, chains, latencies, digests = [], [], [], set()
    start = time.perf_counter()
    while True:
        setups += [run_step(setup_step, setup_out) for _ in range(SETUPS_PER_CHAIN)]
        out = work / f"out{len(chains)}"
        out.mkdir()
        chain = run_chain(STEPS[workload](inp, out), out)
        chains.append(chain)
        if not chain.ok:
            break
        if workload == "encode":
            report = json.loads((out / "inproc.json").read_text(encoding="utf-8"))
            latencies += report["latencies_s"]
        digests.add(tuple(sha256(out / name) for name in DIGESTED_OUTPUTS[workload]))
        if len(chains) > 1:
            shutil.rmtree(out)
        typical = (statistics.median(c.wall_s for c in chains)
                   + SETUPS_PER_CHAIN * statistics.median(s.wall_s for s in setups))
        if time.perf_counter() - start + typical > seconds:
            break

    if not chains[-1].ok:
        failed, messages, extra = set(range(n)), ["a command exited non-zero"], {}
    else:
        failed, messages, extra = run_checks(workload, inp, work / "out0", n, expected)
    if len(digests) > 1:
        messages.append("outputs differ between repeated chains")
        failed = set(range(n))
    metrics = {
        "setup_s": statistics.median(s.wall_s for s in setups),
        "items_per_s": statistics.median(n / c.wall_s for c in chains),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in c.steps) for c in chains),
    }
    if latencies:
        cuts = statistics.quantiles(latencies, n=100)
        metrics["item_p50_ms"] = cuts[49] * 1e3
        metrics["item_p99_ms"] = cuts[98] * 1e3
    if "f05" in extra:
        metrics["f05"] = extra.pop("f05")
    outputs = {name: sha256(work / "out0" / name)
               for name in DIGESTED_OUTPUTS[workload]} if chains[0].ok else {}
    return {"metrics": metrics, "failed": failed, "messages": messages,
            "chains": [[vars(s) for s in c.steps] for c in chains],
            "setups": [vars(s) for s in setups], "checks": extra,
            "latency_samples": len(latencies), "outputs": outputs}


def trace(workload: str, inp: Path, work: Path, n: int, expected: dict) -> dict:
    """One untraced chain for the cli.* metrics, then the driver with spans off and on."""
    out = work / "chain"
    out.mkdir()
    chain = run_chain(STEPS[workload](inp, out), out)
    metrics: dict = {}
    layer = "driver" if workload == "encode" else "cli"
    for s in chain.steps:
        metrics[f"{layer}.{s.name}.wall_s"] = s.wall_s
        metrics[f"{layer}.{s.name}.cpu_s"] = s.cpu_s
        metrics[f"{layer}.{s.name}.rss_mb"] = s.rss_mb
    if not chain.ok:
        return {"metrics": metrics, "failed": set(range(n)),
                "messages": ["a command exited non-zero"]}
    failed, messages, extra = run_checks(workload, inp, out, n, expected)

    walls = {}
    for spans in (0, 1):
        drv = work / f"inproc{spans}"
        drv.mkdir()
        res = run_step(Step(f"inproc{spans}", _inproc(workload, inp, drv, spans)), drv)
        if res.returncode != 0:
            return {"metrics": metrics, "failed": set(range(n)),
                    "messages": [f"in-process driver (spans {spans}) failed"]}
        report = json.loads((drv / "inproc.json").read_text(encoding="utf-8"))
        walls[spans] = report["wall_s"]
        drv_failed, drv_messages, _ = run_checks(workload, inp, drv, n, expected)
        failed |= drv_failed
        messages += [f"in-process (spans {spans}): {m}" for m in drv_messages]
    metrics.update(report["layers"])
    metrics["trace.overhead_ratio"] = walls[1] / walls[0]
    RESULTS.mkdir(exist_ok=True)
    shutil.copy(work / "inproc1" / "spans.tsv",
                RESULTS / f"{workload}-seed{expected['seed']}-spans.tsv")
    return {"metrics": metrics, "failed": failed, "messages": messages, "checks": extra,
            "inproc_wall_s": walls}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="items in the workload (default: the benchmark's size)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's input and output digests in "
                             "bench/expected.json (default seed and size only)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    missing = [p for p in (ROOT / "src" / "gecsyntax" / "cli.py", ROOT / "tests" / "helpers.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"error: not a gecsyntax checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import gen

    workload = args.workload
    seed = DEFAULT_SEEDS[workload] if args.seed is None else args.seed
    n = DEFAULT_SIZES[workload] if args.size is None else args.size
    canonical = seed == DEFAULT_SEEDS[workload] and n == DEFAULT_SIZES[workload]
    if args.record and (args.trace or not canonical):
        parser.error("--record needs --trace 0 and the default seed and size")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    stored = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    expected = dict(stored.get(workload, {})) if canonical and not args.record else {}
    expected["seed"] = seed

    work = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    inp, setup_inp = work / "in", work / "setup_in"
    inp.mkdir(parents=True)
    setup_inp.mkdir()
    try:
        params = gen.GENERATORS[workload](inp, seed, n)
        gen.GENERATORS[workload](setup_inp, seed, 1)
        inputs = {p.name: sha256(p) for p in sorted(inp.iterdir())}
        messages = []
        if expected.get("inputs", inputs) != inputs:
            messages.append("generated inputs differ from the stored digests: "
                            "the generator or a library function it uses changed")
        if args.trace:
            result = trace(workload, inp, work, n, expected)
            names = spec["per_layer"]
        else:
            result = measure(workload, inp, setup_inp, work, n, args.seconds, expected)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = set(range(n)) if messages else result["failed"]
    messages += result["messages"]
    metrics = result["metrics"]
    metrics["failed_share"] = len(failed) / n
    env = environment(seed)
    record = {"workload": workload, "seed": seed, "trace": args.trace, "items": n,
              "generator": params, "env": env, "messages": messages,
              **{k: v for k, v in result.items() if k not in ("failed", "messages")}}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=sorted), encoding="utf-8")

    if args.record:
        if failed or messages or any(step["returncode"] for chain in result["chains"]
                                     for step in chain):
            print("error: not recording from a run that failed:",
                  *messages or ["a command exited non-zero"], sep="\n  ", file=sys.stderr)
            return 1
        stored[workload] = {"seed": seed, "size": n, "inputs": inputs,
                            "outputs": result.get("outputs", {})}
        if "f05" in metrics:
            stored[workload]["f05"] = metrics["f05"]
        EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")

    print(f"workload {workload}  seed {seed}  items {n}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    for key, value in params.items():
        print(f"  generator.{key} = {value}")
    for msg in messages:
        print(f"  CHECK FAILED: {msg}")
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:<14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": not failed and not messages,
        "attempted": n,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": unit_of(m["name"])}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
