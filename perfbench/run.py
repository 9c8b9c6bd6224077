"""Benchmark of the elastic-lens chain, run through its CLI as users run it.

    python3 perfbench/run.py --workload fd_chain|ray_chain|hetero_box
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is read from
``src/``).  Inputs are generated from the seed (see ``workloads.py``).
Each iteration runs the workload's command lines in a fresh Python process,
one at a time (a closed loop with one client); iterations repeat until
``--seconds`` have passed, and at least one runs.  Every iteration's
outputs are checked, and data files must be byte-identical to those of
every other run of the same seed and source (A10; ``manifest.json`` is
exempt).

With ``--trace 0`` the end-to-end metrics are reported as medians over the
run: ``wall_s`` (the ``cli.main`` calls), ``setup_s`` (``import
elastic_lens.cli``, sampled in at least five fresh processes) and
``peak_rss_mb``.  With ``--trace 1`` one untraced and one traced iteration
run, and the per-layer metrics of ``tracing.py`` are reported with the
import time of each package module (from ``python -X importtime``) and the
tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Before it come a
run record (machine, versions, BLAS thread settings, source line counts),
the raw samples, and one ``name = value unit`` line per metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
MODULES = (*tracing.LAYERS, "errors")
ACCURACY = ("rel_err_p_max", "rel_err_s_max", "profile_rel_err_max")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Run:
    """One benchmark run: its directories, deadline and iteration results."""

    def __init__(self, src, workload, seed):
        self.src = src
        self.workload, self.seed = workload, seed
        self.work = HERE / "_work"
        self.runs_dir = self.work / "runs"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.iterations = []
        self.setup_samples = []
        self._dirs = 0
        self.code_hash = _code_hash(self.src)

    # -- processes ------------------------------------------------------------

    def _worker(self, cwd, result, argv=None, trace=False):
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(self.src),
               "--result", str(result)]
        if argv is None:
            cmd.append("--import-only")
        else:
            if trace:
                cmd.append("--trace")
            cmd.append(json.dumps(argv))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(Path(cwd) / "worker.log", "ab") as log:
            try:
                proc = subprocess.run(cmd, cwd=cwd, stdout=log, stderr=log,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                return {"error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not Path(result).is_file():
            return {"error": f"worker exited with {proc.returncode}"}
        with open(result) as f:
            return json.load(f)

    def _new_dir(self, kind):
        self._dirs += 1
        d = self.runs_dir / f"{kind}_{self._dirs}"
        d.mkdir(parents=True)
        return d

    def import_sample(self):
        d = self._new_dir("import")
        res = self._worker(d, d / "result.json")
        if "setup_s" not in res:
            raise SystemExit(f"importing elastic_lens.cli failed: {res['error']}")
        return res["setup_s"]

    def iteration(self, trace=False):
        """Run the workload once in a fresh process and check its outputs."""
        d = self._new_dir("iter")
        argv = workloads.generate(self.workload, self.seed, d)
        res = self._worker(d, d / "result.json", argv, trace)
        problems = []
        if res.get("error"):
            problems.append(res["error"].strip().splitlines()[-1])
        codes = res.get("exit_codes", [])
        if len(codes) != len(argv) or any(c != 0 for c in codes):
            problems.append(f"exit codes {codes}")
        if not problems:
            found, res["accuracy"] = workloads.check(self.workload, d)
            problems += found
            res["digest"] = _outputs_digest(d / "out")
            res["bytes_written"] = sum(p.stat().st_size
                                       for p in (d / "out").rglob("*")
                                       if p.is_file())
        res["problems"] = problems
        if problems:
            log = (d / "worker.log").read_text(errors="replace").splitlines()
            print(f"iteration {len(self.iterations)} failed: {problems}",
                  *log[-15:], sep="\n", file=sys.stderr)
        self.iterations.append(res)
        return res

    # -- determinism (A10) ----------------------------------------------------

    def check_determinism(self):
        """Digests must agree within the run and with earlier runs of the
        same workload, seed and source, kept in the work directory."""
        digests = [r["digest"] for r in self.iterations if "digest" in r]
        if not digests:
            return
        cache_path = self.work / "digests.json"
        try:
            cache = json.loads(cache_path.read_text())
        except (OSError, ValueError):
            cache = {}
        key = f"{self.workload}:{self.seed}:{self.code_hash}"
        expected = cache.setdefault(key, digests[0])
        for r in self.iterations:
            if "digest" in r and r["digest"] != expected:
                r["problems"].append("data files differ from an earlier run "
                                     "of the same seed")
        cache_path.write_text(json.dumps(cache, indent=1, sort_keys=True))


def _code_hash(src):
    h = hashlib.sha256()
    for p in sorted((src / "elastic_lens").rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _outputs_digest(out):
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(p.relative_to(out).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Import times per package module
# ---------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(text):
    """Seconds each elastic_lens module adds to the import, excluding the
    package modules it imports itself (so third-party imports are charged
    to the module that first pulls them in)."""
    nodes = []          # (depth, name, cumulative_us, children)
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = (len(m.group(3)) - 1) // 2
        children = []
        while nodes and nodes[-1][0] > depth:
            children.append(nodes.pop())
        nodes.append((depth, m.group(4), int(m.group(2)), children))

    out = {}

    def package_cumulative(node):
        # cumulative time of the nearest package modules below `node`
        total = 0
        for child in node[3]:
            if child[1].startswith("elastic_lens."):
                total += child[2]
            else:
                total += package_cumulative(child)
        return total

    def walk(node):
        if node[1].startswith("elastic_lens."):
            name = node[1].split(".", 1)[1]
            out[name] = out.get(name, 0.0) + \
                (node[2] - package_cumulative(node)) * 1e-6
        for child in node[3]:
            walk(child)

    for node in nodes:
        walk(node)
    return out


def import_times(src, samples=3):
    """Median per-module import seconds over `samples` fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import elastic_lens.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=60)
        runs.append(parse_importtime(proc.stderr))
    return {m: statistics.median(r.get(m, 0.0) for r in runs) for m in MODULES}


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def run_record(src):
    import numpy
    import scipy

    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((src / "elastic_lens").glob("*.py"))}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def end_to_end(run, seconds):
    start = time.monotonic()
    while not run.iterations or time.monotonic() - start < seconds:
        res = run.iteration()
        if "setup_s" in res:
            run.setup_samples.append(res["setup_s"])
    while len(run.setup_samples) < SETUP_SAMPLES:
        run.setup_samples.append(run.import_sample())
    good = [r for r in run.iterations if "wall_s" in r]
    if not good:
        raise SystemExit("no iteration completed")
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in good), "s"),
        "setup_s": (statistics.median(run.setup_samples), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
    }


def per_layer(run):
    base = run.iteration()
    traced = run.iteration(trace=True)
    if "wall_s" not in base or "layers" not in traced:
        raise SystemExit("the traced or the untraced iteration did not complete")
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    for module, seconds in import_times(run.src).items():
        metrics[f"{module}.import_s"] = (seconds, "s")
    metrics["cli.bytes_written"] = (traced.get("bytes_written", 0), "bytes")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - base["wall_s"], "s")
    accuracy = traced.get("accuracy", {})
    for name in ACCURACY:
        metrics[name] = (accuracy.get(name, 0.0), "ratio")
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "elastic_lens" / "cli.py").is_file():
        print("error: run from the root of an elastic-lens checkout "
              "(src/elastic_lens/cli.py not found)", file=sys.stderr)
        return 2

    run = Run(root / "src", a.workload, a.seed)
    shutil.rmtree(run.runs_dir, ignore_errors=True)
    run.runs_dir.mkdir(parents=True)
    run.import_sample()          # warm-up: compiles bytecode, not measured

    metrics = per_layer(run) if a.trace else end_to_end(run, a.seconds)
    run.check_determinism()
    failed = sum(1 for r in run.iterations if r["problems"])
    if a.trace:
        metrics["fail_ratio"] = (failed / len(run.iterations), "ratio")
    shutil.rmtree(run.runs_dir, ignore_errors=True)

    print("run record: " + json.dumps(run_record(run.src), sort_keys=True))
    print("samples: " + json.dumps({
        "wall_s": [r.get("wall_s") for r in run.iterations],
        "setup_s": run.setup_samples}))
    for r in run.iterations:
        if "wrapped" in r:
            absent = [layer for layer in tracing.LAYERS if not r["wrapped"].get(layer)]
            print(f"wrapped bindings per layer: {json.dumps(r['wrapped'])}; "
                  f"absent layers: {absent}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.iterations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
