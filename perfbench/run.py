"""tmsim benchmark runner.

Runs one named workload through the public CLI entry point
``tmsim.cli.main``, in this process, as a closed loop with one client:
passes run back to back until ``--seconds`` have elapsed (at least one
pass), each into a fresh output directory with stdout captured.  Every
pass is checked for correctness; a failed pass is counted and kept out of
the timing medians.

    python3 perfbench/run.py --workload preset-a --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it (prefixed ``#``) give the same figures for people, plus the quality
figures and the environment fingerprint.  ``--report FILE`` also writes
everything, per-pass samples included, for ``perfbench/compare.py``.

The program under test is the ``src/tmsim`` of the checkout that holds
this file; the runner exits with code 2 if it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Modules that import numpy (workloads, tracing, tmsim) are imported inside
# functions, after _cap_blas_threads has set the BLAS pool size.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"  # workloads and metrics: names, units, bounds
DEFAULT_SEED = 7      # the preset default
SETUP_PROBES = 5
# a tiny first call through JSA, SVD, basis fit and serialize, so lazy
# imports (scipy.optimize inside fit_basis_width) land in setup_s
WARMUP_ARGV = ["rho", "-d", "3", "--grid-count", "64"]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBE = """
import contextlib, io, json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tmsim.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = tmsim.cli.main(json.loads(sys.argv[2]))
print(code, time.perf_counter() - start)
"""


def _cap_blas_threads() -> int:
    """Keep the BLAS pools at or below the usable core count; must run
    before numpy is imported."""
    limit = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    return limit


def _blas_runtime_threads():
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(nproc: int) -> dict:
    """Everything that must match for two results to be comparable;
    ``git_commit`` and ``source_sha256`` identify the code under test."""
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "tmsim").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_runtime_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


def _hash_tree(out: Path) -> tuple:
    """(sha256 per file, total bytes) of a pass's output directory."""
    hashes, total = {}, 0
    for path in sorted(out.iterdir()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        hashes[path.name] = digest.hexdigest()
        total += path.stat().st_size
    return hashes, total


def _measure_setup(work: Path) -> list:
    """Setup seconds of fresh interpreters: import tmsim.cli plus the
    warm-up call."""
    samples = []
    for k in range(SETUP_PROBES):
        argv = WARMUP_ARGV + ["--out", str(work / f"setup-{k}")]
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(argv)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        fields = done.stdout.split()
        if done.returncode != 0 or len(fields) != 2 or fields[0] != "0":
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(fields[1]))
    return samples


class ReferenceWork:
    """A fixed mix of the kinds of work tmsim does, written in plain Python
    and numpy: float-to-text formatting, a 7x7 complex RrhoR-style loop and
    one LAPACK SVD, about 0.1 s a round.

    Timed around every pass, it tracks the host's current speed, which on a
    shared machine drifts by a third within minutes.  A pass's time divided
    by it (``wall_ref``, ``cpu_ref``) keeps tmsim's cost and drops most of
    that drift.  It runs no tmsim code, so no change to tmsim moves it.
    """

    ROUNDS = 3  # the median of three drops a round hit by a hiccup

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.values = rng.standard_normal(30000).tolist()
        self.kets = rng.standard_normal((56, 7)) + 1j * rng.standard_normal((56, 7))
        self.matrix = (rng.standard_normal((384, 384))
                       + 1j * rng.standard_normal((384, 384)))

    def _round(self) -> None:
        np, kets = self.np, self.kets
        "\n".join("%.12e" % v for v in self.values)
        rho = np.eye(7, dtype=complex) / 7
        for _ in range(300):
            probs = np.real(np.einsum("ia,ab,ib->i", kets.conj(), rho, kets))
            r_op = np.einsum("i,ia,ib->ab", 1.0 / probs, kets, kets.conj())
            rho = r_op @ rho @ r_op.conj().T
            rho /= np.trace(rho).real
        np.linalg.svd(self.matrix, compute_uv=False)

    def measure(self) -> tuple:
        """Median (wall, cpu) seconds of one round."""
        walls, cpus = [], []
        for _ in range(self.ROUNDS):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            self._round()
            walls.append(time.perf_counter() - wall0)
            cpus.append(time.process_time() - cpu0)
        return statistics.median(walls), statistics.median(cpus)


class Runner:
    """Runs passes of one workload and applies the correctness gate."""

    def __init__(self, workload, seed: int, work: Path, layer_names: list):
        import tmsim.cli
        self.cli = tmsim.cli
        self.layer_names = layer_names  # per-layer metrics of a traced pass
        self.workload = workload
        self.seed = seed
        self.work = work
        self.first_good = None  # artifact hashes of the first good pass
        self.passes = []
        # lazy first-call work lands before timing, as in setup_s
        with contextlib.redirect_stdout(io.StringIO()):
            if self.cli.main(WARMUP_ARGV + ["--out", str(work / "warmup")]) != 0:
                raise RuntimeError("warm-up call failed")
        self.ref_work = ReferenceWork()
        self.ref_work.measure()  # the first rounds pay one-time LAPACK set-up
        self.last_reference = self.ref_work.measure()

    def run_pass(self, tracer=None) -> dict:
        from workloads import GateError
        out = self.work / f"pass-{len(self.passes)}"
        out.mkdir(parents=True)
        argvs = self.workload.steps(self.seed, str(out))
        record = {"traced": tracer is not None, "ok": False}
        self.passes.append(record)
        if tracer is not None:
            spans = tracer.begin_pass()
            tracer.install()
        captured = io.StringIO()
        codes = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                for argv in argvs:
                    codes.append(self.cli.main(argv))
                    if codes[-1] != 0:
                        break
        except Exception as exc:  # a crashing pass is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        # the reference work on both sides of the pass, averaged
        before, self.last_reference = self.last_reference, self.ref_work.measure()
        ref_wall = (before[0] + self.last_reference[0]) / 2
        ref_cpu = (before[1] + self.last_reference[1]) / 2
        try:
            if "error" in record:
                return record
            if any(codes):
                record["error"] = f"exit codes {codes}"
                return record
            missing = [a for a in self.workload.artifacts if not (out / a).is_file()]
            if missing:
                record["error"] = f"missing artifacts {missing}"
                return record
            try:
                record["quality"] = self.workload.check(out)
            except (GateError, OSError, ValueError, KeyError) as exc:
                record["error"] = f"gate: {exc}"
                return record
            hashes, record["bytes_out"] = _hash_tree(out)
            if self.first_good is None:
                self.first_good = hashes
            elif hashes != self.first_good:
                changed = sorted(k for k in set(hashes) | set(self.first_good)
                                 if hashes.get(k) != self.first_good.get(k))
                record["error"] = f"artifacts differ from the first pass: {changed}"
                return record
            record.update(ok=True, wall_s=wall, cpu_s=cpu, ref_wall_s=ref_wall,
                          wall_ref=wall / ref_wall, cpu_ref=cpu / ref_cpu)
            if tracer is not None:
                import tracing
                record["layers"] = tracing.pass_metrics(
                    spans, wall, record["bytes_out"], self.layer_names)
            return record
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _summary(values) -> str:
    if not values:
        return "no samples"
    return (f"median {statistics.median(values):.6g} "
            f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")


def run_workload(args, spec: dict, nproc: int) -> int:
    from workloads import WORKLOADS
    import tmsim
    if Path(tmsim.__file__).resolve().parent != SRC / "tmsim":
        print(f"error: imported tmsim from {tmsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if args.trace else _measure_setup(work)
        runner = Runner(workload, args.seed, work,
                        [m["name"] for m in spec["per_layer"]])
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        while True:
            # with tracing on, passes alternate untraced / traced
            traced = tracer is not None and len(runner.passes) % 2 == 1
            runner.run_pass(tracer if traced else None)
            done = {p["traced"] for p in runner.passes}
            if time.perf_counter() >= deadline and done == {False, tracer is not None}:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = runner.passes
    good = [p for p in passes if p["ok"]]
    failed = len(passes) - len(good)
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = fingerprint(nproc)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}: {why}",
             "fingerprint " + json.dumps(env, sort_keys=True)]
    for p in passes:
        if not p["ok"]:
            lines.append(f"FAILED pass: {p.get('error')}")
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("ref_wall_s", "s"),
                       ("wall_ref", "ref"), ("cpu_ref", "ref")):
        lines.append(f"{name} {_summary([p[name] for p in plain])} {unit}")
    lines.append(f"peak_rss_mb {peak_rss_mb:.6g} MB")
    if setup:
        lines.append(f"setup_s {_summary(setup)} s")
    lines.append(f"error_rate {failed / len(passes):.6g} ({failed}/{len(passes)} "
                 f"passes failed)")
    quality = {}
    for key in ("purity_law_err", "recon_trace_distance"):
        values = [p["quality"][key] for p in good if key in p["quality"]]
        if values:
            quality[key] = statistics.median(values)
            lines.append(f"{key} {quality[key]:.6g} (gate passed on every good pass)")

    metrics = {}
    if args.trace and traced and plain:
        import tracing
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        layers["trace.wrapper_cost_s"] = layers["trace.spans"] * tracing.wrapper_cost()
        for spec_metric in spec["per_layer"]:
            name, unit = spec_metric["name"], spec_metric["unit"]
            metrics[name] = {"value": layers[name], "unit": unit}
            tag = " (computed)" if name in tracing.COMPUTED else ""
            lines.append(f"{name} {layers[name]:.6g} {unit}{tag}")
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.passes), encoding="utf-8")
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    elif not args.trace and plain:
        values = {"wall_ref": statistics.median(p["wall_ref"] for p in plain),
                  "cpu_ref": statistics.median(p["cpu_ref"] for p in plain),
                  "peak_rss_mb": peak_rss_mb,
                  "setup_s": statistics.median(setup)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": failed == 0 and bool(metrics), "attempted": len(passes),
              "failed": failed, "metrics": metrics}
    for line in lines:
        print("# " + line)
    if args.report:
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "fingerprint": env, "setup_samples": setup,
                  "quality": quality, "error_rate": failed / len(passes),
                  "passes": passes, "result": result}
        Path(args.report).write_text(json.dumps(report, indent=1, default=str) + "\n",
                                     encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.report:
            command += ["--report", f"{args.report}.{name}.json"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full result to this file")
    args = parser.parse_args(argv)
    if not (SRC / "tmsim" / "cli.py").is_file():
        print(f"error: no tmsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    nproc = _cap_blas_threads()
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)} or all")
    sys.path.insert(0, str(SRC))
    return run_workload(args, spec, nproc)


if __name__ == "__main__":
    sys.exit(main())
