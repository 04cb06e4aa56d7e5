"""effecta benchmark: exact verification through the command line.

    python3 perfbench/run.py --workload rdp-all --seed 1 --seconds 20 --trace 0

Run from a checkout that holds ``src/effecta``.  The run writes the
workload's documents with ``effecta generate`` (timed as set-up), then checks
them, and prints one metric per line followed by a final JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures what a user waits for: one client runs
``python -m effecta.cli check`` as a subprocess on each document in turn
(closed loop, one invocation at a time), round robin, until every document
has run twice and had its equal share of ``--seconds``.  Every verdict is
checked against the table in ``workloads.py``.  Times are medians per
document: on a shared two-CPU machine single invocations of the same
document differ by ten percent and more.

``--trace 1`` gives the per-layer numbers instead.  It calls
``effecta.cli.main`` in this process over three passes: traced, untraced,
traced.  Every count must repeat exactly between the two traced passes, and
every report must be byte-identical across all three.  The untraced pass also
counts reports whose sha256 differs from ``digests.json``, recorded at
commit 44aa2e9 with ``--seed 0``; the reports of these documents do not
depend on the seed while every verdict holds.  End-to-end numbers never come from a
traced run, because the wrappers cost time.

Exit status 0 means a result was printed; ``correct`` says whether every
verdict, count and report agreed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK = HERE / "_work"

SETUP_REPEATS = 5      # set-up runs per run; setup_s is their median
MIN_SAMPLES = 2        # invocations of every document per run, at least
STARTUP_REPEATS = 5    # fresh interpreters per start-up figure
RUN_LIMIT_S = 150      # no invocation is started or left running past this
TRACE_LIMIT_S = 170    # the in-process run aborts past this

# (name, unit) of what each mode reports, in print order
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("doc_p50_s", "s"),
    ("doc_max_s", "s"), ("peak_rss_mb", "MB"),
)
# Each group names the end-to-end metric and workload it should move.
# Times are inclusive; counts and ratios are totals over one pass.
PER_LAYER = (
    # the floor no change moves; import moves doc_p50_s on nonrdp-vertices
    ("cli.interpreter_s", "s"), ("cli.import_s", "s"),
    # setup_s
    ("generators.generate_s", "s"),
    # a small share of wall_s everywhere
    ("serialize.algebra_from_obj_s", "s"), ("algebra.validate_s", "s"),
    ("algebra.check_rdp_s", "s"), ("algebra.sharp_elements_s", "s"),
    # wall_s and doc_max_s on states-rows, then rdp-all
    ("linalg.solve_affine_s", "s"), ("linalg.solve_affine_calls", "count"),
    ("linalg.solve_affine_rows", "count"),
    ("linalg.solve_affine_rank", "count"),
    # wall_s and doc_max_s on nonrdp-vertices; the yield is vertices per
    # rank test, above 1 when cuts that slice nothing keep box vertices
    ("polytope.enumerate_vertices_s", "s"), ("polytope.cuts", "count"),
    ("polytope.rank_tests", "count"), ("polytope.vertices", "count"),
    ("polytope.vertex_yield", "ratio"),
    # nonrdp-vertices, and states-rows through elimination; suites.states_s
    # is the per-vertex predicates
    ("states.state_polytope_s", "s"), ("states.dimension", "count"),
    ("suites.states_s", "s"),
    # every suite; the first gated suite also builds the representation
    *((f"suites.{s}_s", "s") for s in workloads.SUITES if s != "states"),
    # wall_s on rdp-all
    ("lp.coordinate_bounds_calls", "count"), ("lp.coordinate_bounds_s", "s"),
    ("lp.simplex_min_calls", "count"),
    ("lp.simplex_per_bounds_call", "ratio"),
    ("representation.canonical_s", "s"), ("representation.b0_s", "s"),
    ("representation.null_point_s", "s"),
    # wall_s and doc_max_s on rdp-all; zero elsewhere.  The reuse ratio is
    # distinct (representation, function, state) triples per call.
    ("observables.verify_smearing_calls", "count"),
    ("observables.verify_smearing_s", "s"),
    ("observables.atomwise_integral_calls", "count"),
    ("observables.integral_distinct", "count"),
    ("observables.integral_reuse", "ratio"),
    ("spectral.spectral_integral_calls", "count"),
    ("spectral.spectral_integral_s", "s"),
    ("spectral.extension_uniqueness_s", "s"),
    ("spectral.transform_spectral_s", "s"),
    # reports: rendering, and those whose bytes left digests.json
    ("report.render_s", "s"), ("report.digest_mismatches", "count"),
    # traced over untraced in-process wall time on the same documents
    ("trace.overhead_ratio", "ratio"),
)


class SourceMissing(Exception):
    """The checkout holds no effecta sources to benchmark."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EFFECTA_MAX_SIZE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "effecta.cli", *args]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# subprocesses


def invoke(argv: list[str], timeout: float, scratch: Path):
    """Run one command to completion.  Returns (seconds, exit code or None
    on timeout, stdout, stderr, peak RSS in KiB)."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env())
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        killer = threading.Timer(max(timeout, 0.0), kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return (elapsed, code, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), usage.ru_maxrss)


def write_documents(name: str, directory: Path, scratch: Path) -> float:
    """Write every document of the workload; returns the seconds taken."""
    start = time.perf_counter()
    for doc in WORKLOADS[name]:
        if doc.family:
            path = directory / f"{doc.name}.json"
            _, code, _, err, _ = invoke(
                cli_argv(["generate", *doc.family, "--output", str(path)]),
                RUN_LIMIT_S, scratch)
            if code != 0:
                raise RuntimeError(f"generate {doc.family} failed: {err}")
    workloads.write_handmade(name, directory)
    return time.perf_counter() - start


def startup_seconds() -> tuple[float, float]:
    """Median time of a bare interpreter, and of importing effecta.cli in a
    fresh one (timed inside it)."""
    bare, imports = [], []
    probe = ("import time; t = time.perf_counter(); import effecta.cli; "
             "print(repr(time.perf_counter() - t))")
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       env=child_env())
        bare.append(time.perf_counter() - start)
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              env=child_env(), capture_output=True, text=True)
        imports.append(float(done.stdout))
    return statistics.median(bare), statistics.median(imports)


# ---------------------------------------------------------------------------
# --trace 0: end to end through the command line


def run_end_to_end(name: str, seed: int, seconds: float, work: Path):
    docs = WORKLOADS[name]
    setups = []
    texts = None
    for k in range(SETUP_REPEATS):
        directory = work / f"docs{k}"
        directory.mkdir()
        setups.append(write_documents(name, directory, work))
        written = {p.name: p.read_bytes() for p in directory.iterdir()}
        if texts is not None and written != texts:
            raise RuntimeError("two set-ups wrote different documents")
        texts = written

    # Round robin over the documents; each one is invoked MIN_SAMPLES times
    # and then until it has used its equal share of --seconds, so short
    # documents get many samples and the longest still gets more than one.
    share = seconds / len(docs)
    deadline = time.perf_counter() + RUN_LIMIT_S
    times = {d.name: [] for d in docs}
    attempted = failed = 0
    peak_kib = 0
    errors = []
    while True:
        pending = [d for d in docs if len(times[d.name]) < MIN_SAMPLES
                   or sum(times[d.name]) < share]
        if not pending:
            break
        for doc in pending:
            attempted += 1
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                failed += 1
                errors.append(f"{doc.name}: not run, past {RUN_LIMIT_S} s")
                continue
            path = directory / f"{doc.name}.json"
            elapsed, code, out, err, kib = invoke(
                cli_argv(doc.check_args(path, seed)), remaining, work)
            times[doc.name].append(elapsed)
            peak_kib = max(peak_kib, kib)
            problem = workloads.verdict_error(doc, code, out, err)
            if problem:
                failed += 1
                errors.append(f"{doc.name}: {problem}")
        if time.perf_counter() >= deadline:
            break

    # each document's median invocation; their sum is one pass's time
    per_doc = [statistics.median(ts) for ts in times.values() if ts]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_doc),
        "doc_p50_s": statistics.median(per_doc),
        "doc_max_s": max(per_doc),
        "peak_rss_mb": peak_kib / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"sum of {len(per_doc)} documents' medians, "
                  f"{min(map(len, times.values()))} to "
                  f"{max(map(len, times.values()))} invocations each",
        "doc_p50_s": "median document",
        "doc_max_s": "slowest document",
        "peak_rss_mb": "largest child",
    }
    return metrics, END_TO_END, notes, attempted, failed, errors


# ---------------------------------------------------------------------------
# --trace 1: per layer, in process


def import_effecta():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import effecta
    import effecta.cli
    if SRC.resolve() not in Path(effecta.__file__).resolve().parents:
        raise SourceMissing(f"effecta was imported from {effecta.__file__}")
    return effecta.cli


def in_process(main, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def traced_pass(main, docs, directory: Path, seed: int, tracer):
    """One in-process pass.  Returns (wall seconds, reports by document,
    verdict problems)."""
    wall = 0.0
    reports, problems = {}, []
    if tracer is not None:
        tracer.install()
    try:
        for doc in docs:
            gc.collect()
            elapsed, code, out, err = in_process(
                main, doc.check_args(directory / f"{doc.name}.json", seed))
            wall += elapsed
            if tracer is not None:
                tracer.end_document()
            reports[doc.name] = out
            problem = workloads.verdict_error(doc, code, out, err)
            if problem:
                problems.append(f"{doc.name}: {problem}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, reports, problems


def run_traced(name: str, seed: int, work: Path):
    from tracer import Tracer

    def abort(signum, frame):
        print(f"perfbench: traced run passed {TRACE_LIMIT_S} s",
              file=sys.stderr)
        raise SystemExit(3)

    signal.signal(signal.SIGALRM, abort)
    signal.alarm(TRACE_LIMIT_S)
    docs = WORKLOADS[name]
    interpreter_s, import_s = startup_seconds()
    main = import_effecta().main

    setup_tracer = Tracer()
    for qualname in setup_tracer.install():
        print(f"not traced, absent from the program: {qualname}")
    try:
        for doc in docs:
            if doc.family:
                path = work / f"{doc.name}.json"
                _, code, _, err = in_process(
                    main, ["generate", *doc.family, "--output", str(path)])
                if code != 0:
                    raise RuntimeError(f"generate {doc.family} failed: {err}")
    finally:
        setup_tracer.uninstall()
    workloads.write_handmade(name, work)

    first, second = Tracer(), Tracer()
    wall_a, reports_a, problems = traced_pass(main, docs, work, seed, first)
    wall_u, reports_u, more = traced_pass(main, docs, work, seed, None)
    problems += more
    wall_b, reports_b, more = traced_pass(main, docs, work, seed, second)
    problems += more
    signal.alarm(0)
    attempted, failed = 3 * len(docs), len(problems)

    errors = list(problems)
    for doc in docs:
        if not reports_a[doc.name] == reports_u[doc.name] == reports_b[doc.name]:
            errors.append(f"{doc.name}: report bytes differ between passes")
    if first.counts != second.counts:
        keys = sorted(k for k in set(first.counts) | set(second.counts)
                      if first.counts[k] != second.counts[k])
        errors.append(f"counts differ between traced passes: {keys}")
    recorded = json.loads(DIGESTS.read_text())
    mismatched = [d.name for d in docs
                  if recorded.get(d.name) != sha256(reports_u[d.name])]
    for doc_name in mismatched:
        print(f"report digest of {doc_name} is now "
              f"{sha256(reports_u[doc_name])}")

    counts = first.counts
    metrics = {
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "generators.generate_s": setup_tracer.seconds["generators.generate_s"],
        "polytope.vertex_yield": ratio(counts["polytope.vertices"],
                                       counts["polytope.rank_tests"]),
        "lp.simplex_per_bounds_call": ratio(counts["lp.simplex_min_calls"],
                                            counts["lp.coordinate_bounds_calls"]),
        "observables.integral_reuse": ratio(
            counts["observables.integral_distinct"],
            counts["observables.atomwise_integral_calls"]),
        "report.digest_mismatches": len(mismatched),
        "trace.overhead_ratio": ratio(wall_a + wall_b, 2 * wall_u),
    }
    for metric, unit in PER_LAYER:
        if metric in metrics:
            continue
        if unit == "count":
            metrics[metric] = counts[metric]
        else:   # time spent in a span: mean of the two traced passes
            metrics[metric] = (first.seconds[metric]
                               + second.seconds[metric]) / 2
    notes = {"trace.overhead_ratio":
             f"traced {(wall_a + wall_b) / 2:.3f} s / untraced {wall_u:.3f} s"}
    return metrics, PER_LAYER, notes, attempted, failed, errors


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "effecta" / "cli.py").is_file():
        print(f"perfbench: no effecta sources under {SRC}", file=sys.stderr)
        return 2
    print("host: " + json.dumps({
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace}))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, work)
        else:
            result = run_end_to_end(args.workload, args.seed, args.seconds,
                                    work)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, names, notes, attempted, failed, errors = result

    for metric, unit in names:
        note = f"   ({notes[metric]})" if metric in notes else ""
        print(f"{metric:36s} {metrics[metric]:12.6f} {unit}{note}")
    print(f"{'fail_ratio':36s} {ratio(failed, attempted):12.6f} ratio"
          f"   ({failed} of {attempted} invocations failed)")
    for line in errors:
        print(f"problem: {line}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
