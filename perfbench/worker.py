"""The closed loop of CLI calls of one benchmark run, in a fresh interpreter.

Usage: python3 worker.py SRC_DIR JOB_JSON

The parent notes the monotonic clock just before it starts this process; the
clock read right after ``import dirspec.cli`` closes the set-up interval,
which every CLI run pays.  Nothing runs before that import but the path
insertion.  With ``"setup_only"`` the job ends there.

Otherwise the job calls ``dirspec.cli.main`` in a closed loop with one
caller: call i runs the i-th argument list of ``"argvs"`` (cyclically) with
``--out`` set to its own directory, and the next call starts when the
previous one has returned.  Calls repeat until the next one would end after
``"seconds"``.  With ``"trace"`` every call is made twice, untraced and then
traced (layers.py), on the same input.

For each call the job records wall and CPU seconds of ``cli.main``, its exit
code or exception, and the process's peak resident memory so far.  Work done
for the benchmark happens after each timed call where it can: what
sweep_capture collected is streamed to the file named by ``"sweep_report"``
and spans to ``spans.json`` in the call's directory.  The result is written
as JSON to ``"result"`` at the end.
"""

import contextlib
import itertools
import sys
import time


def _blas_threads() -> list[dict]:
    """OpenBLAS builds loaded in this process and the thread count each reports."""
    import ctypes

    found = []
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for pattern in ("scipy_openblas_%s64_", "scipy_openblas_%s", "openblas_%s64_", "openblas_%s"):
            threads = getattr(lib, pattern % "get_num_threads", None)
            config = getattr(lib, pattern % "get_config", None)
            if threads is not None and config is not None:
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                name = path.rsplit("/", 1)[-1]
                found.append({"library": name, "config": config().decode(), "threads": threads()})
                break
    return found


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "blas": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_kib() -> int:
    """High-water resident set of this process image.  ru_maxrss is not used:
    across vfork and exec it carries over the parent's peak."""
    with open("/proc/self/status", encoding="utf-8") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))


@contextlib.contextmanager
def sweep_capture(clustering):
    """While active, collect (graph, SweepReport, traditional cuts) for every
    call of ``clustering.sweep``, the name cli calls it by.

    The traditional cuts are the node sets of the ``evaluate_cut`` calls with
    method "traditional" made during the sweep, one per report row; the
    report itself does not keep them.  Each is kept as given, today a prefix
    view of one ranking, so nothing is copied: holding the scored records
    instead would keep every cut's frozenset alive and raise the peak memory
    measured, where the views add about 1.5 MiB on an 800-router map.
    """
    inner_sweep, inner_cut = clustering.sweep, clustering.evaluate_cut
    captured: list[tuple] = []
    traditional: list = []

    def evaluate_cut(g, nodes, method):
        if method == "traditional":
            traditional.append(nodes)
        return inner_cut(g, nodes, method)

    def sweep(g, b, *args, **kwargs):
        traditional.clear()
        report = inner_sweep(g, b, *args, **kwargs)
        captured.append((g, report, list(traditional)))
        return report

    clustering.sweep, clustering.evaluate_cut = sweep, evaluate_cut
    try:
        yield captured
    finally:
        clustering.sweep, clustering.evaluate_cut = inner_sweep, inner_cut


def write_sweep_report(path: str, g, report, traditional) -> None:
    """The report's rows, then per row its Dirichlet and its traditional cut
    as node labels, one JSON value per line, so that writing it allocates
    little beyond one row's cuts."""
    import json

    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps([[r.k, r.h_d, r.c_d, r.h_t, r.c_t] for r in report.rows]) + "\n")
        for cut, trad in itertools.zip_longest(report.dirichlet_cuts, traditional, fillvalue=()):
            f.write(json.dumps([[g.labels[v] for v in sorted(cut)], [g.labels[v] for v in sorted(trad)]]) + "\n")


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import dirspec.cli as cli

    imported_at = time.monotonic()

    import importlib
    import json
    import os
    import traceback

    from layers import Tracer  # this script's directory is on sys.path

    job = json.loads(sys.argv[2])
    out = {"imported_at": imported_at}
    if job.get("setup_only"):
        with open(job["result"], "w", encoding="utf-8") as f:
            json.dump(out, f)
        return 0

    clustering = importlib.import_module("dirspec.clustering")

    def one_call(argv: list[str], out_dir: str, traced: bool) -> dict:
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        capture = sweep_capture(clustering) if job.get("sweep_report") else contextlib.nullcontext([])
        rc, error = None, None
        with capture as captured:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                rc = cli.main([*argv, "--out", out_dir])
            except Exception:
                error = traceback.format_exc()
                print(error, file=sys.stderr)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        record = {"out": out_dir, "traced": traced, "rc": rc, "error": error,
                  "wall_s": wall, "cpu_s": cpu, "peak_rss_kib": peak_rss_kib()}
        os.makedirs(out_dir, exist_ok=True)
        if tracer:
            tracer.uninstall()
            tracer.dump(os.path.join(out_dir, "spans.json"))
        if captured:
            write_sweep_report(os.path.join(out_dir, job["sweep_report"]), *captured[-1])
        return record

    calls = []
    loop_start = time.perf_counter()
    for i in itertools.count():
        t = time.perf_counter()
        k = i % len(job["argvs"])
        ok = True
        for traced in (False, True) if job.get("trace") else (False,):
            record = one_call(job["argvs"][k], os.path.join(job["work"], f"out{len(calls)}"), traced)
            record["input"] = k
            calls.append(record)
            ok = ok and record["rc"] == 0 and not record["error"]
        last = time.perf_counter() - t
        elapsed = time.perf_counter() - loop_start
        if not ok or elapsed + last > job["budget_s"] or (i and elapsed + last > job["seconds"]):
            break

    out["calls"] = calls
    if job.get("env"):
        out["env"] = environment()
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
