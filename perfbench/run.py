"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload infer-ref-896 --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree: the package is imported from
``src/`` beside this directory, never from an installed copy. With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run. Details (machine facts, every
set-up time, the span table of a traced run) go to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``. Exit status
is 0 when every check passed, 1 when one failed, 2 when the source tree
is missing.
"""

import os
import sys

# One BLAS thread, fixed before numpy loads: at most nproc threads, and on
# a shared 2-core machine a single thread is the steadier setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("CSDN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("infer-ref-896", "train-desk-128", "eval-desk-256")


def machine_facts() -> dict:
    import ctypes

    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": BLAS_THREADS,
        "openblas": [],
    }
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"lib": os.path.basename(path)}
        for fn, key, rtype in (("get_config", "config", ctypes.c_char_p),
                               ("get_num_threads", "threads", ctypes.c_int)):
            for sym in (f"openblas_{fn}", f"scipy_openblas_{fn}64_", f"scipy_openblas_{fn}"):
                if hasattr(lib, sym):
                    f = getattr(lib, sym)
                    f.restype = rtype
                    f.argtypes = []
                    value = f()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        facts["openblas"].append(entry)
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "csdn" / "__init__.py").is_file():
        print(f"error: no csdn source tree at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import csdn

    if Path(csdn.__file__).resolve().parent != (src / "csdn").resolve():
        print(f"error: csdn imported from {csdn.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench import workloads
    from perfbench.tracing import Tracer

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            result, details = workloads.run(args.workload, args.seed, args.seconds, tracer)
    else:
        result, details = workloads.run(args.workload, args.seed, args.seconds)
    details["machine"] = machine_facts()

    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, **details}, indent=1) + "\n")
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload}: {details['ops']} operations in {details['rounds']} rounds, "
          f"{details['timed_s']:.1f} s timed; details in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
