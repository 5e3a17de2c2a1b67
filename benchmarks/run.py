"""postcast benchmark: drives the real CLI in-process and prints one JSON result.

    python3 benchmarks/run.py --workload deblur-gmm --seed 1 --seconds 30 --trace 0

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` wraps each layer's entry points
(see ``layers.py``) and reports the per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is the JSON result.
Exit code 0 means a result was printed; anything else means the benchmark
could not run (for example outside a postcast checkout).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

#: BLAS threads for this process; one client, one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deblur-gmm", "deblur-conv", "prior-build")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    config = ROOT / "configs" / "synthetic.ini"
    if not (src / "postcast" / "__init__.py").is_file() or not config.is_file():
        print(f"benchmark: no postcast checkout at {ROOT} (need src/postcast and "
              f"configs/synthetic.ini)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import postcast

    if Path(postcast.__file__).resolve().parent != (src / "postcast").resolve():
        print(f"benchmark: imported postcast from {postcast.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    return workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         root=ROOT, base_config=config, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
