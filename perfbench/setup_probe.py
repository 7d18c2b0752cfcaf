"""What every CLI run pays before it computes: in a fresh interpreter,
import `mfxdma.cli`, then load and align each input pair.

    python3 perfbench/setup_probe.py X.csv Y.csv [X.csv Y.csv ...]

Prints one JSON line with import_s and load_s.  Imports nothing else
first, so the import time is the program's own.
"""

import sys
import time


def main() -> int:
    paths = sys.argv[1:]
    if not paths or len(paths) % 2:
        print("usage: setup_probe.py X.csv Y.csv [...]", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import mfxdma.cli  # noqa: F401
    from mfxdma import pipeline

    t1 = time.perf_counter()
    for x, y in zip(paths[0::2], paths[1::2]):
        pipeline.load_pair(pipeline.RunConfig(input_x=x, input_y=y, master_seed=0))
    t2 = time.perf_counter()
    print(f'{{"import_s": {t1 - t0!r}, "load_s": {t2 - t1!r}}}')
    return 0


if __name__ == "__main__":
    sys.exit(main())
