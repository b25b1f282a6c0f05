"""Set-up probe, run in a fresh interpreter by run.py.

    python3 setup_probe.py SRC_DIR CONFIG.json [CONFIG.json ...]

Prints two numbers: the seconds taken by `import polspin` plus loading
each config through `polspin.cli.load_config`, and the median time of the
small reference kernel measured right after, which run.py uses to convert
the first to reference seconds.
"""

import statistics
import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import polspin.cli
    for path in sys.argv[2:]:
        polspin.cli.load_config(path, None)
    setup = time.perf_counter() - start

    from reference import small_work
    small_work()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        small_work()
        times.append(time.perf_counter() - t0)
    print(repr(setup), repr(statistics.median(times)))


if __name__ == "__main__":
    main()
