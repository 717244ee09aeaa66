"""Time qloop's set-up in a fresh process and print the seconds.

Usage: python3 setup_probe.py BACKEND N L [CACHE_DIR]

Set-up is `import qloop`, the site representation, the chain context and
the divided-power store with the standard generators registered, at the
workload's configuration.  The qloop package must be importable
(PYTHONPATH pointing at `src`).
"""

import sys
import time


def main(argv: list[str]) -> int:
    backend, n_param, length = argv[0], int(argv[1]), int(argv[2])
    cache_dir = argv[3] if len(argv) > 3 else None
    t0 = time.perf_counter()
    import qloop
    from qloop.opcache import DISABLED_CACHE, OperatorCache

    rep = qloop.build_site_rep(backend, n_param, None)
    ctx = qloop.ChainContext(rep, length)
    cache = OperatorCache(cache_dir) if cache_dir else DISABLED_CACHE
    qloop.make_store(ctx, cache)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
