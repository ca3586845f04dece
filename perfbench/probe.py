"""Set-up probe: time ``import hookup`` and the first call into every layer.

Run as ``python3 perfbench/probe.py <src-dir>`` in a fresh interpreter; prints
one JSON line with ``import_s`` and ``first_calls_s``.  ``run.py`` starts it
several times per run for ``setup_s`` and calls ``first_calls`` itself as the
warm-up before timing.
"""

from __future__ import annotations

import json
import sys
import time


def first_calls(hookup) -> None:
    """One cheap call per entry point, so lazy one-time work lands in set-up."""
    tiny = hookup.OptimizerConfig(grid_points=3, multistarts=1, max_iter=2)
    hookup.full_report(hookup.preset("paper-example"), cfg=tiny)
    hookup.closest_classical(hookup.preset("w-mixture"), tiny)
    hookup.scan_mdms(2, 2, cfg=tiny)
    hookup.compare_jk([0.5], cfg=tiny)
    hookup.find_thresholds("derivative")
    hookup.full_report(hookup.preset("diagonal", probs=[1 / 9] * 9, dims=(3, 3)))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    started = time.perf_counter()
    import hookup

    imported = time.perf_counter()
    first_calls(hookup)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "first_calls_s": done - imported}))
