"""Set-up child: import the program, do one workload's set-up, say ``ready``.

``python -m perfbench.setup_child <workload> <seed> <out_dir>``, run with
``src`` and the repository root on ``PYTHONPATH``.  The parent times the
process from launch until the ``ready`` line.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> None:
    workload, seed, out_dir = argv
    if workload == "serve_mix":
        from perfbench.serve_mix import boot_once

        boot_once(os.path.join(out_dir, f"setup-cache-{os.getpid()}"))
        return
    from repro import api

    from perfbench.sim import setup_cell

    api.run(setup_cell(workload, int(seed)).spec)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
