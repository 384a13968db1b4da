#!/usr/bin/env python3
"""Application-level workloads on three storage stacks.

The paper's pitch is that heterogeneous hierarchies serve real
applications better than any single device.  We run filebench-style
fileserver / webserver / varmail personalities against:

  1. Ext4 on the HDD alone (the capacity-only baseline),
  2. Strata over PM+SSD+HDD (monolithic tiered FS),
  3. Mux over NOVA+XFS+Ext4 (this paper).

This is the ``macro`` entry of the experiment registry, the same one
``python -m repro.bench macro`` prints.

Run:  python examples/macro_workloads.py
"""

from repro.bench.experiments import EXPERIMENTS


def main() -> int:
    report = EXPERIMENTS["macro"](False)
    print(report.text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
