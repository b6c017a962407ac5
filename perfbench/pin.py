"""Regenerate ``pins.json``: the sha256 of ``grouplin reduce`` output for every
input the ``system_files`` workload can draw, and for its second-template
check. The hashes guard the canonical-JSON contract, so rerun this only in a
change that alters that contract on purpose, and say why there.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile

import env


def main() -> int:
    if not env.configure():
        print("error: run from a checkout root", file=sys.stderr)
        return 2
    import inputs
    import workloads

    cases = [
        (workloads.SystemFiles.template_name, inputs.two_edge_label_cover(list(maps)))
        for maps in itertools.product(inputs.all_projections(), repeat=2)
    ]
    cases.append((workloads.SystemFiles.second_template, inputs.bijective_label_cover()))
    pins = {}
    with tempfile.TemporaryDirectory(dir=env.OUT) as tmp:
        lc_path, out_path = os.path.join(tmp, "lc.json"), os.path.join(tmp, "system.json")
        for template_name, lc in cases:
            workloads.write_lc(lc, lc_path)
            argv = workloads.reduce_argv(template_name, lc_path)
            if workloads.run_cli(argv, out_path, in_process=False)[0] != 0:
                print(f"error: reduce failed for {template_name}", file=sys.stderr)
                return 1
            pins[workloads.pin_key(template_name, inputs.SYSTEM_EPS, lc)] = workloads.sha256_file(out_path)
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(pins)} hashes written to {os.path.relpath(workloads.PINS_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
