"""Print the per-metric deltas between two benchmark result files.

    python3 perfbench/compare.py OLD.json NEW.json

Both files are written by ``run.py`` under ``perfbench/results/``.  Compare
traced runs (``--trace 1``) of the same workload and seed for per-layer
deltas; work counts then differ only where the code does different work.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (load(p) for p in argv)
    for key in ("workload", "seed", "trace", "seconds", "nproc", "python", "numpy", "scipy"):
        if old["env"].get(key) != new["env"].get(key):
            print(f"note: {key} differs: {old['env'].get(key)} -> {new['env'].get(key)}")
    print(f"{'metric':45s} {'old':>14s} {'new':>14s} {'delta':>14s} {'new/old':>9s}  unit")
    names = list(old["metrics"]) + [k for k in new["metrics"] if k not in old["metrics"]]
    for name in names:
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (new["metrics"].get(name) or old["metrics"][name])["unit"]
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            print(f"{name:45s} {a!s:>14.14} {b!s:>14.14}")
            continue
        ratio = f"{b / a:9.3f}" if a else f"{'-':>9s}"
        print(f"{name:45s} {a:14.6g} {b:14.6g} {b - a:+14.6g} {ratio}  {unit}")
    for label, result in (("old", old), ("new", new)):
        print(
            f"{label}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
