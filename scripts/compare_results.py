#!/usr/bin/env python3
"""Compares two results directories written by the bench binaries.

Usage: compare_results.py OLD_RESULTS NEW_RESULTS [--engine-only PROTO,...]

Checks, exiting 1 on any violation:

- every CSV in OLD exists in NEW with byte-identical contents;
- every telemetry JSONL file (telemetry.jsonl and telemetry/*.jsonl) has
  the same number of lines, and line i of NEW equals line i of OLD, except
  for runs of the protocols named by --engine-only (default RIP,DBF),
  whose lines may differ only in the engine-work counters
  events_processed and queue_high_water, and only downward;
- no telemetry line of NEW has watchdog_trips > 0.

Prints, per telemetry file and protocol, how many lines differ and by how
much the two counters moved in total.
"""

import json
import pathlib
import sys
from collections import defaultdict

ENGINE_COUNTERS = ("events_processed", "queue_high_water")


def telemetry_files(root):
    files = [root / "telemetry.jsonl"]
    files += sorted((root / "telemetry").glob("*.jsonl"))
    return [f for f in files if f.exists()]


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    engine_only = {"RIP", "DBF"}
    if len(argv) == 5 and argv[3] == "--engine-only":
        engine_only = set(argv[4].split(","))
    errors = []

    csvs = sorted(old.glob("*.csv"))
    for csv in csvs:
        other = new / csv.name
        if not other.exists():
            errors.append(f"{csv.name}: missing in {new}")
        elif csv.read_bytes() != other.read_bytes():
            errors.append(f"{csv.name}: bytes differ")
    print(f"CSV files compared: {len(csvs)}, differing: "
          f"{sum(1 for e in errors if e.endswith('bytes differ'))}")

    for path in telemetry_files(old):
        rel = path.relative_to(old)
        other = new / rel
        if not other.exists():
            errors.append(f"{rel}: missing in {new}")
            continue
        a = path.read_text().splitlines()
        b = other.read_text().splitlines()
        if len(a) != len(b):
            errors.append(f"{rel}: {len(a)} lines vs {len(b)}")
            continue
        changed = defaultdict(int)
        delta = defaultdict(lambda: defaultdict(int))
        lines = defaultdict(int)
        for i, (la, lb) in enumerate(zip(a, b), 1):
            ra, rb = json.loads(la), json.loads(lb)
            proto = ra.get("protocol", "?")
            lines[proto] += 1
            if rb.get("watchdog_trips", 0) > 0:
                errors.append(f"{rel}:{i}: watchdog_trips {rb['watchdog_trips']}")
            if la == lb:
                continue
            changed[proto] += 1
            if proto not in engine_only:
                errors.append(f"{rel}:{i}: {proto} line changed")
                continue
            keys = set(ra) | set(rb)
            for key in sorted(keys):
                if ra.get(key) == rb.get(key):
                    continue
                if key not in ENGINE_COUNTERS:
                    errors.append(f"{rel}:{i}: {key} {ra.get(key)} -> {rb.get(key)}")
                elif rb[key] > ra[key]:
                    errors.append(f"{rel}:{i}: {key} rose {ra[key]} -> {rb[key]}")
                else:
                    delta[proto][key] += rb[key] - ra[key]
        total = sum(changed.values())
        print(f"{rel}: {len(a)} lines, {total} differ")
        for proto in sorted(lines):
            moved = ", ".join(f"{k} {v:+d}" for k, v in sorted(delta[proto].items()))
            print(f"  {proto:<6} {changed[proto]:>5} of {lines[proto]:>5} differ"
                  + (f" ({moved})" if moved else ""))

    for e in errors[:50]:
        print("VIOLATION:", e)
    if len(errors) > 50:
        print(f"... and {len(errors) - 50} more")
    print("OK" if not errors else f"FAILED: {len(errors)} violations")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
