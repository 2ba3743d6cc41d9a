#!/usr/bin/env python3
"""Compare two box files written by ``scripts/write_boxes.py``, box by box.

Boxes are matched by their ``<graph> <method> <budget> <root>`` key. Each
box gets one line: ``equal`` (every bound has the same value), ``strictly
inside`` (the NEW box lies in the OLD one and differs from it, so it is
tighter), ``strictly outside`` (the NEW box contains the OLD one and differs,
so it is looser) or ``crossing`` (neither contains the other), each but
``equal`` with the largest move of one bound in ulps. A key found in one file
only, or whose boxes have different lengths, is ``unmatched``. A summary line
ends the report. Exits 0 only when every box is equal.

Example:
    python scripts/nesting.py tests/boxes.txt new.txt
"""

import argparse
import struct
import sys
from pathlib import Path


def read_boxes(path: Path) -> dict[str, tuple[list[float], list[float]]]:
    """Each line's key and its lower and upper bounds."""
    boxes = {}
    for line in path.read_text().splitlines():
        key, lower, upper = line.split(" | ")
        boxes[key] = ([float.fromhex(x) for x in lower.split()],
                      [float.fromhex(x) for x in upper.split()])
    return boxes


def ordinal(x: float) -> int:
    """``x``'s place among the doubles, so that adjacent doubles differ by one."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def verdict(old, new) -> tuple[str, int]:
    """The nesting of box ``new`` against box ``old``, and its largest move in ulps."""
    (old_lo, old_hi), (new_lo, new_hi) = old, new
    if len(old_lo) != len(new_lo):
        return "unmatched", 0
    pairs = list(zip(old_lo + old_hi, new_lo + new_hi))
    move = max(abs(ordinal(a) - ordinal(b)) for a, b in pairs)
    if move == 0:
        return "equal", 0
    lower, upper = pairs[: len(old_lo)], pairs[len(old_lo) :]
    if all(b >= a for a, b in lower) and all(b <= a for a, b in upper):
        return "strictly inside", move
    if all(b <= a for a, b in lower) and all(b >= a for a, b in upper):
        return "strictly outside", move
    return "crossing", move


VERDICTS = ("equal", "strictly inside", "strictly outside", "crossing", "unmatched")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    old, new = read_boxes(args.old), read_boxes(args.new)
    counts = dict.fromkeys(VERDICTS, 0)
    largest = 0
    for key in list(old) + [k for k in new if k not in old]:
        if key in old and key in new:
            kind, move = verdict(old[key], new[key])
        else:
            kind, move = "unmatched", 0
        counts[kind] += 1
        largest = max(largest, move)
        print(f"{key}: {kind}" + (f", largest move {move} ulps" if move else ""))
    total = sum(counts.values())
    print(f"{total} boxes: " + ", ".join(f"{counts[k]} {k}" for k in VERDICTS)
          + f"; largest move {largest} ulps")
    return 0 if counts["equal"] == total else 1


if __name__ == "__main__":
    sys.exit(main())
