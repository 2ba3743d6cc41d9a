#!/usr/bin/env python3
"""Write every box of the re-pin corpus to a text file, one box per line.

Each line is ``<graph> <method> <budget> <root> | <lower> | <upper>``, each
bound in ``float.hex``; ``tests/box_corpus.py`` defines the corpus. With no
argument the checked-in ``tests/boxes.txt`` is rewritten, which a change
meant to move boxes does; ``scripts/nesting.py`` then reports, box by box,
how they moved.

Example:
    PYTHONPATH=src python scripts/write_boxes.py new.txt
    python scripts/nesting.py tests/boxes.txt new.txt
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from box_corpus import BOXES_FILE, box_lines  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=Path, default=BOXES_FILE,
                        help=f"output file (default {BOXES_FILE.name} next to the corpus)")
    args = parser.parse_args()
    lines = box_lines()
    args.out.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} boxes to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
