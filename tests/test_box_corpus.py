"""The checked-in box file and the nesting report that compares two of them."""

import hashlib
import subprocess
import sys
from math import inf, nextafter
from pathlib import Path

import numpy as np

from box_corpus import BOXES_FILE, box_lines
from test_golden_boxes import GOLDEN_SHA256

NESTING = Path(__file__).resolve().parents[1] / "scripts" / "nesting.py"


def test_the_engine_reproduces_the_checked_in_boxes():
    assert box_lines() == BOXES_FILE.read_text().splitlines()


def test_the_file_starts_with_the_golden_digests_roots():
    # The golden digest hashes the lower and upper bytes of each of its roots.
    digest = hashlib.sha256()
    for line in BOXES_FILE.read_text().splitlines():
        if line.startswith("golden-"):
            for bounds in line.split(" | ")[1:]:
                digest.update(np.array([float.fromhex(x) for x in bounds.split()]).tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256


def write_boxes(path, boxes):
    path.write_text("".join(
        f"{key} | {' '.join(map(float.hex, lo))} | {' '.join(map(float.hex, hi))}\n"
        for key, (lo, hi) in boxes.items()
    ))


def nesting(tmp_path, old, new):
    write_boxes(tmp_path / "old.txt", old)
    write_boxes(tmp_path / "new.txt", new)
    done = subprocess.run([sys.executable, str(NESTING), str(tmp_path / "old.txt"),
                           str(tmp_path / "new.txt")], capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_nesting_reports_each_verdict(tmp_path):
    lo, hi = [0.25, 0.5], [0.5, 0.75]
    old = {f"g sawtree 10 {r}": (lo, hi) for r in range(5)}
    new = {
        "g sawtree 10 0": (lo, hi),
        "g sawtree 10 1": ([up(0.25, 3), 0.5], [0.5, down(0.75, 1)]),
        "g sawtree 10 2": ([0.25, down(0.5, 2)], [up(0.5, 1), 0.75]),
        "g sawtree 10 3": ([up(0.25, 1), 0.5], [up(0.5, 5), 0.75]),
        "g sawtree 10 4": ([0.25], [0.5]),
        "g subtree 10 0": (lo, hi),
    }
    code, out = nesting(tmp_path, old, new)
    assert code == 1
    assert out == [
        "g sawtree 10 0: equal",
        "g sawtree 10 1: strictly inside, largest move 3 ulps",
        "g sawtree 10 2: strictly outside, largest move 2 ulps",
        "g sawtree 10 3: crossing, largest move 5 ulps",
        "g sawtree 10 4: unmatched",
        "g subtree 10 0: unmatched",
        "6 boxes: 1 equal, 1 strictly inside, 1 strictly outside, 1 crossing, 2 unmatched; "
        "largest move 5 ulps",
    ]
    code, out = nesting(tmp_path, old, old)
    assert code == 0
    assert out[-1] == ("5 boxes: 5 equal, 0 strictly inside, 0 strictly outside, 0 crossing, "
                       "0 unmatched; largest move 0 ulps")


def test_nesting_counts_ulps_across_zero_and_powers_of_two(tmp_path):
    # A move counts the doubles passed, across zero and below a power of two
    # alike; -0.0 and 0.0 are one place.
    old = {"g subtree 1 0": ([0.0, 0.5], [0.5, 1.0])}
    new = {"g subtree 1 0": ([down(0.0, 1), down(0.5, 2)], [up(0.5, 1), 1.0])}
    code, out = nesting(tmp_path, old, new)
    assert code == 1
    assert out[0] == "g subtree 1 0: strictly outside, largest move 2 ulps"
    code, out = nesting(tmp_path, old, {"g subtree 1 0": ([-0.0, 0.5], [0.5, 1.0])})
    assert code == 0 and out[0] == "g subtree 1 0: equal"


def up(x, k):
    """``x`` moved ``k`` doubles up."""
    for _ in range(k):
        x = nextafter(x, inf)
    return x


def down(x, k):
    """``x`` moved ``k`` doubles down."""
    for _ in range(k):
        x = nextafter(x, -inf)
    return x
