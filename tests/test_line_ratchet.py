"""The line ratchet: ``src/repro`` may not grow past the ceiling in ``LINES``.

The count is what ``wc -l`` reports for the git-tracked ``src/repro/**/*.py``
files.  A change that ends below the ceiling lowers ``LINES`` to its own
count; raising it is a one-line diff whose reason goes in CHANGES.md.
"""

import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sources():
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "src/repro"], cwd=ROOT,
            capture_output=True, check=True,
        ).stdout.decode()
    except (OSError, subprocess.CalledProcessError):
        # not a git checkout (an exported tree): every file on disk
        return sorted((ROOT / "src" / "repro").rglob("*.py"))
    return [ROOT / name for name in listed.split("\0") if name.endswith(".py")]


def test_src_repro_stays_under_the_line_ceiling():
    ceiling = int((ROOT / "LINES").read_text().split()[0])
    count = sum(path.read_bytes().count(b"\n") for path in _sources())
    print(f"src/repro: {count} lines (ceiling {ceiling})")
    assert count <= ceiling, (
        f"src/repro has {count} lines, above the ceiling of {ceiling} in "
        "LINES: delete what the change made unnecessary, or raise LINES "
        "and say why in CHANGES.md"
    )
