"""The CLI transcript is pinned: stdout, stderr and exit code of each command.

Each command runs in-process through `cli.main(argv)`; `wall_time_ms` is
masked.  `tests/golden/cli.txt` is written by hand from `transcript()`, e.g.

    PYTHONPATH=src:tests python -c "import test_cli_golden as t; print(t.transcript(), end='')"

and any change to it is a change of the CLI's output.
"""

import contextlib
import io
import re
from pathlib import Path

from epolab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

COMMANDS = [
    "csf spider:4,1,1",
    "csf spider:1,1,1 --json",
    "csf star:32",
    "epos spider:5,3,2",
    "epos spider:4,1,1",
    "epos spider:4,1,1 --json",
    "epos spider:6,4,1,1 --json",
    "connparts spider:1,1,1",
    "connparts spider:1,1,1 --json",
    "connparts spider:6,4,1,1",
    "connparts spider:3,2,1 --type (3,2,2)",
    "connparts spider:1,1,1 --type 2,2",
    "connparts spider:1,1,1 --type 2,2 --json",
    "connparts spider:3,2,1 --type 2,3",
    "connparts spider:3,2,1 --type 0,7",
    "connparts spider:1,1,1 --type (4,4)",
    "connparts spider:1,1,1 --type x",
    "connparts spider:1,1,1 --type ()",
    "prove profile:a=2,b=2,cs=2,2,2",
    "prove profile:a=5,b=3,cs=1,1",
    "prove profile:a=6,b=5,cs=2,1",
    "prove profile:a=20,b=15,cs=2,2,2",
    "prove profile:a=10,b=9,cs=1,1,1,1",
    "prove profile:a=1300,b=1200,cs=300,200",
    "prove profile:a=6,b=4,cs=1,1",
    "prove profile:a=6,b=4,cs=2,2,b=5",
    "prove spider:6,4,1,1",
    "prove spider:2,2,2,2,2",
    "prove spider:3,2,1",
    "prove profile:a=7,b=7,cs=4",
    "sixm 1 --cross-check",
    "sixm 2 --json",
    "sixm 3",
    "trees-scan 9",
    "trees-scan 7 --json",
    "trees-scan 0",
    "sweep c40 2..12",
    "sweep c500 41..80 --mode sampled",
]


def transcript() -> str:
    chunks = []
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
        chunks.append(
            f"$ epolab {command}\n[exit {code}]\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"
        )
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', "".join(chunks))


def test_cli_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()
