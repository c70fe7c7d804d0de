"""The `graphsep` console command, run from the source tree.

Does what the installed entry point (graphsep.cli:run) does, so the
benchmark can time the command line without installing the package.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphsep.cli import run  # noqa: E402

if __name__ == "__main__":
    run()
