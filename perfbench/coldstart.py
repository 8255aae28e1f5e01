"""Cold-start probe: a fresh interpreter imports ``splitbound.cli`` (which
loads the liedata tables) and answers one query.  The parent times the
spawn up to the arrival of this query's result line."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from splitbound import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.run(["tables", "divisors"]))
