"""``python -m cddlint``: the same entry point as the ``cddlint`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
