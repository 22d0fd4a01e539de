"""python -m gapsgd: the command line front end (gapsgd.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
