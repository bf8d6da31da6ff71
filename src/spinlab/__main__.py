"""``python -m spinlab``: the same command line as the ``spinlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
