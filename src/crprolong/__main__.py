"""``python -m crprolong``: the ``crprolong`` command without an installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
