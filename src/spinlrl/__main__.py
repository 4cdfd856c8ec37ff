"""``python -m spinlrl``: the same command line as the ``spinlrl`` script."""

import sys

from .cli import main

sys.exit(main())
