"""``python -m lricnet``: the ``lric-net`` command line."""

import sys

from .cli import main

sys.exit(main())
