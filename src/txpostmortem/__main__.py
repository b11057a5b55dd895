"""``python -m txpostmortem``: the same entry point as the ``txpostmortem``
command."""

import sys

from .cli import main

sys.exit(main())
