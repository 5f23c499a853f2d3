"""`python -m thetalift`: the same command line as the `thetalift` script."""

import sys

from .cli import main

sys.exit(main())
