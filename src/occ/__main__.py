"""`python3 -m occ ...`: the command line, as the installed `occ` script runs it."""

import sys

from .cli import main

sys.exit(main())
