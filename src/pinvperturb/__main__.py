"""``python -m pinvperturb``: the same command line as the ``pinvperturb`` script."""

import sys

from .cli import run

sys.exit(run())
