"""``python3 -m heckelab``: the hecke-lab command line."""

import sys

from .cli import main

sys.exit(main())
