"""`python -m modwave`: the command line."""

from .cli import main

raise SystemExit(main())
