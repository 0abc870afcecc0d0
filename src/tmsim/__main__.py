"""``python -m tmsim``: the ``tmsim`` console script, run from a checkout
with ``PYTHONPATH=src python -m tmsim ...``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
