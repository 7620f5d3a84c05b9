"""``python -m lce_lab``: the same entry point as the ``lce-lab`` script."""

from .cli import console_main

console_main()
