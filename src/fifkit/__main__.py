"""`python -m fifkit`: the fifkit command line."""

from .cli import console_main

console_main()
