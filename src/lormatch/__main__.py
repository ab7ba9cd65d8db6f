"""`python -m lormatch`: the `lormatch` command line."""

from .cli import main

if __name__ == "__main__":
    main()
