"""`python -m epolab ARGS...` runs the same command line as `epolab ARGS...`."""

from .cli import main

if __name__ == "__main__":
    main()
