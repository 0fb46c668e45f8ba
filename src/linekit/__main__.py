"""Allow `python -m linekit` as an alias for the console script."""

import sys

from linekit.front import main

if __name__ == "__main__":
    sys.exit(main())
