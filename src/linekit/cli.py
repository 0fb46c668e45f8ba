"""The whole command line with every layer module loaded.

The console script and `python -m linekit` start from `linekit.front`, which
holds the parser, the report emitter, `bounds` and `main` and never imports
numpy; it dispatches construct, verify, scheme and export to
`linekit.commands`, which imports only the layers each subcommand runs.

Importing this module instead loads every layer module.  Tools that rebind a
layer function in every `linekit.*` namespace that holds it, such as the
benchmark tracer, import `linekit.cli` first so that every layer is there to
rebind, then call `linekit.cli.main`.  `main`, the exit codes, `build_parser`,
`_emit` and `_run_config` are the front's, re-exported.  `gram_degree_set` is
bound here by name as in `schemes` and `sics`: the benchmark's self-test checks
that the tracer rebinds a function in every namespace that holds it, this one
included.
"""

from __future__ import annotations

import sys

from linekit import commands, finite_algebra, groupcodes, mubs, schemes, sics  # noqa: F401
from linekit.front import (  # noqa: F401  (re-exported)
    EXIT_CERTIFICATION,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    _emit,
    _run_config,
    build_parser,
    main,
)
from linekit.linesets import gram_degree_set  # noqa: F401

if __name__ == "__main__":
    sys.exit(main())
