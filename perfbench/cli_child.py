"""Traced ``beltrami`` process: run ``beltrami.cli.main`` under the layer wrappers.

Usage: python3 cli_child.py SPANS_JSON <beltrami arguments...>

Writes the spans to SPANS_JSON and exits with the code ``main`` returned.
The import of the package happens before the first span opens, so it shows
up in the parent's job time as time no span covers.
"""

import json
import sys

import tracer as tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t = tracing.Tracer()
    t.install()
    import beltrami.cli

    try:
        return beltrami.cli.main(argv)
    finally:
        t.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(t.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
