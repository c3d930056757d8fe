"""Run one moebudget CLI command with timing spans around its layers.

    python3 -X importtime perfbench/cli_traced.py <moebudget arguments>

Behaves like `python -m moebudget.cli`: same payload on stdout, same
diagnostics and exit code. On stderr it marks the end of the imports, for
`-X importtime` attribution, and ends with one `perfbench-spans` JSON line.
"""

import json
import sys

import tracer

import moebudget.cli as cli  # noqa: E402  (imported after tracer: its cost is the CLI's)

print("perfbench-imports-done", file=sys.stderr, flush=True)
spans = tracer.Tracer()
spans.install()
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print("perfbench-spans " + json.dumps({"spans": spans.spans, "notes": spans.notes}),
      file=sys.stderr)
sys.exit(code)
