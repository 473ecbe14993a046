"""A traced ``vardim`` process for the traced ``cli-mix`` run.

Usage: python3 cli_traced.py SPANS_OUT ARGV...

Runs ``vardim.cli.main(ARGV)`` with every public function traced, writes the
spans and counts to SPANS_OUT (an .npz file) and exits with the command's
code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402
import vardim.cli  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tracer.install()
    try:
        code = tracer.span("bench.process", vardim.cli.main, argv)
    finally:
        tracer.uninstall()
        tr.save(out, tracer.spans(), tracer.counts)
    return code


if __name__ == "__main__":
    sys.exit(main())
