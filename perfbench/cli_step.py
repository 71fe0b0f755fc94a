"""The dwfnet CLI called in-process, optionally traced.

`run_cli` calls `dwfnet.cli.main` with a document on stdin and returns its
exit code and stdout: the cli-cold workload takes each request's expected
output from it.  Run as a script,

    python3 perfbench/cli_step.py '<argv json>' < document

it makes the same call in a fresh process with a tracer installed, for the
per-layer numbers, and prints the command's stdout followed by one JSON line
with its spans.
"""

import time

_T_START = time.monotonic()  # first statement: interpreter start-up ends here

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def run_cli(argv, text: str) -> tuple:
    """(exit code, stdout) of `dwfnet <argv>` with `text` on stdin; stderr is dropped."""
    from dwfnet import cli

    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    try:
        code = cli.main(list(argv))
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = streams
    return code, out


def _main() -> int:
    argv = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import dwfnet.cli  # noqa: F401  (numpy and every dwfnet module, as the CLI loads them)
    from tracer import CLI_TARGETS, Tracer

    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.item = 0
    tracer.record("cli.import", t0, t1)
    text = sys.stdin.read()
    tracer.install()
    tracer.install(CLI_TARGETS)
    code, out = run_cli(argv, text)
    tracer.uninstall()
    trace = {"started": _T_START, "spans": tracer.spans, "cold": tracer.cold,
             "bytes_in": len(text.encode()), "bytes_out": len(out.encode())}
    sys.stdout.write(out + json.dumps(trace) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_main())
