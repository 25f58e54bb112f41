"""Start ``repro.serve`` with the benchmark's layer spans installed.

Used by the traced ``serve-mix`` run in place of ``python -m
repro.serve``; takes the same arguments. Pass ``--trace-out DIR`` to get
the server's spans, which it writes to ``DIR/trace-<pid>.json`` when it
shuts down.
"""

from __future__ import annotations

from perfbench import layers


def main(argv=None) -> None:
    layers.install()
    from repro.serve.__main__ import main as serve_main

    serve_main(argv)


if __name__ == "__main__":
    main()
