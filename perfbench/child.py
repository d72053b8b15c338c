"""One hopfspecies invocation in its own process, for perfbench.

    python3 perfbench/child.py run   <cli args...>   # hopfspecies.cli.run
    python3 perfbench/child.py trace <cli args...>   # the same, traced
    python3 perfbench/child.py setup FN IDENT <cli args...>

`setup` stops after what every invocation does before computing: start the
interpreter, import `hopfspecies.cli`, parse the arguments and build the
monoid, morphism or species named IDENT with `hopfspecies.cli.FN`.

The package is imported from the `src/` directory of the checkout that
holds this file, never from anywhere else. A traced run writes its tracer
dump as the last line of stderr, after TRACE_MARK; stdout is the CLI's own.
"""

import json
import sys
from pathlib import Path

TRACE_MARK = "perfbench-trace "


def main(argv: list) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "hopfspecies" / "cli.py").is_file():
        print("perfbench: no hopfspecies sources under %s" % src, file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        from hopfspecies import cli
        fn, ident, cli_args = args[0], args[1], args[2:]
        cli.build_parser().parse_args(cli_args)
        getattr(cli, fn)(ident)
        return 0
    if mode == "run":
        from hopfspecies import cli
        return cli.run(args)
    if mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        from hopfspecies import cli
        code = cli.run(args)
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.dump()), file=sys.stderr)
        return code
    print("perfbench: unknown mode %r" % mode, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
