"""One CLI request in a fresh interpreter, as a user runs `roundlab`.

    python3 perfbench/child.py META MODE [CLI ARGS...]

MODE is `import` (time `import roundlab.cli` and stop), `run` (call
`cli.main(args)`) or `trace` (the same, with the layer wrappers of
`spans.py` installed). The report goes to stdout as the CLI prints it; the
exit code is the CLI's. META receives a JSON object with the import time
and its window on the monotonic clock, the exit code and the peak RSS of
this process and its pool workers; in `trace` mode the spans go to META's
prefix with `.npz` and `.json`.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    meta_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    from roundlab import cli
    end = time.perf_counter()
    # perf_counter is the system-wide monotonic clock, so the harness can
    # take out any pause that falls inside this window
    meta = {"import_s": end - start, "import_window": [start, end]}
    rc = 0
    if mode != "import":
        entry = cli.main
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            entry = spans.install(tracer)
        try:
            rc = entry(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(meta_path.removesuffix(".json") + "-spans")
        # pool workers are reaped by the time main returns, so their peak
        # shows up under RUSAGE_CHILDREN
        meta["maxrss_kib"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    meta["rc"] = rc
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
