"""The query service in its own process, driven over stdin.

    PYTHONPATH=src python bench/server.py --seed 42 --cache DIR [--trace]

Boots :func:`repro.serve.app.build_app` over the pinned study config
with warm caches under ``--cache``, listens on an ephemeral port and
prints ``{"port": N}``.  Commands arrive one per line on stdin:
``trace`` starts the layer trace (``--trace`` installs the wrappers at
boot, switched off), ``stop`` (or end of input) shuts the server down.
On shutdown it prints one JSON line with its peak RSS and, when traced,
the layer totals.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import common
    from repro.serve.app import build_app
    from repro.serve.http import serve_app

    tracer = None
    if args.trace:
        import layers

        tracer = layers.LayerTracer()
        tracer.install(layers.TARGETS + [layers.SERVE_ROOT], worker_tasks=())
        tracer.enabled = False
    app = build_app(common.study_config(args.seed, cache_root=args.cache))

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def enable_trace() -> None:
            tracer.enabled = True

        def control() -> None:
            # Flags flip on the event loop, between two requests, so no
            # request is half traced.
            for line in sys.stdin:
                command = line.strip()
                if command == "trace" and tracer is not None:
                    loop.call_soon_threadsafe(enable_trace)
                elif command == "stop":
                    break
            loop.call_soon_threadsafe(stop.set)

        def ready(port: int) -> None:
            print(json.dumps({"port": port}), flush=True)
            threading.Thread(target=control, name="control", daemon=True).start()

        await serve_app(app, "127.0.0.1", 0, ready=ready, stop=stop)

    # asyncio.run also cancels the connection handlers still closing.
    asyncio.run(serve())
    result = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.totals()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
