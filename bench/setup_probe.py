"""Time one fresh set-up of a localgibbs experiment and print the seconds.

Set-up is the import of the CLI module plus load_config, build_graph,
build_instance and build_chain; interpreter start-up is excluded.

Usage: PYTHONPATH=src python3 bench/setup_probe.py CONFIG COMMAND
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import localgibbs.cli  # noqa: F401 - the import a CLI call pays
    from localgibbs.config import (build_chain, build_graph, build_instance,
                                   load_config)
    cfg = load_config(sys.argv[1], sys.argv[2])
    graph = build_graph(cfg)
    build_instance(cfg, graph)
    build_chain(cfg, graph)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
