"""Start ``wasai serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py OUT_DIR serve [serve options]

Used by the traced ``service_mixed`` run in place of ``python -m
repro.cli serve``.  After the daemon's SIGTERM drain, its spans are
written to ``OUT_DIR/spans.jsonl`` and its counters (plus the final
instrumentation/solver cache counters) to ``OUT_DIR/counts.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import cache_counters
from spans import Tracer, install_campaign_layers, install_service_layers


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    install_campaign_layers(tracer)
    install_service_layers(tracer)
    from repro.cli import main as cli_main
    code = cli_main(sys.argv[2:])
    tracer.dump(out / "spans.jsonl")
    (out / "counts.json").write_text(json.dumps({
        "counts": dict(tracer.counts), "cache": list(cache_counters())}),
        encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
