#!/usr/bin/env python3
"""Validate telemetry artifacts produced by a sweep or run.

Usage:
    python scripts/validate_manifest.py MANIFEST.json [TRACE.jsonl]

Checks the manifest against the repro-telemetry-manifest/1 schema,
optionally sanity-checks a flight-recorder dump such as ``cubic
--trace-out`` writes (header present, per-layer retained counts match
the records found), prints a short summary, and exits nonzero on any problem —
the CI telemetry-smoke job gates on this.
"""

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.flightrec.recorder import (  # noqa: E402
    HEADER_NAME,
    iter_layer,
    load_dump,
)
from repro.telemetry.manifest import (  # noqa: E402
    load_manifest,
    summarize_manifest,
    validate_manifest,
)


def check_trace(path: str) -> list:
    """Structural checks on a flight-recorder dump; returns error strings."""
    try:
        header, records = load_dump(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: not a readable recorder dump: {exc}"]
    layers = header.get("layers")
    if header.get("name") != HEADER_NAME or not isinstance(layers, dict):
        return [f"{path}: no {HEADER_NAME} line with a layers block"]
    errors = []
    for layer, block in layers.items():
        promised = block["emitted"] - block["evicted"]
        found = sum(1 for record in iter_layer(records, layer))
        if promised != found:
            errors.append(
                f"{path}: header promises {promised} {layer} record(s), "
                f"found {found}"
            )
    stray = [r for r in records if r.get("layer") not in layers]
    if stray:
        errors.append(f"{path}: {len(stray)} record(s) of no declared layer")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("manifest", help="manifest.json to validate")
    parser.add_argument("trace", nargs="?", help="optional trace.jsonl to validate")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary on success"
    )
    args = parser.parse_args(argv)

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"FAIL {args.manifest}: {exc}", file=sys.stderr)
        return 1
    errors = validate_manifest(manifest)
    if args.trace:
        errors += check_trace(args.trace)
    if errors:
        for error in errors:
            print(f"FAIL {error}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(summarize_manifest(manifest))
    print(f"OK {args.manifest}" + (f" + {args.trace}" if args.trace else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
