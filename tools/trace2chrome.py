#!/usr/bin/env python3
"""Convert a Palladium flight-recorder JSONL trace to Chrome trace-event JSON.

The simulator's FlightRecorder (src/obs/trace.h) writes one JSON object per
line:

  {"meta":"track","track":0,"name":"cpu0","events":123,"dropped":0}   # header
  {"track":0,"cycle":400,"type":"irq_deliver","arg0":33,"arg1":0}

This tool emits the Chrome trace-event format (the "JSON Array Format"),
loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing. Each
recorder track becomes one thread row; crossing_enter/crossing_exit pairs
become duration ("B"/"E") slices and every other event an instant ("i").
Timestamps are simulated cycles converted to microseconds at 200 MHz (the
paper's Pentium-200), so slice widths read directly as simulated time.

Usage:
  tools/trace2chrome.py TRACE.jsonl [-o TRACE.json]
  tools/trace2chrome.py --validate TRACE.jsonl

--validate lints the JSONL instead of converting: every line must parse, use
a known event type, and carry the required keys; every referenced track needs
a meta header; and cpu* tracks must be cycle-monotone (device tracks such as
nic.q0 are event-time stamped by their owning core's clock domain, which is
not globally monotone under SMP, so they are exempt).
"""

import argparse
import json
import sys

CPU_MHZ = 200.0  # simulated Pentium-200; cycles / CPU_MHZ = microseconds

KNOWN_TYPES = {
    "irq_raise",
    "irq_deliver",
    "irq_eoi",
    "crossing_enter",
    "crossing_exit",
    "context_switch",
    "tlb_shootdown",
    "napi_poll",
    "frame_dma",
    "frame_classify",
    "frame_enqueue",
    "frame_recv",
    "frame_tx",
}

EVENT_KEYS = {"track", "cycle", "type", "arg0", "arg1"}
META_KEYS = {"meta", "track", "name", "events", "dropped"}


def parse_lines(path):
    """Yields (line_number, parsed object) for every non-empty line."""
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            yield lineno, json.loads(line)


def validate(path):
    """Returns a list of error strings (empty = valid)."""
    errors = []
    track_names = {}
    last_cycle = {}
    referenced = set()

    try:
        entries = list(parse_lines(path))
    except (OSError, json.JSONDecodeError) as exc:
        return ["%s: %s" % (path, exc)]

    for lineno, obj in entries:
        if obj.get("meta") == "track":
            missing = META_KEYS - obj.keys()
            if missing:
                errors.append("line %d: meta line missing keys %s" % (lineno, sorted(missing)))
                continue
            track_names[obj["track"]] = obj["name"]
            continue
        missing = EVENT_KEYS - obj.keys()
        if missing:
            errors.append("line %d: event missing keys %s" % (lineno, sorted(missing)))
            continue
        if obj["type"] not in KNOWN_TYPES:
            errors.append("line %d: unknown event type %r" % (lineno, obj["type"]))
        track = obj["track"]
        referenced.add(track)
        name = track_names.get(track, "")
        if name.startswith("cpu"):
            prev = last_cycle.get(track)
            if prev is not None and obj["cycle"] < prev:
                errors.append(
                    "line %d: track %s cycle %d < previous %d (cpu tracks must be monotone)"
                    % (lineno, name, obj["cycle"], prev)
                )
            last_cycle[track] = obj["cycle"]

    for track in sorted(referenced):
        if track not in track_names:
            errors.append("track %d has events but no meta header line" % track)
    return errors


def convert(path):
    """Returns the Chrome trace-event document as a dict."""
    trace_events = []
    open_crossings = {}  # track -> depth, to balance B/E pairs defensively

    for _, obj in parse_lines(path):
        if obj.get("meta") == "track":
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": obj["track"],
                    "args": {"name": obj["name"]},
                }
            )
            continue
        track = obj["track"]
        ts = obj["cycle"] / CPU_MHZ
        base = {"pid": 0, "tid": track, "ts": ts, "cat": "sim"}
        etype = obj["type"]
        if etype == "crossing_enter":
            trace_events.append(
                dict(base, name="crossing", ph="B",
                     args={"function_id": obj["arg0"], "arg": obj["arg1"]})
            )
            open_crossings[track] = open_crossings.get(track, 0) + 1
        elif etype == "crossing_exit":
            if open_crossings.get(track, 0) > 0:
                open_crossings[track] -= 1
                trace_events.append(
                    dict(base, name="crossing", ph="E",
                         args={"function_id": obj["arg0"], "ok": obj["arg1"]})
                )
            else:
                # Enter was evicted by ring wrap; degrade to an instant so the
                # track stays well-formed.
                trace_events.append(
                    dict(base, name="crossing_exit", ph="i", s="t",
                         args={"function_id": obj["arg0"], "ok": obj["arg1"]})
                )
        else:
            trace_events.append(
                dict(base, name=etype, ph="i", s="t",
                     args={"arg0": obj["arg0"], "arg1": obj["arg1"]})
            )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="flight-recorder JSONL trace")
    parser.add_argument("-o", "--output", help="output path (default: INPUT with .json)")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="lint the JSONL instead of converting; exit 1 on any error",
    )
    args = parser.parse_args(argv)

    if args.validate:
        errors = validate(args.input)
        for err in errors:
            print("trace2chrome: %s" % err, file=sys.stderr)
        if errors:
            return 1
        print("trace2chrome: %s OK" % args.input)
        return 0

    doc = convert(args.input)
    out_path = args.output
    if out_path is None:
        out_path = (
            args.input[: -len(".jsonl")] if args.input.endswith(".jsonl") else args.input
        ) + ".json"
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("wrote %s (%d events); open in https://ui.perfetto.dev" % (out_path, len(doc["traceEvents"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
