#!/usr/bin/env python3
"""Validate merged per-request trace files (and optionally the alert stream).

Checks, per trace file:
  * the file is valid JSON with an integer top-level "trace_id" > 0 and a
    "traceEvents" array (Chrome trace-event format, Perfetto-loadable);
  * thread_name metadata names every rank track ("rank 0".."rank R-1") and
    the "service" track when --expect-ranks is given;
  * every "X" (complete) event carries args.trace_id equal to the file's
    trace_id, a unique args.span_id, and an args.parent_span_id;
  * no span is orphaned: every args.parent_span_id is 0 (the root) or the
    span_id of a span in the same file;
  * spans nest: a span lies within its parent's [ts, ts + dur] interval (a
    small epsilon absorbs microsecond rounding in the export).

With --alerts, additionally validates the JSONL alert stream:
  * --expect-no-straggler: no straggler alert at all (clean-run smoke);
  * --expect-straggler-rank R: at least one straggler alert, every one of
    them blames rank R, and each carries a nonzero trace_id;
  * --max-straggler-per-trace N: at most N straggler alerts per trace_id.
    The detector fires once per rank per SOLVE, so pass 1 only when no job
    is resubmitted (a step-limited context alerts once per submission);
  * --expect-no-stall: no convergence_stall alert at all (clean, converging
    solves -- batched ones included -- never plateau).

Usage:
  check_trace.py TRACE.json [TRACE2.json ...] [--expect-ranks R]
                 [--alerts ALERTS.jsonl]
                 [--expect-straggler-rank R | --expect-no-straggler]
                 [--expect-no-stall]

Exits 0 when every check passes, 1 otherwise (each failure printed).
"""

import argparse
import json
import sys

NEST_EPS_US = 10.0  # microsecond-rounding allowance for containment


def fail(errors, path, message):
    errors.append(f"{path}: {message}")


def check_trace(path, expect_ranks, errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, path, f"unreadable or invalid JSON: {e}")
        return

    trace_id = doc.get("trace_id")
    if not isinstance(trace_id, (int, float)) or int(trace_id) <= 0:
        fail(errors, path, f"missing or invalid top-level trace_id: {trace_id!r}")
        return
    trace_id = int(trace_id)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(errors, path, "traceEvents missing or empty")
        return

    thread_names = {}
    spans = {}  # span_id -> (tid, start_us, end_us, name)
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "thread_name":
                thread_names[ev.get("tid")] = ev.get("args", {}).get("name")
            continue
        if ph != "X":
            fail(errors, path, f"event {i}: unexpected phase {ph!r}")
            continue
        args = ev.get("args", {})
        if int(args.get("trace_id", -1)) != trace_id:
            fail(errors, path,
                 f"event {i} ({ev.get('name')!r}): args.trace_id "
                 f"{args.get('trace_id')!r} != file trace_id {trace_id}")
        span_id = args.get("span_id")
        if not isinstance(span_id, (int, float)) or int(span_id) <= 0:
            fail(errors, path, f"event {i}: missing args.span_id")
            continue
        span_id = int(span_id)
        if "parent_span_id" not in args:
            fail(errors, path, f"event {i}: missing args.parent_span_id")
        if span_id in spans:
            fail(errors, path, f"duplicate span_id {span_id}")
            continue
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)) or dur < 0:
            fail(errors, path, f"event {i}: bad ts/dur ({ts!r}, {dur!r})")
            continue
        spans[span_id] = (ev.get("tid"), float(ts), float(ts) + float(dur),
                          ev.get("name"), int(args.get("parent_span_id", 0)))

    if expect_ranks is not None:
        want = {f"rank {r}" for r in range(expect_ranks)} | {"service"}
        got = set(thread_names.values())
        if not want <= got:
            fail(errors, path, f"missing tracks: {sorted(want - got)} "
                 f"(have {sorted(got)})")

    for span_id, (_, start, end, name, parent) in spans.items():
        if parent == 0:
            continue  # root
        if parent not in spans:
            fail(errors, path,
                 f"span {span_id} ({name!r}) has parent {parent}, which is "
                 f"not in the file")
            continue
        _, pstart, pend, pname, _ = spans[parent]
        if start < pstart - NEST_EPS_US or end > pend + NEST_EPS_US:
            fail(errors, path,
                 f"span {span_id} ({name!r}, [{start:.1f}, {end:.1f}]us) "
                 f"escapes parent {parent} ({pname!r}, "
                 f"[{pstart:.1f}, {pend:.1f}]us)")

    if not spans:
        fail(errors, path, "no complete (ph=X) spans")


def check_alerts(path, expect_rank, expect_none, max_per_trace, no_stall,
                 errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(errors, path, f"unreadable: {e}")
        return
    stragglers = []
    stalls = 0
    for i, line in enumerate(lines):
        try:
            alert = json.loads(line)
        except json.JSONDecodeError as e:
            fail(errors, path, f"line {i + 1}: invalid JSON: {e}")
            continue
        for key in ("family", "severity", "message", "trace_id", "rank",
                    "iteration", "value", "threshold"):
            if key not in alert:
                fail(errors, path, f"line {i + 1}: missing field {key!r}")
        if alert.get("family") == "straggler":
            stragglers.append(alert)
        elif alert.get("family") == "convergence_stall":
            stalls += 1

    if no_stall and stalls:
        fail(errors, path, f"expected no convergence_stall alerts, found {stalls}")
    if expect_none:
        if stragglers:
            fail(errors, path,
                 f"expected no straggler alerts, found {len(stragglers)}")
        return
    if expect_rank is None:
        return
    if not stragglers:
        fail(errors, path, "expected a straggler alert, found none")
        return
    per_trace = {}
    for alert in stragglers:
        if alert.get("rank") != expect_rank:
            fail(errors, path,
                 f"straggler alert blames rank {alert.get('rank')}, "
                 f"expected rank {expect_rank}")
        if not alert.get("trace_id"):
            fail(errors, path, "straggler alert carries no trace_id")
        per_trace[alert.get("trace_id")] = per_trace.get(
            alert.get("trace_id"), 0) + 1
    if max_per_trace is not None:
        for tid, count in per_trace.items():
            if count > max_per_trace:
                fail(errors, path,
                     f"{count} straggler alerts for trace {tid}, expected "
                     f"at most {max_per_trace}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("traces", nargs="+", help="merged trace JSON files")
    ap.add_argument("--expect-ranks", type=int, default=None,
                    help="require rank 0..R-1 and service tracks")
    ap.add_argument("--alerts", default=None, help="JSONL alert stream")
    ap.add_argument("--expect-straggler-rank", type=int, default=None)
    ap.add_argument("--expect-no-straggler", action="store_true")
    ap.add_argument("--max-straggler-per-trace", type=int, default=None)
    ap.add_argument("--expect-no-stall", action="store_true")
    args = ap.parse_args()

    errors = []
    for path in args.traces:
        check_trace(path, args.expect_ranks, errors)
    if args.alerts is not None:
        check_alerts(args.alerts, args.expect_straggler_rank,
                     args.expect_no_straggler, args.max_straggler_per_trace,
                     args.expect_no_stall, errors)

    if errors:
        for e in errors:
            print(f"FAIL {e}", file=sys.stderr)
        print(f"{len(errors)} check(s) failed", file=sys.stderr)
        return 1
    print(f"OK: {len(args.traces)} trace file(s)"
          + (" + alert stream" if args.alerts else "") + " validated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
