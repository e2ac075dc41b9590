"""One fresh interpreter running one workload: set-up, then timed ops.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE SCALE WORKDIR

MODE is ``setup`` (set up, warm up and exit), ``run`` (then time ops for
SECONDS) or ``trace`` (then time ops untraced for SECONDS/2 and traced for
SECONDS/2).  Reference work runs between ops and, for long ops, within
them, timed on its own (``reference.py``).  The last line of standard output
is a JSON object; its ``ready`` is the ``time.perf_counter`` reading when
set-up ended, which the parent compares with its own reading taken before it
started this process.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCES, timed
from spans import Tracer, summarize
from workloads import WORKLOADS

# A traced phase keeps at most this many ops' spans in memory.
TRACED_OPS_CAP = 400


def _phase(wl, seconds: float, first: int, tracer=None, max_ops=None) -> dict:
    """Start ops until ``seconds`` have passed; check each outside the clock.

    The reference work runs before every op, once after the last, and, in an
    untraced phase of a workload with ``sample_every_s``, on a timer signal
    within the op; an op's latency leaves out the reference runs within it.
    ``span`` holds each op's start and end and ``ref`` the ``[start,
    seconds]`` of every reference run, in time order.
    """
    work = REFERENCES[wl.name][0]
    every = None if tracer else wl.sample_every_s
    lat, span, ref, ok, out_bytes, errors = [], [], [], [], [], []

    def sample(signum=None, frame=None) -> None:
        ref.append(timed(work))

    if every:
        signal.signal(signal.SIGALRM, sample)
    i, start = first, time.perf_counter()
    while time.perf_counter() - start < seconds and (max_ops is None or len(lat) < max_ops):
        sample()
        inp = wl.op_input(i)
        if tracer:
            tracer.op = i
            sid = tracer.begin("op")
        out, problems = None, []
        within = len(ref)
        t0 = time.perf_counter()
        if every:
            signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            out = wl.run(inp, tracer)
        except Exception:
            problems = [f"op {i}: {traceback.format_exc(limit=3)}"]
        finally:
            if every:
                signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        if tracer:
            tracer.end(sid)
            tracer.op = None
            wl.adopt_spans(tracer, sid)
        if not problems:
            try:
                problems = [f"op {i}: {e}" for e in wl.check(inp, out)]
                out_bytes.append(wl.output_bytes(out))
            except Exception:
                problems = [f"op {i} check: {traceback.format_exc(limit=3)}"]
        del out
        lat.append(t1 - t0 - sum(took for begun, took in ref[within:] if begun < t1))
        span.append([t0, t1])
        ok.append(not problems)
        errors += problems
        i += 1
    sample()
    return {"lat": lat, "span": span, "ref": ref, "ok": ok, "out_bytes": out_bytes,
            "errors": errors[:5], "next": i}


def main() -> int:
    name, seed, seconds, mode, scale, workdir = sys.argv[1:]
    seed, seconds = int(seed), float(seconds)
    wl = WORKLOADS[name](seed, scale, Path(workdir))
    wl.setup()
    try:
        wl.warm_up()
    except Exception:
        # The same failure recurs in the timed ops, where it is counted.
        traceback.print_exc()
    result = {"ready": time.perf_counter()}
    if mode == "run":
        result["plain"] = _phase(wl, seconds, 1)
    elif mode == "trace":
        result["plain"] = _phase(wl, seconds / 2, 1)
        tracer = Tracer()
        if wl.in_process:
            tracer.install()
        result["traced"] = _phase(wl, seconds / 2, result["plain"]["next"], tracer, TRACED_OPS_CAP)
        tracer.uninstall()
        result["layers"] = summarize(tracer.spans, tracer.extra)
        with open(Path(workdir).parent / f"spans-{name}-seed{seed}.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "extra": tracer.extra}, fh)
    if mode != "setup":
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["sizes"] = wl.sizes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
