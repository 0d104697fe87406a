"""The numeric_grid program process: one caller, warm caches, no oracle.

Reads {"mode", "ops", "seconds", "rounds", "spans_path"} as JSON on stdin and
writes one JSON object on stdout.  Each op is [fn, re, im, tol]; a round is
the whole op list in order.

  mode "setup"  import eulersums and warm up; report the time taken.
  mode "timed"  set up, then run rounds until `seconds` have passed and
                report every op's latency and output.
  mode "trace"  set up, run `rounds` rounds with term counting, then the
                same rounds again with spans on; report both.

Warm-up evaluates, for each function and tail order q, the op with the
smallest |Im s|, which fills the per-q coefficient caches cheaply.

Only EvaluationError is caught: any other exception ends the process with a
traceback, which the benchmark treats as a harness fault.
"""

from __future__ import annotations

import json
import sys
import time
from time import perf_counter_ns

t_start = time.perf_counter()
import eulersums  # noqa: E402
from eulersums import AccelConfig, EvaluationError, TermCounter, counting_terms  # noqa: E402

_FUNCS = {"u": "u_num", "v": "v_num", "w": "w_num", "eta": "eta_num",
          "zeta": "zeta_num", "G": "g_num"}
_CONFIGS: dict[float, AccelConfig] = {}


def run_op(fn: str, re: float, im: float, tol: float):
    cfg = _CONFIGS.get(tol)
    if cfg is None:
        cfg = _CONFIGS[tol] = AccelConfig(tol=tol)
    func = getattr(eulersums, _FUNCS[fn])  # looked up per call: may be wrapped
    try:
        result = func(re if fn == "G" else complex(re, im), cfg)
    except EvaluationError as exc:
        return exc.reason
    return [result.value.real, result.value.imag, result.error_bound]


def warm_up_ops(ops):
    pick = {}
    for op in ops:
        fn, re, im, _ = op
        key = (fn, AccelConfig().resolve_q(complex(re, im)))
        if key not in pick or abs(im) < abs(pick[key][2]):
            pick[key] = op
    return list(pick.values())


def run_round(ops, op=run_op):
    latencies, outputs = [], []
    for fn, re, im, tol in ops:
        t0 = perf_counter_ns()
        out = op(fn, re, im, tol)
        latencies.append((perf_counter_ns() - t0) / 1e6)
        outputs.append(out)
    return latencies, outputs


def main() -> None:
    job = json.load(sys.stdin)
    ops = job["ops"]
    run_round(warm_up_ops(ops))
    report = {"setup_s": time.perf_counter() - t_start}
    if job["mode"] == "timed":
        latencies, outputs = [], []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < job["seconds"]:
            lat, out = run_round(ops)
            latencies += lat
            outputs += out
        report.update(latency_ms=latencies, outputs=outputs)
    elif job["mode"] == "trace":
        from tracer import Tracer

        def passes(op):
            counts, outputs = [], []
            t0 = time.perf_counter()
            for _ in range(job["rounds"]):
                counter = TermCounter()
                with counting_terms(counter):
                    outputs += run_round(ops, op)[1]
                counts.append([counter.series_terms, counter.quad_evals])
            return time.perf_counter() - t0, counts, outputs

        plain_s, plain_counts, _ = passes(run_op)
        tracer = Tracer()
        tracer.install()
        traced_s, traced_counts, outputs = passes(tracer.span("op", run_op))
        tracer.dump(job["spans_path"])
        report.update(plain_s=plain_s, plain_counts=plain_counts,
                      traced_s=traced_s, traced_counts=traced_counts,
                      outputs=outputs, layers=tracer.summary())
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
