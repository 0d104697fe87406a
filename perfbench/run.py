#!/usr/bin/env python3
"""eulersums benchmark: three workloads, outputs checked against an oracle.

    python3 perfbench/run.py --workload numeric_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding src/eulersums).
Every workload is a closed loop with one caller and one eulersums process
at a time.

  numeric_grid  one warm process calling u_num, v_num, w_num (most of the
                mix), eta_num, zeta_num and g_num on seeded points of the
                critical line, the real segment [-5, 5] and the left strip
                Re s in [-15, -5]; tolerances 1e-8, 1e-10, 1e-12.
  exact_cold    one fresh CLI process per `tables`, `values` or
                `verify exact_identities` command with a seeded large N.
  cli_quick     one fresh CLI process per small `eval`, `values`, `tables`,
                `verify theorem4` or `verify continuation` command.

--trace 0 measures the end-to-end metrics: numeric_grid repeats its round
of ops for --seconds seconds; a CLI workload runs a fixed op list sized to
--seconds.  --trace 1 is a separate run of the same ops, once with term
counting only and once with spans around each layer's public functions,
and prints the per-layer metrics; the work counts of the two passes must
agree exactly.

`attempted` and `failed` count distinct ops, each once however often it
ran, so for a given seed and --seconds they do not depend on the
machine's speed.  An op whose repeated runs disagree is failed as
`unsteady`.

Every op is classified (see checks.py); every failure is counted and no
input is dropped.  The run aborts, with a non-zero exit and no result, only
on a harness fault: a crashed process, unparseable output, an untyped
exception, an oracle that fails its self-check, or work counts that do not
repeat.  Per-op outcomes and provenance go to perfbench/out/; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import metadata
from math import ceil, log
from pathlib import Path

import checks
import inputs
from checks import HarnessFault
from oracle import Oracle

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("numeric_grid", "exact_cold", "cli_quick")
# percentile reported as latency_tail_ms, per workload: the highest of
# LADDER with >= 10 samples beyond it at the sample count a 30 s run
# collects, fixed so that a faster or slower program is compared at the
# same point
TAIL_PCT = {"numeric_grid": 95.0, "exact_cold": 75.0, "cli_quick": 90.0}
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
# a CLI round runs this many times back to back and each op keeps its
# fastest run: this machine's speed drifts by 10-40% from second to second,
# and the fastest of repeated identical runs is the steady figure
REPEATS = {"exact_cold": 2, "cli_quick": 3}
# CLI rounds per second of --seconds: a run makes that many rounds, in
# whole periods, so its op list is fixed by the seed and --seconds, not by
# the machine's speed.  At 30 s: 8 rounds of exact_cold (one whole Latin
# square, about 30 s on a 2-vCPU VM) and 18 of cli_quick (about 45 s; 180
# distinct ops keep the seed-to-seed spread of ok_frac small)
ROUNDS_PER_S = {"exact_cold": 8 / 30, "cli_quick": 18 / 30}
NUMERIC_TRACE_ROUNDS = 2
SETUP_SAMPLES = {"numeric_grid": 3, "exact_cold": 7, "cli_quick": 7}
RUN_LIMIT_S = 170
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import eulersums.cli; "
    "d = time.perf_counter() - t; import eulersums, json; "
    "print(json.dumps([d, eulersums.__file__]))"
)


class Proc:
    def __init__(self, code: int, out: bytes, err: bytes, wall_s: float):
        self.code, self.out, self.err, self.wall_s = code, out, err, wall_s


class Bench:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.src = root / "src"
        self.out_dir = BENCH_DIR / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("BENCH_TRACE", None)
        self.py = sys.executable
        self.oracle = Oracle()
        self.peak_rss_kb = 0

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str], stdin: bytes | None = None, env=None) -> Proc:
        """Run argv to completion; wall time and peak RSS from wait4."""
        with tempfile.TemporaryFile(dir=self.out_dir) as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=env or self.env, stderr=err,
                stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
            )
            try:
                if stdin is not None:
                    proc.stdin.write(stdin)
                    proc.stdin.close()
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            err.seek(0)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            return Proc(proc.returncode, out, err.read(), wall)

    def cli(self, op: list[str], traced: bool | None = None) -> Proc:
        """One CLI command: `python -m eulersums.cli`, or the counting
        runner (traced False: counts only, True: counts and spans)."""
        if traced is None:
            return self.spawn([self.py, "-m", "eulersums.cli", *op])
        env = dict(self.env, BENCH_TRACE="1" if traced else "0",
                   BENCH_SPANS=str(self.out_dir / "cli_spans.json"))
        return self.spawn([self.py, str(BENCH_DIR / "cli_traced.py"), *op], env=env)

    def import_probe(self) -> float:
        proc = self.spawn([self.py, "-c", _IMPORT_PROBE])
        if proc.code != 0:
            raise HarnessFault(f"import probe failed: {proc.err.decode()[-400:]}")
        seconds, where = json.loads(proc.out)
        if not Path(where).resolve().is_relative_to(self.src.resolve()):
            raise HarnessFault(f"eulersums imported from {where}, not {self.src}")
        return seconds

    def worker(self, job: dict) -> dict:
        proc = self.spawn([self.py, str(BENCH_DIR / "worker.py")],
                          stdin=json.dumps(job).encode())
        if proc.code != 0:
            raise HarnessFault(f"worker exited {proc.code}: {proc.err.decode()[-800:]}")
        try:
            return json.loads(proc.out)
        except ValueError as exc:
            raise HarnessFault(f"unparseable worker output: {exc}") from exc

    # -- oracle ---------------------------------------------------------

    def check_oracle(self) -> None:
        program = {}
        for fn in "uw":
            proc = self.cli(["values", fn, "--m-max", "8"])
            for row in self.parse(proc, ["values", fn])["rows"]:
                p = row["payload"]
                rat = Fraction(p["value"]["rational_part"])
                lg = Fraction(p["value"]["log2_coeff"])
                program[(fn, -p["s"])] = float(rat) + float(lg) * log(2)
        problems = self.oracle.self_check(program)
        if problems:
            raise HarnessFault("oracle self-check failed: " + "; ".join(problems))

    @staticmethod
    def parse(proc: Proc, op) -> dict:
        try:
            return json.loads(proc.out)
        except ValueError as exc:
            raise HarnessFault(
                f"unparseable output (exit {proc.code}) from {op}: "
                f"{proc.err.decode()[-400:]}"
            ) from exc

    def classify_cli(self, op: list[str], proc: Proc) -> tuple[str, bool]:
        doc = self.parse(proc, op)
        command = op[0]
        if command == "eval":
            fn, tol, s = op[1], float(op[3]), op[5]
            re, _, im = s.partition(",")
            if proc.code == 3 and "error" in doc:
                out = doc["error"]["reason"]
            elif proc.code == 0:
                p = doc["rows"][0]["payload"]
                out = [p["value"]["re"], p["value"]["im"], p["error_bound"]]
            else:
                return "exit_code", False
            return checks.numeric(self.oracle, fn, float(re), float(im or 0.0), tol, out)
        if proc.code != 0:
            return "exit_code", False
        if command == "tables":
            good = checks.tables(self.oracle, op[1], int(op[3]), doc)
        elif command == "values":
            good = checks.values(self.oracle, op[1], int(op[3]), doc)
        elif op[1] == "exact_identities":
            good = checks.exact_identities(self.oracle, int(op[3]), doc)
        elif op[1] == "continuation":
            good = checks.continuation(self.oracle, int(op[3]), doc)
        else:
            good = checks.theorem4(self.oracle, float(op[3]), doc)
        good = good and doc.get("passed", True)
        return ("ok" if good else "mismatch"), False

    # -- workloads --------------------------------------------------------

    def numeric_grid(self, trace: bool) -> dict:
        ops = inputs.numeric_round(self.args.seed)
        result = {"setup_s": [], "latency_ms": [], "records": []}
        if not trace:
            for _ in range(SETUP_SAMPLES["numeric_grid"] - 1):
                result["setup_s"].append(self.worker({"mode": "setup", "ops": ops})["setup_s"])
            rep = self.worker({"mode": "timed", "ops": ops, "seconds": self.args.seconds})
            result["setup_s"].append(rep["setup_s"])
            # one sample per distinct op: its fastest round
            lat = rep["latency_ms"]
            result["latency_ms"] = [min(lat[i::len(ops)]) for i in range(len(ops))]
        else:
            spans = self.out_dir / f"spans-numeric_grid-{self.args.seed}.json"
            rep = self.worker({"mode": "trace", "ops": ops,
                               "rounds": NUMERIC_TRACE_ROUNDS,
                               "spans_path": str(spans)})
            counts = rep["traced_counts"]
            if rep["plain_counts"] != counts or any(c != counts[0] for c in counts):
                raise HarnessFault(f"work counts did not repeat: {rep['plain_counts']} vs {counts}")
            result["counts"] = [sum(c[0] for c in counts), sum(c[1] for c in counts)]
            result["layers"] = rep["layers"]
            result["plain_s"], result["traced_s"] = rep["plain_s"], rep["traced_s"]
        outputs = rep["outputs"]
        # one record per distinct op, however many rounds ran: attempted and
        # failed then depend on the seed only, not on the machine's speed
        for i, (fn, re, im, tol) in enumerate(ops):
            runs = outputs[i::len(ops)]
            outcome, unchecked = checks.numeric(self.oracle, fn, re, im, tol, runs[0])
            if any(str(out) != str(runs[0]) for out in runs[1:]):
                outcome = "unsteady"
            result["records"].append({
                "op": fn, "s": [re, im], "tol": tol,
                "region": inputs.region_of(fn, re, im),
                "latency_ms": result["latency_ms"][i] if not trace else None,
                "runs": len(runs), "outcome": outcome, "unchecked": unchecked,
                "numeric": True, "output": runs[0],
            })
        return result

    def cli_workload(self, name: str, trace: bool) -> dict:
        kind = inputs.ExactRounds if name == "exact_cold" else inputs.QuickRounds
        rounds = kind(self.args.seed)
        periods = max(1, round(self.args.seconds * ROUNDS_PER_S[name] / kind.PERIOD))
        plan = [rounds.next() for _ in range(periods * kind.PERIOD)]
        ops = [op for ops_round in plan for op in ops_round]
        runs: list[list[Proc]] = [[] for _ in ops]
        result = {"setup_s": [self.import_probe() for _ in range(SETUP_SAMPLES[name])],
                  "latency_ms": [], "records": []}
        if not trace:
            first = 0
            for ops_round in plan:
                for _ in range(REPEATS[name]):
                    for i, op in enumerate(ops_round, first):
                        runs[i].append(self.cli(op))
                first += len(ops_round)
            # one sample per distinct op: its fastest run
            result["latency_ms"] = [min(p.wall_s for p in procs) * 1e3 for procs in runs]
        else:
            plain_s, plain_counts = 0.0, []
            for op in ops:
                plain_s += self.cli(op, traced=False).wall_s
                plain_counts.append(self._spans_record()["counts"])
            layers: dict = {}
            counts = []
            for i, op in enumerate(ops):
                runs[i].append(self.cli(op, traced=True))
                record = self._spans_record()
                counts.append(record["counts"])
                for layer, entry in record["layers"].items():
                    acc = layers.setdefault(layer, {"calls": 0, "self_ms": 0.0})
                    acc["calls"] += entry["calls"]
                    acc["self_ms"] += entry["self_ms"]
            if counts != plain_counts:
                raise HarnessFault(f"work counts did not repeat: {plain_counts} vs {counts}")
            traced = [procs[0] for procs in runs]
            result.update(
                layers=layers, plain_s=plain_s,
                traced_s=sum(p.wall_s for p in traced),
                counts=[sum(c[0] for c in counts), sum(c[1] for c in counts)],
                interp_ms=statistics.median(
                    self.spawn([self.py, "-c", "pass"]).wall_s * 1e3 for _ in range(5)
                ),
                import_ms=statistics.median(result["setup_s"]) * 1e3,
                output_bytes=sum(len(p.out) for p in traced),
            )
        # one record per distinct op, as in numeric_grid
        for op, procs in zip(ops, runs):
            classified = [self.classify_cli(op, proc) for proc in procs]
            outcome, unchecked = classified[0]
            if any(c != classified[0] for c in classified[1:]):
                outcome = "unsteady"
            result["records"].append({
                "op": " ".join(op), "latency_ms": min(p.wall_s for p in procs) * 1e3,
                "exit": procs[0].code, "runs": len(procs), "outcome": outcome,
                "unchecked": unchecked, "numeric": op[0] == "eval",
            })
        return result

    def _spans_record(self) -> dict:
        with open(self.out_dir / "cli_spans.json") as handle:
            return json.load(handle)


# -- metrics ----------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_ops_s": "ops/s", "ok_frac": "fraction", "peak_rss_mb": "MiB",
}
PER_LAYER = (
    ("numeric.uvw.self_ms", "ms"), ("numeric.quad_evals", "count"),
    ("numeric.series_terms", "count"), ("numeric.eta_zeta.calls", "count"),
    ("numeric.eta_zeta.self_ms", "ms"), ("numeric.gamma_digamma.self_ms", "ms"),
    ("numeric.eta_prime.self_ms", "ms"), ("numeric.raised", "count"),
    ("numeric.bound_over_tol", "count"), ("numeric.outside_bound", "count"),
    ("numeric.unchecked", "count"), ("hankel.g_num.calls", "count"),
    ("hankel.g_num.self_ms", "ms"), ("exact.bernoulli.self_ms", "ms"),
    ("exact.euler_polynomial.self_ms", "ms"), ("exact.genocchi.self_ms", "ms"),
    ("exact.euler_zero.calls", "count"), ("exact.euler_zero.self_ms", "ms"),
    ("closed_forms.c_coefficients.self_ms", "ms"), ("closed_forms.values.self_ms", "ms"),
    ("verify.suite.self_ms", "ms"), ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"),
    ("cli.serialize.self_ms", "ms"), ("cli.output_bytes", "bytes"),
    ("trace.wall_ms", "ms"), ("trace.ops", "count"), ("trace.overhead_pct", "%"),
)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(latencies: list[float], workload: str) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for latency_tail_ms: the fixed
    percentile of the workload, stepped down the ladder if fewer than 10
    samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = TAIL_PCT[workload]
    while pct > LADDER[0] and n - ceil(pct / 100.0 * n) < 10:
        pct = max(p for p in LADDER if p < pct)
    return percentile(ordered, pct), pct, n - ceil(pct / 100.0 * n)


def end_to_end(workload: str, result: dict, peak_rss_kb: int, failed: int) -> tuple[dict, str]:
    lat = result["latency_ms"]
    value, pct, beyond = tail(lat, workload)
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "latency_p50_ms": percentile(sorted(lat), 50.0),
        "latency_tail_ms": value,
        # a closed loop with one caller completes 1/latency ops per second
        "throughput_ops_s": len(lat) / (sum(lat) / 1e3),
        "ok_frac": 1.0 - failed / len(result["records"]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    runs = sorted(rec["runs"] for rec in result["records"])
    note = (f"latency_tail_ms is p{pct:g} over {len(lat)} distinct ops, {beyond} beyond it, "
            f"each op at its fastest of {runs[0]}-{runs[-1]} runs; "
            f"setup_s is the median of {len(result['setup_s'])} set-ups")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, note


def per_layer(result: dict, outcomes: dict) -> dict:
    layers = result["layers"]

    def self_ms(name):
        return layers.get(name, {}).get("self_ms", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    values = {
        "numeric.uvw.self_ms": self_ms("numeric.uvw"),
        "numeric.quad_evals": result["counts"][1],
        "numeric.series_terms": result["counts"][0],
        "numeric.eta_zeta.calls": calls("numeric.eta_zeta"),
        "numeric.eta_zeta.self_ms": self_ms("numeric.eta_zeta"),
        "numeric.gamma_digamma.self_ms": self_ms("numeric.gamma_digamma"),
        "numeric.eta_prime.self_ms": self_ms("numeric.eta_prime"),
        "numeric.raised": outcomes.get("raised", 0),
        "numeric.bound_over_tol": outcomes.get("bound_over_tol", 0),
        "numeric.outside_bound": outcomes.get("outside_bound", 0),
        "numeric.unchecked": outcomes.get("unchecked", 0),
        "hankel.g_num.calls": calls("hankel.g_num"),
        "hankel.g_num.self_ms": self_ms("hankel.g_num"),
        "exact.bernoulli.self_ms": self_ms("exact.bernoulli"),
        "exact.euler_polynomial.self_ms": self_ms("exact.euler_polynomial"),
        "exact.genocchi.self_ms": self_ms("exact.genocchi"),
        "exact.euler_zero.calls": calls("exact.euler_zero"),
        "exact.euler_zero.self_ms": self_ms("exact.euler_zero"),
        "closed_forms.c_coefficients.self_ms": self_ms("closed_forms.c_coefficients"),
        "closed_forms.values.self_ms": self_ms("closed_forms.values"),
        "verify.suite.self_ms": self_ms("verify.suite"),
        "cli.interp_ms": result.get("interp_ms", 0.0),
        "cli.import_ms": result.get("import_ms", 0.0),
        "cli.serialize.self_ms": self_ms("cli.serialize"),
        "cli.output_bytes": result.get("output_bytes", 0),
        "trace.wall_ms": result["traced_s"] * 1e3,
        "trace.ops": len(result["records"]),
        # untraced over traced throughput on the same ops, minus one
        "trace.overhead_pct": (result["traced_s"] / result["plain_s"] - 1.0) * 100.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- provenance ---------------------------------------------------------------

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unresolved " + ref[5:]


def provenance(root: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "mpmath": metadata.version("mpmath"),
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- entry point ----------------------------------------------------------------

def _timeout(signum, frame):
    raise HarnessFault(f"run exceeded {RUN_LIMIT_S} s")


def check_repeat(bench: Bench, prov: dict, counts: list[int]) -> None:
    """Work counts must match those of any earlier traced run of the same
    workload, seed, --seconds and source."""
    path = bench.out_dir / (
        f"counts-{prov['workload']}-{prov['seed']}-{prov['seconds']:g}s-"
        f"{prov['src_sha256'][:16]}.json")
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            raise HarnessFault(f"work counts {counts} differ from an earlier run's {earlier}")
    else:
        path.write_text(json.dumps(counts))


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "eulersums" / "__init__.py").is_file():
        raise HarnessFault(f"no src/eulersums under {root}: run from a source checkout")
    prov = provenance(root, args)
    print(json.dumps({"provenance": prov}))
    bench = Bench(root, args)
    bench.check_oracle()
    bench.peak_rss_kb = 0  # the self-check's processes are not part of the workload
    trace = bool(args.trace)
    if args.workload == "numeric_grid":
        result = bench.numeric_grid(trace)
    else:
        result = bench.cli_workload(args.workload, trace)
    records = result["records"]
    outcomes: dict[str, int] = {}
    for rec in records:
        outcomes[rec["outcome"]] = outcomes.get(rec["outcome"], 0) + 1
        outcomes["unchecked"] = outcomes.get("unchecked", 0) + rec["unchecked"]
    failed = sum(1 for rec in records if rec["outcome"] != "ok")
    mismatched = sum(1 for rec in records if rec["outcome"] == "mismatch")
    if trace:
        check_repeat(bench, prov, result["counts"])
        metrics, note = per_layer(result, outcomes), (
            f"work counts repeated: series_terms={result['counts'][0]} "
            f"quad_evals={result['counts'][1]}")
    else:
        metrics, note = end_to_end(args.workload, result, bench.peak_rss_kb, failed)
    out_path = bench.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as handle:
        json.dump({"provenance": prov, "outcomes": outcomes, "metrics": metrics,
                   "ops": records}, handle)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(note)
    print("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
          + f"; per-op records in {out_path.relative_to(root)}")
    if trace and args.workload == "numeric_grid":
        share = metrics["numeric.uvw.self_ms"]["value"] / metrics["trace.wall_ms"]["value"]
        print(f"numeric.uvw self time is {share:.1%} of the traced wall time")
    return {
        # exact outputs all equal the references; numeric contract misses
        # are counted in `failed` and ok_frac instead
        "correct": mismatched == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    try:
        result = run(args)
    except HarnessFault as exc:
        print(f"harness fault: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
