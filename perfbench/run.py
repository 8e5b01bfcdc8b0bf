#!/usr/bin/env python3
"""Benchmark for the DiLOS simulator: host speed and simulated results.

    python3 perfbench/run.py --workload scan --seed 42 --seconds 20 --trace 0

Run from the repository root. It builds perfbench/rep.exe with dune,
then runs repetitions of one workload, one process each, for about
--seconds seconds. Every repetition checks the program's outputs and
that its simulated results equal the first one's.

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians
over the repetitions). --trace 1 reports the per-layer metrics: it
alternates untraced and traced repetitions, asserts that tracing
leaves every simulated result bit-identical, times each layer's unit
cost, and splits the traced host time into count x unit-cost
estimates plus a residual.

The last stdout line is the result object; the line before it is a
report with quartiles, sample counts and provenance. Exit status is
0 only when every output was verified.

Seeds: 42 is the default. 2027 is held out: no tuning of the
benchmark used it, so a claimed gain can be re-checked on it.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 42
HELD_OUT_SEED = 2027

EXE = os.path.join("_build", "default", "perfbench", "rep.exe")
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
MAX_REPS = 50

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Counters whose failure means an operation was lost or refused.
ERROR_COUNTERS = ("rdma_perm_failures", "writeback_failures", "reclaim_gave_up")

# kv-zipf: a swept rate meets the SLO when its response p99 stays within
# this and the last phase's median response is at most twice the first
# phase's (no growing backlog). The first phase starts with a cold
# local cache, so per-phase p99s are not compared.
SLO_P99_US = 50.0
PAGE = 4096
MIB = 1024 * 1024

SYSTEM_LAYER = {"DiLOS/readahead": "dilos", "Fastswap": "fastswap"}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def summary(values):
    """Median, quartiles (as statistics.quantiles(n=4) gives them) and count."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def check_names(names):
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad:
        raise BenchError("bad metric names: %s" % ", ".join(bad))


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_names(m["name"] for m in spec["end_to_end"] + spec["per_layer"])
    return spec


def build():
    cmd = ["dune", "build", "--root", ".", "perfbench/rep.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed (exit %d)" % r.returncode)


def child(*args):
    """Run rep.exe once; its last stdout line is a JSON object."""
    try:
        r = subprocess.run([EXE, *args], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("rep.exe %s timed out" % " ".join(args))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError("rep.exe %s failed (exit %d): %s"
                         % (" ".join(args), r.returncode, r.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def repeat(fn, seconds, min_reps=MIN_REPS):
    """Call fn() at least min_reps times, then while another call, as
    long as the slowest so far, would still end within `seconds`."""
    out = []
    start = time.monotonic()
    slowest = 0.0
    while len(out) < MAX_REPS:
        t = time.monotonic()
        out.append(fn())
        slowest = max(slowest, time.monotonic() - t)
        if len(out) >= min_reps and time.monotonic() - start + slowest > seconds:
            break
    return out


def failures(rep):
    """Failed operations of one repetition: verification plus error counters."""
    n = rep["failed"]
    counters = rep.get("sim", {}).get("counters", {})
    return n + sum(counters.get(c, 0) for c in ERROR_COUNTERS)


def check_identical(reps, what):
    """Simulated results must repeat bit for bit; return the problems."""
    first = reps[0].get("sim")
    return ["%s %d: simulated results differ from the first" % (what, i)
            for i, r in enumerate(reps) if r.get("sim") != first]


def end_to_end(reps):
    sim = reps[0]["sim"]
    return {
        "host_run_s": [r["host_run_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mib": [r["vm_hwm_kib"] / 1024 for r in reps],
        "vm_peak_mib": [r["vm_peak_kib"] / 1024 for r in reps],
        "sim_ms": [sim["phase_ns"] / 1e6],
    }


def sweep_knee(points):
    """Highest swept rate (krps) whose response p99 meets the SLO with
    no backlog growing across phases; 0 if none."""
    best = 0.0
    for p in points:
        phases = p["phases"]
        ok = (p["failed"] == 0
              and p["response"]["p99_us"] <= SLO_P99_US
              and phases[-1]["p50_us"] <= 2 * phases[0]["p50_us"])
        if ok:
            best = max(best, p["rate_rps"] / 1000)
    return best


def per_layer(untraced, traced, units, points):
    """Per-layer metrics from a traced repetition, unit costs and the
    untraced repetitions of the same run."""
    t = traced[-1]
    sim = t["sim"]
    ph = sim["phase_counters"]
    c = lambda name: ph.get(name, 0)
    histos = sim["histos"]
    attr = t["trace"]["attr"]
    memif = t["trace"]["memif"]
    obs = t["trace"]["obs"]
    app = sim["app"]
    layer = SYSTEM_LAYER.get(t["config"]["system"])

    host_traced = statistics.median(r["host_run_s"] for r in traced)
    host_untraced = statistics.median(r["host_run_s"] for r in untraced)

    misses = min(memif["calls"], c("major_faults") + c("minor_faults")
                 + c("fetch_waits") + c("zero_fill_faults"))
    hits = memif["calls"] - misses
    clock = memif["clock_ns"]
    mean = lambda ns, n: max(0.0, ns / n - clock) if n else 0.0
    hit_ns = mean(memif["hit_ns"], memif["hit_n"])
    miss_ns = mean(memif["miss_ns"], memif["miss_n"])

    def p99(h, name):
        return h[name]["p99"] if name in h else 0

    def kernel(name, value):
        return value if layer == name else 0

    m = {
        "apps.memif_calls": memif["calls"],
        "apps.memif_hit_ns": units["apps.memif_hit_ns"],
        "apps.memif_miss_us": miss_ns / 1000,
        "apps.self_s": host_traced - (hits * hit_ns + misses * miss_ns) * 1e-9,
        "dilos.major_faults": kernel("dilos", c("major_faults")),
        "dilos.fetch_waits": kernel("dilos", c("fetch_waits")),
        "dilos.prefetch_per_fault": kernel(
            "dilos", c("prefetch_issued") / c("major_faults") if c("major_faults") else 0),
        "dilos.evictions": kernel("dilos", c("evictions")),
        "dilos.writebacks": kernel("dilos", c("writebacks")),
        "dilos.reclaim_stall_sim_us": kernel("dilos", c("reclaim_stall_ns") / 1000),
        "dilos.fault_sim_p99_ns": kernel("dilos", p99(histos, "fault_ns")),
        "fastswap.major_faults": kernel("fastswap", c("major_faults")),
        "fastswap.minor_faults": kernel("fastswap", c("minor_faults")),
        "fastswap.direct_reclaims": kernel("fastswap", c("direct_reclaims")),
        "fastswap.readahead_pages": kernel("fastswap", c("readahead_pages")),
        "rdma.reads": c("rdma_reads"),
        "rdma.read_batches": c("rdma_read_batches"),
        "rdma.read_bytes": c("rdma_read_bytes"),
        "rdma.write_bytes": c("rdma_write_bytes"),
        "rdma.bytes_per_app_byte": ((c("rdma_read_bytes") + c("rdma_write_bytes"))
                                    / memif["bytes"] if memif["bytes"] else 0),
        "rdma.retries": c("rdma_retries"),
        "rdma.attr_wire_p99_ns": p99(attr, "attr_wire_ns"),
        "rdma.attr_queue_p99_ns": p99(attr, "attr_queue_ns"),
        "memnode.shard0.reads": obs.get("repl_shard_reads{shard=0}", 0),
        "memnode.shard1.reads": obs.get("repl_shard_reads{shard=1}", 0),
        "memnode.shard0.writes": obs.get("repl_shard_writes{shard=0}", 0),
        "memnode.shard1.writes": obs.get("repl_shard_writes{shard=1}", 0),
        "memnode.repl_mirror_writes": c("repl_mirror_writes"),
        "serving.max_queue": app.get("max_queue", 0),
        "serving.service_p99_us": app.get("service", {}).get("p99_us", 0),
        "serving.resp_p50_us": app.get("response", {}).get("p50_us", 0),
        "serving.resp_p99_us": app.get("response", {}).get("p99_us", 0),
        "serving.max_krps_slo": sweep_knee(points) if points else 0,
        "gc.minor_collections": statistics.median(
            r["gc"]["minor_collections"] for r in untraced),
        "gc.major_collections": statistics.median(
            r["gc"]["major_collections"] for r in untraced),
        "gc.top_heap_mib": statistics.median(
            r["gc"]["top_heap_words"] * 8 / MIB for r in untraced),
        "trace.host_run_s": host_traced,
        "trace.overhead_s": host_traced - host_untraced,
        "error_rate": sum(failures(r) for r in untraced + traced)
                      / sum(r["attempted"] for r in untraced + traced),
    }
    for name in ("sim.event_ns", "vmem.pt_set_get_ns", "rdma.post_read_ns",
                 "memnode.page_copy_ns", "workload.gen_ns_per_req"):
        m[name] = units[name]

    # Count x unit cost. Engine events are not countable from outside,
    # so the engine's share stays in the residual.
    est = {
        "apps.est_s": hits * units["apps.memif_hit_ns"],
        "vmem.est_s": (c("rdma_read_bytes") / PAGE + c("zero_fill_faults")
                       + c("evictions")) * units["vmem.pt_set_get_ns"],
        "rdma.est_s": (c("rdma_reads") + c("rdma_writes")) * units["rdma.post_read_ns"],
        "memnode.est_s": ((c("rdma_read_bytes") + c("rdma_write_bytes")
                           + c("repl_mirror_bytes")) / PAGE
                          * units["memnode.page_copy_ns"]),
        "workload.est_s": t.get("requests", 0) * units["workload.gen_ns_per_req"],
    }
    for k, v in est.items():
        m[k] = v * 1e-9
    m["residual_s"] = host_traced - sum(m[k] for k in est)
    return m


def source_digest():
    """sha256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    roots = ["dune-project", "dune", "lib", "bin", "bench", "perfbench"]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
        for d, dirs, names in os.walk(root):
            dirs[:] = sorted(x for x in dirs if not x.startswith((".", "_")))
            files.extend(os.path.join(d, n) for n in names)
    for path in sorted(files):
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def proc_field(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, config, ocaml):
    return {
        "git_rev": git_rev(),
        "src_digest": source_digest(),
        "ocaml": ocaml,
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config,
    }


def run(args, spec):
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError("unknown workload %r" % args.workload)
    build()
    seed = str(args.seed)
    problems = []
    if args.trace == 0:
        reps = repeat(lambda: child("run", args.workload, seed), args.seconds)
        problems += check_identical(reps, "repetition")
        ok = not problems and all(r["failed"] == 0 for r in reps)
        samples = end_to_end(reps) if ok else {}
        wanted = spec["end_to_end"]
        counted = reps
    else:
        start = time.monotonic()
        units = child("units", args.workload)
        points = child("sweep", seed) if args.workload == "kv-zipf" else []
        left = max(0.0, args.seconds - (time.monotonic() - start))
        pairs = repeat(lambda: (child("run", args.workload, seed),
                                child("run", args.workload, seed, "traced")),
                       left, min_reps=1)
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        reps = untraced + traced
        problems += check_identical(reps, "traced/untraced repetition")
        ok = not problems and all(r["failed"] == 0 for r in reps)
        samples = ({k: [v] for k, v in per_layer(untraced, traced, units, points).items()}
                   if ok else {})
        wanted = spec["per_layer"]
        counted = reps + points
    attempted = sum(r["attempted"] for r in counted)
    failed = sum(failures(r) for r in counted)
    problems += [r["error"] for r in counted if "error" in r]
    correct = failed == 0 and not problems
    metrics = {}
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in samples]
        if missing:
            raise BenchError("metrics not measured: %s" % ", ".join(missing))
        metrics = {m["name"]: {"value": summary(samples[m["name"]])["median"],
                               "unit": m["unit"]} for m in wanted}
    report = {
        "workload": args.workload,
        "problems": problems,
        "summaries": {m["name"]: dict(summary(samples[m["name"]]), unit=m["unit"])
                      for m in wanted if m["name"] in samples},
        "provenance": provenance(args, reps[0]["config"], reps[0].get("ocaml")),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        return run(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
