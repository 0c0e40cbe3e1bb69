#!/usr/bin/env python3
"""The repository benchmark: tecfand/tecrouter what-if serving, end to end
and layer by layer.

    python3 perfbench/run.py --workload hit --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload
    python3 perfbench/run.py --workload mixed_routed   # not in BENCHMARK.json
    python3 perfbench/run.py --steadiness --workload miss --runs 5
    python3 perfbench/run.py --selftest

One run builds the Release daemons and the load driver from source (into
.bench_build/), computes the in-process reference replies and holds them
to the committed golden replies (perfbench/golden/), starts the
daemons on loopback, times set-up several times, measures one window with
every reply verified, and prints a self-describing report line followed by
the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
re-runs the same seed with trace contexts on the requests, replays the
request sequence in-process with spans around each layer's public calls,
and reports the per-layer metrics instead.
"""

import argparse
import hashlib
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
GOLDEN = os.path.join(HERE, "golden", "equilibrium.tsv")
SETUP_REPEATS = 7
NPROC = os.cpu_count() or 1


def cpu_split():
    """Disjoint CPU sets for the load driver and the daemons. Sharing all
    cores let the scheduler pair client and session threads differently
    from run to run, and each pairing has its own round-trip time (hit's
    p50 moved between about 12 and 17 us from one run to the next);
    fixed halves make every round trip cross between the two sets."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    half = len(cpus) // 2
    return set(cpus[:half]), set(cpus[half:])


LOAD_CPUS, DAEMON_CPUS = cpu_split()


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "CMakeLists.txt"))):
        raise BenchError("program sources (src/, tools/) not found beside "
                         "perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
               "tecfand", "tecrouter", "perfbench_load", "perfbench_selftest"])


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"command failed: {' '.join(cmd)}")


def binary(name):
    for sub in ("tecfan_tools", ""):
        path = os.path.join(BUILD, sub, name)
        if os.path.isfile(path):
            return path
    raise BenchError(f"{name} was not built")


def load(cmd, args, timeout):
    """One perfbench_load subcommand; returns its JSON object."""
    argv = [binary("perfbench_load"), cmd]
    for k, v in args.items():
        argv += [f"--{k}", str(v)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout,
                          preexec_fn=lambda: os.sched_setaffinity(0, LOAD_CPUS))
    if proc.returncode != 0:
        raise BenchError(f"perfbench_load {cmd} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference():
    """Reference replies for the equilibrium key space, computed once per
    build of the load driver (its hash names the file)."""
    digest = hashlib.sha1(open(binary("perfbench_load"), "rb").read())
    path = os.path.join(ROOT, ".bench_build", "ref",
                        f"equilibrium-{digest.hexdigest()[:16]}.txt")
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        log("computing reference replies")
        load("reference", {"out": path}, timeout=170)
    return path


# --------------------------------------------------------------- daemons

class Fleet:
    """tecfand processes (and a tecrouter in front of two of them)."""

    def __init__(self, plan):
        self.procs = []
        self.daemons = []
        self.router = 0
        cache = str(plan["daemon_cache"])
        try:
            for _ in range(2 if plan["routed"] else 1):
                self.daemons.append(self._start(
                    [binary("tecfand"), "--port", "0", "--workers",
                     str(len(DAEMON_CPUS)), "--cache", cache]))
            if plan["routed"]:
                self.router = self._start(
                    [binary("tecrouter"), "--port", "0", "--backends",
                     ",".join(map(str, self.daemons))])
                self._await_backends()
        except BaseException:
            self.stop()
            raise
        self.port = self.router or self.daemons[0]

    def _start(self, argv):
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                preexec_fn=lambda: os.sched_setaffinity(
                                    0, DAEMON_CPUS),
                                stderr=subprocess.PIPE, text=True)
        self.procs.append(proc)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stderr], [], [], 0.5)
            if ready:
                line = proc.stderr.readline()
                m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
                if m:
                    return int(m.group(1))
                if not line:
                    break
        raise BenchError(f"{os.path.basename(argv[0])} did not start")

    def _await_backends(self):
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            with socket.create_connection(("127.0.0.1", self.router)) as s:
                s.sendall(b"stats\n")
                reply = s.makefile().readline()
            m = re.search(r"backends_up=(\d+)", reply)
            if m and int(m.group(1)) == len(self.daemons):
                return
            time.sleep(0.002)
        raise BenchError("tecrouter never saw its backends up")

    def rss_mib(self):
        total = 0
        for proc in self.procs:
            with open(f"/proc/{proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
        return total / 1024.0

    def stop(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stderr.close()
        self.procs = []


ROUTED_PHASE_SECONDS = 5


def routed_phase(seed):
    """A short traced mixed_routed window (open loop through tecrouter to
    two tecfand) for the cluster metrics of a direct workload's traced
    run."""
    common = {"workload": "mixed_routed", "seed": seed,
              "seconds": ROUTED_PHASE_SECONDS}
    plan = load("corpus", common, timeout=60)
    ref = reference()
    fleet, _, _ = set_up(plan, common, ref)
    try:
        return load("measure", dict(
            common, ref=ref, port=fleet.port, router=fleet.router, trace=1,
            daemons=",".join(map(str, fleet.daemons))),
            timeout=ROUTED_PHASE_SECONDS + 150)
    finally:
        fleet.stop()


def set_up(plan, common, ref):
    """Launch the fleet and run set-up; returns (fleet, seconds, detail)."""
    t0 = time.monotonic()
    fleet = Fleet(plan)
    launched = time.monotonic() - t0
    try:
        out = load("setup", dict(common, ref=ref, port=fleet.port,
                                 daemons=",".join(map(str, fleet.daemons))),
                   timeout=120)
    except BaseException:
        fleet.stop()
        raise
    # The load driver's own start-up (reading the reference) is not
    # set-up of the system under test: count only its timed work.
    return fleet, launched + out["seconds"], out


# ---------------------------------------------------------------- metrics

def end_to_end(measure, setup_s, rss):
    tail = measure["latency_tail_us"]
    hit_tail = measure["hit_latency_tail_us"]
    if measure["hit_samples"] == 0:
        # No reply is designed to come from the cache on this workload
        # (miss): the cached tail is the overall tail.
        hit_tail = tail
    return {
        "throughput_rps": measure["throughput_rps"],
        "latency_p50_us": measure["latency_p50_us"],
        "latency_tail_us": tail,
        "hit_latency_tail_us": hit_tail,
        "slo_share": measure["slo_share"],
        "setup_s": setup_s,
        "rss_mib": rss,
    }


def metric_detail(measure, setups):
    """Sample counts behind each end-to-end number: a timing is the median
    over the headline epochs (the least disturbed by host steal) of a
    per-epoch percentile, listed for every epoch with which percentile it
    is and how many samples it had beyond it."""
    epochs = measure["epoch_windows"]

    def per_epoch(key):
        return {"pct": [e[key]["pct"] for e in epochs],
                "samples": [e[key]["samples"] for e in epochs],
                "beyond": [e[key]["beyond"] for e in epochs],
                "values": [e[key]["value"] for e in epochs]}

    hit_key = ("hit_latency_tail_us" if measure["hit_samples"]
               else "latency_tail_us")
    return {
        "epochs": {"headline": measure["headline_epochs"],
                   "steal_share": [e["steal_share"] for e in epochs]},
        "throughput_rps": {"requests": [e["ok"] for e in epochs],
                           "seconds": [e["seconds"] for e in epochs]},
        "latency_p50_us": per_epoch("latency_p50_us"),
        "latency_tail_us": per_epoch("latency_tail_us"),
        "hit_latency_tail_us": per_epoch(hit_key),
        "slo_share": {"attempted": [e["attempted"] for e in epochs],
                      "values": [e["slo_share"] for e in epochs]},
        "setup_s": {"samples": len(setups), "values": setups},
        "rss_mib": {"samples": 1},
    }


def wire_us(untraced, traced):
    """Client p50 minus the serving tier's own e2e p50 for cache hits:
    session thread, framing and wake-ups. Where no reply is a hit (miss),
    the traced requests' round trip minus their daemon e2e span,
    which also carries the daemon's reply-side span collection."""
    if untraced["hit_samples"] == 0:
        return traced["attribution"]["wire_us"]["value"]
    tier = untraced.get("router", untraced)
    stages = tier.get("stages", tier.get("daemon_stages"))
    return untraced["hit_latency_p50_us"] - stages["e2e_hit"]["p50_us"]


def per_layer(untraced, measure, replay, overhead_pct, routed):
    """Per-layer values of a traced run; `routed` is the traced window that
    went through tecrouter (the workload's own, or the routed phase)."""
    spans = replay["spans"]

    def p50(name):
        return spans.get(name, {}).get("p50_us", 0.0)

    def p99(name):
        return spans.get(name, {}).get("p99_us", 0.0)

    stages = measure["daemon_stages_lifetime"]
    router = routed["router"]
    rstages = router["stages"]
    att = measure["attribution"]
    out = {
        "service.parse_us": p50("service.parse"),
        "service.canonical_key_us": p50("service.canonical_key"),
        "service.cache_get_us": p50("service.cache_get"),
        "service.hit_reply_us": p50("service.hit_reply"),
        "service.wire_us": wire_us(untraced, measure),
        "service.cache_put_us": p50("service.cache_put"),
        "service.cache_hit_share": measure["cache_hit_share"],
        "service.cache_evictions": measure["cache_evictions"],
        "service.queue_wait_us.p50": stages["queue_wait"]["p50_us"],
        "service.queue_wait_us.p99": stages["queue_wait"]["p99_us"],
        "service.compute_us.p50": stages["compute"]["p50_us"],
        "service.compute_us.p99": stages["compute"]["p99_us"],
        "service.busy_rejections": measure["busy_rejections"],
        "sim.equilibrium_us.tec_off": p50("sim.equilibrium.tec_off"),
        "sim.equilibrium_us.tec_on": p50("sim.equilibrium.tec_on"),
        "sim.simulator_construct_us": p50("sim.simulator_construct"),
        "sim.run_us": p50("sim.run"),
        "sim.sweep_us": p50("sim.sweep"),
        "sim.base_scenario_us": p50("sim.base_scenario"),
        "thermal.steady_solve_us.tec_off": p50("thermal.steady_solve.tec_off"),
        "thermal.steady_solve_us.tec_on": p50("thermal.steady_solve.tec_on"),
        "thermal.transient_step_us": p50("thermal.transient_step"),
    }
    # The replay reports every named policy (as metric-name segments).
    for policy in replay["model_calls_per_decide"]:
        out[f"core.decide_us.{policy}.p50"] = p50(f"core.decide.{policy}")
        out[f"core.decide_us.{policy}.p99"] = p99(f"core.decide.{policy}")
    out.update({
        "core.model_calls_per_decide":
            replay["model_calls_per_decide"]["tecfan"],
        "core.decide_budget_share": p99("core.decide.tecfan") / 2000.0,
        "cluster.route_us": p50("cluster.route"),
        "cluster.shard_owner_us": p50("cluster.shard_owner"),
        "cluster.backend_share_max": router["backend_share_max"],
        "cluster.backend_wait_us.p50": rstages["backend_wait"]["p50_us"],
        "cluster.backend_wait_us.p99": rstages["backend_wait"]["p99_us"],
        "cluster.pipe_inflight_max": router["pipe_inflight_max"],
        "cluster.failovers": router["failovers"],
        "cluster.hedges": router["hedges"],
        "attribution.residual_us": att["residual_us"]["value"],
        "attribution.residual_share": att["residual_share"],
        "tracing.overhead_pct": overhead_pct,
    })
    return out


def machine():
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    compiler = subprocess.run(
                        [cxx, "--version"], stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True
                    ).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        describe = "unknown"
    return {"nproc": NPROC, "load_cpus": sorted(LOAD_CPUS),
            "daemon_cpus": sorted(DAEMON_CPUS),
            "compiler": compiler, "build_type": "Release",
            "git_describe": describe}


# ------------------------------------------------------------------- run

def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (report, result line)."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    build()
    common = {"workload": workload, "seed": seed, "seconds": seconds}
    plan = load("corpus", common, timeout=60)
    ref = reference()
    golden = load("golden", {"ref": ref, "golden": GOLDEN}, timeout=60)

    setups, setup_detail = [], []
    fleet = None
    try:
        for i in range(SETUP_REPEATS):
            fleet, seconds_taken, detail = set_up(plan, common, ref)
            setups.append(seconds_taken)
            setup_detail.append(detail)
            if i + 1 < SETUP_REPEATS:
                fleet.stop()
                fleet = None
        measure = load("measure", dict(common, ref=ref, port=fleet.port,
                                       router=fleet.router, trace=0,
                                       daemons=",".join(map(str, fleet.daemons))),
                       timeout=seconds + 150)
        rss = fleet.rss_mib()
    finally:
        if fleet:
            fleet.stop()

    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine(), "corpus": plan,
              "golden": golden,
              "setup": {"runs": setup_detail, "seconds": setups},
              "measure": measure}
    setup_ok = all(d["ok"] for d in setup_detail)
    correct = (setup_ok and golden["mismatches"] == 0
               and measure["mismatch"] == 0
               and measure["hit_share_ok"] and not measure["load_error"])
    attempted = measure["attempted"]
    failed = attempted - measure["ok"]

    if trace:
        fleet, _, _ = set_up(plan, common, ref)
        try:
            traced = load("measure", dict(
                common, ref=ref, port=fleet.port, router=fleet.router,
                trace=1, daemons=",".join(map(str, fleet.daemons))),
                timeout=seconds + 150)
        finally:
            fleet.stop()
        spans_path = os.path.join(ROOT, ".bench_build", "spans",
                                  f"{workload}-{seed}.jsonl")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        replay = load("replay", dict(common, ref=ref, spans=spans_path),
                      timeout=170)
        overhead = 100.0 * (1.0 - traced["throughput_rps"]
                            / max(measure["throughput_rps"], 1e-9))
        # An open loop holds throughput at the offered rate; its tracing
        # cost shows in latency instead.
        report["tracing_overhead_latency_pct"] = 100.0 * (
            traced["latency_p50_us"] / max(measure["latency_p50_us"], 1e-9)
            - 1.0)
        report.update({"traced_measure": traced, "replay": replay,
                       "spans_file": os.path.relpath(spans_path, ROOT),
                       "tracing_overhead_pct": overhead})
        routed = traced if plan["routed"] else routed_phase(seed)
        if routed is not traced:
            report["routed_phase"] = routed
        correct = (correct and replay["mismatches"] == 0
                   and all(m["mismatch"] == 0 and m["hit_share_ok"]
                           and not m["load_error"] for m in (traced, routed)))
        values = per_layer(measure, traced, replay, overhead, routed)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(measure, statistics.median(setups), rss)
        wanted = spec["end_to_end"]
        report["metric_detail"] = metric_detail(measure, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    report["metrics"] = metrics
    report["failed_share"] = measure["failed_share"]
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def steadiness(workload, runs, seconds, first_seed):
    """Two sets of runs of this commit: medians, quartiles and whether they
    agree within BENCHMARK.json's bounds."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    sets = []
    for s in range(2):
        values = {}
        for i in range(runs):
            seed = first_seed + s * runs + i
            _, result = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise BenchError(f"run with seed {seed} was not correct")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log(f"set {s + 1} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}))
        sets.append(values)
    ok = True
    rows = []
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a, b = sets[0][name], sets[1][name]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        ma, mb = statistics.median(a), statistics.median(b)
        spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
        # Two-sided: a second set that is much better disagrees as much
        # as one that is much worse.
        shift = abs(mb - ma) / ma
        agree = shift <= bound and spread <= bound
        ok = ok and agree
        rows.append({"metric": name, "bound": bound, "median": [ma, mb],
                     "quartiles": [[qa[0], qa[2]], [qb[0], qb[2]]],
                     "spread": spread, "median_shift": shift,
                     "agree": agree})
    print(json.dumps({"workload": workload, "runs": runs, "rows": rows}))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="measured seconds (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload with this seed")
    ap.add_argument("--steadiness", action="store_true",
                    help="two sets of --runs runs of one workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    try:
        spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.selftest:
            build()
            proc = subprocess.run([binary("perfbench_selftest"), GOLDEN])
            return proc.returncode
        if args.steadiness:
            return 0 if steadiness(args.workload, args.runs, args.seconds,
                                   args.seed) else 1
        workloads = ([w["name"] for w in spec["workloads"]]
                     if args.all else [args.workload])
        if not workloads[0]:
            ap.error("--workload is required")
        results = {}
        for workload in workloads:
            report, results[workload] = run_once(workload, args.seed,
                                                 args.seconds, args.trace)
            print(json.dumps(report))
            for name, m in results[workload]["metrics"].items():
                log(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
        if len(results) == 1:
            result = results[workloads[0]]
        else:
            # One result for every workload: metrics as "<workload>.<name>".
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()}}
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
