#!/usr/bin/env python3
"""Flat-tree benchmark: end-to-end and per-layer metrics per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-reference

The script builds the `ftperf` pass runner and the `ftd` worker from
source (into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs
passes of the workload, each in a fresh process, back to back until
`--seconds` have passed. It checks every pass's output, prints each
metric by name with its unit, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones (medians over untraced passes); with
`--trace 1` traced and untraced passes alternate and the metrics are
the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference"
SWEEP_GOLDEN = ROOT / "tests" / "goldens" / "faultsweep.stdout"
WORKLOADS = ("decomp_k32", "exact_trace_flaps", "sweep_dispatch_w2")
# The seed the stored references (and the sweep golden) were made with.
DEFAULT_SEED = 1
# Flows per digest block; must match `report::BLOCK` in src/report.rs.
BLOCK = 64
MIN_PASSES = 3
MIN_TRACED = 2
PASS_TIMEOUT_S = 150
# Stop starting passes once this much of the run has gone, whatever
# --seconds asks for, so a run ends inside three minutes.
RUN_BUDGET_S = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds ftperf and the ftd worker; returns the ftperf path."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    manifest = str(BENCH / "Cargo.toml")
    for target in (["--bin", "ftperf"], ["-p", "ft-bench", "--bin", "ftd"]):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
        r = subprocess.run(cmd + target, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed ({' '.join(cmd + target)})")
    return target_dir() / "release" / "ftperf"


def run_child(args, timeout=PASS_TIMEOUT_S):
    """Runs ftperf; returns (exit code, stdout lines)."""
    r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    return r.returncode, r.stdout.splitlines()


def run_pass(exe, workload, seed, trace=False, perturb=False):
    """One pass in a fresh process: (printed text, measurements)."""
    args = [str(exe), "pass", "--workload", workload, "--seed", str(seed)]
    args += ["--trace"] if trace else []
    args += ["--perturb"] if perturb else []
    code, lines = run_child(args)
    if code != 0 or not lines:
        raise RuntimeError(f"pass exited with code {code}")
    return lines[:-1], json.loads(lines[-1])


# --- correctness ----------------------------------------------------------


def block_failures(blocks, ref_blocks, flows):
    """Flows in digest blocks that differ from the reference."""
    if len(blocks) != len(ref_blocks):
        return set(range(flows))
    bad = set()
    for b, (mine, ref) in enumerate(zip(blocks, ref_blocks)):
        if mine != ref:
            bad.update(range(b * BLOCK, min((b + 1) * BLOCK, flows)))
    return bad


def check_decomp(check, ref):
    """Failed flows of one decomp_k32 pass against a reference pass."""
    failed, notes = 0, []
    if len(check) != len(ref):
        return sum(net["stats"][0] for net in check), ["network list differs"]
    for net, rnet in zip(check, ref):
        flows = net["stats"][0]
        bad = set(net["unfinished"])
        if net["name"] != rnet["name"] or net["stats"] != rnet["stats"]:
            bad = set(range(flows))
            notes.append(f"{net['name']}: stats {net['stats']} != {rnet['stats']}")
        elif rnet is not net:
            bad |= block_failures(net["blocks"], rnet["blocks"], flows)
        if bad:
            notes.append(f"{net['name']}: {len(bad)} flows differ or unfinished")
        failed += len(bad)
    return failed, notes


def check_exact(check, ref, units):
    bad = set(check["unfinished"])
    notes = []
    if ref is not check:
        bad |= block_failures(check["blocks"], ref["blocks"], units)
    failed = len(bad)
    if check["violations"] > 0:
        failed += int(check["violations"])
        notes.append(f"{int(check['violations'])} audit violations")
    if ref is not check and check["audit"] != ref["audit"]:
        failed = max(failed, 1)
        notes.append(f"audit {check['audit']} != {ref['audit']}")
    if bad:
        notes.append(f"{len(bad)} flows differ or unfinished")
    return min(failed, units), notes


def sweep_cells(lines):
    """The cell rows of a printed sweep, in grid order, and the rest."""
    sections, rest = [], []
    for line in lines:
        if line.startswith("=="):
            sections.append([])
            rest.append(line)
        elif sections and line.startswith("-"):
            sections[-1].append(None)  # rows follow the dashes
            rest.append(line)
        elif sections and sections[-1] and line.strip():
            sections[-1].append(line)
        else:
            rest.append(line)
    cells = [r for s in sections[:2] for r in s if r is not None]
    conversion = [r for s in sections[2:] for r in s if r is not None]
    return cells, rest + conversion


def check_sweep(lines, check, ref_lines):
    cells, rest = sweep_cells(lines)
    ref_cells, ref_rest = sweep_cells(ref_lines)
    n = int(check["cells"])
    notes = []
    if len(cells) != len(ref_cells):
        return n, [f"{len(cells)} cell rows, reference has {len(ref_cells)}"]
    failed = sum(1 for a, b in zip(cells, ref_cells) if a != b)
    if failed:
        notes.append(f"{failed} cell rows differ")
    if rest != ref_rest:
        failed = max(failed, 1)
        notes.append("non-cell output differs")
    if check["violations"] > 0:
        failed = max(failed, 1)
        notes.append(f"{int(check['violations'])} audit violations")
    if check["fallback"]:
        # The output is still right, but the dispatch plane was not
        # measured: every worker was lost.
        failed = max(failed, 1)
        notes.append("ftd workers lost: sweep fell back to in-process")
    return min(failed, n), notes


def load_reference(workload):
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


class Checker:
    """Checks every pass of one run. At the default seed each output is
    compared with the stored reference; at any other seed with the
    invariants (every flow finishes, no audit violation) and with the
    run's first pass, and the sweep with the in-process sweep."""

    def __init__(self, exe, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted, self.failed, self.notes = 0, 0, []
        self.ref = load_reference(workload) if seed == DEFAULT_SEED else None
        if workload == "decomp_k32" and self.ref is not None:
            self.ref = self.ref["nets"]
        self.ref_lines = None
        if workload == "sweep_dispatch_w2":
            if seed == DEFAULT_SEED:
                self.ref_lines = SWEEP_GOLDEN.read_text().splitlines()
            else:
                code, self.ref_lines = run_child([str(exe), "sweep-reference", "--seed", str(seed)])
                if code != 0:
                    self.fail(1, "in-process reference sweep failed")
        if workload == "decomp_k32":
            code, _ = run_child([str(exe), "fidelity", "--seed", str(seed)])
            if code != 0:
                self.fail(1, "re-assembled pipeline differs from bigsim::run")
        if seed == DEFAULT_SEED and workload != "sweep_dispatch_w2" and self.ref is None:
            self.fail(1, f"no stored reference {REFERENCE / (workload + '.json')}")

    def fail(self, n, note):
        self.failed += n
        self.notes.append(note)

    def add(self, lines, p):
        units = int(p["units"])
        self.attempted += units
        check = p["check"]
        if self.workload == "decomp_k32":
            if self.ref is None:
                self.ref = check  # later passes must repeat the first
            failed, notes = check_decomp(check, self.ref)
        elif self.workload == "exact_trace_flaps":
            if self.ref is None:
                self.ref = check
            failed, notes = check_exact(check, self.ref, units)
        else:
            failed, notes = check_sweep(lines, check, self.ref_lines or [])
        self.failed += failed
        self.notes += notes

    @property
    def correct(self):
        return self.failed == 0 and not self.notes


# --- aggregation ----------------------------------------------------------


def e2e(p):
    # setup_s is null when a sweep pass never saw a worker handshake.
    busy = p["wall_s"] - p["setup_s"] if p["setup_s"] is not None else None
    return {
        "wall_s": p["wall_s"],
        "setup_s": p["setup_s"],
        "flows_per_s": p["flows"] / busy if busy else None,
        "cells_per_s": p["cells"] / busy if busy else None,
        "peak_rss_mb": p["peak_rss_mb"],
    }


def median_of(rows, key):
    vals = [r[key] for r in rows if r.get(key) is not None]
    return statistics.median(vals) if vals else 0.0


def spread(rows, key):
    vals = [r[key] for r in rows if r.get(key) is not None]
    if len(vals) < 2:
        return vals[0] if vals else 0.0, vals[0] if vals else 0.0
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def metric_names(kind):
    """(name, unit) of every `end_to_end` or `per_layer` metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def write_spans(workload, seed, traced):
    out = target_dir() / "perfbench-spans"
    out.mkdir(parents=True, exist_ok=True)
    run_id = f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    path = out / f"{workload}-seed{seed}.jsonl"
    with path.open("w") as f:
        for i, p in enumerate(traced):
            for s in p["spans"]:
                f.write(json.dumps(dict(run=run_id, pass_index=i, **s)) + "\n")
    log(f"perfbench: spans of {len(traced)} traced passes in {path}")


def measure(exe, workload, seed, seconds, trace):
    """Passes back to back for about `seconds`: a new pass starts only
    while at least half of it (by the mean pass so far) fits."""
    checker = Checker(exe, workload, seed)
    plain, traced, took = [], [], []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_TRACED)
        next_pass = statistics.mean(took) if took else 0.0
        if (enough and elapsed + next_pass / 2 >= seconds) or elapsed >= RUN_BUDGET_S:
            break
        want_trace = trace and len(traced) < len(plain)
        start = time.monotonic()
        lines, p = run_pass(exe, workload, seed, trace=want_trace)
        took.append(time.monotonic() - start)
        log(f"perfbench: {'traced ' if want_trace else ''}pass {len(took)}: {took[-1]:.2f} s")
        checker.add(lines, p)
        (traced if want_trace else plain).append(p)
    return checker, plain, traced


def report(workload, seed, seconds, trace):
    exe = build()
    checker, plain, traced = measure(exe, workload, seed, seconds, trace)
    for note in checker.notes:
        log(f"perfbench: CHECK FAILED ({workload}, seed {seed}): {note}")
    attempted = max(checker.attempted, 1)
    metrics = {}
    if trace:
        rows = [p["layers"] for p in traced]
        untraced_wall = median_of(plain, "wall_s")
        for name, unit in metric_names("per_layer"):
            if name == "obs.trace_overhead_frac":
                value = median_of(traced, "traced_wall_s") / untraced_wall - 1.0
            elif name == "error_frac":
                value = checker.failed / attempted
            else:
                value = median_of(rows, name)
            print(f"  {name:<30} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        write_spans(workload, seed, traced)
        print(f"  (medians of {len(traced)} traced passes; {len(plain)} untraced)")
    else:
        rows = [e2e(p) for p in plain]
        for name, unit in metric_names("end_to_end"):
            if name == "ok_frac":
                value = 1.0 - checker.failed / attempted
                print(f"  {name:<12} {value:.6f} {unit}  (error_frac {checker.failed}/{attempted})")
            else:
                value = median_of(rows, name)
                q1, q3 = spread(rows, name)
                print(f"  {name:<12} {value:.6g} {unit}  (median of {len(rows)}; q1 {q1:.6g}, q3 {q3:.6g})")
            metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": checker.correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if checker.correct else 1


# --- maintenance modes ----------------------------------------------------


def write_reference():
    """Stores the default-seed digests the checker compares against.
    Run only when a change to the program is meant to change output."""
    exe = build()
    REFERENCE.mkdir(exist_ok=True)
    for workload in ("decomp_k32", "exact_trace_flaps"):
        _, p = run_pass(exe, workload, DEFAULT_SEED)
        ref = {"nets": p["check"]} if workload == "decomp_k32" else p["check"]
        ref["seed"] = DEFAULT_SEED
        (REFERENCE / f"{workload}.json").write_text(json.dumps(ref, indent=1) + "\n")
        log(f"perfbench: wrote {REFERENCE / (workload + '.json')}")
    return 0


def self_test():
    """Shows that the checker catches a deliberately wrong result: one
    flipped finish-time bit (decomp, exact) or one changed sweep cell."""
    exe = build()
    ok = True
    for workload in WORKLOADS:
        for perturb in (False, True):
            checker = Checker(exe, workload, DEFAULT_SEED)
            lines, p = run_pass(exe, workload, DEFAULT_SEED, perturb=perturb)
            checker.add(lines, p)
            caught = not checker.correct
            good = caught == perturb
            ok &= good
            what = "perturbed" if perturb else "clean"
            verdict = "flagged" if caught else "passed"
            log(f"self-test {workload} {what}: {verdict} "
                f"({checker.failed}/{checker.attempted} units) {'ok' if good else 'WRONG'}")
    log("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.write_reference:
        return write_reference()
    if a.workload is None:
        ap.error("--workload is required")
    return report(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
