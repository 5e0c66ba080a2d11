#!/usr/bin/env python3
"""Figure-production benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--pin]

Workloads (see BENCHMARK.json for why each one exists), all with one worker:

* ``fig5_paper``   -- ``fig5_mse_cdf --full --samples 25``, monolithic.
* ``fig9_sharded`` -- ``fig9_data_sensitivity --full --kernel bitsliced --samples 60``
  as four shards, each encoded to a shard file, written, read back, parsed,
  merged in shard order and rendered.
* ``fig7_quality`` -- ``fig7_quality --samples 5``.

The script builds the runner package next to it in release mode (into
``$CARGO_TARGET_DIR``, default ``.bench_build``), runs the workload in a
process of its own, and checks the document rendered at the figure's
protocol seed against the SHA-256 pinned in ``digests.json``; that digest
is the one of the bytes the monolithic figure binary writes with ``--json``
under the same flags (``--pin`` re-derives it from the binary). Timed
repetitions run at campaign seeds derived from ``--seed`` and are checked
against the figure's invariants instead.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s`` and
``samples_per_s`` are medians scaled to a reference host speed by a fixed
probe loop timed next to each repetition (raw seconds are in the result
file), ``peak_rss_mb`` is the peak after the protocol-seed repetition.
``--trace 1`` reports the per-layer metrics, timed from outside around each
layer call plus the ``faultmit_obs`` campaign stages. ``--smoke`` swaps in
tiny budgets. The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``; for ``--workload all`` the metric names
are prefixed with the workload name. Outputs land in ``.bench_out``.

Self-test: ``python3 perfbench/test_run.py`` and
``cargo test --release --manifest-path perfbench/Cargo.toml``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ["fig5_paper", "fig9_sharded", "fig7_quality"]
# The monolithic figure binary each workload's document must match.
BINARIES = {
    "fig5_paper": "fig5_mse_cdf",
    "fig9_sharded": "fig9_data_sensitivity",
    "fig7_quality": "fig7_quality",
}
RUN_TIMEOUT_S = 170


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def cargo_build(manifest, *extra):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
    # Cargo reports on stderr; stdout stays reserved for results.
    subprocess.run(command, check=True, env=env, stdout=sys.stderr)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_problem(workload, mode, flags, digest, digests):
    """Why `digest` is not the pinned digest of `workload`, or None."""
    entry = digests.get(mode, {}).get(workload)
    if entry is None:
        return f"no pinned digest for {workload} ({mode})"
    if entry["flags"] != flags:
        return f"pinned flags {entry['flags']} differ from the workload's {flags}"
    if entry["sha256"] != digest:
        return f"document digest {digest} differs from the pinned {entry['sha256']}"
    return None


def monolithic_digest(workload, flags, workers):
    """SHA-256 of what the monolithic figure binary writes with --json."""
    binary = BINARIES[workload]
    cargo_build(ROOT / "Cargo.toml", "-p", "faultmit-bench", "--bin", binary)
    out = OUT_DIR / f"{binary}.json"
    subprocess.run([str(target_dir() / "release" / binary), *flags,
                    "--threads", str(workers), "--json", str(out)],
                   check=True, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    return sha256(out)


def commit_hash():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args, workload):
    """Runs one workload in its own process; returns the final-line dict."""
    mode = "smoke" if args.smoke else "full"
    out = OUT_DIR / f"{workload}-{mode}"
    command = [str(target_dir() / "release" / "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(out)]
    if args.smoke:
        command.append("--smoke")
    (out / "result.json").unlink(missing_ok=True)
    subprocess.run(command, check=True, timeout=RUN_TIMEOUT_S)
    result = json.loads((out / "result.json").read_text())

    failed = result["failed"]
    protocol = out / "protocol.json"
    if protocol.exists():
        digest = sha256(protocol)
        if args.pin:
            monolithic = monolithic_digest(workload, result["figure_flags"],
                                           result["host"]["workers"])
            if monolithic != digest:
                sys.exit(f"{workload}: benchmark document {digest} differs from "
                         f"the monolithic binary's {monolithic}; not pinned")
            digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            digests.setdefault(mode, {})[workload] = {
                "binary": BINARIES[workload],
                "flags": result["figure_flags"],
                "sha256": digest,
            }
            DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
        problem = digest_problem(workload, mode, result["figure_flags"], digest,
                                 json.loads(DIGESTS.read_text()))
    else:
        problem = "no protocol-seed document was written"
    if problem:
        failed += 1
        print(f"perfbench {workload}: check failed: {problem}", file=sys.stderr)

    result["host"].update(commit=commit_hash(), rustc=rustc_version())
    result["digest_check"] = problem or "ok"
    (out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"host: {json.dumps(result['host'])}")

    metrics = result["metrics"]
    expected = expected_metrics(args.trace)
    if expected is not None and sorted(metrics) != sorted(expected):
        failed += 1
        print(f"perfbench {workload}: metrics {sorted(metrics)} differ from "
              f"BENCHMARK.json's {sorted(expected)}", file=sys.stderr)
    coverage = metrics.get("wall_coverage", {}).get("value")
    if coverage is not None and coverage < 0.9:
        print(f"coverage below 0.9: {workload} ({coverage:.3f})")
    print(f"  {'error_rate':<34} {failed / result['attempted']:>16.6e} ratio")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets (the self-test mode)")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin digests.json from the monolithic binaries")
    args = parser.parse_args()

    try:
        cargo_build(BENCH_DIR / "Cargo.toml")
        OUT_DIR.mkdir(exist_ok=True)
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = {w: run_workload(args, w) for w in workloads}
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        sys.exit(f"perfbench: {error}")

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    rows = [(w, name, m["value"], m["unit"])
            for w, r in results.items() for name, m in r["metrics"].items()]
    rows += [(w, "error_rate", r["failed"] / r["attempted"], "ratio")
             for w, r in results.items()]
    print(f"\n{'workload':<14} {'metric':<34} {'value':>16} unit")
    for w, name, value, unit in sorted(rows, key=lambda row: WORKLOADS.index(row[0])):
        print(f"{w:<14} {name:<34} {value:>16.6e} {unit}")
    (OUT_DIR / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
