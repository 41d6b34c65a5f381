#!/usr/bin/env python3
"""Print the layer ledger (LEDGER.md) from traced runs.

Run the traced workloads first, from the repository root:

    for w in tcp_saturate des_batch kmeans_256 tcp_paced; do
        cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
            --workload $w --seed 1 --seconds 30 --trace 1
    done
    python3 e2ebench/ledger.py 1 > e2ebench/LEDGER.md

It reads `.bench_out/<workload>-seed<n>-trace1.json` and the matching
`.spans.jsonl`, and splits one check on each backend, and one k-means
iteration, into the per-layer figures. `tcp_paced` (held out of the
benchmark) is included when its traced run is present.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(".bench_out")
# The layers each workload reaches; the ledger leaves out figures a run
# took from replays on another workload's inputs.
REACHES = {
    "tcp_saturate": ("wire.", "proc.", "protocol.", "coordinator.", "check_fail", "defense.",
                     "measurement.", "html.", "currency.", "market.", "durability.encode",
                     "loadgen.", "trace."),
    "des_batch": ("proc.", "protocol.", "coordinator.", "check_fail", "defense.", "measurement.",
                  "html.", "currency.", "market.", "netsim.", "system.", "durability.", "trace."),
    "kmeans_256": ("proc.", "check_fail", "kmeans.", "crypto.", "bigint.", "trace."),
}
REACHES["tcp_paced"] = REACHES["tcp_saturate"]
WORKLOADS = ["tcp_saturate", "des_batch", "kmeans_256"]
OPTIONAL = ["tcp_paced"]


def load(workload, seed):
    stem = OUT / f"{workload}-seed{seed}-trace1"
    record = json.loads(stem.with_suffix(".json").read_text())
    spans = [json.loads(l) for l in stem.with_suffix(".spans.jsonl").read_text().splitlines()]
    return record, spans


def span_table(spans):
    """Per span name: count, mean duration and mean self time, in ms."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    agg = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        covered, cursor = 0, s["start_ns"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, cursor), min(b, s["end_ns"])
            if b > a:
                covered += b - a
                cursor = b
        dur = s["end_ns"] - s["start_ns"]
        e = agg[s["name"]]
        e[0] += 1
        e[1] += dur
        e[2] += dur - covered
    return {k: (n, d / n / 1e6, o / n / 1e6) for k, (n, d, o) in agg.items()}


def fmt(v):
    return f"{v:.4g}"


def main():
    seed = sys.argv[1] if len(sys.argv) > 1 else "1"
    present = [w for w in OPTIONAL if (OUT / f"{w}-seed{seed}-trace1.json").exists()]
    runs = {w: load(w, seed) for w in WORKLOADS + present}
    host = runs[WORKLOADS[0]][0]["host"]
    print("# Layer ledger")
    print()
    seconds = runs[WORKLOADS[0]][0]["seconds"]
    print(f"Traced runs (`--trace 1`, {seconds} s, seed {seed}) of every workload, printed by")
    print("`e2ebench/ledger.py`. Host: "
          + ", ".join(f"{k} {v}" for k, v in host.items() if k != "temp_dir") + ".")
    print("Per-layer figures come from the traced half of each run; see README.md")
    print("for how each is measured. Figures for a layer a workload does not reach")
    print("are left out here; the run reports them from replays, or as 0.")
    for w in runs:
        record, spans = runs[w]
        m = record["metrics"]
        print()
        print(f"## `{w}`")
        print()
        print(f"{record['attempted']} operations attempted, {record['failed']} failed, correct: {record['correct']}.")
        print()
        print("| metric | value | unit | basis |")
        print("|---|---|---|---|")
        for name, v in m.items():
            if not name.startswith(REACHES[w]):
                continue
            print(f"| `{name}` | {fmt(v['value'])} | {v['unit']} | {v.get('basis', '')} |")
        print()
        print("| span | count | mean ms | mean self ms |")
        print("|---|---|---|---|")
        for name, (n, d, o) in sorted(span_table(spans).items()):
            print(f"| `{name}` | {n} | {fmt(d)} | {fmt(o)} |")
        print()
        for line in split(w, m):
            print(line)


def v(m, name):
    return m[name]["value"]


def split(w, m):
    """A few lines that add the layer figures up to one operation."""
    if w in ("tcp_saturate", "tcp_paced"):
        frames = v(m, "wire.frames_per_check")
        cpu = v(m, "proc.user_ms_per_check") + v(m, "proc.sys_ms_per_check")
        codec = frames * v(m, "wire.codec_us_per_frame") / 1e3
        loop = frames * v(m, "wire.loopback_frame_us") / 1e3
        pages = v(m, "measurement.pages_per_check")
        page = pages * (v(m, "measurement.process_response_us") + v(m, "measurement.page_store_us")) / 1e3
        return [
            "**One TCP check, CPU split.** Process CPU per check is "
            f"{fmt(cpu)} ms ({fmt(v(m, 'proc.user_ms_per_check'))} user, {fmt(v(m, 'proc.sys_ms_per_check'))} sys).",
            f"- wire: {fmt(frames)} frames per check; codec alone {fmt(codec)} ms; "
            f"a connect-per-frame loopback hop each, {fmt(loop)} ms in isolation;",
            f"- durability: one WAL append + fsync, {fmt(v(m, 'wire.storage_barrier_ms'))} ms; "
            f"encode_record {fmt(v(m, 'durability.encode_record_us'))} us;",
            f"- page pipeline: {fmt(pages)} pages per check, {fmt(page)} ms of process_response + page store;",
            f"- {fmt(v(m, 'wire.wakeups_per_check'))} reactor wake-ups and {fmt(v(m, 'protocol.acks_per_check'))} acks per check.",
        ]
    if w == "des_batch":
        events = v(m, "netsim.events_per_check")
        per_event = v(m, "system.wall_us_per_event")
        pages = v(m, "measurement.pages_per_check")
        fetch = v(m, "market.fetch_us") + v(m, "measurement.process_response_us") + v(m, "measurement.page_store_us")
        page = pages * fetch / 1e3
        return [
            "**One DES check, wall split.** "
            f"{fmt(events)} events per check at {fmt(per_event)} us each is {fmt(events * per_event / 1e3)} ms per check.",
            f"- page pipeline: {fmt(pages)} pages per check; market fetch + process_response + page store "
            f"replayed at {fmt(page)} ms per check;",
            f"- the rest is netsim scheduling and core::system dispatch; "
            f"{fmt(v(m, 'durability.wal_bytes_per_check'))} WAL bytes per check land in MemStorage.",
            f"- {fmt(v(m, 'defense.rejected_replies_per_check'))} replies per check refused by the defense "
            "(the ¥ misparse, see README.md).",
        ]
    if w == "kmeans_256":
        return [
            "**One k-means iteration.** "
            f"map_clients {fmt(v(m, 'kmeans.map_ms'))} ms at t=nproc "
            f"({fmt(v(m, 'kmeans.map_t1_ms'))} ms at t=1, speed-up {fmt(v(m, 'kmeans.map_speedup'))}x), "
            f"update {fmt(v(m, 'kmeans.update_ms'))} ms.",
            f"- one client's blinded query (blind, evaluate against 8 centroids, unblind) "
            f"{fmt(v(m, 'crypto.blinded_query_ms'))} ms; 40 clients at t=1 is "
            f"{fmt(40 * v(m, 'crypto.blinded_query_ms'))} ms;",
            f"- one 256-bit modular exponentiation {fmt(v(m, 'bigint.mod_pow_us'))} us;",
            f"- set-up: encryption {fmt(v(m, 'kmeans.encrypt_ms_per_client'))} ms per client, "
            f"both dlog tables {fmt(v(m, 'kmeans.dlog_build_ms'))} ms.",
        ]
    return []


if __name__ == "__main__":
    main()
