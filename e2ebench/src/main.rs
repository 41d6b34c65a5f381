//! The repository benchmark: end-to-end and per-layer figures for the
//! Price $heriff, from one command.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <tcp_saturate|des_batch|kmeans_256|all|tcp_paced> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable lines start with `#`;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when a correctness gate fails. Everything the run writes
//! stays under the working directory: `.bench_tmp/` (the Database WAL,
//! via `TMPDIR`) and `.bench_out/` (full results and span traces).
//! `README.md` beside this file describes the workloads and metrics.

mod des;
mod gen;
mod host;
mod kmeans;
mod outcome;
mod replay;
mod stats;
mod tcp;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use outcome::{Fig, Outcome};
use replay::Fanout;
use stats::{chunked_tail, per, Ratio};

use trace::Tracer;

/// Every workload the binary can run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    TcpPaced,
    TcpSaturate,
    DesBatch,
    Kmeans256,
}

/// The benchmark's workloads, in the order `--workload all` runs them.
/// `tcp_paced` runs only by name: a program defect makes some of its
/// seeds stall for the 130 s job deadline (see `README.md`).
const ALL: [Workload; 3] = [
    Workload::TcpSaturate,
    Workload::DesBatch,
    Workload::Kmeans256,
];

/// The end-to-end metrics: (name, unit), every workload.
const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics: (name, unit), every traced run.
const PER_LAYER: [(&str, &str); 33] = [
    ("wire.frames_per_check", "count"),
    ("wire.bytes_per_check", "bytes"),
    ("wire.wakeups_per_check", "count"),
    ("wire.codec_us_per_frame", "us"),
    ("wire.loopback_frame_us", "us"),
    ("wire.storage_barrier_ms", "ms"),
    ("proc.user_ms_per_check", "ms"),
    ("proc.sys_ms_per_check", "ms"),
    ("protocol.acks_per_check", "count"),
    ("protocol.retransmits_per_check", "count"),
    ("coordinator.rejected_ratio", "ratio"),
    ("check_fail_ratio", "ratio"),
    ("defense.rejected_replies_per_check", "count"),
    ("measurement.process_response_us", "us"),
    ("measurement.page_store_us", "us"),
    ("measurement.pages_per_check", "count"),
    ("html.parse_us", "us"),
    ("currency.detect_us", "us"),
    ("market.fetch_us", "us"),
    ("netsim.events_per_check", "count"),
    ("system.wall_us_per_event", "us"),
    ("durability.encode_record_us", "us"),
    ("durability.wal_bytes_per_check", "bytes"),
    ("kmeans.map_ms", "ms"),
    ("kmeans.map_t1_ms", "ms"),
    ("kmeans.map_speedup", "x"),
    ("kmeans.update_ms", "ms"),
    ("kmeans.encrypt_ms_per_client", "ms"),
    ("kmeans.dlog_build_ms", "ms"),
    ("crypto.blinded_query_ms", "ms"),
    ("bigint.mod_pow_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::TcpPaced => "tcp_paced",
            Workload::TcpSaturate => "tcp_saturate",
            Workload::DesBatch => "des_batch",
            Workload::Kmeans256 => "kmeans_256",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        [Workload::TcpPaced]
            .into_iter()
            .chain(ALL)
            .find(|w| w.name() == s)
    }

    /// What one operation is, and the workload-specific names of the generic
    /// end-to-end metrics on this workload.
    fn legend(self) -> [(&'static str, &'static str); 4] {
        match self {
            Workload::TcpPaced => [
                ("op", "price check, timed from its Poisson due time"),
                ("op_p50_ms", "check_p50_ms"),
                ("op_tail_ms", "check_p99_ms (tail rule)"),
                ("ops_per_s", "completed checks/s at 40 offered/s"),
            ],
            Workload::TcpSaturate => [
                ("op", "price check, timed from begin_check"),
                ("op_p50_ms", "check_p50_ms"),
                ("op_tail_ms", "check_p99_ms (tail rule)"),
                ("ops_per_s", "checks_per_s"),
            ],
            Workload::DesBatch => [
                ("op", "one check's 2 s virtual submission interval"),
                ("op_p50_ms", "wall ms per interval"),
                ("op_tail_ms", "wall ms per interval (tail rule)"),
                ("ops_per_s", "sim_checks_per_s"),
            ],
            Workload::Kmeans256 => [
                ("op", "one private k-means iteration (map + update)"),
                ("op_p50_ms", "kmeans_iter_s x 1000"),
                ("op_tail_ms", "slowest iteration (tail rule)"),
                ("ops_per_s", "iterations/s"),
            ],
        }
    }

    fn run(self, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
        match self {
            Workload::TcpPaced => tcp::run(tcp::PACED, seed, seconds, tracer),
            Workload::TcpSaturate => tcp::run(tcp::SATURATE, seed, seconds, tracer),
            Workload::DesBatch => des::run(seed, seconds, tracer),
            Workload::Kmeans256 => kmeans::run(seed, seconds, tracer),
        }
    }

    /// Vantage fan-out of the checks this workload issues; the k-means
    /// workload issues none, so its page replay uses `des_batch`'s.
    fn fanout(self) -> Fanout {
        match self {
            Workload::TcpPaced => Fanout {
                peers: tcp::PACED.peers,
                ppcs: 3,
                ipcs: true,
            },
            Workload::TcpSaturate => Fanout {
                peers: tcp::SATURATE.peers,
                ppcs: 3,
                ipcs: false,
            },
            Workload::DesBatch | Workload::Kmeans256 => Fanout {
                peers: des::PEERS,
                ppcs: 3,
                ipcs: true,
            },
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                });
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("bad seconds {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: value, unit, and its basis for the report.
struct Metric {
    name: &'static str,
    unit: &'static str,
    fig: Fig,
}

fn end_to_end(w: Workload, o: &Outcome) -> Vec<Metric> {
    let chunk = o.chunk;
    let (p, tail_ms) = if o.op_ms.is_empty() {
        (0.0, 0.0)
    } else {
        chunked_tail(&o.op_ms, chunk)
    };
    let legend = w.legend();
    let figs = [
        Fig::new(
            Fig::median(&o.op_ms).value,
            format!("median of {} ops; {}", o.op_ms.len(), legend[1].1),
        ),
        Fig::new(
            tail_ms,
            format!(
                "median over {} chunks of {chunk} ops of their p{p}; {}",
                o.op_ms.len() / chunk.max(1),
                legend[2].1
            ),
        ),
        Fig::new(
            o.ok as f64 / o.window_s.max(1e-9),
            format!("{} ops / {:.3} s; {}", o.ok, o.window_s, legend[3].1),
        ),
        Fig::ratio(
            Ratio {
                total: o.cpu_ms.0 + o.cpu_ms.1,
                base: o.ok,
            },
            "ops (CPU ms)",
        ),
        Fig::median(&o.setup_s),
        Fig::new(host::peak_rss_mb(), "VmHWM, whole run".to_string()),
    ];
    END_TO_END
        .iter()
        .zip(figs)
        .map(|(&(name, unit), fig)| Metric { name, unit, fig })
        .collect()
}

fn per_layer(w: Workload, seed: u64, plain: &Outcome, traced: &Outcome, tmp: &Path) -> Vec<Metric> {
    let mut figs: BTreeMap<&'static str, Fig> = traced.layer.clone();
    let cpu = |total| {
        Fig::ratio(
            Ratio {
                total,
                base: traced.ok,
            },
            "ops (CPU ms)",
        )
    };
    figs.insert("proc.user_ms_per_check", cpu(traced.cpu_ms.0));
    figs.insert("proc.sys_ms_per_check", cpu(traced.cpu_ms.1));
    figs.insert(
        "check_fail_ratio",
        Fig::ratio(per(0, traced.failed, traced.attempted), "attempted"),
    );
    let (a, b) = (
        Fig::median(&plain.op_ms).value,
        Fig::median(&traced.op_ms).value,
    );
    figs.insert(
        "trace.overhead_pct",
        Fig::new(
            (b - a) / a * 100.0,
            format!("op_p50_ms traced {b:.4} vs untraced {a:.4}, half-length passes"),
        ),
    );
    let reqs = if traced.requests.is_empty() {
        // The first requests `des_batch` draws from this seed.
        let world = gen::world();
        gen::requests(seed, 64, des::PEERS, &gen::check_domains(&world))
    } else {
        traced.requests.clone()
    };
    for (name, fig) in replay::pages(&reqs, w.fanout(), tmp)
        .into_iter()
        .chain(replay::des(seed))
        .chain(replay::kmeans(seed))
        .chain(replay::loadgen(seed))
    {
        figs.entry(name).or_insert(fig);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            fig: figs
                .remove(name)
                .unwrap_or_else(|| Fig::new(0.0, "not on this workload's path".to_string())),
        })
        .collect()
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}

fn metrics_json(metrics: &[Metric], with_basis: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let basis = if with_basis {
                format!(", \"basis\": {}", json_str(&m.fig.basis))
            } else {
                String::new()
            };
            let value = if m.fig.value.is_finite() {
                m.fig.value
            } else {
                0.0
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}{basis}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs one workload and prints its report; returns its result line
/// and whether its outputs were correct.
fn run_one(w: Workload, args: &Args, tmp: &Path, out_dir: &Path) -> (String, bool) {
    let host = host::record(tmp);
    println!(
        "# e2ebench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &host {
        println!("# host {k}: {v}");
    }
    println!("# op = {}", w.legend()[0].1);

    let (outcome, metrics, spans) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = w.run(args.seed, half, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let traced = w.run(args.seed, half, &tracer);
        let spans = tracer.spans();
        let metrics = per_layer(w, args.seed, &plain, &traced, tmp);
        (traced, metrics, Some(spans))
    } else {
        let o = w.run(args.seed, args.seconds, &Tracer::new(false));
        let metrics = end_to_end(w, &o);
        (o, metrics, None)
    };

    for m in &metrics {
        println!(
            "# {:<36} {:>14.4} {:<5} ({})",
            m.name, m.fig.value, m.unit, m.fig.basis
        );
    }
    for (k, v) in &outcome.notes {
        println!("# note {k}: {v}");
    }
    let correct = outcome.wrong.is_empty() && outcome.attempted > 0;
    println!(
        "# gate: correct={correct} attempted={} ok={} failed={}",
        outcome.attempted, outcome.ok, outcome.failed
    );
    for e in outcome.errors.iter().chain(&outcome.wrong) {
        println!("#   {e}");
    }

    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{{}}}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        json_str(w.name()),
        args.seed,
        args.seconds,
        args.trace,
        host_json.join(", "),
        outcome.attempted,
        outcome.failed,
        metrics_json(&metrics, true)
    );
    let _ = std::fs::write(out_dir.join(format!("{stem}.json")), record);
    if let Some(spans) = spans {
        let _ = std::fs::write(
            out_dir.join(format!("{stem}.spans.jsonl")),
            trace::to_json_lines(&spans),
        );
        for (name, (count, total, own)) in trace::by_name(&spans) {
            println!(
                "# span {name:<28} n={count:<7} mean {:>10.1} us  self {:>10.1} us",
                total as f64 / count as f64 / 1e3,
                own as f64 / count as f64 / 1e3
            );
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics, false)
    );
    (line, correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let tmp = cwd.join(".bench_tmp");
    let out_dir = cwd.join(".bench_out");
    for d in [&tmp, &out_dir] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("e2ebench: cannot create {}: {e}", d.display());
            return ExitCode::from(2);
        }
    }
    // The Database's WAL directory comes from `std::env::temp_dir()`;
    // point it inside the working directory before any thread starts.
    std::env::set_var("TMPDIR", &tmp);

    let mut all_correct = true;
    for w in &args.workloads {
        let (line, correct) = run_one(*w, &args, &tmp, &out_dir);
        all_correct &= correct;
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(m) => m.get(key).unwrap_or_else(|| panic!("no {key}")),
            _ => panic!("not an object"),
        }
    }

    fn names(v: &Value, with_unit: bool) -> Vec<String> {
        let Value::Array(items) = v else {
            panic!("not a list")
        };
        items
            .iter()
            .map(|m| {
                let text = |key| match field(m, key) {
                    Value::String(s) => s.clone(),
                    _ => panic!("{key} is not a string"),
                };
                if with_unit {
                    format!("{} {}", text("name"), text("unit"))
                } else {
                    text("name")
                }
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<String> {
        list.iter().map(|(n, u)| format!("{n} {u}")).collect()
    }

    /// The metric and workload lists here and in `BENCHMARK.json` must
    /// agree: the file is what runs are checked against.
    #[test]
    fn lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside e2ebench/");
        let spec = serde_json::from_str_value(&text).expect("valid JSON");
        assert_eq!(names(field(&spec, "end_to_end"), true), own(&END_TO_END));
        assert_eq!(names(field(&spec, "per_layer"), true), own(&PER_LAYER));
        let workloads: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names(field(&spec, "workloads"), false), workloads);
    }
}
