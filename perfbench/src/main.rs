//! `perfbench`: closed-loop end-to-end and per-layer benchmark of the
//! Lamellar runtime on a 2-PE world. See README.md for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! perfbench --workload <histo_am|histo_array|gather_ro|gather_small|am_pingpong>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--corrupt] [--out-dir <dir>] [--commit <id>] [--env-overridden NAME=VALUE]...
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). The line before it, prefixed
//! `record: `, is the full machine-readable record of the run.

mod layers;
mod trace;
mod util;
mod workloads;

use lamellar_core::config::{Backend, WorldConfig};
use lamellar_core::lamellae::queue::RETRANSMIT_TIMEOUT;
use lamellar_core::world::launch_with_config;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use util::{median_f64, peak_rss_mib, percentile, ratio, Json};
use workloads::{Opts, PeReport, Shared, Workload, PES};

/// World builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The paper's default aggregation threshold.
const AGG_THRESHOLD: usize = 100 * 1024;
/// Environment variables `WorldConfig::new` and `NetConfig::from_env` read.
/// Any of them set would silently change the configuration under test.
const READ_BY_RUNTIME: [&str; 5] = [
    "LAMELLAR_THREADS",
    "LAMELLAR_AGG_THRESHOLD",
    "LAMELLAR_OP_BATCH",
    "LAMELLAR_METRICS",
    "LAMELLAR_NET_MODEL",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    out_dir: PathBuf,
    commit: String,
    env_overridden: Vec<String>,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <histo_am|histo_array|gather_ro|gather_small|am_pingpong> \
         --seed <n> \
         --seconds <s> --trace <0|1> [--corrupt] [--out-dir <dir>] [--commit <id>] \
         [--env-overridden NAME=VALUE]..."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::HistoAm,
        seed: 0,
        seconds: 0.0,
        trace: false,
        corrupt: false,
        out_dir: PathBuf::from("perfbench/out"),
        commit: "unknown".into(),
        env_overridden: Vec::new(),
    };
    let (mut have_workload, mut have_seed, mut have_seconds) = (false, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            args.corrupt = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value)
                    .unwrap_or_else(|| usage_exit(&format!("unknown workload {value:?}")));
                have_workload = true;
            }
            "--seed" => {
                args.seed = value.parse().unwrap_or_else(|_| usage_exit("--seed takes an integer"));
                have_seed = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage_exit("--seconds takes a number in (0, 600]"));
                have_seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_exit("--trace takes 0 or 1"),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--env-overridden" => args.env_overridden.push(value),
            _ => usage_exit(&format!("unknown flag {flag}")),
        }
    }
    if !(have_workload && have_seed && have_seconds) {
        usage_exit("--workload, --seed and --seconds are required");
    }
    args
}

/// Refuse to run when the environment could change the configuration:
/// every knob is pinned in `world_config`, and the benchmark's wrapper
/// clears (and records) these variables before starting it.
fn refuse_runtime_env() {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| READ_BY_RUNTIME.contains(&k.as_str()) || k.starts_with("LAMELLAR_NET_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset them (run.py does)",
            set.join(", ")
        );
        std::process::exit(2);
    }
}

/// Every `WorldConfig` field, pinned: Rofi backend (the cost model stays
/// off because `LAMELLAR_NET_MODEL` is refused), one pool worker per PE,
/// the paper's 100 KiB aggregation threshold, metrics on, no fault plane,
/// no deadline, no watchdog, reply elision on.
fn world_config() -> WorldConfig {
    let mut cfg = WorldConfig::new(PES)
        .backend(Backend::Rofi)
        .threads_per_pe(1)
        .agg_threshold(AGG_THRESHOLD)
        .metrics(true)
        .reply_elision(true)
        .retransmit_timeout(RETRANSMIT_TIMEOUT);
    cfg.buffer_size = 2 * AGG_THRESHOLD;
    cfg.sym_len = 0; // derived from the PE count and buffer size
    cfg.heap_len = 32 << 20;
    cfg.fault = None;
    cfg.am_deadline = None;
    cfg.watchdog = None;
    cfg
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::obj(
        ms.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

fn ops_per_s(r: &PeReport, traced: bool) -> f64 {
    let p = if traced { &r.traced } else { &r.measured };
    ratio(p.global_ops as f64, p.round_time.as_secs_f64())
}

fn main() {
    let args = parse_args();
    refuse_runtime_env();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let seconds = Duration::from_secs_f64(args.seconds);
    let opts = Arc::new(Opts {
        workload: args.workload,
        seed: args.seed,
        warmup: (seconds / 10).min(Duration::from_secs(1)),
        measure: seconds,
        trace: args.trace,
        corrupt: args.corrupt,
    });

    // Extra set-up repetitions in fresh worlds (each with its own fabric,
    // so no table lands on memory a previous table used), then the
    // measured world.
    let epoch = Instant::now();
    let mut setups: Vec<f64> = (1..SETUP_REPS)
        .map(|_| {
            let shared = Arc::new(Shared::new(epoch));
            let (o, s) = (Arc::clone(&opts), Arc::clone(&shared));
            let per_pe =
                launch_with_config(world_config(), move |w| workloads::setup_only(w, &o, &s));
            per_pe[0].expect("PE 0 times set-up").as_secs_f64()
        })
        .collect();
    let shared = Arc::new(Shared::new(epoch));
    let (o, s) = (Arc::clone(&opts), Arc::clone(&shared));
    let reports = launch_with_config(world_config(), move |w| workloads::pe_main(w, &o, &s));
    setups.push(reports[0].setup.expect("PE 0 times set-up").as_secs_f64());
    let peak_rss = peak_rss_mib();

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let r0 = &reports[0];
    let untraced = ops_per_s(r0, false);
    let e2e = vec![
        m("ops_per_s", untraced, "1/s"),
        m("setup_s", median_f64(&setups), "s"),
        m("peak_rss_mib", peak_rss, "MiB"),
    ];
    // Printed and recorded, but not in the result's `metrics`: failures are
    // reported by `attempted`/`failed`, and the latency percentiles exist
    // only for the latency-bound workloads, while every workload reports
    // one metric set.
    let mut extra = vec![m("failed_frac", ratio(failed as f64, attempted as f64), "1")];
    if matches!(args.workload, Workload::AmPingpong | Workload::GatherSmall) {
        let mut lat = r0.measured.latency_ns.clone();
        extra.push(m("latency_p50_us", percentile(&mut lat, 50.0) as f64 / 1e3, "us"));
        extra.push(m("latency_p99_us", percentile(&mut lat, 99.0) as f64 / 1e3, "us"));
        extra.push(m("latency_samples", lat.len() as f64, "count"));
    }
    let measured_counts = sum_counts(&reports, false);
    let mut rounds = r0.measured.round_ns.clone();
    let steadiness = vec![
        m("process.sys_frac", sys_frac(r0, nproc), "1"),
        m(
            "runtime.inline_frac",
            ratio(
                measured_counts.inline_execs as f64,
                (measured_counts.inline_execs + measured_counts.spilled_execs) as f64,
            ),
            "1",
        ),
        m("measured_rounds", r0.measured.rounds as f64, "count"),
        m("round_ms_p50", percentile(&mut rounds, 50.0) as f64 / 1e6, "ms"),
        m("round_ms_max", percentile(&mut rounds, 100.0) as f64 / 1e6, "ms"),
    ];

    let layer =
        if args.trace { layer_metrics(&args, &reports, nproc, untraced) } else { Vec::new() };
    if args.trace {
        let spans: Vec<_> = reports.iter().flat_map(|r| r.spans.iter().cloned()).collect();
        let path =
            args.out_dir.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
        std::fs::create_dir_all(&args.out_dir).expect("create the trace output directory");
        std::fs::write(&path, trace::chrome_json(&spans)).expect("write the Chrome trace");
        println!("trace: {} ({} spans)", path.display(), spans.len());
    }

    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc,
        args.commit
    );
    for x in e2e.iter().chain(&extra).chain(&steadiness).chain(&layer) {
        println!("  {:<30} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!("  MUPS (ops_per_s / 1e6)         {:>16.6}", untraced / 1e6);

    let record = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("commit", Json::str(args.commit.clone())),
        ("pes", Json::Int(PES as u64)),
        ("config", Json::str(format!("{:?}", world_config().resolve()))),
        ("env_overridden", Json::Arr(args.env_overridden.iter().map(Json::str).collect())),
        ("setup_s_reps", Json::nums(&setups)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("end_to_end", metrics_json(&e2e)),
        ("extra", metrics_json(&extra)),
        ("steadiness", metrics_json(&steadiness)),
        ("per_layer", metrics_json(&layer)),
    ]);
    println!("record: {}", record.render());

    let reported = if args.trace { &layer } else { &e2e };
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("metrics", metrics_json(reported)),
    ]);
    println!("{}", result.render());
}

fn sum_counts(reports: &[PeReport], traced: bool) -> workloads::Counts {
    let mut c = workloads::Counts::default();
    for (pe, r) in reports.iter().enumerate() {
        let p = if traced { &r.traced } else { &r.measured };
        c.add(&p.counts, pe == 0);
    }
    c
}

/// Share of the machine's CPU time spent in the kernel over the measured
/// phase.
fn sys_frac(r0: &PeReport, nproc: usize) -> f64 {
    ratio(r0.usage.sys.as_secs_f64(), r0.wall.as_secs_f64() * nproc as f64)
}

/// The per-layer metrics: process counters over the whole measured phase,
/// runtime counters and call timings from the traced rounds, and the
/// single-layer replays.
fn layer_metrics(args: &Args, reports: &[PeReport], nproc: usize, untraced: f64) -> Vec<Metric> {
    let r0 = &reports[0];
    let t = &r0.traced;
    let c = sum_counts(reports, true);
    let ops = t.global_ops as f64;
    let kops = ops / 1e3;
    let cpu = r0.usage.user + r0.usage.sys;
    let all_kops = (r0.measured.global_ops + t.global_ops) as f64 / 1e3;
    let issue_ns: f64 = reports.iter().map(|r| r.traced.issue_time.as_nanos() as f64).sum();
    let issued: f64 = reports.iter().map(|r| r.traced.issued_ops as f64).sum();
    let mut drains: Vec<u64> = reports
        .iter()
        .filter(|r| r.traced.issued_ops > 0)
        .flat_map(|r| r.traced.drain_ns.iter().copied())
        .collect();
    let mut rtt: Vec<u64> = reports.iter().flat_map(|r| r.local_rtt_ns.iter().copied()).collect();
    let mut qwait: Vec<u64> =
        reports.iter().flat_map(|r| r.queue_wait_ns.iter().copied()).collect();

    // Replays use PE 0's inputs.
    let stream = workloads::index_stream(args.workload, args.seed, 0);
    let pings = workloads::ping_values(args.seed);
    let cfg = world_config().resolve();
    let (enc, dec, bytes) = layers::codec_per_op(args.workload, &stream, &pings);

    vec![
        m(
            "process.cpu_busy_frac",
            ratio(cpu.as_secs_f64(), r0.wall.as_secs_f64() * nproc as f64),
            "1",
        ),
        m("process.sys_frac", sys_frac(r0, nproc), "1"),
        m(
            "process.ctx_switches_per_kop",
            ratio(r0.usage.ctx_switches as f64, all_kops),
            "count/kop",
        ),
        m("kernel.local_ns_per_op", layers::kernel_ns_per_op(args.workload, &stream, &pings), "ns"),
        m("am.issue_ns_per_op", ratio(issue_ns, issued), "ns"),
        m("am.drain_ms_p50", percentile(&mut drains, 50.0) as f64 / 1e6, "ms"),
        m("am.local_rtt_us_p50", percentile(&mut rtt, 50.0) as f64 / 1e3, "us"),
        m(
            "runtime.inline_frac",
            ratio(c.inline_execs as f64, (c.inline_execs + c.spilled_execs) as f64),
            "1",
        ),
        m("runtime.replies_per_op", ratio(c.replies_sent as f64, ops), "count/op"),
        m("runtime.acks_per_op", ratio(c.acks_received as f64, ops), "count/op"),
        m("array.sub_batches_per_kop", ratio(c.sub_batches as f64, kops), "count/kop"),
        m("codec.encode_ns_per_op", enc, "ns"),
        m("codec.decode_ns_per_op", dec, "ns"),
        m("codec.bytes_per_op", bytes, "B"),
        m(
            "lamellae.send_ns_per_msg",
            layers::lamellae_ns_per_msg(args.workload, &stream, cfg.buffer_size, cfg.agg_threshold),
            "ns",
        ),
        m("lamellae.msgs_per_kop", ratio(c.msgs_sent as f64, kops), "count/kop"),
        m("lamellae.bytes_per_op", ratio(c.bytes_sent as f64, ops), "B"),
        m("lamellae.flushes_per_kop", ratio(c.flushes as f64, kops), "count/kop"),
        m(
            "lamellae.pool_hit_frac",
            ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
            "1",
        ),
        m("lamellae.wire_parks_per_kop", ratio(c.wire_parks as f64, kops), "count/kop"),
        m("fabric.puts_per_kop", ratio(c.puts as f64, kops), "count/kop"),
        m("fabric.bytes_put_per_op", ratio(c.bytes_put as f64, ops), "B"),
        m("executor.tasks_per_kop", ratio(c.spawned as f64, kops), "count/kop"),
        m("executor.steal_frac", ratio(c.stolen as f64, c.spawned as f64), "1"),
        m("executor.queue_wait_us_p50", percentile(&mut qwait, 50.0) as f64 / 1e3, "us"),
        m("trace.overhead_frac", 1.0 - ratio(ops_per_s(r0, true), untraced), "1"),
    ]
}
