//! Short mode: every workload runs for one second, untraced and traced.
//! Checks that no op fails, that every metric is printed by name with its
//! unit, that a deliberately corrupted result is counted as a failure, and
//! that a runtime environment knob makes the benchmark refuse to run.

use std::process::{Command, Output};

const WORKLOADS: [&str; 5] =
    ["histo_am", "histo_array", "gather_ro", "gather_small", "am_pingpong"];

const END_TO_END: [(&str, &str); 3] =
    [("ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

const PER_LAYER: [(&str, &str); 26] = [
    ("process.cpu_busy_frac", "1"),
    ("process.sys_frac", "1"),
    ("process.ctx_switches_per_kop", "count/kop"),
    ("kernel.local_ns_per_op", "ns"),
    ("am.issue_ns_per_op", "ns"),
    ("am.drain_ms_p50", "ms"),
    ("am.local_rtt_us_p50", "us"),
    ("runtime.inline_frac", "1"),
    ("runtime.replies_per_op", "count/op"),
    ("runtime.acks_per_op", "count/op"),
    ("array.sub_batches_per_kop", "count/kop"),
    ("codec.encode_ns_per_op", "ns"),
    ("codec.decode_ns_per_op", "ns"),
    ("codec.bytes_per_op", "B"),
    ("lamellae.send_ns_per_msg", "ns"),
    ("lamellae.msgs_per_kop", "count/kop"),
    ("lamellae.bytes_per_op", "B"),
    ("lamellae.flushes_per_kop", "count/kop"),
    ("lamellae.pool_hit_frac", "1"),
    ("lamellae.wire_parks_per_kop", "count/kop"),
    ("fabric.puts_per_kop", "count/kop"),
    ("fabric.bytes_put_per_op", "B"),
    ("executor.tasks_per_kop", "count/kop"),
    ("executor.steal_frac", "1"),
    ("executor.queue_wait_us_p50", "us"),
    ("trace.overhead_frac", "1"),
];

fn clean_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    for (k, _) in std::env::vars() {
        if k.starts_with("LAMELLAR_") {
            cmd.env_remove(k);
        }
    }
    cmd
}

fn run(workload: &str, trace: bool, corrupt: bool) -> String {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-out");
    let mut cmd = clean_command();
    cmd.args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out: Output = cmd.output().expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The value of `"key": <int>` in a rendered JSON object.
fn int_field(json: &str, key: &str) -> u64 {
    let start = json.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("{key} in {json}"));
    let rest = &json[start + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())]
        .parse()
        .unwrap_or_else(|_| panic!("{key} is an integer in {json}"))
}

/// Check `name` is in the result's metrics with `unit` and a finite value,
/// and is printed on its own line with its unit.
fn assert_metric(stdout: &str, result: &str, name: &str, unit: &str) {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result.find(&key).unwrap_or_else(|| panic!("{name} missing from {result}"));
    let rest = &result[at + key.len()..];
    let value = &rest[..rest.find(',').expect("value ends")];
    assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{name} = {value}");
    assert!(
        rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
        "{name} unit in {result}"
    );
    assert!(
        stdout.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() == 3 && f[0] == name && f[2] == unit
        }),
        "{name} printed with unit {unit}"
    );
}

fn printed(stdout: &str, name: &str) -> f64 {
    stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == name)
        .unwrap_or_else(|| panic!("{name} printed"))[1]
        .parse()
        .expect("printed value is a number")
}

#[test]
fn every_workload_runs_clean_and_prints_its_end_to_end_metrics() {
    for w in WORKLOADS {
        let out = run(w, false, false);
        let result = out.lines().last().expect("result line");
        assert!(result.contains("\"correct\": true"), "{w}: {result}");
        assert_eq!(int_field(result, "failed"), 0, "{w}");
        assert!(int_field(result, "attempted") > 0, "{w}");
        for (name, unit) in END_TO_END {
            assert_metric(&out, result, name, unit);
        }
        assert_eq!(printed(&out, "failed_frac"), 0.0, "{w}");
        if w == "am_pingpong" || w == "gather_small" {
            assert!(printed(&out, "latency_p50_us") > 0.0);
            assert!(printed(&out, "latency_p99_us") >= printed(&out, "latency_p50_us"));
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    for w in WORKLOADS {
        let out = run(w, true, false);
        let result = out.lines().last().expect("result line");
        assert_eq!(int_field(result, "failed"), 0, "{w}");
        for (name, unit) in PER_LAYER {
            assert_metric(&out, result, name, unit);
        }
        if w.starts_with("histo") {
            assert_eq!(printed(&out, "runtime.replies_per_op"), 0.0, "{w}: unit AMs send no reply");
        }
    }
}

#[test]
fn corrupted_results_are_counted_as_failures() {
    for w in WORKLOADS {
        let out = run(w, false, true);
        let result = out.lines().last().expect("result line");
        assert!(result.contains("\"correct\": false"), "{w}: {result}");
        assert!(int_field(result, "failed") > 0, "{w}");
        assert!(printed(&out, "failed_frac") > 0.0, "{w}");
    }
}

#[test]
fn runtime_environment_knobs_are_refused() {
    let out = clean_command()
        .args(["--workload", "histo_am", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .env("LAMELLAR_AGG_THRESHOLD", "4096")
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result when refusing");
}
