//! The benchmark's own checks: every workload passes its correctness
//! checks at a tiny size (traced, so span trees are checked too), and the
//! metric table agrees with `BENCHMARK.json` and with what the command
//! prints.

use perfbench::out::Out;
use perfbench::{gridccm, per_layer_metrics, ring, rpc, END_TO_END};
use std::process::Command;

fn assert_clean(out: &Out, attempted_at_least: u64) {
    assert!(
        out.errors.is_empty() && out.failed == 0,
        "failed checks: {:?}",
        out.errors
    );
    assert!(out.attempted >= attempted_at_least, "{out:?}");
    for (name, _, _) in END_TO_END {
        let v = out.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
}

#[test]
fn rpc_pingpong_smoke() {
    let mut out = Out::default();
    rpc::pingpong(7, 200, true, &mut out).unwrap();
    assert_clean(&out, 200);
    assert!(out.get("rpc_pingpong.orb.request_leg_us").is_some());
}

#[test]
fn rpc_pipelined_smoke() {
    let mut out = Out::default();
    rpc::pipelined(7, 256, true, &mut out).unwrap();
    assert_clean(&out, 256);
    assert!(out.get("rpc_pipelined.orb.mux.pending_peak").unwrap() >= 1.0);
}

#[test]
fn gridccm_coupling_smoke() {
    let mut out = Out::default();
    gridccm::run(7, 4, true, &mut out).unwrap();
    assert_clean(&out, 4);
    assert!(out.get("gridccm_coupling.mpi.allreduce_us").is_some());
}

#[test]
fn world_ring_smoke() {
    let mut out = Out::default();
    ring::run(7, ring::TOKENS * ring::ROUNDS * 4, true, &mut out).unwrap();
    assert_clean(&out, (ring::TOKENS * ring::ROUNDS) as u64);
    assert!(out.get("world_ring.fabric.sched.mean_batch").unwrap() >= 1.0);
}

#[test]
fn coupling_total_has_a_closed_form() {
    assert_eq!(gridccm::closed_form_total(4, 10), 10.0 + 11.0 + 12.0 + 13.0);
}

/// (name, unit, better) of every metric under `key` in BENCHMARK.json.
fn declared(json: &str, key: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let end = section.find(']').expect("section is a list");
    let field = |obj: &str, k: &str| -> String {
        let at = obj.find(&format!("\"{k}\": \"")).expect("field present") + k.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    section[..end]
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
        .collect()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

#[test]
fn metric_table_matches_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(declared(&json, "end_to_end"), e2e);
    let layers: Vec<_> = per_layer_metrics()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(declared(&json, "per_layer"), layers);
}

/// Names in the `metrics` object of the command's last output line.
fn printed_metrics(stdout: &str) -> Vec<String> {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let m = m.trim_start_matches('{').trim_start();
            m[1..1 + m[1..].find('"').expect("quoted name")].to_string()
        })
        .collect()
}

/// Run the command at one second of work and return the metric names
/// it printed.
fn run_command(trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "rpc_pingpong", "--seed", "3"])
        .args(["--seconds", "1", "--trace", trace])
        .output()
        .expect("run the benchmark");
    assert!(out.status.success(), "{out:?}");
    printed_metrics(&String::from_utf8_lossy(&out.stdout))
}

fn declared_names(key: &str) -> Vec<String> {
    declared(&benchmark_json(), key)
        .into_iter()
        .map(|(n, _, _)| n)
        .collect()
}

#[test]
fn command_prints_the_declared_end_to_end_metrics() {
    assert_eq!(run_command("0"), declared_names("end_to_end"));
}

#[test]
fn traced_command_prints_the_declared_per_layer_metrics() {
    assert_eq!(run_command("1"), declared_names("per_layer"));
}
