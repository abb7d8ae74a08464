//! Command-line entry of the benchmark: parses the arguments, runs each
//! measurement in a process of its own and prints the result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc_pingpong --seed 1 --seconds 8 --trace 0
//! ```
//!
//! The last line of standard output is the result as one JSON object; the
//! line before it is a report with the host calibration, each workload's
//! effective `TmConfig` and diagnostics. `--list-metrics` prints the
//! metric table.

use perfbench::out::Out;
use perfbench::{
    host, measure, per_layer_metrics, stats, work, workload_row, END_TO_END, WORKLOADS,
};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Budget for everything one invocation starts.
const DEADLINE: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Default)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a measuring process: `setup`, `run` or `ladder`.
    child: Option<String>,
    traced: bool,
    list_metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: 8,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--child" => a.child = Some(val()?),
            "--traced" => a.traced = true,
            "--list-metrics" => a.list_metrics = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.list_metrics && !WORKLOADS.iter().any(|(w, _, _)| *w == a.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.list_metrics {
        list_metrics();
        return;
    }
    if let Some(part) = &args.child {
        let mut out = Out::default();
        if let Err(e) = measure(
            part,
            &args.workload,
            args.seed,
            args.seconds,
            args.traced,
            &mut out,
        ) {
            out.fail(e);
        }
        print!("{}", out.render());
        // Leave without tearing the worlds down: the process ends here.
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::process::exit(0);
    }
    std::process::exit(parent(&args));
}

/// Run one measuring process and collect what it reports. A process
/// that fails or overruns the deadline reports a failed operation.
fn spawn(part: &str, a: &Args, workload: &str, seed: u64, traced: bool, deadline: Instant) -> Out {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed_out(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", part, "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed_out(format!("spawn {part} {workload}: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        match child.try_wait() {
            Ok(Some(st)) => break Ok(st),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{part} {workload} overran the deadline"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("wait {part} {workload}: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        Ok(st) if st.success() => {
            Out::parse(&text).unwrap_or_else(|e| failed_out(format!("{part} {workload}: {e}")))
        }
        Ok(st) => failed_out(format!("{part} {workload} exited with {st}")),
        Err(e) => failed_out(e),
    }
}

fn failed_out(why: String) -> Out {
    let mut o = Out {
        attempted: 1,
        ..Out::default()
    };
    o.fail(why);
    o
}

fn parent(a: &Args) -> i32 {
    let deadline = Instant::now() + DEADLINE;
    let calib = host::calibrate();
    let mut report: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&a.workload)),
        ("seed".into(), a.seed.to_string()),
        ("trace".into(), a.trace.to_string()),
        (
            "host".into(),
            format!(
                "{{\"cores\": {}, \"pingpong_floor_us\": {:?}, \"memcpy_gb_s\": {:?}}}",
                calib.cores, calib.pingpong_floor_us, calib.memcpy_gb_s
            ),
        ),
    ];
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut total = Out::default();
    let wanted: Vec<(String, &str)>;

    if !a.trace {
        wanted = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), *u))
            .collect();
        let mut setup = Vec::new();
        for i in 0..workload_row(&a.workload).2 {
            let probe = spawn(
                "setup",
                a,
                &a.workload,
                a.seed + i as u64 + 1,
                false,
                deadline,
            );
            setup.extend(probe.get("setup_s"));
            absorb(&mut total, probe);
        }
        let run = spawn("run", a, &a.workload, a.seed, false, deadline);
        for (n, v) in &run.metrics {
            if n == "setup_s" {
                setup.push(*v);
            } else {
                metrics.push((n.clone(), *v));
            }
        }
        report_child(&mut report, &a.workload, &run, work(&a.workload, a.seconds));
        report.push(("setup_samples_s".into(), json_list(&setup)));
        metrics.push(("setup_s".into(), stats::median(&mut setup)));
        absorb(&mut total, run);
    } else {
        wanted = per_layer_metrics()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        metrics.push(("host.cores".into(), calib.cores as f64));
        metrics.push(("host.pingpong_floor_us".into(), calib.pingpong_floor_us));
        metrics.push(("host.memcpy_gb_s".into(), calib.memcpy_gb_s));
        let lad = spawn("ladder", a, &a.workload, a.seed, false, deadline);
        metrics.extend(lad.metrics.iter().cloned());
        absorb(&mut total, lad);
        // The requested workload first, then the others.
        let mut order: Vec<&str> = WORKLOADS.iter().map(|(w, _, _)| *w).collect();
        order.sort_by_key(|w| *w != a.workload);
        for w in order {
            let plain = spawn("run", a, w, a.seed, false, deadline);
            let traced = spawn("run", a, w, a.seed, true, deadline);
            for suffix in ["drift", "latency_p99_us", "latency_samples"] {
                let name = format!("{w}.{suffix}");
                if let Some(v) = plain.get(&name) {
                    metrics.push((name, v));
                }
            }
            let prefix = format!("{w}.");
            for (n, v) in &traced.metrics {
                if n.starts_with(&prefix) && !metrics.iter().any(|(m, _)| m == n) {
                    metrics.push((n.clone(), *v));
                }
            }
            if let (Some(t), Some(p)) = (traced.get("ops_per_s"), plain.get("ops_per_s")) {
                metrics.push((format!("{w}.trace.overhead_ratio"), t / p));
            }
            report_child(&mut report, w, &plain, work(w, a.seconds));
            absorb(&mut total, plain);
            absorb(&mut total, traced);
        }
    }

    // Every wanted metric present and finite, or the run is not correct.
    let mut printed = Vec::new();
    for (name, unit) in &wanted {
        match metrics.iter().rev().find(|(n, _)| n == name) {
            Some((_, v)) if v.is_finite() => printed.push((name.clone(), *unit, *v)),
            Some((_, v)) => total.fail(format!("metric {name} is {v}")),
            None => total.fail(format!("metric {name} was not measured")),
        }
    }
    if total.attempted == 0 {
        total.fail("no operation was attempted");
    }
    let correct = total.failed == 0 && total.errors.is_empty();
    report.push((
        "errors".into(),
        format!(
            "[{}]",
            total
                .errors
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    for e in &total.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{{\"report\": {}}}", json_obj(&report));
    let body: Vec<String> = printed
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted,
        total.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn absorb(total: &mut Out, child: Out) {
    total.attempted += child.attempted;
    total.failed += child.failed;
    total.errors.extend(child.errors);
}

fn report_child(report: &mut Vec<(String, String)>, workload: &str, run: &Out, ops: usize) {
    let mut fields = vec![("work_ops".to_string(), ops.to_string())];
    for (k, v) in &run.info {
        fields.push((k.clone(), json_str(v)));
    }
    report.push((workload.to_string(), json_obj(&fields)));
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_obj(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_list(v: &[f64]) -> String {
    let body: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", body.join(", "))
}

fn list_metrics() {
    println!("end_to_end:");
    for (n, u, b) in END_TO_END {
        println!("  {n} {u} {b}");
    }
    println!("per_layer:");
    for (n, u, b) in per_layer_metrics() {
        println!("  {n} {u} {b}");
    }
}
