//! Host-cost benchmark of the Padico stack: four seeded closed-loop
//! workloads and the layer ladder, each measured through the public API
//! of the library crates. `src/main.rs` runs every measurement in a
//! process of its own, so the process-global registries, pools and
//! scheduler lanes of one run never mix with another's. See
//! `perfbench/README.md`.

pub mod gridccm;
pub mod host;
mod ladder;
pub mod out;
pub mod ring;
pub mod rpc;
mod spans;
pub mod stats;

use out::Out;
use padico_tm::runtime::{CoalescePolicy, EngineKind, TmConfig};
use padico_tm::TraceSampling;

/// The workloads: (name, operations one run performs per second of
/// `--seconds`, set-up probes). The amount of work is fixed by
/// `--seconds` alone, never by elapsed time: per-operation cost grows
/// with history, so a faster build must not be handed more work than a
/// slower one. Each set-up probe is a fresh process; the run itself adds
/// one more set-up sample.
pub const WORKLOADS: [(&str, usize, usize); 4] = [
    ("rpc_pingpong", 5_000, 20),
    ("rpc_pipelined", 6_000, 20),
    ("gridccm_coupling", 300, 20),
    ("world_ring", 250_000, 4),
];

/// (name, unit, better)
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p90_us", "us", "lower"),
    ("payload_mb_per_s", "MB/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// Every per-layer metric the traced run prints: (name, unit, better).
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: String, u, b| m.push((n, u, b));
    add("host.cores".into(), "count", "higher");
    add("host.pingpong_floor_us".into(), "us", "lower");
    add("host.memcpy_gb_s".into(), "GB/s", "higher");
    for (size, _, _) in ladder::SIZES {
        for rung in ladder::RUNGS {
            add(format!("{rung}.rt_us.{size}"), "us", "lower");
            add(format!("{rung}.cpu_us_per_rt.{size}"), "us", "lower");
            add(
                format!("{rung}.ctx_switches_per_rt.{size}"),
                "count",
                "lower",
            );
        }
        for (upper, _) in ladder::BELOW {
            add(format!("{upper}.self_us.{size}"), "us", "lower");
        }
    }
    add("fabric.rt_drift.8B".into(), "ratio", "lower");
    for (w, _, _) in WORKLOADS {
        // The ring's events are not one caller's sequence in time order.
        if w != "world_ring" {
            add(format!("{w}.drift"), "ratio", "lower");
        }
        add(format!("{w}.latency_p99_us"), "us", "lower");
        add(format!("{w}.latency_samples"), "count", "higher");
        add(format!("{w}.trace.overhead_ratio"), "ratio", "higher");
    }
    for (n, u, b) in [
        ("rpc_pingpong.orb.invoke_us", "us", "lower"),
        ("rpc_pingpong.orb.request_leg_us", "us", "lower"),
        ("rpc_pingpong.orb.servant_us", "us", "lower"),
        ("rpc_pingpong.orb.reply_leg_us", "us", "lower"),
        ("rpc_pingpong.proc.cpu_us_per_op", "us", "lower"),
        ("rpc_pingpong.proc.ctx_switches_per_op", "count", "lower"),
        ("rpc_pipelined.orb.submit_us", "us", "lower"),
        ("rpc_pipelined.orb.wait_us", "us", "lower"),
        ("rpc_pipelined.orb.mux.pending_mean", "count", "lower"),
        ("rpc_pipelined.orb.mux.pending_peak", "count", "lower"),
        (
            "rpc_pipelined.tm.coalesce.frames_per_flush",
            "count",
            "higher",
        ),
        ("rpc_pipelined.fabric.pool.miss_ratio", "ratio", "lower"),
        ("rpc_pipelined.proc.threads_peak", "count", "lower"),
        ("rpc_pipelined.proc.cpu_us_per_op", "us", "lower"),
        ("gridccm_coupling.core.invoke_us", "us", "lower"),
        ("gridccm_coupling.core.request_leg_us", "us", "lower"),
        ("gridccm_coupling.core.upcall_us", "us", "lower"),
        ("gridccm_coupling.mpi.allreduce_us", "us", "lower"),
        ("gridccm_coupling.core.reply_leg_us", "us", "lower"),
        (
            "gridccm_coupling.core.schedule_cache.hit_ratio",
            "ratio",
            "higher",
        ),
        ("gridccm_coupling.fabric.pool.miss_ratio", "ratio", "lower"),
        (
            "gridccm_coupling.fabric.wire_bytes_per_payload_byte",
            "ratio",
            "lower",
        ),
        ("world_ring.world.handler_ns_per_event", "ns", "lower"),
        ("world_ring.fabric.send_ns", "ns", "lower"),
        (
            "world_ring.fabric.sched.overhead_ns_per_event",
            "ns",
            "lower",
        ),
        ("world_ring.fabric.sched.mean_batch", "count", "higher"),
        ("world_ring.tm.boot_s", "s", "lower"),
        ("world_ring.tm.on_channel_s", "s", "lower"),
    ] {
        add(n.into(), u, b);
    }
    m
}

/// The configuration every node of a workload boots with: engine and
/// coalescing pinned here, so `PADICO_ENGINE` / `PADICO_COALESCE` in the
/// environment change nothing.
pub(crate) fn tm_config(engine: EngineKind) -> TmConfig {
    TmConfig {
        engine,
        coalesce: Some(CoalescePolicy::default()),
        trace_sampling: TraceSampling::Always,
        ..TmConfig::default()
    }
}

fn engine_of(workload: &str) -> EngineKind {
    match workload {
        "rpc_pingpong" => rpc::PINGPONG_ENGINE,
        "rpc_pipelined" => rpc::PIPELINED_ENGINE,
        "gridccm_coupling" => gridccm::ENGINE,
        _ => ring::ENGINE,
    }
}

/// splitmix64: the benchmark's only source of inputs.
pub(crate) struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5046_5242_454e_4348)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub fn workload_row(workload: &str) -> (&'static str, usize, usize) {
    *WORKLOADS
        .iter()
        .find(|(w, _, _)| *w == workload)
        .expect("workload names are checked when parsing arguments")
}

/// Operations one run of `workload` performs.
pub fn work(workload: &str, seconds: u64) -> usize {
    workload_row(workload).1 * seconds as usize
}

/// Body of a measuring process.
pub fn measure(
    part: &str,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: &mut Out,
) -> Result<(), String> {
    let engine = engine_of(workload);
    out.info("tm_config", format!("{:?}", tm_config(engine)));
    let n = work(workload, seconds);
    match (part, workload) {
        ("ladder", _) => ladder::run(out),
        ("setup", "rpc_pingpong" | "rpc_pipelined") => {
            out.metric("setup_s", rpc::setup_probe(engine, seed)?);
            Ok(())
        }
        ("setup", "gridccm_coupling") => {
            out.metric("setup_s", gridccm::setup_probe(seed)?);
            Ok(())
        }
        ("setup", _) => {
            out.metric("setup_s", ring::setup_probe(n)?);
            Ok(())
        }
        ("run", "rpc_pingpong") => rpc::pingpong(seed, n, traced, out),
        ("run", "rpc_pipelined") => rpc::pipelined(seed, n, traced, out),
        ("run", "gridccm_coupling") => gridccm::run(seed, n, traced, out),
        ("run", _) => ring::run(seed, n, traced, out),
        (other, _) => Err(format!("unknown part {other}")),
    }
}
