//! The two RPC workloads: 8 B two-way `echo` calls from a client ORB to a
//! server ORB (omniORB profile, Myrinet), either one sequential caller
//! (`rpc_pingpong`) or two callers each keeping a window of submitted
//! requests on the one pooled connection (`rpc_pipelined`).

use crate::host::{self, Usage};
use crate::out::Out;
use crate::spans::{self, Recorder};
use crate::stats::{drift, median, quantile, ratio};
use crate::{tm_config, Rng};
use padico_fabric::payload::pool;
use padico_fabric::topology::single_cluster;
use padico_fabric::FabricKind;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{AsyncReply, ObjectRef, Orb};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::profile::OrbProfile;
use padico_orb::OrbError;
use padico_tm::runtime::{EngineKind, PadicoTM};
use padico_tm::selector::FabricChoice;
use padico_util::ids::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Callers of `rpc_pipelined` (the host has two cores).
const PIPELINED_CALLERS: usize = 2;
/// Requests each `rpc_pipelined` caller keeps outstanding.
const PIPELINED_WINDOW: usize = 16;

pub(crate) const PINGPONG_ENGINE: EngineKind = EngineKind::Threaded;

pub(crate) const PIPELINED_ENGINE: EngineKind = EngineKind::EventLoop;

/// Wall instants at which the servant entered and left its last upcall.
type ServantProbe = Mutex<Option<(Instant, Instant)>>;

struct EchoServant {
    probe: Option<Arc<ServantProbe>>,
}

impl Servant for EchoServant {
    fn repository_id(&self) -> &str {
        "IDL:Perf/Echo:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        let entry = Instant::now();
        match operation {
            "echo" => reply.write_u64(args.read_u64()?),
            other => return Err(OrbError::BadOperation(other.into())),
        }
        if let Some(p) = &self.probe {
            *p.lock().expect("servant probe") = Some((entry, Instant::now()));
        }
        Ok(())
    }
}

/// A booted two-node echo world, connected and warmed by one call.
struct EchoWorld {
    _tms: Vec<Arc<PadicoTM>>,
    client: Arc<Orb>,
    _server: Arc<Orb>,
    server_node: NodeId,
    obj: ObjectRef,
    /// Present in traced runs only.
    probe: Option<Arc<ServantProbe>>,
    /// Wall seconds from the start of world construction to the first
    /// successful call.
    setup_s: f64,
}

impl EchoWorld {
    fn boot(engine: EngineKind, traced: bool, rng: &mut Rng) -> Result<EchoWorld, String> {
        let t0 = Instant::now();
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), tm_config(engine))
            .map_err(|e| format!("boot: {e}"))?;
        let choice = FabricChoice::Kind(FabricKind::Myrinet);
        let client = Orb::start(Arc::clone(&tms[0]), "perf", OrbProfile::omniorb3(), choice)
            .map_err(|e| format!("client orb: {e}"))?;
        let server = Orb::start(Arc::clone(&tms[1]), "perf", OrbProfile::omniorb3(), choice)
            .map_err(|e| format!("server orb: {e}"))?;
        let probe = traced.then(|| Arc::new(Mutex::new(None)));
        let servant = EchoServant {
            probe: probe.clone(),
        };
        let obj = client.object_ref(server.activate(Arc::new(servant)));
        echo(&obj, rng.next_u64())?;
        Ok(EchoWorld {
            server_node: tms[1].node(),
            _tms: tms,
            client,
            _server: server,
            obj,
            probe,
            setup_s: t0.elapsed().as_secs_f64(),
        })
    }

    fn pending(&self) -> usize {
        self.client
            .pending_request_count(self.server_node, &self.obj.ior().endpoint)
    }
}

fn check_reply(reply: Result<CdrReader, OrbError>, sent: u64) -> Result<(), String> {
    let mut r = reply.map_err(|e| format!("echo {sent}: {e}"))?;
    let got = r.read_u64().map_err(|e| format!("echo {sent}: {e}"))?;
    if got == sent {
        Ok(())
    } else {
        Err(format!("echo {sent} answered {got}"))
    }
}

fn echo(obj: &ObjectRef, v: u64) -> Result<(), String> {
    check_reply(obj.request("echo").arg_u64(v).invoke(), v)
}

/// Per-operation e2e metrics shared by the workloads.
pub(crate) fn report_latencies(
    out: &mut Out,
    workload: &str,
    lat_us: &[f64],
    ops: usize,
    wall_s: f64,
) {
    let mut sorted = lat_us.to_vec();
    out.metric("ops_per_s", ops as f64 / wall_s);
    out.metric("latency_p50_us", quantile(&mut sorted, 0.5));
    out.metric("latency_p90_us", quantile(&mut sorted, 0.9));
    out.metric(
        format!("{workload}.latency_p99_us"),
        quantile(&mut sorted, 0.99),
    );
    out.metric(format!("{workload}.latency_samples"), sorted.len() as f64);
    out.metric(format!("{workload}.drift"), drift(lat_us));
}

/// `rpc_pingpong`: `ops` sequential 8 B echo calls from one caller.
pub fn pingpong(seed: u64, ops: usize, traced: bool, out: &mut Out) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let world = EchoWorld::boot(PINGPONG_ENGINE, traced, &mut rng)?;
    out.metric("setup_s", world.setup_s);
    for _ in 0..(ops / 50).max(20) {
        echo(&world.obj, rng.next_u64())?;
    }

    let rec = Recorder::new(Instant::now());
    let mut lat_us = Vec::with_capacity(ops);
    let usage0 = Usage::now();
    let t0 = Instant::now();
    for i in 0..ops as u64 {
        let v = rng.next_u64();
        let start = Instant::now();
        let reply = world.obj.request("echo").arg_u64(v).invoke();
        let end = Instant::now();
        out.op(check_reply(reply, v));
        lat_us.push((end - start).as_secs_f64() * 1e6);
        if traced {
            rec.record(i, 0, None, "orb.invoke", start, end);
            let probe = world.probe.as_ref().expect("traced worlds carry a probe");
            if let Some((entry, exit)) = probe.lock().expect("servant probe").take() {
                rec.record(i, 1, Some(0), "orb.servant", entry, exit);
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = Usage::now().since(usage0);
    report_latencies(out, "rpc_pingpong", &lat_us, ops, wall_s);
    out.metric("payload_mb_per_s", (ops * 8) as f64 / wall_s / 1e6);
    if traced {
        let spans = rec.take();
        check_spans(out, &spans);
        let servant: Vec<&spans::Span> = spans.iter().filter(|s| s.name == "orb.servant").collect();
        let invoke: Vec<&spans::Span> = spans.iter().filter(|s| s.name == "orb.invoke").collect();
        let mut request_leg = Vec::new();
        let mut reply_leg = Vec::new();
        for s in &servant {
            let root = invoke[(s.op) as usize];
            request_leg.push((s.start_ns - root.start_ns) as f64 / 1e3);
            reply_leg.push((root.end_ns - s.end_ns) as f64 / 1e3);
        }
        out.metric(
            "rpc_pingpong.orb.invoke_us",
            median(&mut spans::durations(&spans, "orb.invoke")),
        );
        out.metric("rpc_pingpong.orb.request_leg_us", median(&mut request_leg));
        out.metric(
            "rpc_pingpong.orb.servant_us",
            median(&mut spans::durations(&spans, "orb.servant")),
        );
        out.metric("rpc_pingpong.orb.reply_leg_us", median(&mut reply_leg));
        out.metric("rpc_pingpong.proc.cpu_us_per_op", usage.cpu_us / ops as f64);
        out.metric(
            "rpc_pingpong.proc.ctx_switches_per_op",
            usage.ctx_switches / ops as f64,
        );
    }
    out.metric("peak_rss_mib", host::peak_rss_mib());
    Ok(())
}

pub(crate) fn check_spans(out: &mut Out, spans: &[spans::Span]) {
    if let Err(e) = spans::check_trees(spans) {
        out.fail(format!("span tree: {e}"));
    }
}

/// `rpc_pipelined`: `ops` echo calls over [`PIPELINED_CALLERS`] callers,
/// each keeping [`PIPELINED_WINDOW`] requests submitted and waiting for
/// them in order.
pub fn pipelined(seed: u64, ops: usize, traced: bool, out: &mut Out) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let world = EchoWorld::boot(PIPELINED_ENGINE, traced, &mut rng)?;
    out.metric("setup_s", world.setup_s);
    let per_caller = ops / PIPELINED_CALLERS;
    let ops = per_caller * PIPELINED_CALLERS;
    let caller_seeds: Vec<u64> = (0..PIPELINED_CALLERS).map(|_| rng.next_u64()).collect();
    // Warm the pipeline path once with the workload's own shape.
    let warm = run_callers(&world, &caller_seeds, (per_caller / 50).max(64), None, None);
    for r in warm {
        r.outcomes.into_iter().try_for_each(|o| o)?;
    }

    let rec = Recorder::new(Instant::now());
    let pool0 = pool::stats();
    let coalesce0 = padico_tm::coalesce_stats();
    let usage0 = Usage::now();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (results, (pending, threads)) = std::thread::scope(|scope| {
        // Traced runs sample the pending table and the thread count.
        let sampler = traced.then(|| {
            scope.spawn(|| {
                let mut pending = Vec::new();
                let mut threads: f64 = 0.0;
                while !stop.load(Ordering::Relaxed) {
                    pending.push(world.pending() as f64);
                    threads = threads.max(host::threads());
                    std::thread::sleep(Duration::from_millis(1));
                }
                (pending, threads)
            })
        });
        let results = run_callers(
            &world,
            &caller_seeds,
            per_caller,
            traced.then_some(&rec),
            Some(t0),
        );
        stop.store(true, Ordering::Relaxed);
        let samples = sampler
            .map(|h| h.join().expect("sampler thread"))
            .unwrap_or_default();
        (results, samples)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = Usage::now().since(usage0);
    let pool1 = pool::stats();
    let coalesce1 = padico_tm::coalesce_stats();

    // Latencies merged in completion-time order, so drift compares the
    // start of the run with its end.
    let mut timed: Vec<(f64, f64)> = Vec::with_capacity(ops);
    for r in results {
        for o in r.outcomes {
            out.op(o);
        }
        timed.extend(r.done_at_lat_us);
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lat_us: Vec<f64> = timed.iter().map(|&(_, l)| l).collect();
    report_latencies(out, "rpc_pipelined", &lat_us, ops, wall_s);
    out.metric("payload_mb_per_s", (ops * 8) as f64 / wall_s / 1e6);
    if traced {
        let spans = rec.take();
        check_spans(out, &spans);
        let mut pending = pending;
        let flushes = (coalesce1.flushes - coalesce0.flushes) as f64;
        let frames = (coalesce1.frames_coalesced - coalesce0.frames_coalesced) as f64;
        let hits = (pool1.hits - pool0.hits) as f64;
        let misses = (pool1.misses - pool0.misses) as f64;
        out.metric(
            "rpc_pipelined.orb.submit_us",
            median(&mut spans::durations(&spans, "orb.submit")),
        );
        out.metric(
            "rpc_pipelined.orb.wait_us",
            median(&mut spans::durations(&spans, "orb.wait")),
        );
        out.metric(
            "rpc_pipelined.orb.mux.pending_mean",
            pending.iter().sum::<f64>() / pending.len().max(1) as f64,
        );
        out.metric(
            "rpc_pipelined.orb.mux.pending_peak",
            quantile(&mut pending, 1.0),
        );
        out.metric(
            "rpc_pipelined.tm.coalesce.frames_per_flush",
            ratio(frames, flushes),
        );
        out.metric(
            "rpc_pipelined.fabric.pool.miss_ratio",
            ratio(misses, hits + misses),
        );
        out.metric("rpc_pipelined.proc.threads_peak", threads);
        out.metric(
            "rpc_pipelined.proc.cpu_us_per_op",
            usage.cpu_us / ops as f64,
        );
    }
    out.metric("peak_rss_mib", host::peak_rss_mib());
    Ok(())
}

struct CallerResult {
    outcomes: Vec<Result<(), String>>,
    /// (completion time since the run started, latency), both µs.
    done_at_lat_us: Vec<(f64, f64)>,
}

fn run_callers(
    world: &EchoWorld,
    seeds: &[u64],
    per_caller: usize,
    rec: Option<&Recorder>,
    t0: Option<Instant>,
) -> Vec<CallerResult> {
    let t0 = t0.unwrap_or_else(Instant::now);
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(c, &seed)| {
                let obj = world.obj.clone();
                scope.spawn(move || caller(&obj, c, seed, per_caller, rec, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    })
}

/// One pipelined caller: submit until the window is full, then wait for
/// the oldest request before submitting the next.
fn caller(
    obj: &ObjectRef,
    caller: usize,
    seed: u64,
    n: usize,
    rec: Option<&Recorder>,
    t0: Instant,
) -> CallerResult {
    let mut rng = Rng::new(seed);
    let mut window: VecDeque<(u64, u64, Instant, AsyncReply)> =
        VecDeque::with_capacity(PIPELINED_WINDOW);
    let mut res = CallerResult {
        outcomes: Vec::with_capacity(n),
        done_at_lat_us: Vec::with_capacity(n),
    };
    let mut issued = 0;
    while issued < n || !window.is_empty() {
        if issued < n && window.len() < PIPELINED_WINDOW {
            let v = rng.next_u64();
            let op = (issued * PIPELINED_CALLERS + caller) as u64;
            let start = Instant::now();
            let handle = obj.request("echo").arg_u64(v).idempotent().submit();
            if let Some(rec) = rec {
                rec.record(op, 1, Some(0), "orb.submit", start, Instant::now());
            }
            window.push_back((op, v, start, handle));
            issued += 1;
            continue;
        }
        let (op, v, start, handle) = window.pop_front().expect("window is not empty");
        let wait_start = Instant::now();
        let reply = handle.wait();
        let end = Instant::now();
        if let Some(rec) = rec {
            rec.record(op, 2, Some(0), "orb.wait", wait_start, end);
            rec.record(op, 0, None, "orb.request", start, end);
        }
        res.outcomes.push(check_reply(reply, v));
        res.done_at_lat_us.push((
            (end - t0).as_secs_f64() * 1e6,
            (end - start).as_secs_f64() * 1e6,
        ));
    }
    res
}

/// Seconds from world construction to the first successful call.
pub(crate) fn setup_probe(engine: EngineKind, seed: u64) -> Result<f64, String> {
    EchoWorld::boot(engine, false, &mut Rng::new(seed)).map(|w| w.setup_s)
}
