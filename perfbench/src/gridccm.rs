//! `gridccm_coupling`: the paper's code-coupling shape. Two client ranks
//! collectively invoke a parallel component of three server ranks with a
//! block-distributed f64 sequence (Mico profile, Myrinet), so the 2→3
//! redistribution splits every client block. Each server rank checks its
//! block element by element, sums it, and runs `allreduce` over the
//! component's MPI world; the reply carries the global sum, which must
//! equal its closed form.

use crate::host;
use crate::out::Out;
use crate::rpc::{check_spans, report_latencies};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, ratio};
use crate::{tm_config, Rng};
use padico_core::dist::{DistSeq, Distribution};
use padico_core::error::GridCcmError;
use padico_core::parallel::adapter::{ParArgs, ParCtx, ParallelAdapter, ParallelServant};
use padico_core::parallel::client::ParallelRef;
use padico_core::parallel::wire::ParValue;
use padico_core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico_core::redistribute::schedule_cache_stats;
use padico_fabric::payload::pool;
use padico_fabric::topology::single_cluster;
use padico_fabric::FabricKind;
use padico_mpi::ReduceOp;
use padico_orb::orb::Orb;
use padico_orb::profile::OrbProfile;
use padico_tm::runtime::{EngineKind, PadicoTM};
use padico_tm::selector::FabricChoice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const CLIENTS: usize = 2;
const SERVERS: usize = 3;
/// Elements of the distributed argument: 4 MiB of f64.
const GLOBAL_ELEMS: u64 = 1 << 19;

pub(crate) const ENGINE: EngineKind = EngineKind::Threaded;

fn interface() -> InterfaceDef {
    InterfaceDef {
        repo_id: "IDL:Perf/Couple:1.0".into(),
        ops: vec![OpDef::new(
            "couple",
            vec![ArgDef::new("field", ParamKind::Sequence)],
            Some(ParamKind::Double),
        )],
    }
}

const PAR_XML: &str = r#"
    <parallelism interface="IDL:Perf/Couple:1.0">
      <operation name="couple">
        <argument index="0" distribution="block"/>
      </operation>
    </parallelism>"#;

/// Element `i` of the field: `i + offset`, exact in f64.
fn field(i: u64, offset: u64) -> f64 {
    (i + offset) as f64
}

/// Sum of the whole field in closed form.
pub fn closed_form_total(n: u64, offset: u64) -> f64 {
    (n * offset + n * (n - 1) / 2) as f64
}

/// Wall instants of one server upcall: entry, allreduce start/end, exit.
type UpcallTimes = [Instant; 4];
/// (upcall index on its rank, server rank, times), shared by the ranks.
type UpcallLog = Arc<Mutex<Vec<(u64, usize, UpcallTimes)>>>;
/// One client rank's invocations: start, end, outcome.
type RankLog = Vec<(Instant, Instant, Result<(), String>)>;

struct CoupleServant {
    offset: u64,
    /// Upcalls seen by this server rank; the k-th is invocation k.
    calls: AtomicU64,
    times: Option<UpcallLog>,
}

impl ParallelServant for CoupleServant {
    fn repository_id(&self) -> &str {
        "IDL:Perf/Couple:1.0"
    }

    fn invoke_parallel(
        &self,
        _op: &str,
        args: &ParArgs,
        ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        let entry = Instant::now();
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        let block = args.dist(0)?;
        let (start, end) = Distribution::Block
            .ranges(GLOBAL_ELEMS, ctx.rank, ctx.size)
            .next()
            .unwrap_or((0, 0));
        if block.local_elems() != end - start {
            return Err(GridCcmError::Distribution(format!(
                "rank {} got {} elements, expected {}",
                ctx.rank,
                block.local_elems(),
                end - start
            )));
        }
        let mut sum = 0.0;
        for (j, chunk) in block.data.chunks_exact(8).enumerate() {
            let got = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let i = start + j as u64;
            if got != field(i, self.offset) {
                return Err(GridCcmError::Distribution(format!(
                    "element {i} on rank {} is {got}, expected {}",
                    ctx.rank,
                    field(i, self.offset)
                )));
            }
            sum += got;
        }
        let comm = ctx
            .comm
            .as_ref()
            .ok_or_else(|| GridCcmError::Protocol("server has no MPI world".into()))?;
        let reduce_start = Instant::now();
        let total = comm.allreduce(ReduceOp::Sum, &[sum])?;
        let reduce_end = Instant::now();
        if let Some(times) = &self.times {
            times.lock().expect("upcall times").push((
                k,
                ctx.rank,
                [entry, reduce_start, reduce_end, Instant::now()],
            ));
        }
        Ok(Some(ParValue::F64(total[0])))
    }
}

/// Booted coupling world: server ranks activated, client ranks bound.
struct CouplingWorld {
    _tms: Vec<Arc<PadicoTM>>,
    _server_orbs: Vec<Arc<Orb>>,
    clients: Vec<ClientRank>,
    times: UpcallLog,
    setup_s: f64,
}

struct ClientRank {
    _orb: Arc<Orb>,
    pref: ParallelRef,
    local: DistSeq,
}

impl CouplingWorld {
    fn boot(offset: u64, traced: bool) -> Result<CouplingWorld, String> {
        let t0 = Instant::now();
        let (topo, ids) = single_cluster(SERVERS + CLIENTS);
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), tm_config(ENGINE))
            .map_err(|e| format!("boot: {e}"))?;
        let choice = FabricChoice::Kind(FabricKind::Myrinet);
        let plan = Arc::new(
            InterceptionPlan::compile(&interface(), PAR_XML).map_err(|e| format!("plan: {e}"))?,
        );
        let times = Arc::new(Mutex::new(Vec::new()));
        let server_group: Vec<_> = ids[..SERVERS].to_vec();
        // Each MPI world's ranks must come up together: init every rank
        // of the server world on its own thread.
        let comms = std::thread::scope(|s| {
            let hs: Vec<_> = tms[..SERVERS]
                .iter()
                .map(|tm| {
                    let group = server_group.clone();
                    s.spawn(move || padico_mpi::init_world(tm, "perf-srv", group, choice))
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("mpi init thread"))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("server mpi world: {e}"))?;
        let mut server_orbs = Vec::new();
        let mut iors = Vec::new();
        for (rank, comm) in comms.into_iter().enumerate() {
            let orb = Orb::start(
                Arc::clone(&tms[rank]),
                "perf-srv",
                OrbProfile::mico(),
                choice,
            )
            .map_err(|e| format!("server orb: {e}"))?;
            let servant = CoupleServant {
                offset,
                calls: AtomicU64::new(0),
                times: traced.then(|| Arc::clone(&times)),
            };
            let adapter = ParallelAdapter::new(Arc::new(servant), Arc::clone(&plan));
            adapter.configure(rank, SERVERS, Some(comm));
            iors.push(orb.activate(adapter));
            server_orbs.push(orb);
        }
        let mut clients = Vec::new();
        for rank in 0..CLIENTS {
            let tm = &tms[SERVERS + rank];
            let orb = Orb::start(Arc::clone(tm), "perf-cli", OrbProfile::mico(), choice)
                .map_err(|e| format!("client orb: {e}"))?;
            let replicas = iors.iter().map(|ior| orb.object_ref(ior.clone())).collect();
            let pref = ParallelRef::new("perf-cli", Arc::clone(&plan), replicas, rank, CLIENTS)
                .map_err(|e| format!("parallel ref: {e}"))?;
            let (start, end) = Distribution::Block
                .ranges(GLOBAL_ELEMS, rank, CLIENTS)
                .next()
                .unwrap_or((0, 0));
            let vals: Vec<f64> = (start..end).map(|i| field(i, offset)).collect();
            let local =
                DistSeq::from_f64_local(GLOBAL_ELEMS, Distribution::Block, rank, CLIENTS, &vals)
                    .map_err(|e| format!("local block: {e}"))?;
            clients.push(ClientRank {
                _orb: orb,
                pref,
                local,
            });
        }
        let world = CouplingWorld {
            _tms: tms,
            _server_orbs: server_orbs,
            clients,
            times,
            setup_s: 0.0,
        };
        let expected = closed_form_total(GLOBAL_ELEMS, offset);
        let first = world.invoke_all(1, expected, None);
        for r in first.outcomes {
            r?;
        }
        world.times.lock().expect("upcall times").clear();
        Ok(CouplingWorld {
            setup_s: t0.elapsed().as_secs_f64(),
            ..world
        })
    }

    /// `n` collective invocations, every client rank on its own thread.
    fn invoke_all(&self, n: usize, expected: f64, rec: Option<&Recorder>) -> Collective {
        let barrier = Barrier::new(CLIENTS);
        let per_rank: Vec<RankLog> = std::thread::scope(|s| {
            let hs: Vec<_> = self
                .clients
                .iter()
                .map(|c| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        (0..n)
                            .map(|_| {
                                let start = Instant::now();
                                let r = c
                                    .pref
                                    .invoke("couple", vec![ParValue::Dist(c.local.clone())]);
                                let end = Instant::now();
                                let ok = match r {
                                    Ok(Some(ParValue::F64(t))) if t == expected => Ok(()),
                                    Ok(other) => Err(format!(
                                        "rank {} got total {other:?}, expected {expected}",
                                        c.pref.client_rank()
                                    )),
                                    Err(e) => Err(format!("invoke: {e}")),
                                };
                                (start, end, ok)
                            })
                            .collect()
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("client rank thread"))
                .collect()
        });
        let mut col = Collective::default();
        for k in 0..n {
            let start = per_rank.iter().map(|r| r[k].0).min().expect("ranks");
            let end = per_rank.iter().map(|r| r[k].1).max().expect("ranks");
            col.lat_us.push((end - start).as_secs_f64() * 1e6);
            let mut ok = Ok(());
            for (rank, r) in per_rank.iter().enumerate() {
                if let Some(rec) = rec {
                    rec.record(
                        k as u64,
                        1 + rank as u64,
                        Some(0),
                        "core.invoke",
                        r[k].0,
                        r[k].1,
                    );
                }
                if let Err(e) = &r[k].2 {
                    ok = Err(e.clone());
                }
            }
            if let Some(rec) = rec {
                rec.record(k as u64, 0, None, "gridccm.op", start, end);
            }
            col.outcomes.push(ok);
        }
        col
    }
}

#[derive(Default)]
struct Collective {
    lat_us: Vec<f64>,
    outcomes: Vec<Result<(), String>>,
}

pub fn run(seed: u64, ops: usize, traced: bool, out: &mut Out) -> Result<(), String> {
    let offset = Rng::new(seed).next_u64() % (1 << 20);
    let expected = closed_form_total(GLOBAL_ELEMS, offset);
    let world = CouplingWorld::boot(offset, traced)?;
    out.metric("setup_s", world.setup_s);
    for r in world.invoke_all((ops / 50).max(5), expected, None).outcomes {
        r?;
    }
    world.times.lock().expect("upcall times").clear();

    let rec = Recorder::new(Instant::now());
    let pool0 = pool::stats();
    let cache0 = schedule_cache_stats();
    let wire0 = wire_bytes();
    let t0 = Instant::now();
    let col = world.invoke_all(ops, expected, traced.then_some(&rec));
    let wall_s = t0.elapsed().as_secs_f64();
    let pool1 = pool::stats();
    let cache1 = schedule_cache_stats();
    let wire1 = wire_bytes();
    for o in col.outcomes {
        out.op(o);
    }
    let payload_bytes = GLOBAL_ELEMS * 8;
    report_latencies(out, "gridccm_coupling", &col.lat_us, ops, wall_s);
    out.metric(
        "payload_mb_per_s",
        (payload_bytes * ops as u64) as f64 / wall_s / 1e6,
    );
    if traced {
        // Upcalls run after the warm-up, so the k-th upcall each server
        // rank recorded belongs to timed invocation k.
        let times = std::mem::take(&mut *world.times.lock().expect("upcall times"));
        let base = times.iter().map(|t| t.0).min().unwrap_or(0);
        for (k, rank, [entry, rs, re, exit]) in &times {
            let op = k - base;
            let slot = 1 + CLIENTS as u64 + 2 * *rank as u64;
            rec.record(op, slot, Some(0), "core.upcall", *entry, *exit);
            rec.record(op, slot + 1, Some(slot), "mpi.allreduce", *rs, *re);
        }
        let spans = rec.take();
        check_spans(out, &spans);
        let (mut request_leg, mut reply_leg) = legs(&spans);
        let hits = (pool1.hits - pool0.hits) as f64;
        let misses = (pool1.misses - pool0.misses) as f64;
        let c_hits = (cache1.hits - cache0.hits) as f64;
        let c_misses = (cache1.misses - cache0.misses) as f64;
        out.metric(
            "gridccm_coupling.core.invoke_us",
            median(&mut spans::durations(&spans, "core.invoke")),
        );
        out.metric(
            "gridccm_coupling.core.request_leg_us",
            median(&mut request_leg),
        );
        out.metric(
            "gridccm_coupling.core.upcall_us",
            median(&mut spans::self_times(&spans, "core.upcall")),
        );
        out.metric(
            "gridccm_coupling.mpi.allreduce_us",
            median(&mut spans::durations(&spans, "mpi.allreduce")),
        );
        out.metric("gridccm_coupling.core.reply_leg_us", median(&mut reply_leg));
        out.metric(
            "gridccm_coupling.core.schedule_cache.hit_ratio",
            ratio(c_hits, c_hits + c_misses),
        );
        out.metric(
            "gridccm_coupling.fabric.pool.miss_ratio",
            ratio(misses, hits + misses),
        );
        out.metric(
            "gridccm_coupling.fabric.wire_bytes_per_payload_byte",
            (wire1 - wire0) as f64 / (payload_bytes * ops as u64) as f64,
        );
    }
    out.metric("peak_rss_mib", host::peak_rss_mib());
    Ok(())
}

/// Per operation: first upcall entry minus earliest client start, and
/// latest client return minus last upcall exit.
fn legs(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    use std::collections::BTreeMap;
    let mut by_op: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_op.entry(s.op).or_insert((0, 0, u64::MAX, 0));
        match s.name {
            "gridccm.op" => {
                e.0 = s.start_ns;
                e.1 = s.end_ns;
            }
            "core.upcall" => {
                e.2 = e.2.min(s.start_ns);
                e.3 = e.3.max(s.end_ns);
            }
            _ => {}
        }
    }
    let mut req = Vec::new();
    let mut rep = Vec::new();
    for (start, end, first_entry, last_exit) in by_op.into_values() {
        if first_entry != u64::MAX {
            req.push(first_entry.saturating_sub(start) as f64 / 1e3);
            rep.push(end.saturating_sub(last_exit) as f64 / 1e3);
        }
    }
    (req, rep)
}

/// Bytes every fabric has put on the wire so far (`bytes.<kind>`).
fn wire_bytes() -> u64 {
    let snap = padico_util::metrics::snapshot();
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("bytes."))
        .map(|(_, v)| *v)
        .sum()
}

pub(crate) fn setup_probe(seed: u64) -> Result<f64, String> {
    let offset = Rng::new(seed).next_u64() % (1 << 20);
    CouplingWorld::boot(offset, false).map(|w| w.setup_s)
}
