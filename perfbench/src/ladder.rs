//! The layer ladder: the same echo round trip at each rung of the stack,
//! single caller, `EngineKind::Threaded`, at 8 B and 64 KiB. Each rung
//! boots its own two-node world so no rung inherits another's history.
//!
//! | rung         | round trip through                                   |
//! |--------------|------------------------------------------------------|
//! | `fabric`     | `FabricEndpoint::send` / `recv` on Myrinet           |
//! | `tm.circuit` | `Circuit::send` / `recv`                             |
//! | `tm.vlink`   | `VLinkStream::write_payload` / `read_frame`          |
//! | `mpi`        | `Communicator::send_bytes` / `recv_bytes` (Circuit)  |
//! | `orb`        | omniORB two-way `echo` of an octet sequence (VLink)  |
//! | `core`       | GridCCM `ParallelRef` 1→1 block echo (ORB)           |
//!
//! A layer's self time is its rung minus the rung it sits on.

use crate::host::Usage;
use crate::out::Out;
use crate::stats::{drift, median};
use crate::tm_config;
use bytes::Bytes;
use padico_core::dist::{DistSeq, Distribution};
use padico_core::error::GridCcmError;
use padico_core::parallel::adapter::{ParArgs, ParCtx, ParallelAdapter, ParallelServant};
use padico_core::parallel::client::ParallelRef;
use padico_core::parallel::wire::ParValue;
use padico_core::paridl::{ArgDef, InterceptionPlan, InterfaceDef, OpDef, ParamKind};
use padico_fabric::topology::single_cluster;
use padico_fabric::{FabricKind, Payload};
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::Orb;
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::profile::OrbProfile;
use padico_orb::OrbError;
use padico_tm::circuit::CircuitSpec;
use padico_tm::runtime::{EngineKind, PadicoTM};
use padico_tm::selector::FabricChoice;
use padico_util::ids::ChannelId;
use padico_util::SimClock;
use std::sync::Arc;
use std::time::Instant;

pub const RUNGS: [&str; 6] = ["fabric", "tm.circuit", "tm.vlink", "mpi", "orb", "core"];
/// (label, bytes, timed round trips)
pub const SIZES: [(&str, usize, usize); 2] = [("8B", 8, 3000), ("64KiB", 64 << 10, 600)];
/// Rung each rung sits on, for self times.
pub const BELOW: [(&str, &str); 5] = [
    ("tm.circuit", "fabric"),
    ("tm.vlink", "tm.circuit"),
    ("mpi", "tm.circuit"),
    ("orb", "tm.vlink"),
    ("core", "orb"),
];

const MYRINET: FabricChoice = FabricChoice::Kind(FabricKind::Myrinet);

struct RungResult {
    lat_us: Vec<f64>,
    usage: Usage,
}

/// Warm up, then time `n` round trips one by one.
fn measure(
    n: usize,
    payload: &Bytes,
    mut rt: impl FnMut(&Bytes) -> Result<(), String>,
) -> Result<RungResult, String> {
    for _ in 0..(n / 20).max(20) {
        rt(payload)?;
    }
    let mut lat_us = Vec::with_capacity(n);
    let u0 = Usage::now();
    for _ in 0..n {
        let t = Instant::now();
        rt(payload)?;
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(RungResult {
        lat_us,
        usage: Usage::now().since(u0),
    })
}

fn expect_len(got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("echo returned {got} bytes, sent {want}"))
    }
}

fn boot(nodes: usize) -> Result<Vec<Arc<PadicoTM>>, String> {
    let (topo, _ids) = single_cluster(nodes);
    PadicoTM::boot_all_with_config(Arc::new(topo), tm_config(EngineKind::Threaded))
        .map_err(|e| format!("boot: {e}"))
}

fn fabric_rung(n: usize, payload: &Bytes) -> Result<RungResult, String> {
    let (topo, ids) = single_cluster(2);
    let fab = topo
        .fabrics()
        .iter()
        .find(|f| f.kind() == FabricKind::Myrinet)
        .ok_or("no Myrinet fabric")?
        .clone();
    let a = fab.attach(ids[0], "ladder").map_err(|e| e.to_string())?;
    let b = fab.attach(ids[1], "ladder").map_err(|e| e.to_string())?;
    let ch = ChannelId(1);
    let (ca, cb) = (SimClock::new(), SimClock::new());
    std::thread::scope(|s| {
        let echo = s.spawn(|| loop {
            let Ok(m) = b.recv(&cb) else { return };
            if m.payload.is_empty() || b.send(&cb, m.src, m.channel, m.payload).is_err() {
                return;
            }
        });
        let rt = |p: &Bytes| {
            a.send(&ca, b.addr(), ch, Payload::from_bytes(p.clone()))
                .map_err(|e| e.to_string())?;
            let m = a.recv(&ca).map_err(|e| e.to_string())?;
            expect_len(m.payload.len(), p.len())
        };
        let r = measure(n, payload, rt);
        let _ = a.send(&ca, b.addr(), ch, Payload::new());
        echo.join().expect("fabric echo thread");
        r
    })
}

const STOP: u64 = u64::MAX;

fn circuit_rung(n: usize, payload: &Bytes) -> Result<RungResult, String> {
    let tms = boot(2)?;
    let ids: Vec<_> = tms.iter().map(|t| t.node()).collect();
    let spec = CircuitSpec::new("ladder", ids).with_choice(MYRINET);
    let c0 = tms[0].circuit(spec.clone()).map_err(|e| e.to_string())?;
    let c1 = tms[1].circuit(spec).map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let echo = s.spawn(|| {
            while let Ok((_src, h, p)) = c1.recv() {
                if h == STOP || c1.send(0, h, p).is_err() {
                    return;
                }
            }
        });
        let rt = |p: &Bytes| {
            c0.send(1, 0, Payload::from_bytes(p.clone()))
                .map_err(|e| e.to_string())?;
            let (_src, _h, back) = c0.recv().map_err(|e| e.to_string())?;
            expect_len(back.len(), p.len())
        };
        let r = measure(n, payload, rt);
        // A small frame waits in the coalescing batch until flushed.
        let _ = c0.send(1, STOP, Payload::new()).and_then(|()| c0.flush());
        echo.join().expect("circuit echo thread");
        r
    })
}

fn vlink_rung(n: usize, payload: &Bytes) -> Result<RungResult, String> {
    let tms = boot(2)?;
    let listener = tms[1].vlink_listen("ladder").map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || {
            let Ok(stream) = listener.accept() else {
                return;
            };
            while let Ok(Some(frame)) = stream.read_frame() {
                if stream.write_payload(frame).is_err() {
                    return;
                }
            }
        });
        let stream = tms[0]
            .vlink_connect(tms[1].node(), "ladder", MYRINET)
            .map_err(|e| e.to_string())?;
        let rt = |p: &Bytes| {
            stream
                .write_payload(Payload::from_bytes(p.clone()))
                .map_err(|e| e.to_string())?;
            // The stream may cut a large write into several frames.
            let mut got = 0;
            while got < p.len() {
                match stream.read_frame().map_err(|e| e.to_string())? {
                    Some(f) => got += f.len(),
                    None => return Err("stream closed".into()),
                }
            }
            expect_len(got, p.len())
        };
        let r = measure(n, payload, rt);
        let _ = stream.close();
        echo.join().expect("vlink echo thread");
        r
    })
}

fn mpi_rung(n: usize, payload: &Bytes) -> Result<RungResult, String> {
    let tms = boot(2)?;
    let group: Vec<_> = tms.iter().map(|t| t.node()).collect();
    let c0 = padico_mpi::init_world(&tms[0], "ladder", group.clone(), MYRINET)
        .map_err(|e| e.to_string())?;
    let c1 =
        padico_mpi::init_world(&tms[1], "ladder", group, MYRINET).map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let echo = s.spawn(|| {
            while let Ok((_st, p)) = c1.recv_bytes(0, 1) {
                if p.is_empty() || c1.send_bytes(0, 1, p).is_err() {
                    return;
                }
            }
        });
        let rt = |p: &Bytes| {
            c0.send_bytes(1, 1, Payload::from_bytes(p.clone()))
                .map_err(|e| e.to_string())?;
            let (_st, back) = c0.recv_bytes(1, 1).map_err(|e| e.to_string())?;
            expect_len(back.len(), p.len())
        };
        let r = measure(n, payload, rt);
        let _ = c0.send_bytes(1, 1, Payload::new());
        echo.join().expect("mpi echo thread");
        r
    })
}

struct OctetEcho;

impl Servant for OctetEcho {
    fn repository_id(&self) -> &str {
        "IDL:Perf/OctetEcho:1.0"
    }

    fn dispatch(
        &self,
        _op: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        reply.write_octet_seq(args.read_octet_seq()?);
        Ok(())
    }
}

fn orb_rung(n: usize, payload: &Bytes) -> Result<RungResult, String> {
    let tms = boot(2)?;
    let client = Orb::start(
        Arc::clone(&tms[0]),
        "ladder",
        OrbProfile::omniorb3(),
        MYRINET,
    )
    .map_err(|e| e.to_string())?;
    let server = Orb::start(
        Arc::clone(&tms[1]),
        "ladder",
        OrbProfile::omniorb3(),
        MYRINET,
    )
    .map_err(|e| e.to_string())?;
    let obj = client.object_ref(server.activate(Arc::new(OctetEcho)));
    let rt = |p: &Bytes| {
        let mut r = obj
            .request("echo")
            .arg_octet_seq(p.clone())
            .invoke()
            .map_err(|e| e.to_string())?;
        expect_len(
            r.read_octet_seq().map_err(|e| e.to_string())?.len(),
            p.len(),
        )
    };
    measure(n, payload, rt)
}

struct BlockEcho;

impl ParallelServant for BlockEcho {
    fn repository_id(&self) -> &str {
        "IDL:Perf/BlockEcho:1.0"
    }

    fn invoke_parallel(
        &self,
        _op: &str,
        args: &ParArgs,
        _ctx: &ParCtx,
    ) -> Result<Option<ParValue>, GridCcmError> {
        Ok(Some(ParValue::Dist(args.dist(0)?.clone())))
    }
}

fn core_rung(n: usize, payload: &Bytes) -> Result<RungResult, String> {
    let interface = InterfaceDef {
        repo_id: "IDL:Perf/BlockEcho:1.0".into(),
        ops: vec![OpDef::new(
            "echo",
            vec![ArgDef::new("v", ParamKind::Sequence)],
            Some(ParamKind::Sequence),
        )],
    };
    let xml = r#"<parallelism interface="IDL:Perf/BlockEcho:1.0">
        <operation name="echo">
          <argument index="0" distribution="block"/>
          <result distribution="block"/>
        </operation>
    </parallelism>"#;
    let plan = Arc::new(InterceptionPlan::compile(&interface, xml).map_err(|e| e.to_string())?);
    let tms = boot(2)?;
    let server = Orb::start(
        Arc::clone(&tms[1]),
        "ladder",
        OrbProfile::omniorb3(),
        MYRINET,
    )
    .map_err(|e| e.to_string())?;
    let adapter = ParallelAdapter::new(Arc::new(BlockEcho), Arc::clone(&plan));
    adapter.configure(0, 1, None);
    let ior = server.activate(adapter);
    let client = Orb::start(
        Arc::clone(&tms[0]),
        "ladder-c",
        OrbProfile::omniorb3(),
        MYRINET,
    )
    .map_err(|e| e.to_string())?;
    let pref = ParallelRef::new("ladder", plan, vec![client.object_ref(ior)], 0, 1)
        .map_err(|e| e.to_string())?;
    let elems = (payload.len() / 8) as u64;
    let local = DistSeq::from_local(8, elems, Distribution::Block, 0, 1, payload.clone())
        .map_err(|e| e.to_string())?;
    let rt = |p: &Bytes| match pref.invoke("echo", vec![ParValue::Dist(local.clone())]) {
        Ok(Some(ParValue::Dist(d))) => expect_len(d.data.len(), p.len()),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(e.to_string()),
    };
    measure(n, payload, rt)
}

/// Run every rung at both sizes and report `<rung>.rt_us.<size>`,
/// `<rung>.cpu_us_per_rt.<size>`, `<rung>.ctx_switches_per_rt.<size>`,
/// the self times, and `fabric.rt_drift.8B`.
pub fn run(out: &mut Out) -> Result<(), String> {
    for (label, bytes, n) in SIZES {
        let payload = Bytes::from((0..bytes).map(|i| i as u8).collect::<Vec<u8>>());
        for rung in RUNGS {
            let r = match rung {
                "fabric" => fabric_rung(n, &payload),
                "tm.circuit" => circuit_rung(n, &payload),
                "tm.vlink" => vlink_rung(n, &payload),
                "mpi" => mpi_rung(n, &payload),
                "orb" => orb_rung(n, &payload),
                _ => core_rung(n, &payload),
            };
            let r = r.map_err(|e| format!("{rung} {label}: {e}"))?;
            out.attempted += (r.lat_us.len()) as u64;
            if rung == "fabric" && label == "8B" {
                out.metric("fabric.rt_drift.8B", drift(&r.lat_us));
            }
            let mut lat = r.lat_us;
            out.metric(format!("{rung}.rt_us.{label}"), median(&mut lat));
            out.metric(
                format!("{rung}.cpu_us_per_rt.{label}"),
                r.usage.cpu_us / n as f64,
            );
            out.metric(
                format!("{rung}.ctx_switches_per_rt.{label}"),
                r.usage.ctx_switches / n as f64,
            );
        }
        for (upper, lower) in BELOW {
            let up = out
                .get(&format!("{upper}.rt_us.{label}"))
                .unwrap_or(f64::NAN);
            let low = out
                .get(&format!("{lower}.rt_us.{label}"))
                .unwrap_or(f64::NAN);
            out.metric(format!("{upper}.self_us.{label}"), up - low);
        }
    }
    Ok(())
}
