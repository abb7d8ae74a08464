//! `world_ring`: tokens circulating a 100k-node ring on the world
//! scheduler (`EngineKind::EventLoop`). Each hop is one scheduler event:
//! the node's channel handler forwards the token to its successor with
//! `NetAccess::send`. The RPC layers are not involved.

use crate::host;
use crate::out::Out;
use crate::stats::{median, quantile};
use crate::{tm_config, Rng};
use padico_fabric::topology::Topology;
use padico_fabric::{presets, Payload, SecurityZone};
use padico_tm::{EngineKind, PadicoTM};
use padico_util::ids::{ChannelId, NodeId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const NODES: usize = 100_000;
pub const TOKENS: usize = 256;
const CHANNEL: ChannelId = ChannelId(0x5045_5246_5249_4e47); // "PERFRING"
/// Upper bound of the per-hop virtual-time jitter (ns), so the heaps
/// reorder events rather than run FIFO.
const JITTER_NS: u64 = 500;
const QUIESCE_WAIT: Duration = Duration::from_secs(150);

pub(crate) const ENGINE: EngineKind = EngineKind::EventLoop;

/// Wire format of a token: hops left, token id, wall ns (since the run
/// epoch) at which the previous hop sent it.
fn token_wire(hops_left: u64, token: u64, sent_ns: u64) -> Payload {
    let mut wire = Vec::with_capacity(24);
    wire.extend_from_slice(&hops_left.to_le_bytes());
    wire.extend_from_slice(&token.to_le_bytes());
    wire.extend_from_slice(&sent_ns.to_le_bytes());
    Payload::from_vec(wire)
}

/// Shared by every handler of one run.
struct Tally {
    epoch: Instant,
    hops: u64,
    retired: AtomicU64,
    /// Raised when `retired` reaches `last`, so the injecting thread can
    /// sleep through the run instead of polling the scheduler.
    last: AtomicU64,
    all_retired: Mutex<bool>,
    all_retired_cv: Condvar,
    /// Per event (token × hop): wall ns from the previous hop's send to
    /// this handler's entry.
    post_to_dispatch_ns: Vec<AtomicU32>,
    /// Traced runs only: handler and send wall time.
    traced: bool,
    handler_ns: AtomicU64,
    send_ns: AtomicU64,
    bad: AtomicU64,
}

struct RingWorld {
    topo: Arc<Topology>,
    tms: Vec<Arc<PadicoTM>>,
    ids: Vec<NodeId>,
    tally: Arc<Tally>,
    boot_s: f64,
    on_channel_s: f64,
    setup_s: f64,
}

impl RingWorld {
    /// Boot the ring and deliver one probe token (zero hops).
    fn boot(tokens: usize, hops: u64, traced: bool) -> Result<RingWorld, String> {
        let t0 = Instant::now();
        let mut b = Topology::builder();
        let ids = b.machine("w", "perf-ring", NODES, SecurityZone::Trusted);
        b.fabric(presets::ethernet100(), ids.clone());
        let topo = Arc::new(b.build());
        let tms = PadicoTM::boot_all_with_config(Arc::clone(&topo), tm_config(ENGINE))
            .map_err(|e| format!("boot: {e}"))?;
        let boot_s = t0.elapsed().as_secs_f64();
        let events = tokens * (hops as usize + 1);
        let tally = Arc::new(Tally {
            epoch: t0,
            hops,
            retired: AtomicU64::new(0),
            last: AtomicU64::new(1),
            all_retired: Mutex::new(false),
            all_retired_cv: Condvar::new(),
            post_to_dispatch_ns: (0..events).map(|_| AtomicU32::new(0)).collect(),
            traced,
            handler_ns: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            bad: AtomicU64::new(0),
        });
        let fabric = topo.fabrics()[0].id();
        let t1 = Instant::now();
        for (i, tm) in tms.iter().enumerate() {
            let net = Arc::clone(tm.net());
            let clock = tm.clock().share();
            let next = ids[(i + 1) % NODES];
            let tally = Arc::clone(&tally);
            tm.net()
                .on_channel(
                    CHANNEL,
                    Arc::new(move |msg| {
                        let entry = Instant::now();
                        msg.deliver(&clock);
                        let bytes = msg.payload.to_vec();
                        let word = |k: usize| {
                            u64::from_le_bytes(bytes[8 * k..8 * k + 8].try_into().expect("8 bytes"))
                        };
                        let (hops_left, token, sent_ns) = (word(0), word(1), word(2));
                        let now_ns = (entry - tally.epoch).as_nanos() as u64;
                        // Tokens past the probe carry ids 1..=tokens.
                        if token >= 1 && hops_left <= tally.hops {
                            let idx = (token - 1) * (tally.hops + 1) + (tally.hops - hops_left);
                            if let Some(slot) = tally.post_to_dispatch_ns.get(idx as usize) {
                                let ns = now_ns.saturating_sub(sent_ns).min(u64::from(u32::MAX));
                                slot.store(ns as u32, Ordering::Relaxed);
                            }
                        }
                        if hops_left == 0 {
                            let n = tally.retired.fetch_add(1, Ordering::Relaxed) + 1;
                            if n == tally.last.load(Ordering::Relaxed) {
                                *tally.all_retired.lock().expect("retire flag") = true;
                                tally.all_retired_cv.notify_all();
                            }
                        } else {
                            clock.advance(net.cell().jitter(JITTER_NS));
                            let send_start = Instant::now();
                            let sent = (send_start - tally.epoch).as_nanos() as u64;
                            if net
                                .send(
                                    fabric,
                                    next,
                                    CHANNEL,
                                    token_wire(hops_left - 1, token, sent),
                                )
                                .is_err()
                            {
                                tally.bad.fetch_add(1, Ordering::Relaxed);
                            }
                            if tally.traced {
                                tally.send_ns.fetch_add(
                                    send_start.elapsed().as_nanos() as u64,
                                    Ordering::Relaxed,
                                );
                            }
                        }
                        if tally.traced {
                            tally
                                .handler_ns
                                .fetch_add(entry.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                    }),
                )
                .map_err(|e| format!("on_channel: {e}"))?;
        }
        let on_channel_s = t1.elapsed().as_secs_f64();
        let world = RingWorld {
            topo,
            tms,
            ids,
            tally,
            boot_s,
            on_channel_s,
            setup_s: 0.0,
        };
        world.inject(0, 0, 0)?;
        world.wait_retired()?;
        if world.tally.retired.swap(0, Ordering::Relaxed) != 1 {
            return Err("probe token was not delivered".into());
        }
        world.tally.handler_ns.store(0, Ordering::Relaxed);
        world.tally.send_ns.store(0, Ordering::Relaxed);
        Ok(RingWorld {
            setup_s: t0.elapsed().as_secs_f64(),
            ..world
        })
    }

    fn inject(&self, src: usize, token: u64, hops: u64) -> Result<(), String> {
        let fabric = self.topo.fabrics()[0].id();
        let sent = (Instant::now() - self.tally.epoch).as_nanos() as u64;
        self.tms[src]
            .net()
            .send(
                fabric,
                self.ids[(src + 1) % NODES],
                CHANNEL,
                token_wire(hops, token, sent),
            )
            .map(|_| ())
            .map_err(|e| format!("inject: {e}"))
    }

    /// Block until the last expected token retires, then until the
    /// scheduler is idle.
    fn wait_retired(&self) -> Result<(), String> {
        let deadline = Instant::now() + QUIESCE_WAIT;
        let mut done = self.tally.all_retired.lock().expect("retire flag");
        while !*done {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("tokens did not retire in time".into());
            }
            done = self
                .tally
                .all_retired_cv
                .wait_timeout(done, left)
                .expect("retire flag")
                .0;
        }
        *done = false;
        drop(done);
        self.quiesce()
    }

    fn quiesce(&self) -> Result<(), String> {
        if self.topo.sched().quiesce(QUIESCE_WAIT) {
            Ok(())
        } else {
            Err("world scheduler did not quiesce".into())
        }
    }
}

/// Hops per token for `events` scheduler events in total.
fn hops_for(events: usize) -> u64 {
    ((events / TOKENS).max(2) - 1) as u64
}

/// Rounds one run is split into. The ring's cost does not grow with
/// history, so every round does the same work and the end-to-end
/// figures are medians over rounds: a host stall then moves one round,
/// not the result.
pub const ROUNDS: usize = 5;

pub fn run(seed: u64, events: usize, traced: bool, out: &mut Out) -> Result<(), String> {
    let hops = hops_for(events / ROUNDS);
    let world = RingWorld::boot(TOKENS, hops, traced)?;
    out.metric("setup_s", world.setup_s);
    let mut rng = Rng::new(seed);
    let sched = world.topo.sched();
    let before = sched.stats();
    world.tally.last.store(TOKENS as u64, Ordering::Relaxed);
    let (mut rates, mut p50, mut p90, mut p99) = (vec![], vec![], vec![], vec![]);
    let mut wall_s = 0.0;
    for _ in 0..ROUNDS {
        // Seeded, distinct injection points.
        let mut sources = std::collections::BTreeSet::new();
        while sources.len() < TOKENS {
            sources.insert((rng.next_u64() % NODES as u64) as usize);
        }
        let t0 = Instant::now();
        for (t, &src) in sources.iter().enumerate() {
            world.inject(src, t as u64 + 1, hops)?;
        }
        world.wait_retired()?;
        let round_s = t0.elapsed().as_secs_f64();
        wall_s += round_s;
        let retired = world.tally.retired.swap(0, Ordering::Relaxed);
        for t in 0..TOKENS as u64 {
            out.op(if t < retired {
                Ok(())
            } else {
                Err(format!("only {retired} of {TOKENS} tokens retired"))
            });
        }
        if retired > TOKENS as u64 {
            out.fail(format!("{retired} tokens retired, {TOKENS} injected"));
        }
        let mut lat_us: Vec<f64> = world
            .tally
            .post_to_dispatch_ns
            .iter()
            .map(|a| f64::from(a.load(Ordering::Relaxed)) / 1e3)
            .collect();
        rates.push((TOKENS as u64 * (hops + 1)) as f64 / round_s);
        p50.push(quantile(&mut lat_us, 0.5));
        p90.push(quantile(&mut lat_us, 0.9));
        p99.push(quantile(&mut lat_us, 0.99));
    }
    let after = sched.stats();

    let events = after.delivered - before.delivered;
    let expected_events = (ROUNDS * TOKENS) as u64 * (hops + 1);
    if events != expected_events {
        out.fail(format!(
            "{events} events delivered, expected {expected_events}"
        ));
    }
    let bad = world.tally.bad.load(Ordering::Relaxed);
    if bad > 0 {
        out.fail(format!("{bad} forwarding sends failed"));
    }

    let ops_per_s = median(&mut rates);
    out.metric("ops_per_s", ops_per_s);
    out.metric("latency_p50_us", median(&mut p50));
    out.metric("latency_p90_us", median(&mut p90));
    out.metric("world_ring.latency_p99_us", median(&mut p99));
    out.metric("world_ring.latency_samples", events as f64);
    out.metric("payload_mb_per_s", ops_per_s * 24.0 / 1e6);
    if traced {
        let handler_ns = world.tally.handler_ns.load(Ordering::Relaxed) as f64;
        let send_ns = world.tally.send_ns.load(Ordering::Relaxed) as f64;
        let batches = (after.lane_samples + after.lane_dropped)
            .saturating_sub(before.lane_samples + before.lane_dropped) as f64;
        let ev = events as f64;
        out.metric("world_ring.world.handler_ns_per_event", handler_ns / ev);
        // One send per forwarding hop: `hops` of every token's hops+1.
        out.metric(
            "world_ring.fabric.send_ns",
            send_ns / ((ROUNDS * TOKENS) as f64 * hops as f64),
        );
        out.metric(
            "world_ring.fabric.sched.overhead_ns_per_event",
            (wall_s * 1e9 * after.workers as f64 - handler_ns) / ev,
        );
        out.metric("world_ring.fabric.sched.mean_batch", ev / batches.max(1.0));
        out.metric("world_ring.tm.boot_s", world.boot_s);
        out.metric("world_ring.tm.on_channel_s", world.on_channel_s);
    }
    out.info(
        "world_ring.shape",
        format!("nodes={NODES} tokens={TOKENS} hops={hops} rounds={ROUNDS}"),
    );
    out.metric("peak_rss_mib", host::peak_rss_mib());
    Ok(())
}

/// Seconds from world construction to the first delivered event, for a
/// run of `events` events (the latency table is sized up front).
pub(crate) fn setup_probe(events: usize) -> Result<f64, String> {
    RingWorld::boot(TOKENS, hops_for(events / ROUNDS), false).map(|w| w.setup_s)
}
