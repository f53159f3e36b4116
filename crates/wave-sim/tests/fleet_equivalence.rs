//! Property tests for the conservative windowed fleet executor
//! ([`wave_sim::fleet::FleetExecutor`]) against a naive merged-clock
//! reference: one global delivery list over all hosts, popped in
//! `(time, src, seq)` order — the semantics a single sequential
//! simulator with one shared clock would produce.
//!
//! The windowed executor must reproduce that order *exactly*, for any
//! worker count, any lookahead, and any transit jitter, because every
//! cross-host message takes at least the lookahead to arrive. Random
//! message cascades (payload-derived fan-out and delays) exercise
//! same-timestamp collisions, multi-hop chains, and queueing reorders
//! that the fixed-case unit tests cannot enumerate.

use proptest::prelude::*;
use wave_sim::fleet::{Envelope, FleetExecutor, FleetHost, Outbound, Transit, UniformTransit};
use wave_sim::SimTime;

/// splitmix64 finalizer: the deterministic mixer driving the cascade.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg {
    value: u64,
    ttl: u32,
}

/// Shared cascade logic: fold a delivery into the host accumulator and,
/// while TTL remains, emit a follow-up to a state-derived destination.
/// Both the windowed host and the merged-clock reference call this, so
/// any divergence is the executor's ordering, not the model's.
#[derive(Debug, Clone)]
struct Model {
    n: u32,
    acc: u64,
    log: Vec<u64>,
}

impl Model {
    fn new(idx: u32, n: u32) -> Self {
        Model {
            n,
            acc: mix(idx as u64),
            log: Vec::new(),
        }
    }

    fn deliver(&mut self, at: SimTime, src: u32, m: Msg, out: &mut Vec<Outbound<Msg>>) {
        self.acc = mix(self.acc ^ mix(src as u64) ^ m.value ^ at.as_ns());
        self.log.push(self.acc);
        if m.ttl > 0 {
            out.push(Outbound {
                sent: at,
                dst: (self.acc >> 8) as u32 % self.n,
                msg: Msg {
                    value: mix(self.acc),
                    ttl: m.ttl - 1,
                },
            });
        }
    }
}

/// Windowed-executor host: processes the window's inbox (already in
/// `(at, src, seq)` order) at the delivered timestamps. It has no local
/// events, so the executor advances it only in windows that deliver to
/// it.
struct Host(Model);

impl FleetHost for Host {
    type Msg = Msg;

    fn advance(
        &mut self,
        _horizon: SimTime,
        inbox: &mut Vec<Envelope<Msg>>,
        outbox: &mut Vec<Outbound<Msg>>,
    ) -> u64 {
        let n = inbox.len() as u64;
        for e in inbox.drain(..) {
            self.0.deliver(e.at, e.src, e.msg, outbox);
        }
        n
    }

    fn next_event(&self) -> Option<SimTime> {
        None
    }
}

/// Payload-derived delivery jitter on top of the base latency: the
/// adversarial transit for ordering tests, since two messages sent in
/// one order can arrive in the other.
struct JitterTransit {
    base: SimTime,
    spread_ns: u64,
}

impl Transit<Msg> for JitterTransit {
    fn deliver_at(&mut self, _src: u32, send: &Outbound<Msg>) -> SimTime {
        send.sent + self.base + SimTime::from_ns(mix(send.msg.value) % (self.spread_ns + 1))
    }
}

type Seed = (SimTime, u32, u32, Msg);

fn seeds_for(case: u64, n: u32) -> Vec<Seed> {
    let k = 2 + (mix(case) % 6);
    (0..k)
        .map(|i| {
            let r = mix(case ^ mix(i));
            (
                SimTime::from_ns(r % 5_000),
                (r >> 16) as u32 % n,
                (r >> 24) as u32 % n,
                Msg {
                    value: mix(r),
                    ttl: 2 + (r % 5) as u32,
                },
            )
        })
        .collect()
}

/// The merged-clock reference: one flat in-flight list, always popping
/// the globally earliest `(at, src, seq)` delivery. Deliberately naive
/// (linear min scan) so it is trustworthy by inspection.
fn reference_run(
    n: u32,
    seeds: &[Seed],
    transit: &mut impl Transit<Msg>,
    end: SimTime,
) -> Vec<Vec<u64>> {
    let mut models: Vec<Model> = (0..n).map(|i| Model::new(i, n)).collect();
    let mut emit_seq = vec![0u64; n as usize];
    let mut inflight: Vec<Envelope<Msg>> = Vec::new();
    for &(at, src, dst, msg) in seeds {
        let seq = emit_seq[src as usize];
        emit_seq[src as usize] += 1;
        inflight.push(Envelope {
            at,
            src,
            seq,
            dst,
            msg,
        });
    }
    let mut out = Vec::new();
    while let Some(i) = inflight
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.at, e.src, e.seq))
        .map(|(i, _)| i)
    {
        let e = inflight.swap_remove(i);
        if e.at >= end {
            continue;
        }
        models[e.dst as usize].deliver(e.at, e.src, e.msg, &mut out);
        for send in out.drain(..) {
            let src = e.dst;
            let seq = emit_seq[src as usize];
            emit_seq[src as usize] += 1;
            let at = transit.deliver_at(src, &send);
            inflight.push(Envelope {
                at,
                src,
                seq,
                dst: send.dst,
                msg: send.msg,
            });
        }
    }
    models.into_iter().map(|m| m.log).collect()
}

fn windowed_run(
    n: u32,
    workers: usize,
    seeds: &[Seed],
    transit: &mut impl Transit<Msg>,
    lookahead: SimTime,
    end: SimTime,
) -> Vec<Vec<u64>> {
    let hosts = (0..n).map(|i| Host(Model::new(i, n))).collect();
    let mut ex = FleetExecutor::new(hosts, lookahead, workers);
    for &(at, src, dst, msg) in seeds {
        ex.seed_message(at, src, dst, msg);
    }
    ex.run_until(end, transit);
    ex.into_hosts().into_iter().map(|h| h.0.log).collect()
}

const END: SimTime = SimTime::from_us(400);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn windowed_matches_merged_clock_for_any_worker_count(
        case in 0u64..u64::MAX,
        n in 2u32..9,
        workers in 1usize..5,
        lookahead_us in 1u64..5,
    ) {
        let l = SimTime::from_us(lookahead_us);
        let seeds = seeds_for(case, n);
        let reference = reference_run(n, &seeds, &mut UniformTransit { latency: l }, END);
        let windowed = windowed_run(n, workers, &seeds, &mut UniformTransit { latency: l }, l, END);
        prop_assert_eq!(reference, windowed);
    }

    #[test]
    fn windowed_matches_merged_clock_under_transit_jitter(
        case in 0u64..u64::MAX,
        n in 2u32..7,
        workers in 1usize..4,
        spread_ns in 0u64..3_000,
    ) {
        // Jitter above the base keeps the lookahead contract (delivery
        // ≥ sent + base) while scrambling arrival order relative to
        // send order — the case a non-deterministic executor fails.
        let l = SimTime::from_us(3);
        let seeds = seeds_for(case ^ 0x5eed, n);
        let mut t1 = JitterTransit { base: l, spread_ns };
        let mut t2 = JitterTransit { base: l, spread_ns };
        let reference = reference_run(n, &seeds, &mut t1, END);
        let windowed = windowed_run(n, workers, &seeds, &mut t2, l, END);
        prop_assert_eq!(reference, windowed);
    }

    #[test]
    fn lookahead_width_is_invisible_in_results(
        case in 0u64..u64::MAX,
        n in 2u32..7,
        wide_us in 2u64..12,
    ) {
        // The window width is a performance knob, not a semantic one:
        // any lookahead ≤ the true minimum latency gives the same
        // result. Run the fabric at latency `wide` but execute with
        // both the tight and the exact window.
        let wide = SimTime::from_us(wide_us);
        let seeds = seeds_for(case ^ 0x71de_0000_0000_0000, n);
        let tight = windowed_run(
            n, 2, &seeds, &mut UniformTransit { latency: wide }, SimTime::from_us(1), END,
        );
        let exact = windowed_run(
            n, 2, &seeds, &mut UniformTransit { latency: wide }, wide, END,
        );
        prop_assert_eq!(tight, exact);
    }
}
