//! Streaming workload generation for both resource agents.
//!
//! Everything the reproduction used to run was synthetic: open-loop
//! Poisson arrivals at a fixed offered rate plus a static service-time
//! mix, wired directly into the scheduler's config as loose
//! `mix`/`offered` fields. This module makes workload generation a
//! first-class streaming abstraction:
//!
//! * [`WorkloadSource`] — the trait every generator implements. The
//!   scheduler pulls one [`WorkloadEvent`] per arrival: absolute arrival
//!   time, CPU service demand, SLO class, an optional placement-affinity
//!   hint, and (for the memory agent) a memory-demand delta.
//! * [`PoissonSource`] — wraps the legacy `Exp` + [`ServiceMix`] path,
//!   **bit-identical** to the old inline sampling (see the trait docs
//!   for the draw-order contract that makes this hold even when the
//!   overload guard sheds arrivals).
//! * [`TraceSource`] — an Alibaba/Google-cluster-style CSV reader with
//!   service-time clamping and arrival-time rescaling, so a day-long
//!   production trace replays inside a seconds-long simulation.
//! * [`SyntheticTraceGenerator`] — a deterministic production-shaped
//!   generator: diurnal sinusoid × bursty MMPP arrival modulation with
//!   heavy-tailed Pareto service times, so the offline build exercises
//!   trace-shaped load without shipping a trace.
//!
//! Consumers choose a source through [`WorkloadSpec`], which the
//! scheduler's config embeds (`SchedConfig::workload`), and the memory
//! agent drives hot/cold access-pattern changes from a parallel
//! [`MemPhaseSource`] stream of [`MemPhase`]s.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;
use wave_sim::dist::{Exp, Pareto};
use wave_sim::SimTime;

/// Service-level-objective class of a request/thread (used by the
/// multi-queue Shinjuku policy of §7.3.2; carried in the RPC payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SloClass(pub u8);

impl SloClass {
    /// The default class for workloads without SLO annotations.
    pub const DEFAULT: SloClass = SloClass(0);
}

/// One component of the request service-time mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixEntry {
    /// Relative weight (probabilities are normalized).
    pub weight: f64,
    /// CPU service time of the request.
    pub service: SimTime,
    /// SLO class tag (used by multi-queue Shinjuku).
    pub slo: SloClass,
}

/// The request service-time mix of the workload.
///
/// Construction precomputes a cumulative-weight table so per-arrival
/// sampling is a single uniform draw plus a table probe instead of a
/// full walk over the entries.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMix {
    entries: Vec<MixEntry>,
    /// Cumulative weights; `cum.last() == total`.
    cum: Vec<f64>,
    total: f64,
}

impl ServiceMix {
    /// Builds a mix from its components.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(entries: Vec<MixEntry>) -> Self {
        assert!(!entries.is_empty(), "mix is non-empty");
        let mut cum = Vec::with_capacity(entries.len());
        let mut total = 0.0;
        for e in &entries {
            total += e.weight;
            cum.push(total);
        }
        ServiceMix {
            entries,
            cum,
            total,
        }
    }

    /// 100% 10 µs GET requests (Fig. 4a).
    pub fn gets_10us() -> Self {
        ServiceMix::new(vec![MixEntry {
            weight: 1.0,
            service: SimTime::from_us(10),
            slo: SloClass(0),
        }])
    }

    /// The paper's dispersive mix: 99.5% 10 µs GETs and 0.5% 10 ms RANGE
    /// queries (Figs. 4b and 6).
    pub fn paper_bimodal() -> Self {
        ServiceMix::new(vec![
            MixEntry {
                weight: 0.995,
                service: SimTime::from_us(10),
                slo: SloClass(0),
            },
            MixEntry {
                weight: 0.005,
                service: SimTime::from_ms(10),
                slo: SloClass(1),
            },
        ])
    }

    /// The mix components.
    pub fn entries(&self) -> &[MixEntry] {
        &self.entries
    }

    /// Mean service time of the mix.
    pub fn mean_service(&self) -> SimTime {
        let mean_ns: f64 = self
            .entries
            .iter()
            .map(|e| e.weight / self.total * e.service.as_ns() as f64)
            .sum();
        SimTime::from_ns(mean_ns as u64)
    }

    /// Draws one `(service, slo)` pair. One uniform draw plus a table
    /// probe; the draw order is part of the [`PoissonSource`]
    /// bit-identity contract.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> (SimTime, SloClass) {
        let u: f64 = rng.random::<f64>() * self.total;
        // First entry whose cumulative weight exceeds the draw; the last
        // entry absorbs any floating-point shortfall.
        let idx = self
            .cum
            .partition_point(|&c| c <= u)
            .min(self.entries.len() - 1);
        let e = self.entries[idx];
        (e.service, e.slo)
    }
}

/// Open-loop Poisson arrival clock: the `Exp` inter-arrival draw with
/// the 1 ns floor every generator in the repo uses. [`PoissonSource`]
/// draws its arrivals from it; a new open-loop source should too, so
/// every Poisson stream samples identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonClock {
    exp: Exp,
}

impl PoissonClock {
    /// A clock ticking at `rate` arrivals per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(rate: f64) -> Self {
        PoissonClock {
            exp: Exp::new(rate / 1e9), // events per ns
        }
    }

    /// The arrival rate in events per second.
    pub fn rate(&self) -> f64 {
        self.exp.lambda() * 1e9
    }

    /// Draws the next inter-arrival gap (at least 1 ns).
    #[inline]
    pub fn step(&self, rng: &mut SmallRng) -> SimTime {
        SimTime::from_ns(self.exp.sample(rng).max(1.0) as u64)
    }
}

/// One unit of work a source emits: what the task demands, not when it
/// arrives (arrival times come from [`WorkloadSource::next_arrival`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Task {
    /// CPU service demand.
    pub service: SimTime,
    /// SLO class (drives multi-queue policies and class-aware steal).
    pub slo: SloClass,
    /// Optional placement-affinity hint: trace-shaped workloads carry a
    /// shard/locality key (e.g. a roaming hotspot); `None` leaves
    /// routing to the consumer's default (the scheduler's sequential
    /// round-robin, bit-identical to the pre-source behavior).
    pub affinity: Option<u32>,
    /// Memory-demand delta in bytes the task contributes (positive =
    /// pressure growing). Consumed by the memory agent's phase driver;
    /// scheduling-only consumers ignore it.
    pub mem_delta: i64,
}

impl Task {
    /// A pure-CPU task with no affinity hint or memory demand.
    pub fn new(service: SimTime, slo: SloClass) -> Self {
        Task {
            service,
            slo,
            affinity: None,
            mem_delta: 0,
        }
    }
}

/// One arrival: when, plus what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadEvent {
    /// Absolute arrival time.
    pub at: SimTime,
    /// The work.
    pub task: Task,
}

/// A streaming workload generator.
///
/// The protocol is two-phase so an open-loop simulator can interleave
/// the calls the way its event loop actually runs:
///
/// 1. [`next_arrival`](WorkloadSource::next_arrival) yields the absolute
///    time of the next arrival (or `None` when a finite trace is
///    exhausted);
/// 2. [`task`](WorkloadSource::task) yields the task for the **oldest
///    arrival not yet claimed**;
/// 3. [`drop_task`](WorkloadSource::drop_task) is called *instead of*
///    `task` when the consumer sheds that arrival (overload guard).
///
/// The split exists for bit-identity with the scheduler's legacy inline
/// sampling, which at each arrival draws the *next* inter-arrival gap
/// before drawing the *current* request's service time — and skips the
/// service draw entirely when the arrival is shed. A source backed by
/// one RNG stream reproduces that draw order exactly; a record-backed
/// source keeps two cursors and stays aligned through `drop_task`.
///
/// Consumers that don't care about interleaving just call
/// [`next_event`](WorkloadSource::next_event).
pub trait WorkloadSource {
    /// Absolute time of the next arrival, or `None` when the source is
    /// exhausted (finite traces; open-loop generators never end).
    /// Arrival times are non-decreasing.
    fn next_arrival(&mut self) -> Option<SimTime>;

    /// The task for the oldest arrival returned by
    /// [`next_arrival`](WorkloadSource::next_arrival) that has not yet
    /// been claimed by `task` or
    /// [`drop_task`](WorkloadSource::drop_task).
    fn task(&mut self) -> Task;

    /// Notifies the source that the oldest unclaimed arrival was shed at
    /// admission. Lazily-sampling sources do nothing (the service draw
    /// simply never happens — the legacy semantics); record-backed
    /// sources advance their task cursor.
    fn drop_task(&mut self) {}

    /// Pulls one complete `(arrival, task)` event.
    fn next_event(&mut self) -> Option<WorkloadEvent> {
        let at = self.next_arrival()?;
        Some(WorkloadEvent {
            at,
            task: self.task(),
        })
    }
}

/// The first arrival every open-loop source emits: 1 ns, matching the
/// legacy scheduler's fixed first event (scheduled before any RNG draw).
pub const FIRST_ARRIVAL: SimTime = SimTime::from_ns(1);

/// Open-loop Poisson arrivals over a [`ServiceMix`] — the legacy
/// workload, behind the trait.
///
/// Bit-identical to the scheduler's old inline path: the first arrival
/// is [`FIRST_ARRIVAL`] with no draw; each later
/// [`next_arrival`](WorkloadSource::next_arrival) draws one
/// inter-arrival gap; each [`task`](WorkloadSource::task) draws one mix
/// sample; a shed arrival draws nothing. Same seed, same rate, same mix
/// ⇒ the same `SmallRng` stream the pre-redesign `SchedSim` consumed.
#[derive(Debug)]
pub struct PoissonSource {
    mix: ServiceMix,
    clock: PoissonClock,
    rng: SmallRng,
    next_at: SimTime,
    started: bool,
}

impl PoissonSource {
    /// A source emitting `offered` arrivals per second from `mix`,
    /// seeded deterministically.
    pub fn new(mix: ServiceMix, offered: f64, seed: u64) -> Self {
        PoissonSource {
            mix,
            clock: PoissonClock::new(offered),
            rng: wave_sim::rng(seed),
            next_at: FIRST_ARRIVAL,
            started: false,
        }
    }
}

impl WorkloadSource for PoissonSource {
    #[inline]
    fn next_arrival(&mut self) -> Option<SimTime> {
        if self.started {
            self.next_at += self.clock.step(&mut self.rng);
        } else {
            self.started = true;
        }
        Some(self.next_at)
    }

    #[inline]
    fn task(&mut self) -> Task {
        let (service, slo) = self.mix.sample(&mut self.rng);
        Task::new(service, slo)
    }
}

/// One parsed trace row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Absolute arrival time (already rescaled).
    pub at: SimTime,
    /// CPU service demand (already clamped).
    pub service: SimTime,
    /// SLO class.
    pub slo: SloClass,
    /// Placement-affinity hint, when the row carries one.
    pub affinity: Option<u32>,
    /// Memory-demand delta in bytes.
    pub mem_delta: i64,
}

/// A malformed trace row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A row had fewer than the four required fields.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// Which field was missing.
        field: &'static str,
    },
    /// A field failed to parse as its numeric type.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Which field was malformed.
        field: &'static str,
        /// The offending text.
        value: String,
    },
    /// The trace had no data rows.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::MissingField { line, field } => {
                write!(f, "trace line {line}: missing field `{field}`")
            }
            TraceError::BadNumber { line, field, value } => {
                write!(f, "trace line {line}: bad `{field}` value {value:?}")
            }
            TraceError::Empty => write!(f, "trace has no data rows"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Knobs for adapting a production trace to the simulation's timescale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOptions {
    /// Multiplier on arrival timestamps (e.g. `1e-4` replays a day-long
    /// trace inside ~9 simulated seconds). Service times are *not*
    /// rescaled — compressing a trace raises its offered load.
    pub time_scale: f64,
    /// Service times are clamped below to this (cluster traces round
    /// short tasks to zero).
    pub min_service: SimTime,
    /// Service times are clamped above to this (a stray day-long batch
    /// job would otherwise park a worker for the whole run).
    pub max_service: SimTime,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            time_scale: 1.0,
            min_service: SimTime::from_us(1),
            max_service: SimTime::from_ms(100),
        }
    }
}

/// Replays a parsed CSV trace (Alibaba/Google-cluster shape) as a
/// [`WorkloadSource`].
///
/// The CSV format is one row per task:
///
/// ```text
/// arrival_us,service_us,slo,mem_kb[,affinity]
/// ```
///
/// `arrival_us`/`service_us` are floating-point microseconds, `slo` the
/// class id, `mem_kb` the task's memory-demand delta in KiB (signed),
/// and the optional fifth column a placement-affinity hint. Blank
/// lines, `#` comments, and a header row starting with `arrival` are
/// skipped. Rows may arrive out of order (cluster traces are grouped by
/// job, not globally sorted): parsing stably sorts by arrival and
/// reports how many rows were out of place.
#[derive(Debug, Clone)]
pub struct TraceSource {
    records: Arc<Vec<TraceRecord>>,
    /// Cursor for arrivals handed out.
    arr_idx: usize,
    /// Cursor for tasks claimed (trails `arr_idx` by the consumer's
    /// in-flight arrivals).
    task_idx: usize,
    reordered: usize,
    clamped: usize,
}

impl TraceSource {
    /// Parses CSV text into a replayable source.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first malformed row, or
    /// [`TraceError::Empty`] when no data rows remain.
    pub fn from_csv(text: &str, opts: &TraceOptions) -> Result<Self, TraceError> {
        let mut records = Vec::new();
        let mut clamped = 0usize;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let row = raw.trim();
            if row.is_empty() || row.starts_with('#') || row.starts_with("arrival") {
                continue;
            }
            let mut fields = row.split(',').map(str::trim);
            let arrival_us = parse_field::<f64>(&mut fields, line, "arrival_us")?;
            let service_us = parse_field::<f64>(&mut fields, line, "service_us")?;
            let slo = parse_field::<u8>(&mut fields, line, "slo")?;
            let mem_kb = parse_field::<i64>(&mut fields, line, "mem_kb")?;
            let affinity = match fields.next() {
                None | Some("") => None,
                Some(v) => Some(v.parse::<u32>().map_err(|_| TraceError::BadNumber {
                    line,
                    field: "affinity",
                    value: v.to_string(),
                })?),
            };
            let service = SimTime::from_us_f64(service_us.max(0.0));
            let lo = opts.min_service;
            let hi = opts.max_service;
            let clamped_service = service.max(lo).min(hi);
            if clamped_service != service {
                clamped += 1;
            }
            records.push(TraceRecord {
                at: SimTime::from_us_f64(arrival_us.max(0.0) * opts.time_scale),
                service: clamped_service,
                slo: SloClass(slo),
                affinity,
                mem_delta: mem_kb.saturating_mul(1024),
            });
        }
        if records.is_empty() {
            return Err(TraceError::Empty);
        }
        let reordered = records.windows(2).filter(|w| w[1].at < w[0].at).count();
        records.sort_by_key(|r| r.at);
        Ok(TraceSource {
            records: Arc::new(records),
            arr_idx: 0,
            task_idx: 0,
            reordered,
            clamped,
        })
    }

    /// A source over pre-built records (sorted by arrival).
    pub fn from_records(records: Arc<Vec<TraceRecord>>) -> Self {
        debug_assert!(records.windows(2).all(|w| w[0].at <= w[1].at));
        TraceSource {
            records,
            arr_idx: 0,
            task_idx: 0,
            reordered: 0,
            clamped: 0,
        }
    }

    /// The parsed records, sorted by arrival.
    pub fn records(&self) -> &Arc<Vec<TraceRecord>> {
        &self.records
    }

    /// Rows whose arrival was out of order in the input (re-sorted).
    pub fn reordered(&self) -> usize {
        self.reordered
    }

    /// Rows whose service time hit the clamp.
    pub fn clamped(&self) -> usize {
        self.clamped
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty (never true after `from_csv`).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

fn parse_field<'a, T: std::str::FromStr>(
    fields: &mut impl Iterator<Item = &'a str>,
    line: usize,
    field: &'static str,
) -> Result<T, TraceError> {
    let v = fields
        .next()
        .filter(|v| !v.is_empty())
        .ok_or(TraceError::MissingField { line, field })?;
    v.parse::<T>().map_err(|_| TraceError::BadNumber {
        line,
        field,
        value: v.to_string(),
    })
}

impl WorkloadSource for TraceSource {
    fn next_arrival(&mut self) -> Option<SimTime> {
        let at = self.records.get(self.arr_idx)?.at;
        self.arr_idx += 1;
        Some(at)
    }

    fn task(&mut self) -> Task {
        debug_assert!(self.task_idx < self.arr_idx, "task claimed before arrival");
        let r = self.records[self.task_idx];
        self.task_idx += 1;
        Task {
            service: r.service,
            slo: r.slo,
            affinity: r.affinity,
            mem_delta: r.mem_delta,
        }
    }

    fn drop_task(&mut self) {
        debug_assert!(self.task_idx < self.arr_idx, "drop before arrival");
        self.task_idx += 1;
    }
}

/// Configuration of the deterministic synthetic production trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Mean arrival rate (req/s) before modulation.
    pub base_rate: f64,
    /// Period of the (time-compressed) diurnal sinusoid.
    pub diurnal_period: SimTime,
    /// Diurnal modulation depth in `[0, 1)`: the instantaneous rate
    /// swings between `base_rate * (1 ± amplitude)`.
    pub diurnal_amplitude: f64,
    /// Rate multiplier while the MMPP burst state is on.
    pub burst_rate: f64,
    /// Mean dwell time of the burst state.
    pub mean_burst: SimTime,
    /// Mean dwell time of the calm state.
    pub mean_calm: SimTime,
    /// Pareto tail index of the service-time distribution (≤ 2 ⇒
    /// infinite variance).
    pub pareto_alpha: f64,
    /// Minimum service time (the Pareto scale).
    pub min_service: SimTime,
    /// Service-time clamp.
    pub max_service: SimTime,
    /// Tasks at or above this service demand are tagged [`SloClass`]`(1)`
    /// (throughput class); shorter tasks are class 0 (latency class).
    pub slo_split: SimTime,
    /// When non-zero, a fraction of tasks carry an affinity hint toward
    /// a hotspot that roams over `0..hotspot_shards`, visiting every
    /// shard once per diurnal period — the skew that makes the
    /// rebalancer chase load across phases.
    pub hotspot_shards: u32,
    /// Fraction of tasks pinned to the current hotspot shard.
    pub hotspot_weight: f64,
    /// Magnitude of the per-task memory-demand delta; the sign follows
    /// the diurnal phase (pressure builds on the rising half, drains on
    /// the falling half). Zero disables memory deltas.
    pub mem_delta_bytes: i64,
}

impl SyntheticConfig {
    /// A diurnal + bursty + heavy-tailed default sized for quick sims:
    /// a 100 ms "day", 60% diurnal swing, 3× bursts a few ms long, and
    /// Pareto(1.5) service from 5 µs clamped at 5 ms.
    pub fn diurnal_bursty() -> Self {
        SyntheticConfig {
            base_rate: 200_000.0,
            diurnal_period: SimTime::from_ms(100),
            diurnal_amplitude: 0.6,
            burst_rate: 3.0,
            mean_burst: SimTime::from_ms(2),
            mean_calm: SimTime::from_ms(10),
            pareto_alpha: 1.5,
            min_service: SimTime::from_us(5),
            max_service: SimTime::from_ms(5),
            slo_split: SimTime::from_us(100),
            hotspot_shards: 0,
            hotspot_weight: 0.0,
            mem_delta_bytes: 0,
        }
    }

    /// Expected service time under clamping:
    /// `E[min(Pareto(α, s), cap)]`, closed form.
    pub fn mean_service(&self) -> SimTime {
        let a = self.pareto_alpha;
        let s = self.min_service.as_ns() as f64;
        let c = self.max_service.as_ns() as f64;
        // E[min(X, c)] = s + ∫_s^c (s/x)^α dx.
        let mean = if (a - 1.0).abs() < 1e-9 {
            s + s * (c / s).ln()
        } else {
            s + s.powf(a) * (c.powf(1.0 - a) - s.powf(1.0 - a)) / (1.0 - a)
        };
        SimTime::from_ns(mean as u64)
    }
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig::diurnal_bursty()
    }
}

/// The deterministic synthetic production-trace generator.
///
/// Arrivals follow a rate-modulated Poisson process evaluated at
/// arrival instants: the instantaneous rate is the base rate times the
/// diurnal sinusoid times the MMPP state (a two-state Markov-modulated
/// burst process with exponential dwell times). Service times are
/// heavy-tailed Pareto, clamped. Everything is driven by one seeded
/// `SmallRng`, so the same seed replays the same millions-of-events
/// trace bit for bit — the self-contained stand-in for shipping a real
/// cluster trace.
#[derive(Debug)]
pub struct SyntheticTraceGenerator {
    cfg: SyntheticConfig,
    rng: SmallRng,
    service: Pareto,
    now: SimTime,
    started: bool,
    bursting: bool,
    state_until: SimTime,
}

impl SyntheticTraceGenerator {
    /// A generator over `cfg`, seeded deterministically.
    pub fn new(cfg: SyntheticConfig, seed: u64) -> Self {
        assert!(
            cfg.base_rate > 0.0 && cfg.base_rate.is_finite(),
            "base rate must be positive"
        );
        assert!(
            (0.0..1.0).contains(&cfg.diurnal_amplitude),
            "diurnal amplitude in [0, 1)"
        );
        assert!(cfg.burst_rate >= 1.0, "burst multiplies the rate");
        SyntheticTraceGenerator {
            service: Pareto::new(cfg.pareto_alpha, cfg.min_service.as_ns() as f64),
            cfg,
            rng: wave_sim::rng(seed),
            now: FIRST_ARRIVAL,
            started: false,
            bursting: false,
            state_until: SimTime::ZERO,
        }
    }

    /// The instantaneous arrival rate at `t` under the current MMPP
    /// state (telemetry/tests).
    pub fn rate_at(&self, t: SimTime) -> f64 {
        let phase = std::f64::consts::TAU * t.as_ns() as f64
            / self.cfg.diurnal_period.as_ns().max(1) as f64;
        let diurnal = 1.0 + self.cfg.diurnal_amplitude * phase.sin();
        let burst = if self.bursting {
            self.cfg.burst_rate
        } else {
            1.0
        };
        self.cfg.base_rate * diurnal * burst
    }

    /// The hotspot shard at `t`: the diurnal period is divided into
    /// `hotspot_shards` equal segments and the hotspot visits each in
    /// turn.
    pub fn hotspot_at(&self, t: SimTime) -> Option<u32> {
        if self.cfg.hotspot_shards == 0 {
            return None;
        }
        let seg = (self.cfg.diurnal_period.as_ns() / self.cfg.hotspot_shards as u64).max(1);
        Some(((t.as_ns() / seg) % self.cfg.hotspot_shards as u64) as u32)
    }

    /// Advances the MMPP state machine past `now`.
    fn advance_mmpp(&mut self) {
        while self.state_until <= self.now {
            self.bursting = !self.bursting;
            let mean = if self.bursting {
                self.cfg.mean_burst
            } else {
                self.cfg.mean_calm
            };
            let dwell = Exp::new(1.0 / mean.as_ns().max(1) as f64).sample(&mut self.rng);
            self.state_until += SimTime::from_ns((dwell.max(1.0)) as u64);
        }
    }
}

impl WorkloadSource for SyntheticTraceGenerator {
    fn next_arrival(&mut self) -> Option<SimTime> {
        if !self.started {
            self.started = true;
            return Some(self.now);
        }
        self.advance_mmpp();
        let rate = self.rate_at(self.now);
        let dt = Exp::new(rate / 1e9).sample(&mut self.rng).max(1.0) as u64;
        self.now += SimTime::from_ns(dt);
        Some(self.now)
    }

    fn task(&mut self) -> Task {
        let raw = self.service.sample(&mut self.rng) as u64;
        let service = SimTime::from_ns(raw)
            .max(self.cfg.min_service)
            .min(self.cfg.max_service);
        let slo = if service >= self.cfg.slo_split {
            SloClass(1)
        } else {
            SloClass(0)
        };
        let affinity = match self.hotspot_at(self.now) {
            Some(h) if self.rng.random::<f64>() < self.cfg.hotspot_weight => Some(h),
            _ => None,
        };
        let mem_delta = if self.cfg.mem_delta_bytes == 0 {
            0
        } else {
            // Pressure builds on the rising half of the diurnal wave and
            // drains on the falling half.
            let phase = std::f64::consts::TAU * self.now.as_ns() as f64
                / self.cfg.diurnal_period.as_ns().max(1) as f64;
            if phase.sin() >= 0.0 {
                self.cfg.mem_delta_bytes
            } else {
                -self.cfg.mem_delta_bytes
            }
        };
        Task {
            service,
            slo,
            affinity,
            mem_delta,
        }
    }
}

/// Which workload a consumer runs — the value `SchedConfig` embeds.
///
/// The loose `mix`/`offered` config pair became
/// [`WorkloadSpec::poisson`]`(mix, offered)`; trace replay and the
/// synthetic generator slot in beside it.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Open-loop Poisson over a [`ServiceMix`] (the legacy workload).
    Poisson {
        /// The service-time mix.
        mix: ServiceMix,
        /// Offered load in requests/second.
        offered: f64,
    },
    /// Replay of a parsed trace (shared so configs stay cheap to clone).
    Trace {
        /// The records, sorted by arrival.
        records: Arc<Vec<TraceRecord>>,
    },
    /// The deterministic synthetic production trace.
    Synthetic(SyntheticConfig),
}

impl WorkloadSpec {
    /// The legacy `mix` + `offered` pair.
    pub fn poisson(mix: ServiceMix, offered: f64) -> Self {
        WorkloadSpec::Poisson { mix, offered }
    }

    /// A trace replay.
    pub fn trace(records: Vec<TraceRecord>) -> Self {
        WorkloadSpec::Trace {
            records: Arc::new(records),
        }
    }

    /// A synthetic production trace.
    pub fn synthetic(cfg: SyntheticConfig) -> Self {
        WorkloadSpec::Synthetic(cfg)
    }

    /// Nominal offered load in requests/second: the configured rate for
    /// generative sources, the empirical rate for traces.
    pub fn offered(&self) -> f64 {
        match self {
            WorkloadSpec::Poisson { offered, .. } => *offered,
            WorkloadSpec::Trace { records } => {
                let span = records
                    .last()
                    .map(|r| r.at.as_secs_f64())
                    .unwrap_or_default();
                if span > 0.0 {
                    records.len() as f64 / span
                } else {
                    0.0
                }
            }
            WorkloadSpec::Synthetic(cfg) => cfg.base_rate,
        }
    }

    /// Re-rates the source: sets the Poisson/synthetic rate, or rescales
    /// a trace's arrival times so its empirical rate matches (the sweep
    /// knob every latency-throughput curve turns).
    pub fn set_offered(&mut self, rate: f64) {
        let current = self.offered();
        match self {
            WorkloadSpec::Poisson { offered, .. } => *offered = rate,
            WorkloadSpec::Synthetic(cfg) => cfg.base_rate = rate,
            WorkloadSpec::Trace { records } => {
                if current > 0.0 && rate > 0.0 {
                    let factor = current / rate;
                    let rescaled = records
                        .iter()
                        .map(|r| TraceRecord {
                            at: r.at.scale(factor),
                            ..*r
                        })
                        .collect();
                    *self = WorkloadSpec::Trace {
                        records: Arc::new(rescaled),
                    };
                }
            }
        }
    }

    /// Expected service time (capacity math: `workers / mean_service`
    /// bounds the sustainable rate).
    pub fn mean_service(&self) -> SimTime {
        match self {
            WorkloadSpec::Poisson { mix, .. } => mix.mean_service(),
            WorkloadSpec::Trace { records } => {
                if records.is_empty() {
                    return SimTime::ZERO;
                }
                let sum: u64 = records.iter().map(|r| r.service.as_ns()).sum();
                SimTime::from_ns(sum / records.len() as u64)
            }
            WorkloadSpec::Synthetic(cfg) => cfg.mean_service(),
        }
    }

    /// The service mix, when this is a Poisson spec.
    pub fn mix(&self) -> Option<&ServiceMix> {
        match self {
            WorkloadSpec::Poisson { mix, .. } => Some(mix),
            _ => None,
        }
    }

    /// Instantiates the source. Generative sources consume `seed`;
    /// trace replay is seed-independent.
    pub fn build(&self, seed: u64) -> AnySource {
        match self {
            WorkloadSpec::Poisson { mix, offered } => {
                AnySource::Poisson(PoissonSource::new(mix.clone(), *offered, seed))
            }
            WorkloadSpec::Trace { records } => {
                AnySource::Trace(TraceSource::from_records(records.clone()))
            }
            WorkloadSpec::Synthetic(cfg) => {
                AnySource::Synthetic(SyntheticTraceGenerator::new(*cfg, seed))
            }
        }
    }
}

/// A [`WorkloadSpec`] instantiated as a concrete source. An enum rather
/// than a `Box<dyn WorkloadSource>` because the scheduler pulls from it
/// twice per admitted arrival — static dispatch keeps that hot path
/// inlinable and the source state inline in the sim struct. Sources
/// outside the spec still implement the trait directly; only the
/// scheduler's built-in path takes this shape.
#[derive(Debug)]
pub enum AnySource {
    /// Open-loop Poisson sampling ([`PoissonSource`]).
    Poisson(PoissonSource),
    /// Finite trace replay ([`TraceSource`]).
    Trace(TraceSource),
    /// Seeded synthetic generation ([`SyntheticTraceGenerator`]).
    Synthetic(SyntheticTraceGenerator),
}

impl WorkloadSource for AnySource {
    #[inline]
    fn next_arrival(&mut self) -> Option<SimTime> {
        match self {
            AnySource::Poisson(s) => s.next_arrival(),
            AnySource::Trace(s) => s.next_arrival(),
            AnySource::Synthetic(s) => s.next_arrival(),
        }
    }

    #[inline]
    fn task(&mut self) -> Task {
        match self {
            AnySource::Poisson(s) => s.task(),
            AnySource::Trace(s) => s.task(),
            AnySource::Synthetic(s) => s.task(),
        }
    }

    #[inline]
    fn drop_task(&mut self) {
        match self {
            AnySource::Poisson(s) => s.drop_task(),
            AnySource::Trace(s) => s.drop_task(),
            AnySource::Synthetic(s) => s.drop_task(),
        }
    }
}

/// One memory-workload phase change: at `at`, the footprint's access
/// pattern shifts (hot set re-drawn, ambivalent window re-positioned).
/// The memory-agent counterpart of a scheduler task stream — what
/// drives hot/cold flips and batch skew over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPhase {
    /// When the phase takes effect.
    pub at: SimTime,
    /// New fraction of genuinely hot batches.
    pub hot_fraction: f64,
    /// New fraction of ambivalent (every-window rescan) batches.
    pub flappy_fraction: f64,
    /// Where the ambivalent window starts, as a fraction of the batch
    /// space — moving it is what shifts scan *work* between shards.
    pub flappy_offset: f64,
    /// Mixed into the footprint's seed when re-drawing the hot set, so
    /// each phase flips a deterministic but different subset.
    pub reseed: u64,
}

/// A stream of [`MemPhase`]s, pulled by the sharded memory agent's
/// phased iteration driver.
pub trait MemPhaseSource {
    /// The next phase, ascending in time; `None` when the schedule is
    /// exhausted.
    fn next_phase(&mut self) -> Option<MemPhase>;
}

/// A pre-built phase schedule.
#[derive(Debug, Clone)]
pub struct PhaseSchedule {
    phases: Vec<MemPhase>,
    idx: usize,
}

impl PhaseSchedule {
    /// A schedule over explicit phases (sorted by time).
    pub fn new(mut phases: Vec<MemPhase>) -> Self {
        phases.sort_by_key(|p| p.at);
        PhaseSchedule { phases, idx: 0 }
    }

    /// A rotating memory-pressure schedule: every `period`, the
    /// ambivalent window (`flappy_fraction` of the space) advances one
    /// slot around `slots` positions and the hot set is re-drawn — the
    /// phase pattern that drags scan load across the sharded agent.
    pub fn rotating(
        start: SimTime,
        period: SimTime,
        cycles: usize,
        slots: u32,
        hot_fraction: f64,
        flappy_fraction: f64,
    ) -> Self {
        assert!(slots >= 1, "need at least one window position");
        let phases = (0..cycles)
            .map(|k| MemPhase {
                at: start + period.scale(k as f64),
                hot_fraction,
                flappy_fraction,
                flappy_offset: (k as u32 % slots) as f64 / slots as f64,
                reseed: k as u64 + 1,
            })
            .collect();
        PhaseSchedule::new(phases)
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The phases, sorted by time.
    pub fn phases(&self) -> &[MemPhase] {
        &self.phases
    }
}

impl MemPhaseSource for PhaseSchedule {
    fn next_phase(&mut self) -> Option<MemPhase> {
        let p = self.phases.get(self.idx).copied()?;
        self.idx += 1;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_matches_legacy_draw_order() {
        // Replay the legacy inline path by hand: schedule at 1 ns, then
        // per arrival draw dt before the mix sample, from one stream.
        let mix = ServiceMix::paper_bimodal();
        let offered = 250_000.0;
        let mut src = PoissonSource::new(mix.clone(), offered, 42);
        let mut rng = wave_sim::rng(42);
        let clock = PoissonClock::new(offered);
        let mut legacy_at = SimTime::from_ns(1);
        assert_eq!(src.next_arrival(), Some(legacy_at));
        for _ in 0..10_000 {
            let next = legacy_at + clock.step(&mut rng);
            let (service, slo) = mix.sample(&mut rng);
            assert_eq!(src.next_arrival(), Some(next));
            let task = src.task();
            assert_eq!((task.service, task.slo), (service, slo));
            legacy_at = next;
        }
    }

    #[test]
    fn poisson_drop_skips_the_service_draw() {
        // Shedding arrival k must leave the stream exactly where the
        // legacy path leaves it: the guard skipped the mix draw, so the
        // next arrival's dt comes straight after the shed arrival's dt.
        let mix = ServiceMix::paper_bimodal();
        let offered = 1e6;
        let mut src = PoissonSource::new(mix.clone(), offered, 7);
        // Hand-replay the legacy inline path with arrival 0 shed.
        let mut rng = wave_sim::rng(7);
        let clock = PoissonClock::new(offered);
        let at0 = SimTime::from_ns(1);
        let at1 = at0 + clock.step(&mut rng); // drawn in arrival 0's handler
        let at2 = at1 + clock.step(&mut rng); // arrival 1's handler…
        let (service, slo) = mix.sample(&mut rng); // …which admits

        // Drive the source the way the scheduler does.
        assert_eq!(src.next_arrival(), Some(at0));
        assert_eq!(src.next_arrival(), Some(at1));
        src.drop_task(); // arrival 0 shed: no mix draw
        assert_eq!(src.next_arrival(), Some(at2));
        let t = src.task(); // arrival 1 admitted
        assert_eq!((t.service, t.slo), (service, slo));
    }

    #[test]
    fn trace_cursors_survive_drops() {
        let recs = vec![
            TraceRecord {
                at: SimTime::from_us(1),
                service: SimTime::from_us(10),
                slo: SloClass(0),
                affinity: None,
                mem_delta: 0,
            },
            TraceRecord {
                at: SimTime::from_us(2),
                service: SimTime::from_us(20),
                slo: SloClass(0),
                affinity: None,
                mem_delta: 0,
            },
            TraceRecord {
                at: SimTime::from_us(3),
                service: SimTime::from_us(30),
                slo: SloClass(1),
                affinity: Some(2),
                mem_delta: 4096,
            },
        ];
        let mut src = TraceSource::from_records(Arc::new(recs));
        assert_eq!(src.next_arrival(), Some(SimTime::from_us(1)));
        assert_eq!(src.next_arrival(), Some(SimTime::from_us(2)));
        src.drop_task(); // record 0 shed
        assert_eq!(src.task().service, SimTime::from_us(20));
        assert_eq!(src.next_arrival(), Some(SimTime::from_us(3)));
        let t = src.task();
        assert_eq!(t.affinity, Some(2));
        assert_eq!(t.mem_delta, 4096);
        assert_eq!(src.next_arrival(), None);
    }

    #[test]
    fn synthetic_is_deterministic_and_seed_sensitive() {
        let cfg = SyntheticConfig::diurnal_bursty();
        let pull = |seed: u64| {
            let mut g = SyntheticTraceGenerator::new(cfg, seed);
            (0..5_000)
                .map(|_| g.next_event().expect("open loop"))
                .collect::<Vec<_>>()
        };
        assert_eq!(pull(1), pull(1));
        assert_ne!(pull(1), pull(2));
    }

    #[test]
    fn synthetic_rate_tracks_the_diurnal_wave() {
        let mut cfg = SyntheticConfig::diurnal_bursty();
        cfg.burst_rate = 1.0; // isolate the sinusoid
        cfg.diurnal_amplitude = 0.8;
        let mut g = SyntheticTraceGenerator::new(cfg, 3);
        // Count arrivals in the peak vs trough quarter of one period.
        let period = cfg.diurnal_period.as_ns();
        let (mut peak, mut trough) = (0u64, 0u64);
        while let Some(ev) = g.next_event() {
            let t = ev.at.as_ns();
            if t >= 2 * period {
                break;
            }
            match (t % period) * 4 / period {
                0 => peak += 1,   // rising half around sin > 0
                2 => trough += 1, // falling half around sin < 0
                _ => {}
            }
        }
        assert!(
            peak as f64 > trough as f64 * 2.0,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn synthetic_mean_service_closed_form() {
        let cfg = SyntheticConfig::diurnal_bursty();
        let analytic = cfg.mean_service().as_ns() as f64;
        let mut g = SyntheticTraceGenerator::new(cfg, 9);
        let n = 200_000;
        let sum: u64 = (0..n)
            .map(|_| g.next_event().expect("open loop").task.service.as_ns())
            .sum();
        let empirical = sum as f64 / n as f64;
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn spec_offered_and_rescale() {
        let mut spec = WorkloadSpec::trace(vec![
            TraceRecord {
                at: SimTime::from_ms(1),
                service: SimTime::from_us(10),
                slo: SloClass(0),
                affinity: None,
                mem_delta: 0,
            },
            TraceRecord {
                at: SimTime::from_ms(2),
                service: SimTime::from_us(30),
                slo: SloClass(0),
                affinity: None,
                mem_delta: 0,
            },
        ]);
        // 2 records over 2 ms = 1000 req/s.
        assert!((spec.offered() - 1000.0).abs() < 1e-6);
        assert_eq!(spec.mean_service(), SimTime::from_us(20));
        spec.set_offered(2000.0);
        assert!((spec.offered() - 2000.0).abs() < 1.0);
    }

    #[test]
    fn rotating_schedule_moves_the_window() {
        let mut s =
            PhaseSchedule::rotating(SimTime::from_ms(10), SimTime::from_ms(10), 4, 4, 0.2, 0.5);
        let offsets: Vec<f64> = std::iter::from_fn(|| s.next_phase())
            .map(|p| p.flappy_offset)
            .collect();
        assert_eq!(offsets, vec![0.0, 0.25, 0.5, 0.75]);
    }
}
