//! The on-host watchdog (§3.3).
//!
//! "Each system software component has an on-host watchdog that kills its
//! agent(s) when it detects they are malfunctioning. For example, the
//! thread scheduler watchdog terminates an agent that has not made a
//! decision for >20 ms."

use wave_sim::SimTime;

/// A per-component liveness watchdog.
///
/// # Examples
///
/// ```
/// use wave_core::Watchdog;
/// use wave_sim::SimTime;
///
/// let mut wd = Watchdog::scheduler_default();
/// wd.heartbeat(SimTime::from_ms(1));
/// assert!(!wd.expired(SimTime::from_ms(20)));
/// assert!(wd.expired(SimTime::from_ms(22)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    timeout: SimTime,
    last_heartbeat: SimTime,
    fired: bool,
}

impl Watchdog {
    /// Creates a watchdog with the given timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero.
    pub fn new(timeout: SimTime) -> Self {
        assert!(timeout > SimTime::ZERO, "watchdog timeout must be positive");
        Watchdog {
            timeout,
            last_heartbeat: SimTime::ZERO,
            fired: false,
        }
    }

    /// The paper's thread-scheduler default: 20 ms.
    pub fn scheduler_default() -> Self {
        Self::new(SimTime::from_ms(20))
    }

    /// The configured timeout.
    pub fn timeout(&self) -> SimTime {
        self.timeout
    }

    /// Records agent liveness (a decision or explicit heartbeat).
    pub fn heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat = self.last_heartbeat.max(now);
    }

    /// Whether the agent has been silent past the timeout.
    pub fn expired(&self, now: SimTime) -> bool {
        now.saturating_sub(self.last_heartbeat) > self.timeout
    }

    /// Marks the watchdog as having fired (killed its agent). Returns
    /// `true` on the first firing only, so the caller kills exactly once.
    pub fn fire(&mut self) -> bool {
        let first = !self.fired;
        self.fired = true;
        first
    }

    /// Re-arms after an agent restart.
    pub fn rearm(&mut self, now: SimTime) {
        self.fired = false;
        self.last_heartbeat = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_watchdog_not_expired() {
        let wd = Watchdog::scheduler_default();
        assert!(!wd.expired(SimTime::from_ms(20)));
        assert!(wd.expired(SimTime::from_ms(21)));
    }

    #[test]
    fn heartbeat_defers_expiry() {
        let mut wd = Watchdog::scheduler_default();
        wd.heartbeat(SimTime::from_ms(15));
        assert!(!wd.expired(SimTime::from_ms(30)));
        assert!(wd.expired(SimTime::from_ms(36)));
    }

    #[test]
    fn heartbeats_never_go_backwards() {
        let mut wd = Watchdog::scheduler_default();
        wd.heartbeat(SimTime::from_ms(10));
        wd.heartbeat(SimTime::from_ms(5));
        assert!(!wd.expired(SimTime::from_ms(30)));
    }

    #[test]
    fn fire_once() {
        let mut wd = Watchdog::scheduler_default();
        assert!(wd.fire());
        assert!(!wd.fire());
        wd.rearm(SimTime::from_ms(50));
        assert!(wd.fire(), "rearm allows one more firing");
        assert!(!wd.expired(SimTime::from_ms(60)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_timeout_rejected() {
        let _ = Watchdog::new(SimTime::ZERO);
    }
}
