//! Master duty-cycle scheduling: when to inquire, when to serve.
//!
//! The core resource question of the paper (§4.2, §5): a workstation
//! master must split its operational cycle between *device discovery*
//! (inquiry) and *serving enrolled slaves* (paging, polling, data). The
//! paper settles on a 3.84 s inquiry slot inside a 15.4 s cycle — ≈24 %
//! tracking load. [`PhasePlan`] turns a [`DutyCycle`] plus the master's
//! start offset into the phase timeline the medium executes.

use crate::params::DutyCycle;
use desim::{SimDuration, SimTime};

/// What a master is doing at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Transmitting inquiry trains and collecting FHS responses.
    Inquiry,
    /// Connection management: paging discovered devices and serving
    /// slaves.
    Service,
}

/// A master's phase timeline: the duty cycle anchored at a start instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasePlan {
    duty: DutyCycle,
    origin: SimTime,
}

impl PhasePlan {
    /// A plan that starts its first inquiry phase at `origin`.
    pub fn new(duty: DutyCycle, origin: SimTime) -> PhasePlan {
        PhasePlan { duty, origin }
    }

    /// The duty cycle being executed.
    pub fn duty(&self) -> DutyCycle {
        self.duty
    }

    /// The phase in force at `t` (times before the origin count as
    /// `Service`: the master hasn't started inquiring yet).
    pub fn phase_at(&self, t: SimTime) -> Phase {
        if self.duty.is_always_inquiry() {
            return if t >= self.origin {
                Phase::Inquiry
            } else {
                Phase::Service
            };
        }
        match t.checked_sub(self.origin) {
            None => Phase::Service,
            Some(since) => {
                let into = since % self.duty.period();
                if into < self.duty.inquiry_len() {
                    Phase::Inquiry
                } else {
                    Phase::Service
                }
            }
        }
    }

    /// The next phase boundary strictly after `t`, together with the phase
    /// that begins there. Returns `None` for an always-inquiry plan that
    /// has already started (it has no boundaries).
    pub fn next_boundary(&self, t: SimTime) -> Option<(SimTime, Phase)> {
        if self.duty.is_always_inquiry() {
            return if t < self.origin {
                Some((self.origin, Phase::Inquiry))
            } else {
                None
            };
        }
        if t < self.origin {
            return Some((self.origin, Phase::Inquiry));
        }
        let since = t - self.origin;
        let period = self.duty.period();
        let into = since % period;
        let cycle_start = t - into;
        if into < self.duty.inquiry_len() {
            Some((cycle_start + self.duty.inquiry_len(), Phase::Service))
        } else {
            Some((cycle_start + period, Phase::Inquiry))
        }
    }

    /// Remaining time in the current inquiry phase at `t`
    /// ([`SimDuration::ZERO`] if not inquiring).
    pub fn inquiry_remaining(&self, t: SimTime) -> SimDuration {
        match self.phase_at(t) {
            Phase::Service => SimDuration::ZERO,
            Phase::Inquiry => {
                if self.duty.is_always_inquiry() {
                    SimDuration::MAX
                } else {
                    let into = (t - self.origin) % self.duty.period();
                    self.duty.inquiry_len() - into
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_plan() -> PhasePlan {
        PhasePlan::new(
            DutyCycle::periodic(SimDuration::from_secs(1), SimDuration::from_secs(5)),
            SimTime::ZERO,
        )
    }

    #[test]
    fn fig2_phases() {
        let p = fig2_plan();
        assert_eq!(p.phase_at(SimTime::ZERO), Phase::Inquiry);
        assert_eq!(p.phase_at(SimTime::from_millis(999)), Phase::Inquiry);
        assert_eq!(p.phase_at(SimTime::from_secs(1)), Phase::Service);
        assert_eq!(p.phase_at(SimTime::from_millis(4999)), Phase::Service);
        assert_eq!(p.phase_at(SimTime::from_secs(5)), Phase::Inquiry);
        assert_eq!(p.phase_at(SimTime::from_millis(5500)), Phase::Inquiry);
    }

    #[test]
    fn boundaries_alternate() {
        let p = fig2_plan();
        let (t1, ph1) = p.next_boundary(SimTime::ZERO).unwrap();
        assert_eq!((t1, ph1), (SimTime::from_secs(1), Phase::Service));
        let (t2, ph2) = p.next_boundary(t1).unwrap();
        assert_eq!((t2, ph2), (SimTime::from_secs(5), Phase::Inquiry));
        let (t3, _) = p.next_boundary(t2).unwrap();
        assert_eq!(t3, SimTime::from_secs(6));
    }

    #[test]
    fn always_inquiry_has_no_boundaries() {
        let p = PhasePlan::new(DutyCycle::always_inquiry(), SimTime::from_secs(1));
        assert_eq!(p.phase_at(SimTime::ZERO), Phase::Service);
        assert_eq!(
            p.next_boundary(SimTime::ZERO),
            Some((SimTime::from_secs(1), Phase::Inquiry))
        );
        assert_eq!(p.phase_at(SimTime::from_secs(2)), Phase::Inquiry);
        assert_eq!(p.next_boundary(SimTime::from_secs(2)), None);
        assert_eq!(p.inquiry_remaining(SimTime::from_secs(2)), SimDuration::MAX);
    }

    #[test]
    fn offset_origin_shifts_cycle() {
        let p = PhasePlan::new(
            DutyCycle::periodic(SimDuration::from_secs(1), SimDuration::from_secs(5)),
            SimTime::from_millis(300),
        );
        assert_eq!(p.phase_at(SimTime::ZERO), Phase::Service);
        assert_eq!(p.phase_at(SimTime::from_millis(300)), Phase::Inquiry);
        assert_eq!(p.phase_at(SimTime::from_millis(1299)), Phase::Inquiry);
        assert_eq!(p.phase_at(SimTime::from_millis(1300)), Phase::Service);
        assert_eq!(
            p.next_boundary(SimTime::ZERO),
            Some((SimTime::from_millis(300), Phase::Inquiry))
        );
    }

    #[test]
    fn inquiry_remaining_counts_down() {
        let p = fig2_plan();
        assert_eq!(
            p.inquiry_remaining(SimTime::from_millis(250)),
            SimDuration::from_millis(750)
        );
        assert_eq!(
            p.inquiry_remaining(SimTime::from_secs(3)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn paper_section5_cycle() {
        // 3.84 s inquiry in a 15.4 s cycle: the ≈24 % tracking load.
        let duty = DutyCycle::periodic(
            SimDuration::from_millis(3840),
            SimDuration::from_millis(15_400),
        );
        let p = PhasePlan::new(duty, SimTime::ZERO);
        assert_eq!(p.phase_at(SimTime::from_millis(3839)), Phase::Inquiry);
        assert_eq!(p.phase_at(SimTime::from_millis(3840)), Phase::Service);
        assert_eq!(p.phase_at(SimTime::from_millis(15_400)), Phase::Inquiry);
        assert!((duty.inquiry_fraction() - 0.2494).abs() < 1e-3);
    }
}
