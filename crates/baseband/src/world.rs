//! A standalone [`World`] wrapping one [`Baseband`].
//!
//! For experiments that are purely about the radio layer — everything in
//! §4 of the paper — the medium *is* the whole simulation. The builder
//! collects device configurations; [`BasebandWorld::into_engine`] resolves
//! their per-trial randomness from the seed, puts every slave in every
//! master's range (override by scheduling
//! [`BbEvent::set_in_range`](crate::BbEvent::set_in_range) commands), and
//! arms the bootstrap event.

use desim::{Context, Engine, SeedDeriver, SimTime, World};

use crate::medium::{Baseband, BbEvent, MasterId, SlaveId};
use crate::params::{MasterConfig, MediumConfig, SlaveConfig};

/// A simulation world containing just the Bluetooth medium.
#[derive(Debug)]
pub struct BasebandWorld {
    medium_cfg: MediumConfig,
    masters: Vec<MasterConfig>,
    slaves: Vec<SlaveConfig>,
    all_in_range: bool,
    bb: Option<Baseband>,
}

impl BasebandWorld {
    /// Starts building a world.
    pub fn builder() -> BasebandWorldBuilder {
        BasebandWorldBuilder {
            medium_cfg: MediumConfig::default(),
            masters: Vec::new(),
            slaves: Vec::new(),
            all_in_range: true,
        }
    }

    /// The contained medium.
    ///
    /// # Panics
    ///
    /// Panics if called before [`into_engine`](BasebandWorld::into_engine)
    /// has resolved the devices.
    pub fn baseband(&self) -> &Baseband {
        self.bb
            .as_ref()
            .expect("world not started; call into_engine")
    }

    /// The id of the `i`-th configured master.
    pub fn master(&self, i: usize) -> MasterId {
        assert!(i < self.masters.len(), "master {i} not configured");
        MasterId::new(i)
    }

    /// The id of the `i`-th configured slave.
    pub fn slave(&self, i: usize) -> SlaveId {
        assert!(i < self.slaves.len(), "slave {i} not configured");
        SlaveId::new(i)
    }

    /// Resolves all per-trial randomness from `seed`, builds the engine
    /// and arms the bootstrap event at time zero.
    pub fn into_engine(mut self, seed: u64) -> Engine<BasebandWorld> {
        let deriver = SeedDeriver::new(seed);
        // Device randomness uses a stream distinct from the engine's own.
        let mut cfg_rng = deriver.rng(u64::MAX);
        let mut bb = Baseband::new(self.medium_cfg);
        let masters: Vec<MasterId> = self
            .masters
            .iter()
            .map(|&c| bb.add_master(c, &mut cfg_rng))
            .collect();
        let slaves: Vec<SlaveId> = self
            .slaves
            .iter()
            .map(|&c| bb.add_slave(c, &mut cfg_rng))
            .collect();
        self.bb = Some(bb);
        let all = self.all_in_range;
        let mut engine = Engine::new(self, seed);
        engine.schedule(SimTime::ZERO, BbEvent::start());
        if all {
            for &m in &masters {
                for &s in &slaves {
                    engine.schedule(SimTime::ZERO, BbEvent::set_in_range(m, s, true));
                }
            }
        }
        engine
    }
}

impl World for BasebandWorld {
    type Event = BbEvent;
    fn handle(&mut self, ctx: &mut Context<BbEvent>, event: BbEvent) {
        self.bb
            .as_mut()
            .expect("events before bootstrap")
            .handle(ctx, event);
    }
    fn quiesce(&mut self, ctx: &mut Context<BbEvent>) {
        if let Some(bb) = self.bb.as_mut() {
            bb.settle(ctx.now());
        }
    }
}

/// Builder for [`BasebandWorld`].
#[derive(Debug)]
pub struct BasebandWorldBuilder {
    medium_cfg: MediumConfig,
    masters: Vec<MasterConfig>,
    slaves: Vec<SlaveConfig>,
    all_in_range: bool,
}

impl BasebandWorldBuilder {
    /// Sets the medium configuration.
    pub fn medium(mut self, cfg: MediumConfig) -> Self {
        self.medium_cfg = cfg;
        self
    }

    /// Adds a master.
    pub fn master(mut self, cfg: MasterConfig) -> Self {
        self.masters.push(cfg);
        self
    }

    /// Adds a slave.
    pub fn slave(mut self, cfg: SlaveConfig) -> Self {
        self.slaves.push(cfg);
        self
    }

    /// Adds `n` slaves sharing one configuration template, with addresses
    /// `base_addr + i`.
    pub fn slaves(mut self, n: usize, template: impl Fn(u64) -> SlaveConfig) -> Self {
        for i in 0..n {
            self.slaves.push(template(i as u64));
        }
        self
    }

    /// Whether every slave starts in every master's range (default true).
    pub fn all_in_range(mut self, yes: bool) -> Self {
        self.all_in_range = yes;
        self
    }

    /// Finishes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if no master was configured.
    pub fn build(self) -> BasebandWorld {
        assert!(
            !self.masters.is_empty(),
            "a world needs at least one master"
        );
        BasebandWorld {
            medium_cfg: self.medium_cfg,
            masters: self.masters,
            slaves: self.slaves,
            all_in_range: self.all_in_range,
            bb: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::BdAddr;
    use crate::params::{DutyCycle, ScanPattern};
    use desim::SimDuration;

    #[test]
    fn builder_produces_running_world() {
        let world = BasebandWorld::builder()
            .master(MasterConfig::new(BdAddr::new(1)))
            .slaves(3, |i| {
                SlaveConfig::new(BdAddr::new(0x100 + i)).scan(ScanPattern::continuous_inquiry())
            })
            .build();
        let mut engine = world.into_engine(5);
        engine.run_until(SimTime::from_secs(12));
        assert_eq!(engine.world().baseband().discoveries().len(), 3);
    }

    #[test]
    fn range_can_be_scripted_off() {
        let world = BasebandWorld::builder()
            .master(MasterConfig::new(BdAddr::new(1)))
            .slave(SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::continuous_inquiry()))
            .all_in_range(false)
            .build();
        let mut engine = world.into_engine(6);
        engine.run_until(SimTime::from_secs(12));
        assert!(engine.world().baseband().discoveries().is_empty());
    }

    #[test]
    fn full_enrollment_pipeline() {
        // Discovery → page → link, end to end through scripted commands.
        let world = BasebandWorld::builder()
            .master(MasterConfig::new(BdAddr::new(1)).duty(DutyCycle::periodic(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
            )))
            .slave(SlaveConfig::new(BdAddr::new(2)).scan(ScanPattern::alternating()))
            .build();
        let mut engine = world.into_engine(7);
        let (m, s) = (MasterId::new(0), SlaveId::new(0));
        engine.run_until(SimTime::from_secs(40));
        assert!(
            !engine.world().baseband().discoveries().is_empty(),
            "slave not discovered in 40 s"
        );
        engine.schedule(SimTime::from_secs(40), BbEvent::request_page(m, s));
        engine.run_until(SimTime::from_secs(60));
        assert_eq!(engine.world().baseband().slave_connection(s), Some(m));
    }

    #[test]
    #[should_panic(expected = "at least one master")]
    fn empty_world_rejected() {
        let _ = BasebandWorld::builder().build();
    }
}
