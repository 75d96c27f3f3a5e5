//! Composing sub-models into larger worlds.
//!
//! A simulation like the full BIPS system contains several independent
//! models — the Bluetooth baseband, the Ethernet LAN, the pedestrian
//! mobility process — each with its own event vocabulary. The enclosing
//! [`World`](crate::World) defines one event enum with a variant per
//! sub-model and dispatches to each model's `handle` method.
//!
//! Sub-models are written against the [`SubScheduler`] trait rather than a
//! concrete [`Context`], so the *same* model code runs both
//! standalone (its event type is the whole world's event type) and embedded
//! (its events are wrapped in the outer enum via [`MappedContext`]).
//!
//! # Example
//!
//! ```
//! use desim::{Context, Engine, SimDuration, SimTime, World};
//! use desim::compose::{MappedContext, SubScheduler};
//!
//! // A reusable sub-model: emits `Beep` every 10 ms, counts beeps.
//! struct Beeper { beeps: u32 }
//! struct Beep;
//! impl Beeper {
//!     fn start<S: SubScheduler<Beep>>(&mut self, s: &mut S) {
//!         s.schedule(s.now() + SimDuration::from_millis(10), Beep);
//!     }
//!     fn handle<S: SubScheduler<Beep>>(&mut self, s: &mut S, _: Beep) {
//!         self.beeps += 1;
//!         if self.beeps < 3 {
//!             s.schedule(s.now() + SimDuration::from_millis(10), Beep);
//!         }
//!     }
//! }
//!
//! // An outer world embedding the Beeper.
//! enum Ev { Beep(Beep) }
//! struct Outer { beeper: Beeper }
//! impl World for Outer {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Beep(b) => self.beeper.handle(&mut MappedContext::new(ctx, Ev::Beep), b),
//!         }
//!     }
//! }
//!
//! let mut e = Engine::new(Outer { beeper: Beeper { beeps: 0 } }, 0);
//! let ctx = e.context_mut();
//! // Kick off the sub-model through the same adapter.
//! let mut outer = Outer { beeper: Beeper { beeps: 0 } };
//! outer.beeper.start(&mut MappedContext::new(ctx, Ev::Beep));
//! let mut e2 = Engine::new(outer, 0);
//! # let _ = e2;
//! ```

use crate::engine::{Context, EventId, DEFAULT_RANK};
use crate::rng::SimRng;
use crate::time::SimTime;

/// The scheduling surface a sub-model needs: clock, calendar and randomness
/// for its *own* event type `E`.
///
/// [`Context<E>`] implements this directly; [`MappedContext`] implements it
/// on top of a `Context` with a larger event type.
pub trait SubScheduler<E> {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Schedules a sub-model event at absolute time `at`, at
    /// [`DEFAULT_RANK`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_ranked(at, DEFAULT_RANK, event)
    }
    /// Schedules a sub-model event at absolute time `at` with rank `rank`
    /// (see [`Context::schedule_ranked`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `rank` exceeds [`DEFAULT_RANK`].
    fn schedule_ranked(&mut self, at: SimTime, rank: u32, event: E) -> EventId;
    /// Cancels a previously scheduled event; `true` if it was pending.
    fn cancel(&mut self, id: EventId) -> bool;
    /// The deterministic random stream.
    fn rng(&mut self) -> &mut SimRng;
}

impl<E> SubScheduler<E> for Context<E> {
    fn now(&self) -> SimTime {
        Context::now(self)
    }
    fn schedule_ranked(&mut self, at: SimTime, rank: u32, event: E) -> EventId {
        Context::schedule_ranked(self, at, rank, event)
    }
    fn cancel(&mut self, id: EventId) -> bool {
        Context::cancel(self, id)
    }
    fn rng(&mut self) -> &mut SimRng {
        Context::rng(self)
    }
}

/// Adapts a `Context<Outer>` into a [`SubScheduler<Sub>`] by wrapping each
/// sub-model event with `wrap` before scheduling.
#[derive(Debug)]
pub struct MappedContext<'a, Outer, F> {
    ctx: &'a mut Context<Outer>,
    wrap: F,
}

impl<'a, Outer, F> MappedContext<'a, Outer, F> {
    /// Wraps `ctx`, using `wrap` to lift sub-model events into the outer
    /// event type.
    pub fn new(ctx: &'a mut Context<Outer>, wrap: F) -> Self {
        MappedContext { ctx, wrap }
    }
}

impl<'a, Outer, Sub, F> SubScheduler<Sub> for MappedContext<'a, Outer, F>
where
    F: FnMut(Sub) -> Outer,
{
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn schedule_ranked(&mut self, at: SimTime, rank: u32, event: Sub) -> EventId {
        self.ctx.schedule_ranked(at, rank, (self.wrap)(event))
    }
    fn cancel(&mut self, id: EventId) -> bool {
        self.ctx.cancel(id)
    }
    fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SimDuration, World};

    /// A sub-model written purely against SubScheduler.
    #[derive(Debug, Default)]
    struct Counter {
        fired: Vec<SimTime>,
        pending: Option<EventId>,
    }

    #[derive(Debug, PartialEq)]
    struct Fire;

    impl Counter {
        fn arm<S: SubScheduler<Fire>>(&mut self, s: &mut S, delay: SimDuration) {
            self.pending = Some(s.schedule(s.now() + delay, Fire));
        }
        fn disarm<S: SubScheduler<Fire>>(&mut self, s: &mut S) -> bool {
            self.pending.take().map(|id| s.cancel(id)).unwrap_or(false)
        }
        fn handle<S: SubScheduler<Fire>>(&mut self, s: &mut S, _: Fire) {
            self.pending = None;
            self.fired.push(s.now());
        }
    }

    // Standalone: Counter's event type IS the world event type.
    struct Standalone {
        counter: Counter,
    }
    impl World for Standalone {
        type Event = Fire;
        fn handle(&mut self, ctx: &mut Context<Fire>, ev: Fire) {
            self.counter.handle(ctx, ev);
        }
    }

    #[test]
    fn standalone_counter_runs() {
        let mut e = Engine::new(
            Standalone {
                counter: Counter::default(),
            },
            0,
        );
        e.world_mut().counter.pending = None;
        e.schedule(SimTime::from_millis(3), Fire);
        e.run();
        assert_eq!(e.world().counter.fired, vec![SimTime::from_millis(3)]);
    }

    // Embedded: Counter events are one variant of a larger enum.
    #[derive(Debug)]
    enum Outer {
        C(Fire),
        Other,
    }
    struct Embedded {
        counter: Counter,
        others: u32,
    }
    impl World for Embedded {
        type Event = Outer;
        fn handle(&mut self, ctx: &mut Context<Outer>, ev: Outer) {
            match ev {
                Outer::C(f) => {
                    let mut sub = MappedContext::new(ctx, Outer::C);
                    self.counter.handle(&mut sub, f);
                    // Chain another arm from inside the embedded model.
                    if self.counter.fired.len() < 2 {
                        self.counter.arm(&mut sub, SimDuration::from_millis(5));
                    }
                }
                Outer::Other => self.others += 1,
            }
        }
    }

    #[test]
    fn embedded_counter_schedules_through_adapter() {
        let mut e = Engine::new(
            Embedded {
                counter: Counter::default(),
                others: 0,
            },
            0,
        );
        e.schedule(SimTime::from_millis(1), Outer::C(Fire));
        e.schedule(SimTime::from_millis(2), Outer::Other);
        e.run();
        assert_eq!(e.world().others, 1);
        assert_eq!(
            e.world().counter.fired,
            vec![SimTime::from_millis(1), SimTime::from_millis(6)]
        );
    }

    #[test]
    fn cancel_through_adapter() {
        struct W {
            counter: Counter,
        }
        impl World for W {
            type Event = Outer;
            fn handle(&mut self, ctx: &mut Context<Outer>, ev: Outer) {
                if let Outer::C(f) = ev {
                    self.counter
                        .handle(&mut MappedContext::new(ctx, Outer::C), f);
                }
            }
        }
        let mut e = Engine::new(
            W {
                counter: Counter::default(),
            },
            0,
        );
        // Arm then disarm via the adapter; nothing must fire.
        let mut counter = Counter::default();
        {
            let mut sub = MappedContext::new(e.context_mut(), Outer::C);
            counter.arm(&mut sub, SimDuration::from_millis(1));
            assert!(counter.disarm(&mut sub));
        }
        e.world_mut().counter = counter;
        e.run();
        assert!(e.world().counter.fired.is_empty());
    }
}
