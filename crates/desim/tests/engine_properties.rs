//! Property tests for the event calendar: ordering, tie-breaking,
//! cancellation, and run_until partitioning under arbitrary schedules.

use std::collections::BTreeMap;

use desim::{Context, Engine, EventId, SimDuration, SimTime, World};
use proptest::prelude::*;

#[derive(Default)]
struct Recorder {
    seen: Vec<(SimTime, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Context<u32>, ev: u32) {
        self.seen.push((ctx.now(), ev));
    }
}

proptest! {
    /// Events are delivered in nondecreasing time order, FIFO within ties.
    #[test]
    fn delivery_order_is_total(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut e = Engine::new(Recorder::default(), 0);
        for (i, &t) in times.iter().enumerate() {
            e.schedule(SimTime::from_micros(t), i as u32);
        }
        e.run();
        let seen = &e.world().seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[1].0 >= w[0].0, "time went backwards");
            if w[1].0 == w[0].0 {
                prop_assert!(w[1].1 > w[0].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling a subset removes exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut e = Engine::new(Recorder::default(), 0);
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| e.schedule(SimTime::from_micros(t), i as u32))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(e.context_mut().cancel(*id));
            } else {
                kept.push(i as u32);
            }
        }
        e.run();
        let mut seen: Vec<u32> = e.world().seen.iter().map(|&(_, v)| v).collect();
        seen.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(seen, kept);
    }

    /// Splitting a run with run_until at arbitrary points delivers the
    /// same sequence as a single run.
    #[test]
    fn run_until_partitions_cleanly(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        split in 0u64..1_000,
    ) {
        let schedule = |e: &mut Engine<Recorder>| {
            for (i, &t) in times.iter().enumerate() {
                e.schedule(SimTime::from_micros(t), i as u32);
            }
        };
        let mut whole = Engine::new(Recorder::default(), 0);
        schedule(&mut whole);
        whole.run();

        let mut parts = Engine::new(Recorder::default(), 0);
        schedule(&mut parts);
        parts.run_until(SimTime::from_micros(split));
        parts.run();
        prop_assert_eq!(&whole.world().seen, &parts.world().seen);
    }
}

proptest! {
    /// Differential test of the calendar against an ordered map keyed
    /// `(at, seq)`: random `schedule_at`, `schedule_now`, `cancel` and
    /// `step` calls — cancels hitting live, already-run and
    /// already-cancelled events — pop in the same order, answer every
    /// cancel the same, keep `pending()` equal to the live count, and
    /// never hold more slab slots than the most events ever pending at
    /// once.
    #[test]
    fn calendar_matches_ordered_map(
        ops in proptest::collection::vec((0u8..8, 0u64..40, any::<u64>()), 1..400)
    ) {
        let mut e = Engine::new(Recorder::default(), 0);
        let mut model: BTreeMap<(SimTime, u64), u32> = BTreeMap::new();
        // Every id handed out, with its model key.
        let mut issued: Vec<(EventId, (SimTime, u64))> = Vec::new();
        let mut high_water = 0usize;
        for (seq, &(kind, delay, pick)) in ops.iter().enumerate() {
            let seq = seq as u64;
            match kind {
                0..=2 => {
                    let at = e.now() + SimDuration::from_micros(delay);
                    issued.push((e.schedule(at, seq as u32), (at, seq)));
                    model.insert((at, seq), seq as u32);
                }
                3 => {
                    let at = e.now();
                    issued.push((e.context_mut().schedule_now(seq as u32), (at, seq)));
                    model.insert((at, seq), seq as u32);
                }
                4 | 5 if !issued.is_empty() => {
                    let (id, key) = issued[(pick % issued.len() as u64) as usize];
                    prop_assert_eq!(e.context_mut().cancel(id), model.remove(&key).is_some());
                }
                _ => {
                    let want = model.pop_first();
                    prop_assert_eq!(e.step(), want.is_some());
                    if let Some(((at, _), v)) = want {
                        prop_assert_eq!(e.world().seen.last(), Some(&(at, v)));
                    }
                }
            }
            high_water = high_water.max(model.len());
            prop_assert_eq!(e.context_mut().pending(), model.len());
            prop_assert!(e.context_mut().calendar_slots() <= high_water);
        }
        let rest: Vec<(SimTime, u32)> = model.iter().map(|(&(at, _), &v)| (at, v)).collect();
        let before = e.world().seen.len();
        e.run();
        prop_assert_eq!(&e.world().seen[before..], &rest[..]);
    }
}
