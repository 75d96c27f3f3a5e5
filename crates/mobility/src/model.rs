//! The event-driven mobility process.
//!
//! [`MobilityModel`] moves walkers through a [`Building`] on the
//! [`desim`] engine. Motion is piecewise-linear: a *leg* connects two
//! room positions at a per-leg speed. When a leg starts the model
//! intersects it with every coverage circle
//! ([`segment_circle_crossings`])
//! and schedules the exact instants at which the walker enters and leaves
//! each cell — the signal the BIPS radio layer consumes via
//! [`set_in_range`](../../bt_baseband/medium/struct.Baseband.html#method.set_in_range).
//!
//! Like the other substrates, the model is written against
//! [`SubScheduler`] for embedding in the full-system simulation.

use std::collections::{BTreeSet, HashMap};

use desim::compose::SubScheduler;
use desim::stats::OnlineStats;
use desim::{SimDuration, SimTime};

use crate::building::{Building, RoomId};
#[allow(unused_imports)] // referenced by the module docs
use crate::geometry::segment_circle_crossings as _doc_anchor;
use crate::geometry::{inside_circle, segment_circle_crossings, Point};
use crate::walker::{WalkMode, WalkerConfig};

/// Identifies a walker within one [`MobilityModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WalkerId(usize);

impl WalkerId {
    /// Creates an id from a raw index (as returned by
    /// [`MobilityModel::add_walker`]).
    pub fn new(index: usize) -> WalkerId {
        WalkerId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A mobility event. Opaque; wrap and return to
/// [`MobilityModel::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobEvent(Ev);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Bootstrap all walkers.
    Start,
    /// A walker reaches its leg destination.
    LegEnd { walker: usize, epoch: u32 },
    /// A walker crosses a cell boundary.
    Crossing {
        walker: usize,
        room: usize,
        enter: bool,
        epoch: u32,
    },
    /// A room pause ends.
    PauseEnd { walker: usize, epoch: u32 },
}

impl MobEvent {
    /// The bootstrap event: schedule once at simulation start.
    pub fn start() -> MobEvent {
        MobEvent(Ev::Start)
    }
}

/// Things the model tells its embedder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobNotification {
    /// A walker entered a room's coverage cell.
    CellEntered {
        /// Who.
        walker: WalkerId,
        /// Whose cell.
        room: RoomId,
        /// When.
        at: SimTime,
    },
    /// A walker left a room's coverage cell.
    CellExited {
        /// Who.
        walker: WalkerId,
        /// Whose cell.
        room: RoomId,
        /// When.
        at: SimTime,
    },
    /// A walker arrived at a room (leg end).
    Arrived {
        /// Who.
        walker: WalkerId,
        /// Where.
        room: RoomId,
        /// When.
        at: SimTime,
    },
    /// A route walker finished its itinerary.
    RouteDone {
        /// Who.
        walker: WalkerId,
        /// When.
        at: SimTime,
    },
}

/// Mobility counters and dwell-time statistics, exposed for tests and
/// experiment reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MobStats {
    /// Cell (coverage-circle) entries.
    pub cell_entries: u64,
    /// Per-cell entry counts, indexed by room; grows on demand. The
    /// congestion→edge-weight adapter folds these into path weights.
    pub per_cell_entries: Vec<u64>,
    /// Cell exits.
    pub cell_exits: u64,
    /// Room arrivals (leg ends).
    pub arrivals: u64,
    /// Completed `Route` itineraries.
    pub routes_done: u64,
    /// Per-visit cell dwell times in seconds (closed visits only: a
    /// walker still inside a cell at the end of a run has no sample).
    pub dwell_secs: OnlineStats,
}

#[derive(Debug, Clone)]
struct Leg {
    from: Point,
    to: Point,
    depart: SimTime,
    duration: SimDuration,
    dest: RoomId,
}

#[derive(Debug)]
struct WalkerRt {
    cfg: WalkerConfig,
    epoch: u32,
    at_room: RoomId,
    leg: Option<Leg>,
    /// Next index into the route (Route/Loop modes).
    route_pos: usize,
    /// Cells the walker is currently inside (room indices).
    /// Ordered set: `cells_of` iterates it, and iteration order
    /// must not depend on a hasher (workspace determinism).
    inside: BTreeSet<usize>,
}

/// The mobility process over one building.
#[derive(Debug)]
pub struct MobilityModel {
    building: Building,
    walkers: Vec<WalkerRt>,
    notifications: Vec<MobNotification>,
    started: bool,
    stats: MobStats,
    /// When each currently-open (walker, room) cell visit began.
    dwell_since: HashMap<(usize, usize), SimTime>,
}

impl MobilityModel {
    /// A model over `building` with no walkers yet.
    pub fn new(building: Building) -> MobilityModel {
        MobilityModel {
            building,
            walkers: Vec::new(),
            notifications: Vec::new(),
            started: false,
            stats: MobStats::default(),
            dwell_since: HashMap::new(),
        }
    }

    /// The building being walked.
    pub fn building(&self) -> &Building {
        &self.building
    }

    /// Adds a walker.
    ///
    /// # Panics
    ///
    /// Panics if the model already started, the start room is invalid, or
    /// a Route/Loop itinerary uses unconnected consecutive rooms.
    pub fn add_walker(&mut self, cfg: WalkerConfig) -> WalkerId {
        assert!(!self.started, "cannot add walkers after start");
        assert!(
            cfg.start.index() < self.building.num_rooms(),
            "invalid start room"
        );
        match &cfg.mode {
            WalkMode::Route(rooms) | WalkMode::Loop(rooms) => {
                assert!(!rooms.is_empty(), "empty itinerary");
                let mut prev = cfg.start;
                let looped: Vec<RoomId> = if matches!(cfg.mode, WalkMode::Loop(_)) {
                    rooms.iter().copied().chain([rooms[0]]).collect()
                } else {
                    rooms.clone()
                };
                for &r in &looped {
                    if r != prev {
                        assert!(
                            self.building.distance(prev, r).is_some(),
                            "itinerary leg {prev:?}→{r:?} not connected"
                        );
                    }
                    prev = r;
                }
            }
            WalkMode::RandomWalk { .. } | WalkMode::Stationary => {}
        }
        let id = WalkerId(self.walkers.len());
        let at_room = cfg.start;
        self.walkers.push(WalkerRt {
            cfg,
            epoch: 0,
            at_room,
            leg: None,
            route_pos: 0,
            inside: BTreeSet::new(),
        });
        id
    }

    /// A walker's position at time `now`.
    pub fn position(&self, w: WalkerId, now: SimTime) -> Point {
        let rt = &self.walkers[w.0];
        match &rt.leg {
            Some(leg) => {
                let t = now.saturating_since(leg.depart).as_secs_f64() / leg.duration.as_secs_f64();
                leg.from.lerp(leg.to, t.clamp(0.0, 1.0))
            }
            None => self.building.position(rt.at_room),
        }
    }

    /// The room a walker last arrived at (its "logical" room while in
    /// motion).
    pub fn room_of(&self, w: WalkerId) -> RoomId {
        self.walkers[w.0].at_room
    }

    /// The cells a walker is currently inside.
    pub fn cells_of(&self, w: WalkerId) -> Vec<RoomId> {
        // BTreeSet iterates in ascending order: already sorted.
        self.walkers[w.0]
            .inside
            .iter()
            .map(|&i| RoomId::new(i))
            .collect()
    }

    /// Drains accumulated notifications, oldest first.
    pub fn drain_notifications(&mut self) -> Vec<MobNotification> {
        std::mem::take(&mut self.notifications)
    }

    /// Counters and dwell-time statistics.
    pub fn stats(&self) -> &MobStats {
        &self.stats
    }

    /// Exports the model's counters into `metrics` under the
    /// `mobility.*` prefix (see `docs/OBSERVABILITY.md`).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet) {
        let s = &self.stats;
        metrics.set_counter("mobility.cell.entries", s.cell_entries);
        metrics.set_counter("mobility.cell.exits", s.cell_exits);
        metrics.set_counter("mobility.room.arrivals", s.arrivals);
        metrics.set_counter("mobility.route.completed", s.routes_done);
        metrics.observe_stats("mobility.cell.dwell_secs", &s.dwell_secs);
        metrics.gauge("mobility.walkers", self.walkers.len() as f64);
    }

    /// Launches every walker. Usually driven by [`MobEvent::start`].
    pub fn start<S: SubScheduler<MobEvent>>(&mut self, s: &mut S) {
        if self.started {
            return;
        }
        self.started = true;
        for w in 0..self.walkers.len() {
            // Initial containment: standing in the start room.
            let pos = self.building.position(self.walkers[w].at_room);
            self.sync_containment(w, pos, s.now());
            self.next_move(s, w);
        }
    }

    /// Processes one mobility event.
    pub fn handle<S: SubScheduler<MobEvent>>(&mut self, s: &mut S, event: MobEvent) {
        match event.0 {
            Ev::Start => self.start(s),
            Ev::LegEnd { walker, epoch } => {
                if self.walkers[walker].epoch != epoch {
                    return;
                }
                let dest = {
                    let rt = &mut self.walkers[walker];
                    let leg = rt.leg.take().expect("leg in progress");
                    rt.at_room = leg.dest;
                    leg.dest
                };
                self.stats.arrivals += 1;
                self.notifications.push(MobNotification::Arrived {
                    walker: WalkerId(walker),
                    room: dest,
                    at: s.now(),
                });
                // Containment safety net: motion events should have kept
                // `inside` current; re-sync exactly at the room point.
                let pos = self.building.position(dest);
                self.sync_containment(walker, pos, s.now());
                self.after_arrival(s, walker);
            }
            Ev::Crossing {
                walker,
                room,
                enter,
                epoch,
            } => {
                if self.walkers[walker].epoch != epoch {
                    return;
                }
                self.set_inside(walker, room, enter, s.now());
            }
            Ev::PauseEnd { walker, epoch } => {
                if self.walkers[walker].epoch != epoch {
                    return;
                }
                self.next_move(s, walker);
            }
        }
    }

    // ----- movement ----------------------------------------------------

    /// Decides and starts the walker's next action from its current room.
    fn next_move<S: SubScheduler<MobEvent>>(&mut self, s: &mut S, w: usize) {
        let mode = self.walkers[w].cfg.mode.clone();
        match mode {
            WalkMode::Stationary => {}
            WalkMode::Route(route) => {
                let pos = self.walkers[w].route_pos;
                if pos >= route.len() {
                    self.stats.routes_done += 1;
                    self.notifications.push(MobNotification::RouteDone {
                        walker: WalkerId(w),
                        at: s.now(),
                    });
                    return;
                }
                let dest = route[pos];
                self.walkers[w].route_pos += 1;
                if dest == self.walkers[w].at_room {
                    self.next_move(s, w);
                } else {
                    self.start_leg(s, w, dest);
                }
            }
            WalkMode::Loop(route) => {
                let pos = self.walkers[w].route_pos % route.len();
                let dest = route[pos];
                self.walkers[w].route_pos += 1;
                if dest == self.walkers[w].at_room {
                    self.next_move(s, w);
                } else {
                    self.start_leg(s, w, dest);
                }
            }
            WalkMode::RandomWalk { .. } => {
                let neighbors = self.building.neighbors(self.walkers[w].at_room);
                if neighbors.is_empty() {
                    return; // isolated room: nowhere to go
                }
                let dest = *s.rng().choose(&neighbors).expect("non-empty neighbor list");
                self.start_leg(s, w, dest);
            }
        }
    }

    /// After arriving: pause (random walk) or continue.
    fn after_arrival<S: SubScheduler<MobEvent>>(&mut self, s: &mut S, w: usize) {
        match self.walkers[w].cfg.mode.clone() {
            WalkMode::RandomWalk { pause } => {
                let lo = pause.0.as_micros();
                let hi = pause.1.as_micros().max(lo + 1);
                let wait = SimDuration::from_micros(s.rng().range_inclusive(lo, hi));
                let epoch = self.walkers[w].epoch;
                s.schedule(s.now() + wait, MobEvent(Ev::PauseEnd { walker: w, epoch }));
            }
            _ => self.next_move(s, w),
        }
    }

    /// Begins a leg toward an adjacent room, scheduling its end and every
    /// cell-boundary crossing along the way.
    fn start_leg<S: SubScheduler<MobEvent>>(&mut self, s: &mut S, w: usize, dest: RoomId) {
        let now = s.now();
        let from_room = self.walkers[w].at_room;
        let from = self.building.position(from_room);
        let to = self.building.position(dest);
        let walk_dist = self
            .building
            .distance(from_room, dest)
            .unwrap_or_else(|| from.distance(to));
        let speed = {
            let cfg = &self.walkers[w].cfg;
            cfg.draw_speed(s.rng())
        };
        let duration = SimDuration::from_secs_f64((walk_dist / speed).max(1e-6));
        let epoch = self.walkers[w].epoch;
        self.walkers[w].leg = Some(Leg {
            from,
            to,
            depart: now,
            duration,
            dest,
        });
        s.schedule(now + duration, MobEvent(Ev::LegEnd { walker: w, epoch }));

        // Schedule the exact enter/exit instants for every cell this leg
        // crosses. The straight segment approximates the walked path; an
        // edge with a longer walking distance is traversed slower, so the
        // *fractions* still map to the right instants on the segment.
        for cell in self.building.cells() {
            let Some((t_in, t_out)) = segment_circle_crossings(from, to, cell.center, cell.radius)
            else {
                continue;
            };
            let room = cell.room.index();
            if t_in > 0.0 {
                s.schedule(
                    now + mul_f(duration, t_in),
                    MobEvent(Ev::Crossing {
                        walker: w,
                        room,
                        enter: true,
                        epoch,
                    }),
                );
            } else {
                // Already inside at departure.
                self.set_inside(w, room, true, now);
            }
            if t_out < 1.0 {
                s.schedule(
                    now + mul_f(duration, t_out),
                    MobEvent(Ev::Crossing {
                        walker: w,
                        room,
                        enter: false,
                        epoch,
                    }),
                );
            }
        }
        // Cells the walker was inside but whose circle the segment never
        // intersects cannot occur (the start point would intersect), so
        // exits are fully covered by the crossings above.
    }

    // ----- containment --------------------------------------------------

    fn set_inside(&mut self, w: usize, room: usize, enter: bool, at: SimTime) {
        let changed = if enter {
            self.walkers[w].inside.insert(room)
        } else {
            self.walkers[w].inside.remove(&room)
        };
        if changed {
            let n = if enter {
                self.stats.cell_entries += 1;
                if room >= self.stats.per_cell_entries.len() {
                    self.stats.per_cell_entries.resize(room + 1, 0);
                }
                self.stats.per_cell_entries[room] += 1;
                self.dwell_since.insert((w, room), at);
                MobNotification::CellEntered {
                    walker: WalkerId(w),
                    room: RoomId::new(room),
                    at,
                }
            } else {
                self.stats.cell_exits += 1;
                if let Some(since) = self.dwell_since.remove(&(w, room)) {
                    self.stats.dwell_secs.push((at - since).as_secs_f64());
                }
                MobNotification::CellExited {
                    walker: WalkerId(w),
                    room: RoomId::new(room),
                    at,
                }
            };
            self.notifications.push(n);
        }
    }

    /// Forces `inside` to match the instantaneous position (used at
    /// bootstrap and as a safety net at leg ends).
    fn sync_containment(&mut self, w: usize, pos: Point, at: SimTime) {
        for cell in self.building.cells() {
            let is_in = inside_circle(pos, cell.center, cell.radius);
            let was_in = self.walkers[w].inside.contains(&cell.room.index());
            if is_in != was_in {
                self.set_inside(w, cell.room.index(), is_in, at);
            }
        }
    }
}

fn mul_f(d: SimDuration, f: f64) -> SimDuration {
    SimDuration::from_secs_f64(d.as_secs_f64() * f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{Context, Engine, World};

    struct Mob {
        model: MobilityModel,
        notes: Vec<MobNotification>,
    }

    impl World for Mob {
        type Event = MobEvent;
        fn handle(&mut self, ctx: &mut Context<MobEvent>, ev: MobEvent) {
            self.model.handle(ctx, ev);
            self.notes.extend(self.model.drain_notifications());
        }
    }

    /// Two rooms 30 m apart: the 10 m cells do not overlap.
    fn two_room_building() -> (Building, RoomId, RoomId) {
        let mut b = Building::new();
        let a = b.add_room("a", Point::new(0.0, 0.0));
        let c = b.add_room("c", Point::new(30.0, 0.0));
        b.connect(a, c);
        (b, a, c)
    }

    fn engine(model: MobilityModel, seed: u64) -> Engine<Mob> {
        let mut e = Engine::new(
            Mob {
                model,
                notes: vec![],
            },
            seed,
        );
        e.schedule(SimTime::ZERO, MobEvent::start());
        e
    }

    #[test]
    fn stationary_walker_is_inside_its_cell() {
        let (b, a, _) = two_room_building();
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(WalkerConfig::new(a).mode(WalkMode::Stationary));
        let mut e = engine(model, 1);
        e.run_until(SimTime::from_secs(10));
        assert_eq!(e.world().model.cells_of(w), vec![a]);
        assert!(e
            .world()
            .notes
            .iter()
            .any(|n| matches!(n, MobNotification::CellEntered { room, .. } if *room == a)));
    }

    #[test]
    fn route_walker_crosses_cells_in_order() {
        let (b, a, c) = two_room_building();
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(
            WalkerConfig::new(a)
                .mode(WalkMode::Route(vec![c]))
                .speed_range(1.0, 1.0)
                .min_leg_speed(1.0),
        );
        let mut e = engine(model, 2);
        e.run();
        let notes = &e.world().notes;
        // Exit a's cell at 10 m (t = 10 s), enter c's at 20 m (t = 20 s),
        // arrive at 30 s.
        let exit_a = notes
            .iter()
            .find_map(|n| match n {
                MobNotification::CellExited { room, at, .. } if *room == a => Some(*at),
                _ => None,
            })
            .expect("exited a");
        let enter_c = notes
            .iter()
            .find_map(|n| match n {
                MobNotification::CellEntered { room, at, .. } if *room == c => Some(*at),
                _ => None,
            })
            .expect("entered c");
        let arrived = notes
            .iter()
            .find_map(|n| match n {
                MobNotification::Arrived { room, at, .. } if *room == c => Some(*at),
                _ => None,
            })
            .expect("arrived");
        assert_eq!(exit_a, SimTime::from_secs(10));
        assert_eq!(enter_c, SimTime::from_secs(20));
        assert_eq!(arrived, SimTime::from_secs(30));
        assert!(notes
            .iter()
            .any(|n| matches!(n, MobNotification::RouteDone { walker, .. } if *walker == w)));
        assert_eq!(e.world().model.cells_of(w), vec![c]);
    }

    #[test]
    fn position_interpolates_along_leg() {
        let (b, a, c) = two_room_building();
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(
            WalkerConfig::new(a)
                .mode(WalkMode::Route(vec![c]))
                .speed_range(1.0, 1.0)
                .min_leg_speed(1.0),
        );
        let mut e = engine(model, 3);
        e.run_until(SimTime::from_secs(15));
        let p = e.world().model.position(w, SimTime::from_secs(15));
        assert!((p.x - 15.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn random_walker_visits_rooms_and_keeps_moving() {
        let b = Building::academic_department();
        let start = b.room_by_name("lobby").unwrap();
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(WalkerConfig::new(start).mode(WalkMode::RandomWalk {
            pause: (SimDuration::from_secs(1), SimDuration::from_secs(2)),
        }));
        let mut e = engine(model, 4);
        e.run_until(SimTime::from_secs(600));
        let arrivals = e
            .world()
            .notes
            .iter()
            .filter(|n| matches!(n, MobNotification::Arrived { .. }))
            .count();
        assert!(arrivals >= 10, "only {arrivals} arrivals in 10 min");
        let _ = w;
    }

    #[test]
    fn loop_walker_cycles() {
        let mut b = Building::new();
        let a = b.add_room("a", Point::new(0.0, 0.0));
        let c = b.add_room("c", Point::new(25.0, 0.0));
        b.connect(a, c);
        let mut model = MobilityModel::new(b);
        let _ = model.add_walker(
            WalkerConfig::new(a)
                .mode(WalkMode::Loop(vec![c, a]))
                .speed_range(1.0, 1.5),
        );
        let mut e = engine(model, 5);
        e.run_until(SimTime::from_secs(300));
        let arrivals_at_a = e
            .world()
            .notes
            .iter()
            .filter(|n| matches!(n, MobNotification::Arrived { room, .. } if *room == a))
            .count();
        assert!(arrivals_at_a >= 2, "loop never came back: {arrivals_at_a}");
    }

    #[test]
    fn overlapping_cells_both_report() {
        let mut b = Building::new();
        let a = b.add_room("a", Point::new(0.0, 0.0));
        let c = b.add_room("c", Point::new(12.0, 0.0)); // cells overlap (r=10)
        b.connect(a, c);
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(
            WalkerConfig::new(a)
                .mode(WalkMode::Route(vec![c]))
                .speed_range(1.0, 1.0)
                .min_leg_speed(1.0),
        );
        let mut e = engine(model, 6);
        // Midway (t=6, x=6) the walker is inside both cells.
        e.run_until(SimTime::from_secs(6));
        assert_eq!(e.world().model.cells_of(w), vec![a, c]);
        e.run();
        assert_eq!(e.world().model.cells_of(w), vec![c]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn route_must_follow_edges() {
        let mut b = Building::new();
        let a = b.add_room("a", Point::new(0.0, 0.0));
        let c = b.add_room("c", Point::new(30.0, 0.0));
        // no connect
        let mut model = MobilityModel::new(b);
        model.add_walker(WalkerConfig::new(a).mode(WalkMode::Route(vec![c])));
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let b = Building::academic_department();
            let start = b.room_by_name("lobby").unwrap();
            let mut model = MobilityModel::new(b);
            model.add_walker(WalkerConfig::new(start));
            let mut e = engine(model, seed);
            e.run_until(SimTime::from_secs(120));
            e.world().notes.clone()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}

#[cfg(test)]
mod isolated_room_tests {
    use super::*;
    use crate::walker::{WalkMode, WalkerConfig};
    use desim::{Context, Engine, World};

    struct Mob {
        model: MobilityModel,
    }
    impl World for Mob {
        type Event = MobEvent;
        fn handle(&mut self, ctx: &mut Context<MobEvent>, ev: MobEvent) {
            self.model.handle(ctx, ev);
        }
    }

    #[test]
    fn random_walker_in_isolated_room_stays_put() {
        let mut b = Building::new();
        let lonely = b.add_room("island", Point::new(0.0, 0.0));
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(WalkerConfig::new(lonely));
        let mut e = Engine::new(Mob { model }, 1);
        e.schedule(SimTime::ZERO, MobEvent::start());
        e.run_until(SimTime::from_secs(300));
        assert_eq!(e.world().model.room_of(w), lonely);
        assert_eq!(
            e.world().model.position(w, SimTime::from_secs(300)),
            Point::new(0.0, 0.0)
        );
        // The calendar must be quiescent (no runaway rescheduling).
        assert_eq!(e.context_mut().pending(), 0);
    }

    #[test]
    fn stationary_position_is_constant() {
        let mut b = Building::new();
        let r = b.add_room("r", Point::new(3.0, 4.0));
        let mut model = MobilityModel::new(b);
        let w = model.add_walker(WalkerConfig::new(r).mode(WalkMode::Stationary));
        let mut e = Engine::new(Mob { model }, 2);
        e.schedule(SimTime::ZERO, MobEvent::start());
        e.run_until(SimTime::from_secs(100));
        for s in [0u64, 10, 99] {
            assert_eq!(
                e.world().model.position(w, SimTime::from_secs(s)),
                Point::new(3.0, 4.0)
            );
        }
    }
}
