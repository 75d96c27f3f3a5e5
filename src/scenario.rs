//! Text scenario files for `bips-sim`.
//!
//! A scenario is a line-oriented description of a deployment — building,
//! users, duty cycle, scripted events — so experiments can be shared and
//! replayed without writing Rust. Lines are `#`-commented; directives:
//!
//! ```text
//! # geometry: either a preset or explicit rooms/doors
//! building department            # or office:<floors> / corridor:<rooms>
//! room lobby 0 9                 # name x y   (meters)
//! room lab 18 9
//! door lobby lab                 # optional trailing walking distance
//!
//! # deployment parameters
//! duty 3.84 15.4                 # inquiry / cycle, seconds
//! seed 42
//! duration 900                   # seconds
//! batch                          # batch presence updates
//! congestion                     # fold crossing counters into path weights
//!
//! # users: name room [stationary|random|loop room,room,...] [noauto]
//! user alice lobby stationary
//! user bob lab random
//! user carl lab loop lobby,lab
//!
//! # scripted events (seconds)
//! locate 300 alice bob
//! history 600 alice bob 0 600
//! logout 700 carl
//! restart 800                    # server crash + restart
//! ```

use std::fmt;

use bips_core::system::{BipsSystem, SysEvent, SystemConfig, UserSpec};
use bips_core::BipsServer;
use bips_mobility::walker::WalkMode;
use bips_mobility::{Building, Point, RoomId};
use desim::{Engine, SimDuration, SimTime};

/// A parsed scenario, ready to run.
#[derive(Debug)]
pub struct Scenario {
    /// Deployment configuration (building, duty cycle, batching).
    pub config: SystemConfig,
    /// Mobile users.
    pub users: Vec<UserSpec>,
    /// Run length.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Scripted events with their firing times.
    pub script: Vec<(SimTime, SysEvent)>,
}

/// A parse failure, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScenarioError {
    /// 1-based line of the offending directive.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseScenarioError {}

fn err(line: usize, message: impl Into<String>) -> ParseScenarioError {
    ParseScenarioError {
        line,
        message: message.into(),
    }
}

impl Scenario {
    /// Parses a scenario from text.
    ///
    /// # Errors
    ///
    /// Returns the first offending line with a description.
    pub fn parse(text: &str) -> Result<Scenario, ParseScenarioError> {
        let mut building: Option<Building> = None;
        let mut explicit = Building::new();
        let mut has_explicit_rooms = false;
        let mut users: Vec<(usize, String, String, WalkMode, bool)> = Vec::new();
        let mut duty: Option<(f64, f64)> = None;
        let mut seed = 42u64;
        let mut duration = SimDuration::from_secs(900);
        let mut batch = false;
        let mut congestion = false;
        let mut script_raw: Vec<(usize, SimTime, ScriptItem)> = Vec::new();

        enum ScriptItem {
            Locate(String, String),
            History(String, String, u64, u64),
            Logout(String),
            Login(String),
            Restart,
        }

        for (idx, raw) in text.lines().enumerate() {
            let ln = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let directive = tok.next().expect("non-empty line");
            let rest: Vec<&str> = tok.collect();
            match directive {
                "building" => {
                    let spec = rest.first().ok_or_else(|| err(ln, "missing preset"))?;
                    building = Some(
                        preset(spec)
                            .ok_or_else(|| err(ln, format!("unknown building preset '{spec}'")))?,
                    );
                }
                "room" => {
                    let [name, x, y] = rest[..] else {
                        return Err(err(ln, "usage: room <name> <x> <y>"));
                    };
                    let x: f64 = x.parse().map_err(|_| err(ln, "bad x coordinate"))?;
                    let y: f64 = y.parse().map_err(|_| err(ln, "bad y coordinate"))?;
                    if explicit.room_by_name(name).is_some() {
                        return Err(err(ln, format!("duplicate room '{name}'")));
                    }
                    explicit.add_room(name, Point::new(x, y));
                    has_explicit_rooms = true;
                }
                "door" => {
                    if rest.len() < 2 || rest.len() > 3 {
                        return Err(err(ln, "usage: door <a> <b> [distance]"));
                    }
                    let a = explicit
                        .room_by_name(rest[0])
                        .ok_or_else(|| err(ln, format!("unknown room '{}'", rest[0])))?;
                    let b = explicit
                        .room_by_name(rest[1])
                        .ok_or_else(|| err(ln, format!("unknown room '{}'", rest[1])))?;
                    match rest.get(2) {
                        Some(d) => {
                            let d: f64 = d.parse().map_err(|_| err(ln, "bad distance"))?;
                            explicit.connect_with_distance(a, b, d);
                        }
                        None => explicit.connect(a, b),
                    }
                }
                "duty" => {
                    let [inq, cyc] = rest[..] else {
                        return Err(err(ln, "usage: duty <inquiry-s> <cycle-s>"));
                    };
                    let inq: f64 = inq.parse().map_err(|_| err(ln, "bad inquiry"))?;
                    let cyc: f64 = cyc.parse().map_err(|_| err(ln, "bad cycle"))?;
                    if inq <= 0.0 || cyc < inq {
                        return Err(err(ln, "need 0 < inquiry ≤ cycle"));
                    }
                    duty = Some((inq, cyc));
                }
                "seed" => {
                    let v = rest.first().ok_or_else(|| err(ln, "missing seed"))?;
                    seed = v.parse().map_err(|_| err(ln, "bad seed"))?;
                }
                "duration" => {
                    let v = rest.first().ok_or_else(|| err(ln, "missing seconds"))?;
                    let secs: u64 = v.parse().map_err(|_| err(ln, "bad duration"))?;
                    duration = SimDuration::from_secs(secs);
                }
                "batch" => batch = true,
                "congestion" => congestion = true,
                "user" => {
                    if rest.len() < 2 {
                        return Err(err(ln, "usage: user <name> <room> [mode…] [noauto]"));
                    }
                    let name = rest[0].to_string();
                    if users.iter().any(|(_, n, _, _, _)| *n == name) {
                        return Err(err(ln, format!("duplicate user '{name}'")));
                    }
                    let room = rest[1].to_string();
                    let mut noauto = false;
                    let mut mode_tokens: Vec<&str> = Vec::new();
                    for &t in &rest[2..] {
                        if t == "noauto" {
                            noauto = true;
                        } else {
                            mode_tokens.push(t);
                        }
                    }
                    let mode = match mode_tokens.split_first() {
                        None | Some((&"random", _)) => WalkMode::RandomWalk {
                            pause: (SimDuration::from_secs(10), SimDuration::from_secs(40)),
                        },
                        Some((&"stationary", _)) => WalkMode::Stationary,
                        Some((&"loop", args)) | Some((&"route", args)) => {
                            let list = args
                                .first()
                                .ok_or_else(|| err(ln, "loop/route needs room,room,…"))?;
                            // Room names resolved after the building is final.
                            let rooms: Vec<String> = list.split(',').map(str::to_string).collect();
                            if rooms.is_empty() {
                                return Err(err(ln, "empty route"));
                            }
                            // Encode names for later resolution via a marker:
                            // store indices later; for now stash the strings.
                            users.push((ln, name, room, WalkMode::Stationary, noauto));
                            pending_routes(&mut users, mode_tokens[0] == "loop", rooms);
                            continue;
                        }
                        Some((other, _)) => {
                            return Err(err(ln, format!("unknown mode '{other}'")));
                        }
                    };
                    users.push((ln, name, room, mode, noauto));
                }
                "locate" => {
                    let [t, a, b] = rest[..] else {
                        return Err(err(ln, "usage: locate <t-s> <user> <target>"));
                    };
                    let t: u64 = t.parse().map_err(|_| err(ln, "bad time"))?;
                    script_raw.push((
                        ln,
                        SimTime::from_secs(t),
                        ScriptItem::Locate(a.into(), b.into()),
                    ));
                }
                "history" => {
                    let [t, a, b, from, to] = rest[..] else {
                        return Err(err(
                            ln,
                            "usage: history <t-s> <user> <target> <from-s> <to-s>",
                        ));
                    };
                    let t: u64 = t.parse().map_err(|_| err(ln, "bad time"))?;
                    let from: u64 = from.parse().map_err(|_| err(ln, "bad window start"))?;
                    let to: u64 = to.parse().map_err(|_| err(ln, "bad window end"))?;
                    script_raw.push((
                        ln,
                        SimTime::from_secs(t),
                        ScriptItem::History(a.into(), b.into(), from, to),
                    ));
                }
                "logout" => {
                    let [t, a] = rest[..] else {
                        return Err(err(ln, "usage: logout <t-s> <user>"));
                    };
                    let t: u64 = t.parse().map_err(|_| err(ln, "bad time"))?;
                    script_raw.push((ln, SimTime::from_secs(t), ScriptItem::Logout(a.into())));
                }
                "login" => {
                    let [t, a] = rest[..] else {
                        return Err(err(ln, "usage: login <t-s> <user>"));
                    };
                    let t: u64 = t.parse().map_err(|_| err(ln, "bad time"))?;
                    script_raw.push((ln, SimTime::from_secs(t), ScriptItem::Login(a.into())));
                }
                "restart" => {
                    let [t] = rest[..] else {
                        return Err(err(ln, "usage: restart <t-s>"));
                    };
                    let t: u64 = t.parse().map_err(|_| err(ln, "bad time"))?;
                    script_raw.push((ln, SimTime::from_secs(t), ScriptItem::Restart));
                }
                other => return Err(err(ln, format!("unknown directive '{other}'"))),
            }
        }

        // Route placeholders are resolved below.
        fn pending_routes(
            users: &mut [(usize, String, String, WalkMode, bool)],
            is_loop: bool,
            rooms: Vec<String>,
        ) {
            // Marker via a special pause: resolved after building fixing.
            // We stash the route names joined by '\n' in the room field of
            // a phantom entry — simpler: replace the last user's mode with
            // a RandomWalk marker is fragile; instead encode directly:
            let last = users.last_mut().expect("user just pushed");
            // Temporarily encode the route in the room string after a
            // separator; resolved in the second pass.
            last.2 = format!(
                "{}\x1f{}\x1f{}",
                last.2,
                if is_loop { "loop" } else { "route" },
                rooms.join(",")
            );
        }

        let building = match (building, has_explicit_rooms) {
            (Some(_), true) => {
                return Err(err(
                    1,
                    "use either a building preset or explicit rooms, not both",
                ))
            }
            (Some(b), false) => b,
            (None, true) => explicit,
            (None, false) => Building::academic_department(),
        };

        let resolve_room = |name: &str, ln: usize| {
            building
                .room_by_name(name)
                .ok_or_else(|| err(ln, format!("unknown room '{name}'")))
        };

        let mut specs = Vec::with_capacity(users.len());
        for (ln, name, room_field, mode, noauto) in users {
            let mut parts = room_field.split('\x1f');
            let room_name = parts.next().expect("room part");
            let room = resolve_room(room_name, ln)?;
            let mode = match (parts.next(), parts.next()) {
                (Some(kind), Some(list)) => {
                    let route: Result<Vec<RoomId>, _> =
                        list.split(',').map(|r| resolve_room(r, ln)).collect();
                    let route = route?;
                    if kind == "loop" {
                        WalkMode::Loop(route)
                    } else {
                        WalkMode::Route(route)
                    }
                }
                _ => mode,
            };
            specs.push(
                UserSpec::new(name, room.index())
                    .mode(mode)
                    .auto_login(!noauto),
            );
        }

        let mut script = Vec::with_capacity(script_raw.len());
        let known = |n: &str| specs.iter().any(|u| u.name == n);
        for (ln, t, item) in script_raw {
            let ev = match item {
                ScriptItem::Locate(a, b) => {
                    if !known(&a) {
                        return Err(err(ln, format!("unknown user '{a}'")));
                    }
                    SysEvent::locate(a, b)
                }
                ScriptItem::History(a, b, from, to) => {
                    if !known(&a) {
                        return Err(err(ln, format!("unknown user '{a}'")));
                    }
                    SysEvent::history(a, b, from, to)
                }
                ScriptItem::Logout(a) => {
                    if !known(&a) {
                        return Err(err(ln, format!("unknown user '{a}'")));
                    }
                    SysEvent::logout(a)
                }
                ScriptItem::Login(a) => {
                    if !known(&a) {
                        return Err(err(ln, format!("unknown user '{a}'")));
                    }
                    SysEvent::login(a)
                }
                ScriptItem::Restart => SysEvent::restart_server(),
            };
            script.push((t, ev));
        }

        let (inq, cyc) = duty.unwrap_or((3.84, 15.4));
        let config = SystemConfig {
            building,
            duty: bt_baseband::params::DutyCycle::periodic(
                SimDuration::from_secs_f64(inq),
                SimDuration::from_secs_f64(cyc),
            ),
            sweep_interval: SimDuration::from_secs_f64(cyc),
            absence_timeout: SimDuration::from_secs_f64(2.0 * cyc),
            batch_updates: batch,
            congestion_weights: congestion,
            ..SystemConfig::default()
        };

        Ok(Scenario {
            config,
            users: specs,
            duration,
            seed,
            script,
        })
    }

    /// Builds the engine with every user added and the script scheduled.
    pub fn into_engine(self) -> Engine<BipsSystem> {
        let mut builder = BipsSystem::builder(self.config);
        for u in self.users {
            builder = builder.user(u);
        }
        let mut engine = builder.into_engine(self.seed);
        for (t, ev) in self.script {
            engine.schedule(t, ev);
        }
        engine
    }

    /// Convenience: the server after running the scenario to completion.
    pub fn run(self) -> (Engine<BipsSystem>, BipsServer) {
        let duration = self.duration;
        let mut engine = self.into_engine();
        engine.run_until(SimTime::ZERO + duration);
        let server = engine.world().server().clone();
        (engine, server)
    }
}

/// The building named by a preset spec — `department`,
/// `office:<floors>` (at least one floor) or `corridor:<rooms>` (at
/// least two rooms) — or `None` for anything else. The `building`
/// directive and `bips-sim --building` both parse through it.
pub fn preset(spec: &str) -> Option<Building> {
    if spec == "department" {
        return Some(Building::academic_department());
    }
    if let Some(floors) = spec.strip_prefix("office:") {
        return floors
            .parse::<usize>()
            .ok()
            .filter(|&f| f > 0)
            .map(Building::multi_floor_office);
    }
    if let Some(rooms) = spec.strip_prefix("corridor:") {
        let rooms: usize = rooms.parse().ok().filter(|&r| r >= 2)?;
        let mut b = Building::new();
        let ids: Vec<RoomId> = (0..rooms)
            .map(|i| b.add_room(format!("room-{i}"), Point::new(18.0 * i as f64, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.connect(w[0], w[1]);
        }
        return Some(b);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let text = "\
# a custom two-room site
room lobby 0 0
room lab 25 0
door lobby lab
duty 4 8
seed 7
duration 300
user alice lobby stationary
user bob lab stationary noauto
user carl lobby loop lab,lobby
locate 120 alice bob
login 150 bob
restart 200
";
        let sc = Scenario::parse(text).expect("parse");
        assert_eq!(sc.config.building.num_rooms(), 2);
        assert_eq!(sc.users.len(), 3);
        assert!(!sc.users[1].auto_login);
        assert!(matches!(sc.users[2].mode, WalkMode::Loop(ref r) if r.len() == 2));
        assert_eq!(sc.seed, 7);
        assert_eq!(sc.duration, SimDuration::from_secs(300));
        assert_eq!(sc.script.len(), 3);
    }

    #[test]
    fn parsed_scenario_actually_runs() {
        let text = "\
building corridor:2
duty 4 8
duration 200
seed 5
user alice room-0 stationary
user bob room-1 stationary
locate 120 alice bob
";
        let (engine, server) = Scenario::parse(text).expect("parse").run();
        assert!(engine.world().is_logged_in("alice"));
        assert_eq!(server.locate_by_name("bob"), Some(1));
        let q = &engine.world().queries()[0];
        assert!(q.answered_at.is_some(), "{q:?}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("room a 0", "usage: room"),
            ("door a b", "unknown room"),
            ("building atlantis", "unknown building preset"),
            ("duty 5 1", "need 0 < inquiry"),
            ("user a nowhere", "unknown room"),
            ("frobnicate 1", "unknown directive"),
            ("user a", "usage: user"),
        ];
        for (text, needle) in cases {
            let e = Scenario::parse(text).expect_err(text);
            assert_eq!(e.line, 1, "{text}");
            assert!(e.message.contains(needle), "{text}: {e}");
        }
        let multi = "room a 0 0\nroom a 1 1\n";
        let e = Scenario::parse(multi).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate room"));
    }

    #[test]
    fn script_users_must_exist() {
        let text = "building corridor:2\nuser alice room-0\nlocate 10 ghost alice\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown user 'ghost'"));
    }

    #[test]
    fn comments_and_defaults() {
        let sc = Scenario::parse("# nothing but comments\n").expect("parse");
        assert_eq!(sc.config.building.num_rooms(), 9, "default: department");
        assert_eq!(sc.seed, 42);
        assert!(sc.users.is_empty());
    }

    #[test]
    fn preset_and_explicit_rooms_conflict() {
        let text = "building department\nroom extra 0 0\n";
        let e = Scenario::parse(text).unwrap_err();
        assert!(e.message.contains("not both"));
    }
}
