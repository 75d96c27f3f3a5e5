//! The handheld ↔ workstation application protocol.
//!
//! What actually crosses a Bluetooth link in BIPS: the login exchange
//! (credentials up, verdict down) and the location-query exchange
//! (target up, answer down). Messages are encoded with the same
//! [`wire`](crate::wire) primitives as the LAN protocol and ride in DM1
//! packets — the simulator charges one slot pair per 17 bytes, so message
//! size is physically meaningful.

use crate::protocol::{HistoryOutcome, LocateOutcome};
use crate::wire::{DecodeError, Reader, Writer};

const TAG_LOGIN_UP: u8 = 1;
const TAG_LOGIN_DOWN: u8 = 2;
const TAG_QUERY_UP: u8 = 3;
const TAG_QUERY_DOWN: u8 = 4;
const TAG_HISTORY_UP: u8 = 5;
const TAG_HISTORY_DOWN: u8 = 6;

/// A message on the handheld ↔ workstation link.
#[derive(Debug, Clone, PartialEq)]
pub enum HandheldMsg {
    /// Handheld → workstation: log me in.
    LoginUp {
        /// Claimed user name.
        user: String,
        /// Password.
        password: String,
    },
    /// Workstation → handheld: login verdict.
    LoginDown {
        /// Whether the server accepted the login.
        ok: bool,
    },
    /// Handheld → workstation: where is `target`?
    QueryUp {
        /// Target user name.
        target: String,
    },
    /// Workstation → handheld: the answer to display.
    QueryDown(LocateOutcome),
    /// Handheld → workstation: where was `target` between two instants?
    HistoryUp {
        /// Target user name.
        target: String,
        /// Window start (µs of simulation time).
        from_us: u64,
        /// Window end (µs).
        to_us: u64,
    },
    /// Workstation → handheld: the movement trace to display.
    HistoryDown(HistoryOutcome),
}

impl HandheldMsg {
    /// Encodes the message for the link.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            HandheldMsg::LoginUp { user, password } => {
                w.u8(TAG_LOGIN_UP).string(user).string(password);
            }
            HandheldMsg::LoginDown { ok } => {
                w.u8(TAG_LOGIN_DOWN).bool(*ok);
            }
            HandheldMsg::QueryUp { target } => {
                w.u8(TAG_QUERY_UP).string(target);
            }
            HandheldMsg::HistoryUp {
                target,
                from_us,
                to_us,
            } => {
                w.u8(TAG_HISTORY_UP)
                    .string(target)
                    .u64(*from_us)
                    .u64(*to_us);
            }
            HandheldMsg::QueryDown(out) => {
                w.u8(TAG_QUERY_DOWN);
                out.encode_into(&mut w);
            }
            HandheldMsg::HistoryDown(out) => {
                w.u8(TAG_HISTORY_DOWN);
                out.encode_into(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decodes a link message.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<HandheldMsg, DecodeError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            TAG_LOGIN_UP => HandheldMsg::LoginUp {
                user: r.string()?,
                password: r.string()?,
            },
            TAG_LOGIN_DOWN => HandheldMsg::LoginDown { ok: r.bool()? },
            TAG_QUERY_UP => HandheldMsg::QueryUp {
                target: r.string()?,
            },
            TAG_HISTORY_UP => HandheldMsg::HistoryUp {
                target: r.string()?,
                from_us: r.u64()?,
                to_us: r.u64()?,
            },
            TAG_QUERY_DOWN => HandheldMsg::QueryDown(LocateOutcome::decode_from(&mut r)?),
            TAG_HISTORY_DOWN => HandheldMsg::HistoryDown(HistoryOutcome::decode_from(&mut r)?),
            t => return Err(DecodeError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: HandheldMsg) {
        let buf = msg.encode();
        assert_eq!(HandheldMsg::decode(&buf), Ok(msg));
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(HandheldMsg::LoginUp {
            user: "alice".into(),
            password: "p√ss".into(),
        });
        round_trip(HandheldMsg::LoginDown { ok: true });
        round_trip(HandheldMsg::LoginDown { ok: false });
        round_trip(HandheldMsg::QueryUp {
            target: "bob".into(),
        });
        round_trip(HandheldMsg::QueryDown(LocateOutcome::Found {
            cell: 3,
            path: vec![0, 1, 3],
            distance: 44.5,
        }));
        for out in [
            LocateOutcome::NotLoggedIn,
            LocateOutcome::OutOfCoverage,
            LocateOutcome::NoSuchUser,
            LocateOutcome::Denied,
            LocateOutcome::QuerierNotLoggedIn,
        ] {
            round_trip(HandheldMsg::QueryDown(out));
        }
    }

    #[test]
    fn history_messages_round_trip() {
        use crate::protocol::HistoryStep;
        round_trip(HandheldMsg::HistoryUp {
            target: "bob".into(),
            from_us: 5,
            to_us: 99,
        });
        round_trip(HandheldMsg::HistoryDown(HistoryOutcome::Trace(vec![
            HistoryStep {
                cell: 2,
                present: true,
                at_us: 7,
            },
        ])));
        round_trip(HandheldMsg::HistoryDown(HistoryOutcome::Denied));
    }

    #[test]
    fn message_sizes_fit_typical_link_budgets() {
        // Login with realistic names: a handful of DM1 packets.
        let login = HandheldMsg::LoginUp {
            user: "giuseppe.mainetto".into(),
            password: "correct horse".into(),
        }
        .encode();
        assert!(login.len() < 64, "{}", login.len());
        // A worst-case path across a large building still encodes small.
        let down = HandheldMsg::QueryDown(LocateOutcome::Found {
            cell: 199,
            path: (0..200).collect(),
            distance: 4000.0,
        })
        .encode();
        assert!(down.len() < 1024);
    }

    #[test]
    fn garbage_rejected() {
        assert!(HandheldMsg::decode(&[]).is_err());
        assert!(HandheldMsg::decode(&[99]).is_err());
        let mut buf = HandheldMsg::LoginDown { ok: true }.encode();
        buf.push(0);
        assert_eq!(HandheldMsg::decode(&buf), Err(DecodeError::TrailingBytes));
    }
}
