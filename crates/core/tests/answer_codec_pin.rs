//! Golden bytes of the location and history answers on both links that
//! carry them: the LAN [`Response`] to the workstation and the Bluetooth
//! [`HandheldMsg`] to the handheld.
//!
//! The round-trip tests only check that `decode(encode(x)) == x`, which
//! a codec change consistent with itself still passes. These literal
//! bytes were recorded before the two links shared one answer codec.
//! Handheld message size sets how many DM1 slot pairs a reply costs on
//! the simulated link, so a byte that moves here moves the simulation.

use bips_core::handheld::HandheldMsg;
use bips_core::protocol::{HistoryOutcome, HistoryStep, LocateOutcome, ProtocolError, Response};

/// Response tag of a location answer, and the handheld's.
const LAN_LOCATE: u8 = 104;
const BT_LOCATE: u8 = 4;
/// Response tag of a history answer, and the handheld's.
const LAN_HISTORY: u8 = 105;
const BT_HISTORY: u8 = 6;

/// Every [`LocateOutcome`] variant with its answer body (the bytes after
/// the message tag).
fn locate_cases() -> Vec<(LocateOutcome, Vec<u8>)> {
    vec![
        // Found: outcome 0, cell u32, distance f64 bits, path length
        // u32, path u32s — all little-endian.
        (
            LocateOutcome::Found {
                cell: 5,
                path: vec![0, 1, 258, 5],
                distance: 36.5,
            },
            vec![
                0, 5, 0, 0, 0, 0, 0, 0, 0, 0, 64, 66, 64, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 1,
                0, 0, 5, 0, 0, 0,
            ],
        ),
        (
            LocateOutcome::Found {
                cell: 7,
                path: vec![],
                distance: 0.0,
            },
            vec![0, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ),
        (LocateOutcome::NotLoggedIn, vec![1]),
        (LocateOutcome::OutOfCoverage, vec![2]),
        (LocateOutcome::NoSuchUser, vec![3]),
        (LocateOutcome::Denied, vec![4]),
        (LocateOutcome::QuerierNotLoggedIn, vec![5]),
        // BadQuery: outcome 6, error code, two u32 fields.
        (
            LocateOutcome::BadQuery(ProtocolError::CellOutOfRange {
                cell: 300,
                num_cells: 9,
            }),
            vec![6, 0, 44, 1, 0, 0, 9, 0, 0, 0],
        ),
        (
            LocateOutcome::BadQuery(ProtocolError::PathCorrupt { from: 3, to: 260 }),
            vec![6, 1, 3, 0, 0, 0, 4, 1, 0, 0],
        ),
    ]
}

/// Every [`HistoryOutcome`] variant with its answer body.
fn history_cases() -> Vec<(HistoryOutcome, Vec<u8>)> {
    vec![
        // Trace: outcome 0, step count u32, then per step cell u32,
        // present byte, at_us u64.
        (
            HistoryOutcome::Trace(vec![
                HistoryStep {
                    cell: 2,
                    present: true,
                    at_us: 1_000_007,
                },
                HistoryStep {
                    cell: 2,
                    present: false,
                    at_us: 0x0102_0304_0506_0708,
                },
            ]),
            vec![
                0, 2, 0, 0, 0, 2, 0, 0, 0, 1, 71, 66, 15, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 8, 7, 6, 5,
                4, 3, 2, 1,
            ],
        ),
        (HistoryOutcome::Trace(vec![]), vec![0, 0, 0, 0, 0]),
        (HistoryOutcome::Denied, vec![1]),
        (HistoryOutcome::NoSuchUser, vec![2]),
        (HistoryOutcome::QuerierNotLoggedIn, vec![3]),
    ]
}

fn with_tag(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = vec![tag];
    bytes.extend_from_slice(body);
    bytes
}

#[test]
fn locate_answers_have_the_recorded_bytes_on_both_links() {
    for (out, body) in locate_cases() {
        let lan = Response::LocateResult(out.clone());
        let bt = HandheldMsg::QueryDown(out.clone());
        let (lan_bytes, bt_bytes) = (with_tag(LAN_LOCATE, &body), with_tag(BT_LOCATE, &body));
        assert_eq!(lan.encode(), lan_bytes, "{out:?} on the LAN");
        assert_eq!(bt.encode(), bt_bytes, "{out:?} on the handheld link");
        assert_eq!(Response::decode(&lan_bytes), Ok(lan));
        assert_eq!(HandheldMsg::decode(&bt_bytes), Ok(bt));
    }
}

#[test]
fn history_answers_have_the_recorded_bytes_on_both_links() {
    for (out, body) in history_cases() {
        let lan = Response::HistoryResult(out.clone());
        let bt = HandheldMsg::HistoryDown(out.clone());
        let (lan_bytes, bt_bytes) = (with_tag(LAN_HISTORY, &body), with_tag(BT_HISTORY, &body));
        assert_eq!(lan.encode(), lan_bytes, "{out:?} on the LAN");
        assert_eq!(bt.encode(), bt_bytes, "{out:?} on the handheld link");
        assert_eq!(Response::decode(&lan_bytes), Ok(lan));
        assert_eq!(HandheldMsg::decode(&bt_bytes), Ok(bt));
    }
}
