//! Property tests for the stream reframer and the RPC frame decoder:
//! the invariants `bips-serve` leans on when it carries rpc frames over
//! a real socket.
//!
//! * **Split invariance** — however the kernel chops the byte stream
//!   into reads, the reframer yields exactly the frames that were
//!   written, in order.
//! * **No panics on garbage** — arbitrary bytes fed to the reframer and
//!   to `decode_ref_bytes` never panic; they produce frames or nothing.
//! * **Round-trip stability** — any bytes `decode_ref_bytes` accepts as
//!   a frame re-encode to exactly the original bytes, so a decoded
//!   frame is a faithful, forwardable representation of the wire form.

use bips_lan::network::HostId;
use bips_lan::rpc::RpcCodec;
use bips_lan::stream::{encode_stream_frame, StreamReframer, MAX_FRAME_LEN};
use proptest::prelude::*;

/// Drains every complete frame currently in the reframer.
fn drain(r: &mut StreamReframer) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match r.next_frame() {
            Ok(Some(f)) => out.push(f.to_vec()),
            Ok(None) => return out,
            Err(e) => panic!("well-formed stream rejected: {e}"),
        }
    }
}

proptest! {
    /// Arbitrary frames written to a stream and read back under
    /// arbitrary split points reassemble to the same frame sequence.
    #[test]
    fn reframer_is_split_invariant(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..12),
        splits in proptest::collection::vec(1usize..64, 0..64),
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            encode_stream_frame(&mut wire, f);
        }
        let mut r = StreamReframer::new();
        let mut got = Vec::new();
        // Cut the wire at the proptest-chosen points, cycling if the
        // split list runs short; a final push flushes the remainder.
        let mut at = 0usize;
        let mut i = 0usize;
        while at < wire.len() {
            let step = splits.get(i % splits.len().max(1)).copied().unwrap_or(wire.len());
            let end = (at + step).min(wire.len());
            r.extend(&wire[at..end]);
            got.extend(drain(&mut r));
            at = end;
            i += 1;
        }
        got.extend(drain(&mut r));
        prop_assert_eq!(got, frames);
        prop_assert_eq!(r.pending(), 0);
    }

    /// Garbage never panics the reframer: every yielded frame is a
    /// prefix-consistent slice of the input, and an error only occurs
    /// for an oversized length prefix.
    #[test]
    fn reframer_never_panics_on_garbage(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..12),
    ) {
        let mut r = StreamReframer::new();
        for c in &chunks {
            r.extend(c);
            loop {
                match r.next_frame() {
                    Ok(Some(f)) => prop_assert!(f.len() <= MAX_FRAME_LEN),
                    Ok(None) => break,
                    Err(e) => {
                        // Unrecoverable by contract; stop like a server
                        // dropping the connection would.
                        let _ = e;
                        return Ok(());
                    }
                }
            }
        }
    }

    /// `decode_ref_bytes` never panics, and any bytes it accepts
    /// re-encode (via `RpcFrame::encode`) to exactly the original input
    /// — no frame decodes to something the encoder cannot reproduce.
    #[test]
    fn decode_is_round_trip_stable(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Some(frame) = RpcCodec::decode_ref_bytes(HostId::new(0), &bytes) {
            prop_assert_eq!(frame.encode(), bytes);
        }
    }

    /// Well-formed request frames survive stream transport under any
    /// split and decode back to their exact payloads (seed-style
    /// end-to-end over the reframer).
    #[test]
    fn rpc_frames_survive_the_stream(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..8),
        split in 1usize..16,
    ) {
        let mut codec = RpcCodec::new();
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for p in &payloads {
            let (_, framed) = codec.encode_request(p);
            encode_stream_frame(&mut wire, &framed);
            sent.push(framed);
        }
        let mut r = StreamReframer::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(split) {
            r.extend(chunk);
            got.extend(drain(&mut r));
        }
        prop_assert_eq!(&got, &sent);
        for (bytes, p) in got.iter().zip(&payloads) {
            let frame = RpcCodec::decode_ref_bytes(HostId::new(3), bytes)
                .expect("encoded frame decodes");
            match frame {
                bips_lan::rpc::RpcFrame::Request { payload, .. } => {
                    prop_assert_eq!(payload, p.as_slice());
                }
                other => prop_assert!(false, "expected request, got {:?}", other),
            }
        }
    }
}
