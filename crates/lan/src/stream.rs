//! Length-delimited RPC framing over byte streams.
//!
//! The simulated LAN hands [`transport`](crate::transport) whole
//! datagrams, so frame boundaries are free. A real socket is a byte
//! stream: one `read` can return half a frame, three frames, or a frame
//! and a half. This module is the boundary-recovery layer `bips-serve`
//! and its clients share: each RPC frame crosses the socket as
//! `[len: u32 LE][frame bytes…]`, and [`StreamReframer`] turns an
//! arbitrary sequence of partial reads back into the exact frame
//! sequence that was written — the split-invariance the proptests in
//! `tests/stream_properties.rs` pin down.
//!
//! The reframer is allocation-frugal by design: bytes are appended to
//! one internal buffer, frames are yielded as borrowed slices, and
//! consumed space is reclaimed by moving the unconsumed tail only when
//! it has grown past a threshold (amortized O(1) per byte).

/// Upper bound on a single stream frame, in bytes. Generous: the
/// largest legitimate frame (a `NotifyBatch` at the codec's field cap)
/// is about 1 MiB; anything near `MAX_FRAME_LEN` is a corrupt or
/// hostile length prefix, and rejecting it keeps one connection from
/// holding a multi-gigabyte buffer hostage.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Bytes of dead prefix tolerated before [`StreamReframer`] compacts
/// its buffer.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Why the reframer refused a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix exceeded [`MAX_FRAME_LEN`]. The stream is
    /// unrecoverable (there is no way to resynchronize on a byte
    /// stream) and the connection should be dropped.
    Oversized {
        /// The offending length prefix.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "stream frame length {len} exceeds {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one length-delimited frame to `out`.
///
/// # Panics
///
/// Panics if `frame` exceeds [`MAX_FRAME_LEN`] — a sender-side bug, not
/// a wire condition.
pub fn encode_stream_frame(out: &mut Vec<u8>, frame: &[u8]) {
    assert!(
        frame.len() <= MAX_FRAME_LEN,
        "frame of {} bytes exceeds MAX_FRAME_LEN",
        frame.len()
    );
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
}

/// Begins a length-delimited frame in `out` whose body will be written
/// in place: reserves the 4-byte length slot and returns a token for
/// [`end_stream_frame`]. Lets a server frame a response it encodes
/// directly into its write buffer, with no intermediate copy.
pub fn begin_stream_frame(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    at
}

/// Closes a frame opened by [`begin_stream_frame`], backpatching the
/// length prefix over everything appended since.
///
/// # Panics
///
/// Panics if the body exceeds [`MAX_FRAME_LEN`] or `at` is not a token
/// from `begin_stream_frame` on this buffer — sender-side bugs.
pub fn end_stream_frame(out: &mut [u8], at: usize) {
    let body_len = out
        .len()
        .checked_sub(at + 4)
        .expect("end_stream_frame: buffer shrank past the frame start");
    assert!(
        body_len <= MAX_FRAME_LEN,
        "frame of {body_len} bytes exceeds MAX_FRAME_LEN"
    );
    out[at..at + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
}

/// Incremental deframer for one stream direction.
///
/// Feed bytes with [`extend`](StreamReframer::extend) as they arrive,
/// drain complete frames with [`next_frame`](StreamReframer::next_frame)
/// until it returns `Ok(None)`, repeat. Frame boundaries chosen by the
/// peer's writes and the kernel's reads are invisible: only the byte
/// sequence matters.
#[derive(Debug, Default)]
pub struct StreamReframer {
    buf: Vec<u8>,
    /// Start of unconsumed bytes in `buf`.
    pos: usize,
}

impl StreamReframer {
    /// An empty reframer.
    pub fn new() -> StreamReframer {
        StreamReframer::default()
    }

    /// Appends bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact_if_due();
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, if the buffer holds one. Returns the
    /// frame body (without the length prefix); the slice is valid until
    /// the next call that takes `&mut self`.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let Some(prefix) = self.buf.get(self.pos..self.pos + 4) else {
            return Ok(None); // not even a length prefix yet
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        let start = self.pos + 4;
        let Some(frame) = self.buf.get(start..start + len) else {
            return Ok(None); // body still in flight
        };
        self.pos = start + len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed as frames — the measure a
    /// server checks to bound per-connection memory.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reclaims consumed prefix space once it outgrows the threshold.
    fn compact_if_due(&mut self) {
        if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(r: &mut StreamReframer) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = r.next_frame().expect("well-formed") {
            out.push(f.to_vec());
        }
        out
    }

    #[test]
    fn in_place_framing_matches_encode_stream_frame() {
        for body in [&b""[..], b"x", b"hello frame"] {
            let mut copied = Vec::new();
            encode_stream_frame(&mut copied, body);
            let mut in_place = vec![0xAA]; // pre-existing bytes survive
            let at = begin_stream_frame(&mut in_place);
            in_place.extend_from_slice(body);
            end_stream_frame(&mut in_place, at);
            assert_eq!(&in_place[1..], copied.as_slice());
        }
    }

    #[test]
    fn whole_frames_round_trip() {
        let mut wire = Vec::new();
        encode_stream_frame(&mut wire, b"alpha");
        encode_stream_frame(&mut wire, b"");
        encode_stream_frame(&mut wire, b"gamma");
        let mut r = StreamReframer::new();
        r.extend(&wire);
        assert_eq!(
            frames(&mut r),
            vec![b"alpha".to_vec(), vec![], b"gamma".to_vec()]
        );
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn byte_at_a_time_reassembles() {
        let mut wire = Vec::new();
        encode_stream_frame(&mut wire, b"drip");
        encode_stream_frame(&mut wire, b"feed");
        let mut r = StreamReframer::new();
        let mut got = Vec::new();
        for b in wire {
            r.extend(&[b]);
            got.extend(frames(&mut r));
        }
        assert_eq!(got, vec![b"drip".to_vec(), b"feed".to_vec()]);
    }

    #[test]
    fn partial_prefix_yields_nothing() {
        let mut r = StreamReframer::new();
        r.extend(&[5, 0, 0]); // 3 of 4 length bytes
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.pending(), 3);
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut r = StreamReframer::new();
        r.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert_eq!(
            r.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn compaction_preserves_pending_bytes() {
        let mut r = StreamReframer::new();
        let mut wire = Vec::new();
        encode_stream_frame(&mut wire, &vec![7u8; 32 * 1024]);
        // Push enough consumed frames to cross the compaction threshold,
        // leaving a half-delivered frame straddling the compaction.
        for _ in 0..4 {
            r.extend(&wire);
            assert_eq!(frames(&mut r).len(), 1);
        }
        let mut tail = Vec::new();
        encode_stream_frame(&mut tail, b"straddler");
        let (a, b) = tail.split_at(6);
        r.extend(a);
        assert_eq!(r.next_frame().unwrap(), None);
        r.extend(b);
        assert_eq!(frames(&mut r), vec![b"straddler".to_vec()]);
    }
}
