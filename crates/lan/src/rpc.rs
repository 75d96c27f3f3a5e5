//! Request/response correlation over the reliable transport.
//!
//! BIPS has two request/response interactions: mobile-user queries
//! ("where is user X?") relayed by a workstation to the central server,
//! and login validation. This layer frames application payloads with a
//! direction byte and a correlation id so a host can have several
//! requests in flight and match responses to them.
//!
//! Wire format (inside a transport message):
//! `[dir: u8][corr: u64 LE][payload…]` with dir 0 = request,
//! 1 = response. Any other first byte is not a frame, and neither is
//! anything shorter than the 9-byte header.

use crate::network::HostId;
use crate::transport::AppMessage;

const DIR_REQUEST: u8 = 0;
const DIR_RESPONSE: u8 = 1;
const HEADER_LEN: usize = 9;

/// A correlation id scoped to the issuing host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CorrelationId(u64);

impl CorrelationId {
    /// The raw value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A deframed RPC message, borrowing its payload from the transport
/// message so no path copies per message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcFrame<'a> {
    /// An incoming request to serve.
    Request {
        /// Requesting host.
        from: HostId,
        /// Correlate the response with this.
        corr: CorrelationId,
        /// Request payload, borrowed from the transport message.
        payload: &'a [u8],
    },
    /// A response to a request this host issued.
    Response {
        /// Responding host.
        from: HostId,
        /// The id returned by [`RpcCodec::encode_request`].
        corr: CorrelationId,
        /// Response payload, borrowed from the transport message.
        payload: &'a [u8],
    },
}

impl RpcFrame<'_> {
    /// Re-frames the message exactly as it was decoded: same direction,
    /// correlation id and payload. For every frame produced by
    /// [`RpcCodec::decode_ref`] this reproduces the original bytes —
    /// the round-trip stability the stream fuzz tests pin down — which
    /// is what a relay or proxy needs to forward frames unchanged.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RpcFrame::Request { corr, payload, .. } => encode_frame(DIR_REQUEST, *corr, payload),
            RpcFrame::Response { corr, payload, .. } => encode_frame(DIR_RESPONSE, *corr, payload),
        }
    }
}

/// Stateless-ish codec: allocates correlation ids and frames/deframes RPC
/// messages. One per host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RpcCodec {
    next_corr: u64,
}

impl RpcCodec {
    /// A fresh codec.
    pub fn new() -> RpcCodec {
        RpcCodec::default()
    }

    /// Frames a request, allocating its correlation id.
    pub fn encode_request(&mut self, payload: &[u8]) -> (CorrelationId, Vec<u8>) {
        let corr = CorrelationId(self.next_corr);
        self.next_corr += 1;
        (corr, encode_frame(DIR_REQUEST, corr, payload))
    }

    /// Frames a response to a previously decoded request.
    pub fn encode_response(corr: CorrelationId, payload: &[u8]) -> Vec<u8> {
        encode_frame(DIR_RESPONSE, corr, payload)
    }

    /// Appends a response frame *header* for `corr` to `out`; the
    /// caller writes the payload bytes immediately after. Byte-wise
    /// this is [`encode_response`](RpcCodec::encode_response) split in
    /// two, letting a server encode a response in place in its write
    /// buffer without an intermediate allocation.
    pub fn append_response_header(out: &mut Vec<u8>, corr: CorrelationId) {
        out.push(DIR_RESPONSE);
        out.extend_from_slice(&corr.0.to_le_bytes());
    }

    /// Deframes a transport message without copying the payload, or
    /// `None` if it is not RPC-framed: the returned frame borrows from
    /// `msg`.
    pub fn decode_ref(msg: &AppMessage) -> Option<RpcFrame<'_>> {
        RpcCodec::decode_ref_bytes(msg.src, &msg.payload)
    }

    /// Deframes raw frame bytes (the transport-message payload, or one
    /// length-delimited frame off a byte stream — see
    /// [`stream`](crate::stream)). `from` attributes the frame to its
    /// origin; over a socket that is the connection's peer. `None` for
    /// a first byte other than 0 or 1, or fewer than 9 bytes.
    pub fn decode_ref_bytes(from: HostId, bytes: &[u8]) -> Option<RpcFrame<'_>> {
        let dir = *bytes.first()?;
        let corr = CorrelationId(u64::from_le_bytes(
            bytes.get(1..HEADER_LEN)?.try_into().ok()?,
        ));
        let payload = bytes.get(HEADER_LEN..)?;
        match dir {
            DIR_REQUEST => Some(RpcFrame::Request {
                from,
                corr,
                payload,
            }),
            DIR_RESPONSE => Some(RpcFrame::Response {
                from,
                corr,
                payload,
            }),
            _ => None,
        }
    }
}

/// Frames one direction+correlation header and payload.
fn encode_frame(dir: u8, corr: CorrelationId, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.push(dir);
    out.extend_from_slice(&corr.0.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, payload: Vec<u8>) -> AppMessage {
        AppMessage {
            src: HostId::new(src),
            dst: HostId::new(99),
            payload,
        }
    }

    #[test]
    fn request_round_trip() {
        let mut codec = RpcCodec::new();
        let (corr, framed) = codec.encode_request(b"where is bob");
        match RpcCodec::decode_ref(&msg(3, framed)).unwrap() {
            RpcFrame::Request {
                from,
                corr: c,
                payload,
            } => {
                assert_eq!(from, HostId::new(3));
                assert_eq!(c, corr);
                assert_eq!(payload, b"where is bob");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn response_round_trip() {
        let mut codec = RpcCodec::new();
        let (corr, _) = codec.encode_request(b"q");
        let framed = RpcCodec::encode_response(corr, b"room 42");
        match RpcCodec::decode_ref(&msg(1, framed)).unwrap() {
            RpcFrame::Response {
                corr: c, payload, ..
            } => {
                assert_eq!(c, corr);
                assert_eq!(payload, b"room 42");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn correlation_ids_are_unique_per_codec() {
        let mut codec = RpcCodec::new();
        let (a, _) = codec.encode_request(b"");
        let (b, _) = codec.encode_request(b"");
        assert_ne!(a, b);
        assert_eq!(b.value(), a.value() + 1);
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![])), None);
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![7; 20])), None);
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![0; 5])), None);
        // Exactly one byte short of the header.
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![DIR_REQUEST; 8])), None);
        // Every first byte but 0 and 1, behind a well-formed 17-byte
        // header (correlation id 42, then a nonzero word) and a payload:
        // 2 and 3 included, which once carried a span after the
        // correlation id.
        for dir in [2, 3, 4, 255] {
            let mut bytes = vec![dir];
            bytes.extend_from_slice(&42u64.to_le_bytes());
            bytes.extend_from_slice(&7u64.to_le_bytes());
            bytes.extend_from_slice(b"payload");
            assert_eq!(RpcCodec::decode_ref_bytes(HostId::new(0), &bytes), None);
            assert_eq!(RpcCodec::decode_ref(&msg(0, vec![dir; 20])), None);
        }
    }

    #[test]
    fn frame_encode_reproduces_original_bytes() {
        let mut codec = RpcCodec::new();
        let (corr, request) = codec.encode_request(b"where is bob");
        let response = RpcCodec::encode_response(corr, b"room 42");
        for bytes in [request, response] {
            let frame = RpcCodec::decode_ref_bytes(HostId::new(0), &bytes).unwrap();
            assert_eq!(frame.encode(), bytes);
        }
    }

    #[test]
    fn decode_ref_borrows_the_payload() {
        let mut codec = RpcCodec::new();
        let (corr, framed) = codec.encode_request(b"where is bob");
        let m = msg(3, framed);
        match RpcCodec::decode_ref(&m).unwrap() {
            RpcFrame::Request {
                from,
                corr: c,
                payload,
            } => {
                assert_eq!(from, HostId::new(3));
                assert_eq!(c, corr);
                assert_eq!(payload, b"where is bob");
                // Borrowed view over the same bytes, not a copy.
                assert!(std::ptr::eq(payload, &m.payload[HEADER_LEN..]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_payloads_are_legal() {
        let mut codec = RpcCodec::new();
        let (corr, framed) = codec.encode_request(b"");
        match RpcCodec::decode_ref(&msg(0, framed)).unwrap() {
            RpcFrame::Request {
                corr: c, payload, ..
            } => {
                assert_eq!(c, corr);
                assert!(payload.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }
}
