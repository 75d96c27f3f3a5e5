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
//! 1 = response. Traced frames use dir 2 = request, 3 = response and
//! carry a trace span id between the correlation id and the payload:
//! `[dir: u8][corr: u64 LE][span: u64 LE][payload…]` — so one request's
//! [`SpanId`] survives the hop from the client
//! through frame decode to the serving shard and back in the response.
//! Untraced decoders reject traced frames (unknown dir byte) rather
//! than misreading the span as payload, and traced decoders accept
//! both forms (legacy frames decode with span
//! [`SpanId::NONE`](desim::tracing::SpanId::NONE)). A traced-direction
//! frame whose span field *is* `NONE` is rejected outright — the
//! encoder can never produce one, so it is garbage, not a frame.

use crate::network::HostId;
use crate::transport::AppMessage;
use desim::tracing::{SpanId, TraceKind, Tracer};

const DIR_REQUEST: u8 = 0;
const DIR_RESPONSE: u8 = 1;
const DIR_REQUEST_TRACED: u8 = 2;
const DIR_RESPONSE_TRACED: u8 = 3;
const HEADER_LEN: usize = 9;
const TRACED_HEADER_LEN: usize = 17;

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
        /// Trace span carried by the frame ([`SpanId::NONE`] for
        /// untraced frames).
        span: SpanId,
        /// Request payload, borrowed from the transport message.
        payload: &'a [u8],
    },
    /// A response to a request this host issued.
    Response {
        /// Responding host.
        from: HostId,
        /// The id returned by [`RpcCodec::encode_request`].
        corr: CorrelationId,
        /// Trace span carried by the frame ([`SpanId::NONE`] for
        /// untraced frames).
        span: SpanId,
        /// Response payload, borrowed from the transport message.
        payload: &'a [u8],
    },
}

impl RpcFrame<'_> {
    /// The span the frame carries ([`SpanId::NONE`] for untraced
    /// frames).
    pub fn span(&self) -> SpanId {
        match self {
            RpcFrame::Request { span, .. } | RpcFrame::Response { span, .. } => *span,
        }
    }

    /// Re-frames the message exactly as it was decoded: same direction,
    /// correlation id, span and payload. For every frame produced by
    /// [`RpcCodec::decode_ref`] this reproduces the original bytes —
    /// the round-trip stability the stream fuzz tests pin down — which
    /// is what a relay or proxy needs to forward frames unchanged.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RpcFrame::Request {
                corr,
                span,
                payload,
                ..
            } => encode_frame(DIR_REQUEST, *corr, *span, payload),
            RpcFrame::Response {
                corr,
                span,
                payload,
                ..
            } => encode_frame(DIR_RESPONSE, *corr, *span, payload),
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
        self.encode_request_inner(SpanId::NONE, payload)
    }

    /// Frames a traced request: like
    /// [`encode_request`](RpcCodec::encode_request), but the frame
    /// carries `span` so the server can attribute its shard-side trace
    /// events to this request.
    pub fn encode_request_traced(
        &mut self,
        span: SpanId,
        payload: &[u8],
    ) -> (CorrelationId, Vec<u8>) {
        self.encode_request_inner(span, payload)
    }

    fn encode_request_inner(&mut self, span: SpanId, payload: &[u8]) -> (CorrelationId, Vec<u8>) {
        let corr = CorrelationId(self.next_corr);
        self.next_corr += 1;
        (corr, encode_frame(DIR_REQUEST, corr, span, payload))
    }

    /// Frames a response to a previously decoded request.
    pub fn encode_response(corr: CorrelationId, payload: &[u8]) -> Vec<u8> {
        encode_frame(DIR_RESPONSE, corr, SpanId::NONE, payload)
    }

    /// Appends an untraced response frame *header* for `corr` to `out`;
    /// the caller writes the payload bytes immediately after. Byte-wise
    /// this is [`encode_response`](RpcCodec::encode_response) split in
    /// two, letting a server encode a response in place in its write
    /// buffer without an intermediate allocation.
    pub fn append_response_header(out: &mut Vec<u8>, corr: CorrelationId) {
        out.push(DIR_RESPONSE);
        out.extend_from_slice(&corr.0.to_le_bytes());
    }

    /// Frames a traced response: the request's span rides back so the
    /// client can close the loop on its trace.
    pub fn encode_response_traced(corr: CorrelationId, span: SpanId, payload: &[u8]) -> Vec<u8> {
        encode_frame(DIR_RESPONSE, corr, span, payload)
    }

    /// Deframes a transport message without copying the payload, or
    /// `None` if it is not RPC-framed: the returned frame borrows from
    /// `msg`. Both untraced (9-byte header, span
    /// [`NONE`](SpanId::NONE)) and traced (17-byte header) frames
    /// decode.
    pub fn decode_ref(msg: &AppMessage) -> Option<RpcFrame<'_>> {
        RpcCodec::decode_ref_bytes(msg.src, &msg.payload)
    }

    /// Deframes raw frame bytes (the transport-message payload, or one
    /// length-delimited frame off a byte stream — see
    /// [`stream`](crate::stream)). `from` attributes the frame to its
    /// origin; over a socket that is the connection's peer.
    ///
    /// A traced-direction frame carrying span [`NONE`](SpanId::NONE) is
    /// rejected: the encoder only upgrades to the traced form for a
    /// real span, so such a frame cannot have come from this codec and
    /// would decode to an event-less span downstream tracing treats as
    /// "untraced" — a mismatch between wire form and meaning.
    pub fn decode_ref_bytes(from: HostId, bytes: &[u8]) -> Option<RpcFrame<'_>> {
        let dir = *bytes.first()?;
        let traced = match dir {
            DIR_REQUEST | DIR_RESPONSE => false,
            DIR_REQUEST_TRACED | DIR_RESPONSE_TRACED => true,
            _ => return None,
        };
        let header = if traced {
            TRACED_HEADER_LEN
        } else {
            HEADER_LEN
        };
        if bytes.len() < header {
            return None;
        }
        let corr = CorrelationId(u64::from_le_bytes(bytes.get(1..9)?.try_into().ok()?));
        let span = if traced {
            let span = SpanId(u64::from_le_bytes(bytes.get(9..17)?.try_into().ok()?));
            if span.is_none() {
                return None;
            }
            span
        } else {
            SpanId::NONE
        };
        let payload = bytes.get(header..)?;
        if dir == DIR_REQUEST || dir == DIR_REQUEST_TRACED {
            Some(RpcFrame::Request {
                from,
                corr,
                span,
                payload,
            })
        } else {
            Some(RpcFrame::Response {
                from,
                corr,
                span,
                payload,
            })
        }
    }

    /// [`decode_ref`](RpcCodec::decode_ref) plus observability: traced
    /// frames record a [`TraceKind::FrameDecode`] event on `ring`
    /// (`code` = direction byte, `arg` = correlation id). Untraced
    /// frames decode without touching the tracer.
    pub fn decode_ref_recorded<'a>(
        msg: &'a AppMessage,
        tracer: &Tracer,
        ring: usize,
    ) -> Option<RpcFrame<'a>> {
        let frame = RpcCodec::decode_ref(msg)?;
        let span = frame.span();
        if !span.is_none() {
            let (dir, corr) = match &frame {
                RpcFrame::Request { corr, .. } => (DIR_REQUEST_TRACED, corr.0),
                RpcFrame::Response { corr, .. } => (DIR_RESPONSE_TRACED, corr.0),
            };
            tracer.record(
                ring,
                TraceKind::FrameDecode,
                span,
                ring as u16,
                u32::from(dir),
                corr,
            );
        }
        Some(frame)
    }

    /// [`encode_response_traced`](RpcCodec::encode_response_traced)
    /// plus observability: a non-[`NONE`](SpanId::NONE) span records a
    /// [`TraceKind::FrameEncode`] event on `ring` before the frame is
    /// built, closing the request's span at the wire.
    pub fn encode_response_recorded(
        corr: CorrelationId,
        span: SpanId,
        payload: &[u8],
        tracer: &Tracer,
        ring: usize,
    ) -> Vec<u8> {
        if !span.is_none() {
            tracer.record(
                ring,
                TraceKind::FrameEncode,
                span,
                ring as u16,
                u32::from(DIR_RESPONSE_TRACED),
                corr.0,
            );
        }
        encode_frame(DIR_RESPONSE, corr, span, payload)
    }
}

/// Frames one direction+correlation(+span) header and payload. `dir` is
/// the *untraced* direction byte; a non-[`NONE`](SpanId::NONE) span
/// upgrades it to the traced form, so untraced traffic stays
/// byte-identical to the legacy format.
fn encode_frame(dir: u8, corr: CorrelationId, span: SpanId, payload: &[u8]) -> Vec<u8> {
    debug_assert!(
        dir == DIR_REQUEST || dir == DIR_RESPONSE,
        "encode_frame takes the untraced direction byte, got {dir}"
    );
    if span.is_none() {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.push(dir);
        out.extend_from_slice(&corr.0.to_le_bytes());
        out.extend_from_slice(payload);
        out
    } else {
        let mut out = Vec::with_capacity(TRACED_HEADER_LEN + payload.len());
        out.push(dir + 2);
        out.extend_from_slice(&corr.0.to_le_bytes());
        out.extend_from_slice(&span.0.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }
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
                span,
                payload,
            } => {
                assert_eq!(from, HostId::new(3));
                assert_eq!(c, corr);
                assert_eq!(span, SpanId::NONE);
                assert_eq!(payload, b"where is bob");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traced_request_round_trip() {
        let mut codec = RpcCodec::new();
        let span = SpanId(0xDEAD_BEEF);
        let (corr, framed) = codec.encode_request_traced(span, b"where is bob");
        assert_eq!(framed[0], DIR_REQUEST_TRACED);
        let m = msg(3, framed);
        match RpcCodec::decode_ref(&m).unwrap() {
            RpcFrame::Request {
                from,
                corr: c,
                span: s,
                payload,
            } => {
                assert_eq!(from, HostId::new(3));
                assert_eq!(c, corr);
                assert_eq!(s, span);
                assert_eq!(payload, b"where is bob");
                assert!(std::ptr::eq(payload, &m.payload[TRACED_HEADER_LEN..]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traced_response_round_trip() {
        let mut codec = RpcCodec::new();
        let span = SpanId(7);
        let (corr, _) = codec.encode_request_traced(span, b"q");
        let framed = RpcCodec::encode_response_traced(corr, span, b"room 42");
        assert_eq!(framed[0], DIR_RESPONSE_TRACED);
        match RpcCodec::decode_ref(&msg(1, framed)).unwrap() {
            RpcFrame::Response {
                corr: c,
                span: s,
                payload,
                ..
            } => {
                assert_eq!(c, corr);
                assert_eq!(s, span);
                assert_eq!(payload, b"room 42");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn none_span_keeps_legacy_wire_format() {
        // A traced encode with SpanId::NONE must stay byte-identical to
        // the untraced form — tracing off means bytes unchanged.
        let mut a = RpcCodec::new();
        let mut b = RpcCodec::new();
        let (_, legacy) = a.encode_request(b"payload");
        let (_, traced_none) = b.encode_request_traced(SpanId::NONE, b"payload");
        assert_eq!(legacy, traced_none);
        let (ca, _) = a.encode_request(b"");
        assert_eq!(
            RpcCodec::encode_response(ca, b"r"),
            RpcCodec::encode_response_traced(ca, SpanId::NONE, b"r")
        );
    }

    #[test]
    fn traced_frames_reject_short_headers() {
        // 10 bytes is a full legacy header but a truncated traced one.
        let mut short = vec![DIR_REQUEST_TRACED];
        short.extend_from_slice(&[0; 9]);
        assert_eq!(RpcCodec::decode_ref(&msg(0, short)), None);
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
        // Unknown direction bytes, including just-past-traced.
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![4; 20])), None);
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![255; 20])), None);
        // Exactly one byte short of each header form.
        assert_eq!(RpcCodec::decode_ref(&msg(0, vec![DIR_REQUEST; 8])), None);
        assert_eq!(
            RpcCodec::decode_ref(&msg(0, vec![DIR_REQUEST_TRACED; 16])),
            None
        );
    }

    #[test]
    fn traced_dir_with_none_span_is_rejected() {
        // A traced-direction frame carrying SpanId::NONE could never
        // have been produced by encode_frame (it only upgrades the dir
        // for a real span), so decode refuses to fabricate one.
        for dir in [DIR_REQUEST_TRACED, DIR_RESPONSE_TRACED] {
            let mut bytes = vec![dir];
            bytes.extend_from_slice(&42u64.to_le_bytes()); // corr
            bytes.extend_from_slice(&SpanId::NONE.0.to_le_bytes());
            bytes.extend_from_slice(b"payload");
            assert_eq!(RpcCodec::decode_ref_bytes(HostId::new(0), &bytes), None);
        }
        // The same header with a real span decodes fine.
        let mut ok = vec![DIR_REQUEST_TRACED];
        ok.extend_from_slice(&42u64.to_le_bytes());
        ok.extend_from_slice(&7u64.to_le_bytes());
        ok.extend_from_slice(b"payload");
        assert!(RpcCodec::decode_ref_bytes(HostId::new(0), &ok).is_some());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "untraced direction byte")]
    fn encode_frame_rejects_traced_dir_input() {
        // encode_frame's contract is "pass the untraced dir, the span
        // upgrades it"; passing an already-traced dir would double-shift
        // the direction space.
        let _ = encode_frame(DIR_REQUEST_TRACED, CorrelationId(0), SpanId::NONE, b"");
    }

    #[test]
    fn frame_encode_reproduces_original_bytes() {
        let mut codec = RpcCodec::new();
        let (_, untraced) = codec.encode_request(b"where is bob");
        let (_, traced) = codec.encode_request_traced(SpanId(99), b"where is bob");
        let (corr, _) = codec.encode_request(b"");
        let resp = RpcCodec::encode_response(corr, b"room 42");
        let resp_traced = RpcCodec::encode_response_traced(corr, SpanId(5), b"room 42");
        for bytes in [untraced, traced, resp, resp_traced] {
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
                span,
                payload,
            } => {
                assert_eq!(from, HostId::new(3));
                assert_eq!(c, corr);
                assert_eq!(span, SpanId::NONE);
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

    #[test]
    fn recorded_decode_and_encode_emit_frame_events() {
        let tracer = Tracer::new(2, 8);
        let mut codec = RpcCodec::new();
        let span = SpanId(77);
        let (corr, framed) = codec.encode_request_traced(span, b"q");
        let request = msg(3, framed);
        let frame = RpcCodec::decode_ref_recorded(&request, &tracer, 1).expect("decodes");
        assert_eq!(frame.span(), span);
        let resp = msg(
            9,
            RpcCodec::encode_response_recorded(corr, span, b"a", &tracer, 1),
        );
        match RpcCodec::decode_ref_recorded(&resp, &tracer, 1).expect("decodes") {
            RpcFrame::Response { span: s, .. } => assert_eq!(s, span),
            other => panic!("{other:?}"),
        }
        let evs = tracer.last_events(8);
        let kinds: Vec<TraceKind> = evs.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::FrameDecode,
                TraceKind::FrameEncode,
                TraceKind::FrameDecode
            ]
        );
        assert!(evs.iter().all(|e| e.span == span && e.arg == corr.value()));
    }

    #[test]
    fn recorded_variants_skip_untraced_frames() {
        let tracer = Tracer::new(1, 8);
        let mut codec = RpcCodec::new();
        let (corr, framed) = codec.encode_request(b"q");
        assert!(RpcCodec::decode_ref_recorded(&msg(0, framed), &tracer, 0).is_some());
        let resp = RpcCodec::encode_response_recorded(corr, SpanId::NONE, b"a", &tracer, 0);
        assert_eq!(resp, RpcCodec::encode_response(corr, b"a"));
        assert_eq!(tracer.recorded(), 0);
        assert_eq!(tracer.dropped(), 0);
    }
}
