//! The daemon's socket envelope.
//!
//! NetFlow v5 frames carry no tenant identity, so the daemon wraps each
//! frame in a one-byte tenant prefix:
//!
//! ```text
//! UDP datagram:  [tenant u8][netflow v5 frame ...]
//! TCP message:   [tenant u8][len u32 BE][len bytes of netflow v5 frame]
//! ```
//!
//! The TCP length prefix delimits messages on the byte stream; the frame
//! *content* is still validated against its own header-declared record
//! count by [`odflow_flow::netflow::check_frame_bounds`] inside the
//! lossy decoder — both transports converge on that single
//! frame-boundary authority, so a frame that quarantines as
//! truncated/oversized over UDP quarantines identically over TCP.
//!
//! Tenant byte [`CONTROL_TENANT`] addresses the daemon itself: a payload
//! of [`CONTROL_DRAIN`] requests a graceful drain-and-flush shutdown.

use odflow_flow::netflow::{frame_wire_len, MAX_RECORDS_PER_DATAGRAM};

/// Reserved tenant byte addressing the daemon's control channel.
pub const CONTROL_TENANT: u8 = 0xFF;

/// Control payload requesting a graceful drain-and-flush shutdown.
pub const CONTROL_DRAIN: &[u8] = b"drain";

/// Upper bound on a TCP message's declared payload length: four times
/// the largest valid v5 frame. The headroom is deliberate — oversized or
/// garbled frames must still be *deliverable* so they reach the
/// quarantine accounting; only a declared length beyond this bound is a
/// framing-protocol violation that drops the connection.
pub const MAX_MESSAGE_LEN: usize = frame_wire_len(MAX_RECORDS_PER_DATAGRAM as u16) * 4;

/// Bytes of TCP message overhead before the payload (tenant + length).
pub const MESSAGE_PREFIX_LEN: usize = 5;

/// Wraps one frame as a UDP datagram payload.
#[must_use]
pub fn encode_datagram(tenant: u8, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + frame.len());
    out.push(tenant);
    out.extend_from_slice(frame);
    out
}

/// Splits a received UDP payload into its tenant byte and frame, or
/// `None` for an empty datagram.
#[must_use]
pub fn decode_datagram(payload: &[u8]) -> Option<(u8, &[u8])> {
    let (&tenant, frame) = payload.split_first()?;
    Some((tenant, frame))
}

/// Wraps one frame as a length-prefixed TCP message.
#[must_use]
pub fn encode_message(tenant: u8, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MESSAGE_PREFIX_LEN + frame.len());
    out.push(tenant);
    out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
    out.extend_from_slice(frame);
    out
}

/// A declared TCP message length beyond [`MAX_MESSAGE_LEN`] — the one
/// framing fault that cannot be quarantined frame-by-frame, because the
/// stream offset is no longer trustworthy. The connection is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedMessage {
    /// The length the prefix declared.
    pub declared: usize,
}

impl std::fmt::Display for OversizedMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "declared message length {} exceeds the {MAX_MESSAGE_LEN}-byte bound",
            self.declared
        )
    }
}

/// Bytes [`MessageReader::read_from`] asks its source for at a time: a
/// loopback or LAN socket hands over its whole receive queue in a few
/// reads of this size, and at ~45 full frames apiece a read is what one
/// admission batch amortizes its lock and wake-up over.
const READ_CHUNK: usize = 64 * 1024;

/// Incremental parser for the length-prefixed TCP stream. Feed it bytes
/// as they arrive; it lends out complete `(tenant, frame)` messages from
/// its own buffer.
///
/// Received bytes are written once, at the end of the buffer, and never
/// moved while messages are being taken: a cursor walks over them, and
/// whatever partial message is left is moved to the front once, when the
/// next bytes arrive.
///
/// Buffering is bounded by construction: an incomplete message holds at
/// most [`MESSAGE_PREFIX_LEN`]` + `[`MAX_MESSAGE_LEN`] bytes, because a
/// larger declared length errors before any payload is buffered.
#[derive(Debug, Default)]
pub struct MessageReader {
    /// `buf[head..tail]` is received and not yet taken; `buf[tail..]` is
    /// initialized spare room, so a read needs no zeroing first.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl MessageReader {
    /// An empty reader.
    #[must_use]
    pub fn new() -> Self {
        MessageReader::default()
    }

    /// Moves the untaken bytes to the front and makes sure `room` more
    /// fit behind them — the one compaction per arrival.
    fn make_room(&mut self, room: usize) {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        if self.buf.len() < self.tail + room {
            self.buf.resize(self.tail + room, 0);
        }
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.tail..self.tail + bytes.len()].copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Reads once from `src` straight into the buffer; returns what the
    /// read returned (`Ok(0)` is the source's end of stream).
    ///
    /// # Errors
    ///
    /// Whatever `src.read` fails with, `WouldBlock` included.
    pub fn read_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        self.make_room(READ_CHUNK);
        let nread = src.read(&mut self.buf[self.tail..])?;
        self.tail += nread;
        Ok(nread)
    }

    /// Bytes buffered toward the next message.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// The next complete `(tenant, frame)` message, borrowed until the
    /// next call; `Ok(None)` while the buffer holds only a partial
    /// message.
    ///
    /// # Errors
    ///
    /// [`OversizedMessage`] when the length prefix declares more than
    /// [`MAX_MESSAGE_LEN`] bytes; the caller must drop the connection
    /// (and count it) — the stream can no longer be re-synchronized.
    pub fn next_message(&mut self) -> Result<Option<(u8, &[u8])>, OversizedMessage> {
        let pending = &self.buf[self.head..self.tail];
        let Some(&[tenant, l0, l1, l2, l3]) = pending.first_chunk() else {
            return Ok(None);
        };
        let declared = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
        if declared > MAX_MESSAGE_LEN {
            return Err(OversizedMessage { declared });
        }
        let total = MESSAGE_PREFIX_LEN + declared;
        if pending.len() < total {
            return Ok(None);
        }
        self.head += total;
        Ok(Some((tenant, &pending[MESSAGE_PREFIX_LEN..total])))
    }
}

/// `true` when a `(tenant, payload)` message is the drain control.
#[must_use]
pub fn is_drain_control(tenant: u8, payload: &[u8]) -> bool {
    tenant == CONTROL_TENANT && payload == CONTROL_DRAIN
}

#[cfg(test)]
mod tests {
    use super::*;
    use odflow_flow::netflow::{check_frame_bounds, HEADER_LEN};
    use odflow_flow::{QuarantineClass, QuarantineStats};

    #[test]
    fn datagram_envelope_roundtrip() {
        let d = encode_datagram(3, b"abc");
        assert_eq!(decode_datagram(&d), Some((3u8, &b"abc"[..])));
        assert_eq!(decode_datagram(&[]), None);
        assert_eq!(decode_datagram(&[7]), Some((7u8, &b""[..])));
    }

    #[test]
    fn message_reader_reassembles_split_stream() {
        let mut r = MessageReader::new();
        let m1 = encode_message(0, &[1, 2, 3]);
        let m2 = encode_message(1, &[9; 100]);
        let stream: Vec<u8> = m1.iter().chain(&m2).copied().collect();
        // Feed one byte at a time — worst-case fragmentation.
        let mut got = Vec::new();
        for &b in &stream {
            r.extend(&[b]);
            while let Some((tenant, frame)) = r.next_message().unwrap() {
                got.push((tenant, frame.to_vec()));
            }
        }
        assert_eq!(got, vec![(0u8, vec![1, 2, 3]), (1u8, vec![9; 100])]);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn oversized_declared_length_is_a_protocol_error() {
        let mut r = MessageReader::new();
        let mut bad = vec![0u8];
        bad.extend_from_slice(&(u32::MAX).to_be_bytes());
        r.extend(&bad);
        let err = r.next_message().unwrap_err();
        assert_eq!(err.declared, u32::MAX as usize);
        assert!(err.to_string().contains("bound"));
    }

    /// The satellite contract: a frame mis-sized relative to its own
    /// header count quarantines identically whether it arrived as a UDP
    /// datagram or inside a TCP message — both paths reach
    /// `check_frame_bounds` through `decode_datagram_lossy`.
    #[test]
    fn both_transports_share_the_frame_boundary_authority() {
        // A syntactically complete header declaring 2 records with a
        // 1-record payload: TruncatedFrame on either transport.
        let mut frame = vec![0u8; HEADER_LEN + 48];
        frame[1] = 5; // version
        frame[3] = 2; // count
        assert_eq!(check_frame_bounds(2, 48), Some(QuarantineClass::TruncatedFrame));

        // Via the UDP envelope.
        let dgram = encode_datagram(0, &frame);
        let (_, udp_frame) = decode_datagram(&dgram).unwrap();
        let mut q_udp = QuarantineStats::default();
        assert!(odflow_flow::netflow::decode_datagram_lossy(udp_frame, &mut q_udp).is_none());

        // Via the TCP message framing.
        let mut r = MessageReader::new();
        r.extend(&encode_message(0, &frame));
        let (_, tcp_frame) = r.next_message().unwrap().unwrap();
        let mut q_tcp = QuarantineStats::default();
        assert!(odflow_flow::netflow::decode_datagram_lossy(tcp_frame, &mut q_tcp).is_none());

        assert_eq!(q_udp.truncated_frame, 1);
        assert_eq!(q_tcp.truncated_frame, 1);
        assert_eq!(q_udp, q_tcp);
    }

    #[test]
    fn drain_control_recognized() {
        assert!(is_drain_control(CONTROL_TENANT, CONTROL_DRAIN));
        assert!(!is_drain_control(0, CONTROL_DRAIN));
        assert!(!is_drain_control(CONTROL_TENANT, b"stop"));
    }
}
