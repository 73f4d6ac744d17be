//! Deterministic loopback load generator.
//!
//! Takes a scenario's NetFlow v5 export stream from
//! [`TraceGenerator::export_frames`](odflow_gen::TraceGenerator::export_frames)
//! — per-exporter sequence continuity and all — and sends every frame to
//! a daemon over a real socket ([`replay_frames`] sends any other stream,
//! a degraded one included). It is the very stream the batch
//! `ingest_datagrams` takes, and its records are those the fused render
//! bins without serializing them, which is what makes daemon-vs-batch
//! equivalence testable end to end.
//!
//! Over TCP the stream is ordered and reliable, so a trailing
//! [`CONTROL_DRAIN`](crate::wire::CONTROL_DRAIN) message is a precise
//! end-of-input barrier: the daemon processes it after every preceding
//! frame. Over UDP, delivery and ordering are the transport's usual
//! best-effort — drops are the *documented* lossy-collector behavior the
//! quality accounting exists to measure.

use crate::daemon::splitmix64;
use crate::wire::{self, CONTROL_TENANT};
use crate::ServeError;
use odflow_gen::Scenario;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

/// Which transport to replay over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One envelope datagram per frame.
    Udp,
    /// One length-prefixed message per frame, single connection.
    Tcp,
}

/// Load generator configuration.
#[derive(Debug)]
pub struct LoadGenConfig {
    /// Tenant envelope byte the frames are addressed to.
    pub tenant: u8,
    /// Transport to replay over.
    pub transport: Transport,
    /// Send the drain control after the last frame (graceful shutdown).
    pub send_drain: bool,
}

impl LoadGenConfig {
    /// Replay to tenant 0 over `transport`, with a trailing drain.
    #[must_use]
    pub fn new(transport: Transport) -> Self {
        LoadGenConfig { tenant: 0, transport, send_drain: true }
    }
}

/// TCP connect attempts before giving up. A daemon that is still binding
/// — or restarting after a crash — refuses the first few connects; the
/// generator retries instead of failing the replay.
const CONNECT_ATTEMPTS: u32 = 10;

/// Base delay between connect attempts; doubles per attempt, plus
/// deterministic seeded jitter of up to one base delay.
const CONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// Seed of the deterministic connect-retry jitter.
const CONNECT_JITTER_SEED: u64 = 0x10ad_6e4e_7d4e_7e57;

/// Connects to `target` with bounded seeded-jitter retry-with-backoff:
/// attempt `k` (from 0) sleeps `backoff * 2^min(k, 5)` plus jitter before
/// retrying, tolerating a daemon still binding or mid-restart.
fn connect_with_retry(target: SocketAddr) -> Result<TcpStream, ServeError> {
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(target) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            let base = CONNECT_BACKOFF.saturating_mul(1 << attempt.min(5));
            let span = CONNECT_BACKOFF.as_nanos() as u64;
            let jitter = splitmix64(CONNECT_JITTER_SEED ^ u64::from(attempt)) % span;
            std::thread::sleep(base + Duration::from_nanos(jitter));
        }
    }
    Err(ServeError::Io(last_err.unwrap_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "no connect attempt made")
    })))
}

/// What a replay actually put on the wire.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Frames sent.
    pub frames_sent: u64,
    /// Envelope bytes written to the socket.
    pub bytes_sent: u64,
    /// Whether the drain control was sent.
    pub drain_sent: bool,
}

/// Replays every bin of `scenario` against a daemon at `target`:
/// [`replay_frames`] over the scenario's rendered export stream.
///
/// Frames go out in the exact order the batch path would decode them:
/// bins ascending, PoP-exporter order within a bin, with `flow_sequence`
/// continuity carried across bins.
///
/// # Errors
///
/// As [`replay_frames`].
pub fn replay_scenario(
    scenario: &Scenario,
    target: SocketAddr,
    config: &LoadGenConfig,
) -> Result<LoadReport, ServeError> {
    replay_frames(&scenario.generator().export_frames(), target, config)
}

/// Replays pre-rendered frames, as they are, against a daemon at `target`
/// — also the recovery path's tool for resending the unconsumed suffix
/// `frames[cursor..]` of an interrupted run.
///
/// # Errors
///
/// [`ServeError::Io`] on socket setup or (TCP) write failure. UDP send
/// errors on individual datagrams also surface as errors — the loopback
/// load generator has no reason to lose frames silently on the *send*
/// side.
pub fn replay_frames(
    frames: &[Vec<u8>],
    target: SocketAddr,
    config: &LoadGenConfig,
) -> Result<LoadReport, ServeError> {
    let mut report = LoadReport::default();
    let mut sink = match config.transport {
        Transport::Udp => {
            let socket = UdpSocket::bind("127.0.0.1:0")?;
            socket.connect(target)?;
            Sink::Udp(socket)
        }
        Transport::Tcp => Sink::Tcp(connect_with_retry(target)?),
    };
    for frame in frames {
        report.bytes_sent += sink.send(config.tenant, frame)?;
        report.frames_sent += 1;
    }
    if config.send_drain {
        sink.send(CONTROL_TENANT, wire::CONTROL_DRAIN)?;
        report.drain_sent = true;
    }
    sink.finish()?;
    Ok(report)
}

/// The two socket flavors behind one send call.
enum Sink {
    Udp(UdpSocket),
    Tcp(TcpStream),
}

impl Sink {
    /// Sends one enveloped frame; returns envelope bytes written.
    fn send(&mut self, tenant: u8, frame: &[u8]) -> Result<u64, ServeError> {
        match self {
            Sink::Udp(socket) => {
                let payload = wire::encode_datagram(tenant, frame);
                socket.send(&payload)?;
                Ok(payload.len() as u64)
            }
            Sink::Tcp(stream) => {
                let message = wire::encode_message(tenant, frame);
                stream.write_all(&message)?;
                Ok(message.len() as u64)
            }
        }
    }

    /// Flushes and cleanly ends the stream (TCP half-close so the peer
    /// sees EOF after the last byte).
    fn finish(self) -> Result<(), ServeError> {
        if let Sink::Tcp(mut stream) = self {
            stream.flush()?;
            stream.shutdown(std::net::Shutdown::Write)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MessageReader;
    use std::io::Read;
    use std::net::TcpListener;

    /// Replay a small scenario at a plain TCP sink and reassemble the
    /// stream: every rendered frame arrives, in order, drain last.
    #[test]
    fn tcp_replay_delivers_every_frame_in_order() {
        let scenario = Scenario::paper_window(3, 4).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let target = listener.local_addr().unwrap();

        let pool = scoped_pool::Pool::new(1);
        let mut report = LoadReport::default();
        let mut messages: Vec<(u8, Vec<u8>)> = Vec::new();
        pool.scoped(|scope| {
            let messages_ref = &mut messages;
            scope.execute(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = MessageReader::new();
                let mut buf = [0u8; 8192];
                loop {
                    let n = stream.read(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    reader.extend(&buf[..n]);
                    while let Some((tenant, frame)) = reader.next_message().unwrap() {
                        messages_ref.push((tenant, frame.to_vec()));
                    }
                }
            });
            report =
                replay_scenario(&scenario, target, &LoadGenConfig::new(Transport::Tcp)).unwrap();
        });
        pool.shutdown();

        assert!(report.drain_sent);
        assert_eq!(messages.len() as u64, report.frames_sent + 1, "frames plus drain");
        let (last_tenant, last_payload) = messages.last().unwrap();
        assert!(wire::is_drain_control(*last_tenant, last_payload));
        // The frame stream equals a direct render with the same seqs.
        let generator = scenario.generator();
        let mut seqs = vec![0u32; scenario.topology.num_pops()];
        let direct: Vec<Vec<u8>> =
            (0..4).flat_map(|b| generator.frames_for_bin(b, &mut seqs)).collect();
        let received: Vec<&Vec<u8>> =
            messages[..messages.len() - 1].iter().map(|(_, f)| f).collect();
        assert_eq!(direct.len(), received.len());
        for (d, r) in direct.iter().zip(received) {
            assert_eq!(d, r);
        }
    }
}
