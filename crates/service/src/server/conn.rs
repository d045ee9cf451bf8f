//! One TCP connection's request loop, with per-connection robustness
//! budgets: a byte-capped frame reader, an optional read-idle deadline,
//! and malformed-frame tolerance. Nothing a single client sends — torn
//! bytes, garbage, oversized lines, silence — can wedge the loop or
//! poison the shared core.

use std::io::{self, BufRead, BufReader};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::accept::Shared;
use super::broadcast::{Retire, SubSlot};
use super::protocol_error;
use super::wire::write_line;
use crate::fault::NetStream;
use crate::proto::{parse_envelope, Request};
use crate::state::Outcome;
use crate::tenant::Routed;

/// One framing step's result.
enum Frame {
    /// A complete newline-terminated line (newline stripped), within the
    /// byte cap. Invalid UTF-8 is replaced, which parses as malformed —
    /// answered, counted, never fatal.
    Line(String),
    /// A line over the byte cap; its bytes were discarded up to and
    /// including the next newline, so the stream is resynchronised.
    Oversized,
    /// The read-idle deadline fired with no frame in progress.
    IdleTimeout,
    /// Peer closed; `truncated` when bytes arrived after the last newline
    /// (the peer died mid-frame).
    Eof { truncated: bool },
    /// A real transport error.
    Err(io::Error),
}

/// Reads one frame without ever buffering more than the cap: the line is
/// accumulated from `fill_buf` windows, and once it exceeds `max` bytes
/// the accumulator is dropped and the remainder discarded to the next
/// newline. A malicious client can therefore hold at most one `BufReader`
/// block plus `max` bytes of this server's memory.
fn read_frame(reader: &mut BufReader<NetStream>, max: usize) -> Frame {
    let mut line: Vec<u8> = Vec::new();
    let mut dropping = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Frame::IdleTimeout;
            }
            Err(e) => return Frame::Err(e),
        };
        if buf.is_empty() {
            return Frame::Eof { truncated: dropping || !line.is_empty() };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let oversized = dropping || line.len() + pos > max;
                if !oversized {
                    line.extend_from_slice(&buf[..pos]);
                }
                reader.consume(pos + 1);
                if oversized {
                    return Frame::Oversized;
                }
                // The buffer is already ours: validate in place, and pay for
                // the lossy copy only when the bytes are not UTF-8.
                return Frame::Line(
                    String::from_utf8(line)
                        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
                );
            }
            None => {
                let n = buf.len();
                if !dropping {
                    if line.len() + n > max {
                        dropping = true;
                        line = Vec::new();
                    } else {
                        line.extend_from_slice(buf);
                    }
                }
                reader.consume(n);
            }
        }
    }
}

/// Serves one accepted connection to completion. Responses go straight to
/// the socket until the connection subscribes; from then on every line it
/// receives — responses included — is routed through its bounded
/// subscriber queue so exactly one thread writes to the socket and
/// response/event order is preserved.
pub(crate) fn serve_connection(shared: &Arc<Shared>, stream: NetStream) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    if let Some(idle) = shared.cfg.conn_idle {
        stream.set_read_timeout(Some(idle))?;
    }
    let mut reader = BufReader::new(stream);
    let mut slot: Option<Arc<SubSlot>> = None;
    let mut result: io::Result<()> = Ok(());

    let respond =
        |writer: &mut NetStream, slot: &Option<Arc<SubSlot>>, line: crate::json::Json| match slot {
            Some(slot) => {
                shared.hub.send_to(slot, &line);
                Ok(())
            }
            None => write_line(writer, &line),
        };

    loop {
        let frame = read_frame(&mut reader, shared.cfg.max_line_bytes);
        let line = match frame {
            Frame::Line(line) => line,
            Frame::Oversized => {
                shared.metrics.frames_oversized.inc();
                respond(
                    &mut writer,
                    &slot,
                    protocol_error(format!(
                        "request line exceeds {} bytes",
                        shared.cfg.max_line_bytes
                    )),
                )?;
                continue;
            }
            Frame::IdleTimeout => {
                shared.metrics.conn_idle_timeouts.inc();
                let _ = respond(&mut writer, &slot, protocol_error("idle timeout".into()));
                break;
            }
            Frame::Eof { truncated } => {
                if truncated {
                    shared.metrics.frames_truncated.inc();
                }
                break;
            }
            Frame::Err(e) => {
                result = Err(e);
                break;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match parse_envelope(trimmed) {
            Err(e) => {
                shared.metrics.frames_malformed.inc();
                respond(&mut writer, &slot, protocol_error(e))?;
            }
            Ok(env) => match shared.fleet.route(env.tenant.as_deref(), env.req) {
                Routed::Reply(response) => {
                    respond(&mut writer, &slot, response)?;
                }
                Routed::Shutdown(response) => {
                    respond(&mut writer, &slot, response)?;
                    shared.request_stop();
                    break;
                }
                Routed::Shard(shard, req) => {
                    let wants_sub = req == Request::Subscribe && slot.is_none();
                    let mut core = shard.lock();
                    // Re-check under the lock: once the drain owns the
                    // shards, no straggler may touch a journal behind its
                    // back.
                    if shared.stop.load(Ordering::SeqCst) {
                        drop(core);
                        let _ = respond(&mut writer, &slot, protocol_error("shutting down".into()));
                        break;
                    }
                    let Outcome { response, events, shutdown } = core.handle(req);
                    if wants_sub {
                        if let Ok(sub_stream) = writer.try_clone() {
                            if let Ok(new_slot) = shared.hub.attach(sub_stream, shard.id().clone())
                            {
                                slot = Some(new_slot);
                            }
                        }
                    }
                    // Under the shard lock: the subscriber's own response
                    // first, then the fan-out, so its queue sees
                    // response → events in ingestion order.
                    if let Some(slot) = &slot {
                        shared.hub.send_to(slot, &response);
                    }
                    shared.hub.publish(shard.id(), &events);
                    drop(core);
                    if slot.is_none() {
                        write_line(&mut writer, &response)?;
                    }
                    if shutdown {
                        shared.request_stop();
                        break;
                    }
                }
            },
        }
    }
    if let Some(slot) = &slot {
        // During a drain the hub owns the flush: detaching here would shut
        // the socket down under the writer thread mid-flush. Leave the
        // slot to `SubscriberHub::drain`.
        if !shared.stop.load(Ordering::SeqCst) {
            shared.hub.detach(slot, Retire::Disconnected);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    // `read_frame` needs a NetStream; its framing behaviour is exercised
    // end-to-end by `tests/server_robustness.rs` and the proptest suite in
    // `crates/service/tests/proptest_framing.rs`.
}
