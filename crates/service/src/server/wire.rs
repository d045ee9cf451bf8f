//! The one place a protocol line reaches a socket.
//!
//! A reply — or a batch of queued event lines — is rendered whole, newlines
//! included, into a reusable buffer and leaves in a single `write_all`: one
//! syscall and, the sockets being `TCP_NODELAY`, one segment. A formatted
//! write onto the stream is one `write(2)` per `fmt` fragment, so nothing
//! else under `server/` writes to a stream (CI greps for it).

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::Arc;

use crate::json::Json;

/// Cap on one coalesced subscriber batch (it may overshoot by the line
/// that crosses it), and the capacity a line buffer is cut back to once a
/// giant line has grown it.
pub(crate) const BATCH_BYTES: usize = 64 * 1024;

thread_local! {
    /// Where this thread — a connection's handler — renders the lines it
    /// sends or enqueues. Empty between uses; only the allocation is kept.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Empties `buf`, keeping at most [`BATCH_BYTES`] of capacity for next time.
fn recycle(buf: &mut String) {
    buf.clear();
    buf.shrink_to(BATCH_BYTES);
}

/// Sends the buffered line(s) in one `write_all` and recycles the buffer.
pub(crate) fn flush(w: &mut impl Write, buf: &mut String) -> io::Result<()> {
    let wrote = w.write_all(buf.as_bytes());
    recycle(buf);
    wrote
}

/// One line, one write: exactly the bytes of `format!("{line}\n")`.
pub(crate) fn write_line(w: &mut impl Write, line: &Json) -> io::Result<()> {
    SCRATCH.with_borrow_mut(|buf| {
        line.push_line(buf);
        flush(w, buf)
    })
}

/// Renders `line` once, newline included, as the shared string a
/// subscriber queue holds: one allocation, sized exactly.
pub(crate) fn shared_line(line: &Json) -> Arc<str> {
    SCRATCH.with_borrow_mut(|buf| {
        line.push_line(buf);
        let shared = Arc::from(buf.as_str());
        recycle(buf);
        shared
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::obj;

    /// A `Write` that records every `write` call it receives, and can play
    /// a stalled peer: after absorbing `absorb` bytes it times out, like
    /// `NetStream`'s `StallWrites` fault.
    #[derive(Default)]
    pub(crate) struct CountingSink {
        pub(crate) writes: Vec<Vec<u8>>,
        pub(crate) absorb: Option<usize>,
    }

    impl CountingSink {
        pub(crate) fn bytes(&self) -> Vec<u8> {
            self.writes.concat()
        }
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut len = buf.len();
            if let Some(absorb) = self.absorb {
                let taken: usize = self.writes.iter().map(Vec::len).sum();
                let remaining = absorb.saturating_sub(taken);
                if remaining == 0 {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "peer stopped reading"));
                }
                len = len.min(remaining);
            }
            self.writes.push(buf[..len].to_vec());
            Ok(len)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A ~1 KiB scored reply whose strings need every kind of escape.
    pub(crate) fn scored_reply(id: i64) -> Json {
        let rows = (0..12)
            .map(|i| {
                obj([
                    (
                        "audit",
                        Json::Str(format!("k-{i} \"quoted\" back\\slash\ttab\nnl \u{1} é患")),
                    ),
                    ("fact_coverage", Json::Float(0.25 * i as f64)),
                    ("closeness", Json::Float(1.0)),
                ])
            })
            .collect();
        obj([("ok", Json::Bool(true)), ("id", Json::Int(id)), ("scores", Json::Arr(rows))])
    }

    #[test]
    fn a_reply_is_one_write_and_byte_identical_to_display() {
        let reply = scored_reply(7);
        let expected = format!("{reply}\n");
        assert!(expected.len() > 1024 && expected.contains("\\u0001"), "{}", expected.len());
        let mut sink = CountingSink::default();
        write_line(&mut sink, &reply).unwrap();
        // The same thread's next line reuses the buffer and starts clean.
        write_line(&mut sink, &Json::Null).unwrap();
        assert_eq!(sink.writes, [expected.into_bytes(), b"null\n".to_vec()]);
        assert_eq!(&*shared_line(&reply), format!("{reply}\n"));
    }

    #[test]
    fn a_giant_line_does_not_pin_its_capacity() {
        let mut buf = String::new();
        Json::Str("x".repeat(16 * BATCH_BYTES)).push_line(&mut buf);
        let mut sink = CountingSink::default();
        flush(&mut sink, &mut buf).unwrap();
        assert_eq!(sink.writes.len(), 1);
        assert!(buf.is_empty() && buf.capacity() <= BATCH_BYTES, "{}", buf.capacity());
    }
}
