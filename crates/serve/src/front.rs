//! Thin socket front: line-delimited JSON over TCP.
//!
//! Everything in this module sits **outside** the determinism
//! boundary (see the crate docs): it owns the listener socket, blocks
//! on the network, and surfaces `std::io` errors. The protocol work —
//! decoding a [`Request`], producing a [`Response`] — is delegated to
//! the pure [`Service`] core, and the decode/encode halves are exposed
//! as plain functions ([`handle_line`], [`render_response`]) so tests
//! and the load harness can exercise the exact wire path with no
//! socket at all.
//!
//! Wire format: one JSON-encoded [`Request`] per line in, one
//! JSON-encoded [`Response`] per line out. Malformed input never kills
//! the connection; it yields a [`ServeError::InvalidRequest`] response
//! on its line and the stream continues. That includes a line longer
//! than [`MAX_LINE_BYTES`], which is answered without ever being
//! buffered whole, and a line that is not UTF-8.

use crate::service::Service;
use crate::wire::{Request, Response, ServeError};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

/// The longest request line the front accepts, in bytes, excluding the
/// `\n`. The largest request the `hc-load` crowd model sends is a few
/// hundred bytes and the longest line of the wire golden file 164, so
/// 64 KiB leaves two orders of magnitude of headroom while bounding
/// what one connection can make the front buffer. A longer line gets
/// one [`ServeError::InvalidRequest`] response; its bytes are dropped
/// as they arrive and reading resumes after its `\n`.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A blocking TCP front over a [`Service`].
#[derive(Debug)]
pub struct Front {
    listener: TcpListener,
}

impl Front {
    /// Binds the listener. Use port 0 to let the OS pick a free port.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Front> {
        Ok(Front {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The address the listener actually bound.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts one connection and serves it to EOF, returning the
    /// number of requests handled on it.
    ///
    /// # Errors
    ///
    /// Propagates accept/read/write failures.
    pub fn serve_one(&self, service: &mut Service) -> std::io::Result<u64> {
        let (stream, _) = self.listener.accept()?;
        serve_connection(stream, service)
    }
}

/// Serves a single already-accepted connection to EOF.
///
/// # Errors
///
/// Propagates read/write failures.
pub fn serve_connection(stream: TcpStream, service: &mut Service) -> std::io::Result<u64> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut handled = 0u64;
    while let Some(fits) = read_line_capped(&mut reader, &mut line)? {
        let reply = if !fits {
            invalid(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
        } else if let Ok(text) = std::str::from_utf8(&line) {
            let text = text.strip_suffix('\r').unwrap_or(text);
            if text.trim().is_empty() {
                continue;
            }
            handle_line(text, service)
        } else {
            invalid("request line is not UTF-8".to_string())
        };
        writer.write_all(reply.as_bytes())?;
        writer.write_all(b"\n")?;
        handled += 1;
    }
    writer.flush()?;
    Ok(handled)
}

/// Reads the next line into `line` (without its `\n`), keeping at most
/// [`MAX_LINE_BYTES`] of it. Returns `None` at end of input, otherwise
/// whether the line fit; an over-long line is consumed through its `\n`
/// but `line` is left empty.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    line.clear();
    let (mut fits, mut any) = (true, false);
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(any.then_some(fits));
        }
        any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if fits && line.len() + take <= MAX_LINE_BYTES {
            line.extend_from_slice(&chunk[..take]);
        } else {
            fits = false;
            line.clear();
        }
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return Ok(Some(fits));
        }
    }
}

fn invalid(reason: String) -> String {
    render_response(&Response::Error {
        error: ServeError::InvalidRequest { reason },
    })
}

/// Decodes one request line, runs it through the service, and encodes
/// the response. Malformed JSON becomes an [`ServeError::InvalidRequest`]
/// response rather than an error.
pub fn handle_line(line: &str, service: &mut Service) -> String {
    match serde_json::from_str::<Request>(line) {
        Ok(request) => render_response(&service.handle(&request)),
        Err(e) => invalid(format!("malformed request: {e}")),
    }
}

/// Encodes a response as a single JSON line (no trailing newline).
pub fn render_response(response: &Response) -> String {
    match serde_json::to_string(response) {
        Ok(s) => s,
        // Wire types are plain data; encoding cannot fail in practice.
        // Keep the front panic-free anyway.
        Err(_) => {
            r#"{"Error":{"error":{"InvalidRequest":{"reason":"encode failure"}}}}"#.to_string()
        }
    }
}
