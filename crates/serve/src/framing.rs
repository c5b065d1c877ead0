//! Length-prefixed framing over any byte stream.
//!
//! A frame is a `u32` little-endian body length followed by the body
//! ([`protocol`](crate::protocol) encodes the bodies). The prefix is
//! capped at [`MAX_FRAME_LEN`] *before* the body is allocated: a
//! corrupt or hostile prefix costs four bytes of reading, not
//! gigabytes of memory — and since a corrupt prefix destroys the only
//! frame boundary the stream has, the connection layer closes after
//! reporting it. Below the cap the body buffer still grows only as
//! bytes arrive (doubling from 64 KiB), so a prefix that claims 64 MiB
//! and then stalls holds 64 KiB, not 64 MiB. A malformed *body* by
//! contrast is fully framed: the decoder rejects it without consuming
//! the neighbours, so the stream never desynchronises.

use crate::protocol::{ProtocolError, MAX_FRAME_LEN};
use std::fmt;
use std::io::{self, Read, Write};

/// The body buffer's first allocation; larger frames double it as
/// their bytes arrive, capped at the length the prefix claims. Every
/// frame up to this size is read with one exact-size allocation.
const INITIAL_BODY_BYTES: usize = 64 << 10;

/// A framing-layer failure: either the transport died or the peer sent
/// an unusable length prefix.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes mid-frame EOF, surfaced
    /// as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The length prefix was over the cap.
    Protocol(ProtocolError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Protocol(e) => write!(f, "framing error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + body) and flushes.
///
/// # Errors
///
/// Propagates transport errors.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_FRAME_LEN`] — encoders never produce
/// such bodies; a caller that does holds a bug, not a peer.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    assert!(body.len() <= MAX_FRAME_LEN, "outgoing frame over the length cap");
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame is an
/// [`io::ErrorKind::UnexpectedEof`] transport error.
///
/// # Errors
///
/// [`FrameError::Protocol`] with [`ProtocolError::FrameTooLarge`] for
/// an oversized prefix, [`FrameError::Io`] for transport failures.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame prefix",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Protocol(ProtocolError::FrameTooLarge(len as u64)));
    }
    let mut body = Vec::new();
    while body.len() < len {
        let filled = body.len();
        body.resize((2 * filled).max(INITIAL_BODY_BYTES).min(len), 0);
        r.read_exact(&mut body[filled..])?;
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        // Past the first allocation, so the body grows in several steps.
        let big: Vec<u8> = (0..3 * INITIAL_BODY_BYTES + 5).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"omega").unwrap();
        let mut rd = wire.as_slice();
        assert_eq!(read_frame(&mut rd).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut rd).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut rd).unwrap().unwrap(), big);
        assert_eq!(read_frame(&mut rd).unwrap().unwrap(), b"omega");
        assert!(read_frame(&mut rd).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_typed_not_allocated() {
        let wire = u32::MAX.to_le_bytes();
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Protocol(ProtocolError::FrameTooLarge(len))) => {
                assert_eq!(len, u64::from(u32::MAX));
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    /// Serves `bytes`, then EOF, recording the largest buffer any
    /// `read` call was handed.
    struct Stingy<'a> {
        bytes: &'a [u8],
        largest_buf: usize,
    }

    impl Read for Stingy<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_buf = self.largest_buf.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn claimed_length_is_not_allocated_before_the_bytes_arrive() {
        // A prefix claiming the full 64 MiB cap, then ten body bytes.
        let mut wire = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[7u8; 10]);
        let mut rd = Stingy { bytes: &wire, largest_buf: 0 };
        match read_frame(&mut rd) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
        assert!(rd.largest_buf <= 1 << 20, "read handed a {}-byte buffer", rd.largest_buf);
    }

    #[test]
    fn truncated_frame_is_a_transport_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        wire.truncate(wire.len() - 2);
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }
}
