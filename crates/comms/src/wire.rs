//! Length-prefixed binary framing over byte streams.
//!
//! Every message travels as one *frame*: a 16-byte header (`CBW2` magic,
//! `u32` payload length, `u64` checksum) followed by the payload. The
//! checksum is [`fnv1a64_words`] — FNV-1a over 64-bit words in four
//! lanes, which keeps up with memory bandwidth where the byte-wise FNV-1a
//! of the durable formats would not. It makes a torn or corrupted stream
//! a detectable error instead of a garbage message, mirroring the
//! checkpoint file format's corruption discipline.
//!
//! [`FrameReader`] is incremental: it buffers partial reads, so a read
//! timeout in the middle of a frame never desynchronises the stream — the
//! next call resumes exactly where the bytes stopped.

use crossbow_checkpoint::codec::{fnv1a64_words, Writer};
use std::io::{self, Read};
use std::ops::Range;

/// Frame magic: "CBW2" (CrossBow Wire frame, version 2: word-wise
/// checksum). A peer still speaking version 1 (`CBWF`, byte-wise FNV-1a)
/// fails at the magic, not at a checksum mismatch.
pub const MAGIC: [u8; 4] = *b"CBW2";

/// Header bytes preceding every payload: magic, `u32` length, `u64` hash.
pub const HEADER_LEN: usize = 16;

/// Read-buffer growth allowance beyond twice the bytes received: the
/// declared frame length is untrusted, so the buffer only grows toward it
/// as fast as bytes actually arrive.
const GROWTH_SLACK: usize = 64 << 10;

/// Upper bound on a payload; a corrupt length field beyond it is rejected
/// before any allocation.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// Why a wire operation failed.
#[derive(Debug)]
pub enum WireError {
    /// An I/O error other than timeout or disconnection.
    Io(io::Error),
    /// The stream carried bytes that are not a valid frame; the connection
    /// is unrecoverable (framing is lost).
    Corrupt(&'static str),
    /// The peer is gone: EOF, reset, or broken pipe.
    Disconnected,
    /// No complete frame arrived within the read timeout; retryable.
    Timeout,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::Disconnected => write!(f, "peer disconnected"),
            WireError::Timeout => write!(f, "wire read timed out"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maps a socket read error onto the retryable/fatal split the runtime
/// cares about. `SO_RCVTIMEO` expiry surfaces as `WouldBlock` or
/// `TimedOut` depending on the platform; both mean "try again".
pub(crate) fn map_read_err(e: io::Error) -> WireError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::Timeout,
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => WireError::Disconnected,
        _ => WireError::Io(e),
    }
}

/// Maps a socket write error: a vanished peer is a disconnect, anything
/// else an I/O error.
pub(crate) fn map_write_err(e: io::Error) -> WireError {
    match e.kind() {
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => WireError::Disconnected,
        _ => WireError::Io(e),
    }
}

/// Wraps `payload` in a frame: header plus bytes, ready for one write.
///
/// # Panics
/// Panics when the payload exceeds [`MAX_PAYLOAD`].
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.resize(HEADER_LEN, 0);
    buf.extend_from_slice(payload);
    seal(buf)
}

/// A frame whose payload `write` encodes straight behind the header —
/// [`frame`] without first encoding into a separate payload buffer.
///
/// # Panics
/// Panics when the payload exceeds [`MAX_PAYLOAD`].
pub(crate) fn frame_with(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::from(vec![0; HEADER_LEN]);
    write(&mut w);
    seal(w.into_bytes())
}

/// Fills in the header reserved at the front of `buf`.
fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let (header, payload) = buf.split_at_mut(HEADER_LEN);
    assert!(payload.len() <= MAX_PAYLOAD, "oversized frame");
    header[..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..].copy_from_slice(&fnv1a64_words(payload).to_le_bytes());
    buf
}

/// What [`FrameReader::parse`] found at the front of the buffer.
enum Parsed {
    /// A complete, checksum-verified frame; the payload's range in `buf`.
    Frame(Range<usize>),
    /// More bytes are needed; the frame's total length once its header
    /// is in.
    Need(Option<usize>),
}

/// Incremental frame parser over any byte stream.
///
/// Bytes are read straight into one reusable buffer: `buf[start..filled]`
/// holds stream data not yet returned, and `buf[filled..]` is spare room
/// that was zeroed once when the buffer grew. A payload is checksummed in
/// place and handed out as a slice of the buffer.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    filled: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Locates one complete frame at the front of the buffered bytes.
    fn parse(&self) -> Result<Parsed, WireError> {
        let data = &self.buf[self.start..self.filled];
        if data.len() < HEADER_LEN {
            return Ok(Parsed::Need(None));
        }
        if data[..4] != MAGIC {
            return Err(WireError::Corrupt("bad frame magic"));
        }
        let len = u32::from_le_bytes(data[4..8].try_into().expect("4")) as usize;
        if len > MAX_PAYLOAD {
            return Err(WireError::Corrupt("frame length exceeds limit"));
        }
        if data.len() < HEADER_LEN + len {
            return Ok(Parsed::Need(Some(HEADER_LEN + len)));
        }
        let want = u64::from_le_bytes(data[8..16].try_into().expect("8"));
        if fnv1a64_words(&data[HEADER_LEN..HEADER_LEN + len]) != want {
            return Err(WireError::Corrupt("frame checksum mismatch"));
        }
        Ok(Parsed::Frame(
            self.start + HEADER_LEN..self.start + HEADER_LEN + len,
        ))
    }

    /// Bytes currently buffered awaiting a complete frame. A corrupt
    /// length prefix is rejected at header time — before any
    /// payload-sized allocation — and the buffer grows toward a declared
    /// length no faster than bytes arrive, so a lying header cannot make
    /// it allocate much more than it was fed.
    pub fn buffered(&self) -> usize {
        self.filled - self.start
    }

    /// The read buffer's allocation, for the growth-bound tests.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Makes room for at least one more byte in a buffer holding one
    /// pending frame at its front: grows toward `frame_len` (or one
    /// slack's worth when the header is not in yet), but never past twice
    /// the buffered bytes plus [`GROWTH_SLACK`].
    fn grow(&mut self, frame_len: Option<usize>) {
        let cap = 2 * self.filled + GROWTH_SLACK;
        let want = frame_len.unwrap_or(self.filled + GROWTH_SLACK);
        let new_len = want.min(cap).max(self.filled + 1);
        self.buf.reserve_exact(new_len - self.buf.len());
        self.buf.resize(new_len, 0);
    }

    /// Reads until one complete frame is available and returns its
    /// payload, borrowed from the reader's buffer until the next call.
    ///
    /// # Errors
    /// As [`FrameReader::read_frame`].
    pub(crate) fn next_frame(&mut self, src: &mut impl Read) -> Result<&[u8], WireError> {
        loop {
            let frame_len = match self.parse()? {
                Parsed::Frame(payload) => {
                    self.start = payload.end;
                    return Ok(&self.buf[payload]);
                }
                Parsed::Need(frame_len) => frame_len,
            };
            if self.start > 0 {
                // Reclaim the frames already handed out before reading on.
                self.buf.copy_within(self.start..self.filled, 0);
                self.filled -= self.start;
                self.start = 0;
            }
            if self.filled == self.buf.len() {
                self.grow(frame_len);
            }
            match src.read(&mut self.buf[self.filled..]) {
                Ok(0) => return Err(WireError::Disconnected),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(map_read_err(e)),
            }
        }
    }

    /// Reads until one complete frame is available and returns its
    /// payload. Partial bytes stay buffered across calls, so a
    /// [`WireError::Timeout`] mid-frame is resumable.
    ///
    /// # Errors
    /// [`WireError::Disconnected`] at end of stream,
    /// [`WireError::Timeout`] when the source's read timed out (the
    /// partial frame stays buffered), [`WireError::Corrupt`] on a bad
    /// magic, oversized length or checksum mismatch.
    pub fn read_frame(&mut self, src: &mut impl Read) -> Result<Vec<u8>, WireError> {
        self.next_frame(src).map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader delivering its bytes `chunk` at a time, then EOF.
    struct Dribble {
        bytes: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(self.bytes.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_round_trip_byte_by_byte() {
        let payload = b"synchronous model averaging".to_vec();
        let mut src = Dribble {
            bytes: frame(&payload),
            pos: 0,
            chunk: 1,
        };
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut src).unwrap(), payload);
    }

    #[test]
    fn back_to_back_frames_stay_separated() {
        let mut bytes = frame(b"first");
        bytes.extend_from_slice(&frame(b"second"));
        bytes.extend_from_slice(&frame(b""));
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 7,
        };
        let mut reader = FrameReader::new();
        assert_eq!(reader.read_frame(&mut src).unwrap(), b"first");
        assert_eq!(reader.read_frame(&mut src).unwrap(), b"second");
        assert_eq!(reader.read_frame(&mut src).unwrap(), b"");
    }

    #[test]
    fn truncated_frame_reads_as_disconnect() {
        let mut bytes = frame(b"cut short");
        bytes.truncate(bytes.len() - 3);
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 64,
        };
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut src) {
            Err(WireError::Disconnected) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let mut bytes = frame(b"trustworthy");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 64,
        };
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut src) {
            Err(WireError::Corrupt(what)) => assert!(what.contains("checksum")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = frame(b"hello");
        bytes[0] = b'X';
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 64,
        };
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut src) {
            Err(WireError::Corrupt(what)) => assert!(what.contains("magic")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn version_one_frames_fail_at_the_magic() {
        // A peer still speaking CBWF with a byte-wise FNV-1a checksum:
        // the typed magic error, not a checksum mismatch.
        let payload = b"old peer";
        let mut bytes = b"CBWF".to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crossbow_checkpoint::codec::fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 64,
        };
        match FrameReader::new().read_frame(&mut src) {
            Err(WireError::Corrupt(what)) => assert_eq!(what, "bad frame magic"),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_lying_length_cannot_outgrow_the_bytes_received() {
        // The header declares 200 MiB (under the limit, so it is not
        // rejected) but only 1 MiB of payload ever arrives.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(200u32 << 20).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.resize(HEADER_LEN + (1 << 20), 0xAB);
        let fed = bytes.len();
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 16 << 10,
        };
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut src) {
            Err(WireError::Disconnected) => {}
            other => panic!("expected disconnect, got {other:?}"),
        }
        assert_eq!(reader.buffered(), fed);
        assert!(
            reader.capacity() <= 2 * fed + GROWTH_SLACK,
            "allocated {} for {fed} bytes fed",
            reader.capacity()
        );
    }

    #[test]
    fn borrowed_frames_leave_the_next_frame_intact() {
        // One read delivers three frames at once; each borrowed payload
        // must be released (and the rest kept) by the following call.
        let mut bytes = frame(b"one");
        bytes.extend_from_slice(&frame(&[7u8; 100]));
        bytes.extend_from_slice(&frame(b"three"));
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 1 << 20,
        };
        let mut reader = FrameReader::new();
        assert_eq!(reader.next_frame(&mut src).unwrap(), b"one");
        assert_eq!(reader.next_frame(&mut src).unwrap(), &[7u8; 100][..]);
        assert_eq!(reader.buffered(), HEADER_LEN + 5);
        assert_eq!(reader.next_frame(&mut src).unwrap(), b"three");
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut bytes = frame(b"ok");
        bytes[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: 64,
        };
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut src) {
            Err(WireError::Corrupt(what)) => assert!(what.contains("length")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    /// Drains `src` through a fresh reader: payloads until the first
    /// error, plus the error itself. The property harness — any input
    /// must land here, never in a panic.
    fn drain(bytes: Vec<u8>, chunk: usize) -> (Vec<Vec<u8>>, WireError) {
        let total = bytes.len();
        let mut src = Dribble {
            bytes,
            pos: 0,
            chunk: chunk.max(1),
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_frame(&mut src) {
                Ok(payload) => frames.push(payload),
                Err(e) => {
                    assert!(
                        reader.buffered() <= total,
                        "the reader must never buffer more than it was fed"
                    );
                    return (frames, e);
                }
            }
        }
    }

    #[test]
    fn seeded_random_bytes_are_typed_errors_never_panics() {
        // Pure noise and noise-with-valid-magic: every draw must come out
        // as a typed error (or a miraculous valid frame), not a panic.
        for seed in 0..64u64 {
            let mut state = seed;
            let len = 16 + (crate::fault::splitmix64(&mut state) % 512) as usize;
            let mut bytes: Vec<u8> = (0..len)
                .map(|_| crate::fault::splitmix64(&mut state) as u8)
                .collect();
            if seed % 2 == 0 {
                // Half the cases start with real magic so the parser gets
                // past the first check into length/checksum territory.
                bytes[..4].copy_from_slice(&MAGIC);
            }
            let chunk = 1 + (crate::fault::splitmix64(&mut state) % 64) as usize;
            let (_, err) = drain(bytes, chunk);
            assert!(
                matches!(
                    err,
                    WireError::Corrupt(_) | WireError::Disconnected | WireError::Io(_)
                ),
                "seed {seed}: unexpected outcome {err:?}"
            );
        }
    }

    #[test]
    fn every_truncation_of_a_frame_stream_is_a_clean_prefix() {
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"gamma-gamma"];
        let mut stream = Vec::new();
        for p in payloads {
            stream.extend_from_slice(&frame(p));
        }
        for cut in 0..stream.len() {
            let (frames, err) = drain(stream[..cut].to_vec(), 13);
            // A truncated tail can only hide whole frames, never corrupt
            // or reorder the ones before it.
            assert!(
                matches!(err, WireError::Disconnected),
                "cut {cut}: got {err:?}"
            );
            assert!(frames.len() <= payloads.len());
            for (got, want) in frames.iter().zip(payloads) {
                assert_eq!(got, want, "cut {cut}");
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_at_header_time() {
        // Only the 16 header bytes arrive; the declared 4 GiB payload
        // never does. The reader must reject at the header — without
        // waiting for (or allocating room for) the phantom payload.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        let mut src = Dribble {
            bytes: header,
            pos: 0,
            chunk: 16,
        };
        let mut reader = FrameReader::new();
        match reader.read_frame(&mut src) {
            Err(WireError::Corrupt(what)) => assert!(what.contains("length")),
            other => panic!("expected corrupt, got {other:?}"),
        }
        assert_eq!(reader.buffered(), HEADER_LEN, "nothing beyond the header");
    }
}
