//! Length-prefixed, checksummed framing over byte streams.
//!
//! A frame is `len:u32le  crc:u32le  payload`, where `crc` is the CRC-32
//! (IEEE, the Ethernet/zlib polynomial) of the payload bytes. The payload
//! is one wire-encoded unit (see [`crate::wire`]). Frames are capped at
//! [`MAX_FRAME`] so a corrupt length prefix cannot trigger a giant
//! allocation, and a frame whose payload fails its CRC is rejected as
//! [`WireError::BadCrc`] — the connection carrying it is poisoned, which
//! feeds the coordinator's normal lost-instance/reconnect path instead of
//! letting a flipped bit masquerade as data.
//!
//! Frames are written whole by [`write_frame`], or by
//! [`write_frame_parts`] from a head and a body held apart, the CRC fed
//! piece by piece; both refuse a payload over
//! [`MAX_FRAME`], so whatever they write reads back. Two consumption
//! styles:
//!
//! * [`read_frame`] — blocking, over any [`Read`] (sockets, and the
//!   serving journal's segment files);
//! * [`FrameDecoder`] — incremental: push byte chunks of *any* size (as a
//!   socket delivers them) and pop complete frames. This is the form the
//!   split-at-arbitrary-boundaries property tests exercise.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};

use crate::WireError;

/// Largest accepted frame payload (64 MiB — a level-15 grid is ~1 MB, so
/// this leaves two orders of magnitude of headroom).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Frame header bytes: length prefix + CRC-32 of the payload.
pub const HEADER_LEN: usize = 8;

/// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// `T[0]` is the classic bytewise table, and `T[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups advance the CRC
/// over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over input fed
/// in pieces: `update` with each piece in order, then `finish`. Any split
/// of the input gives the value [`crc32`] gives for the whole, so a frame
/// whose payload is written in parts is checksummed without joining them.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32(!0)
    }
}

impl Crc32 {
    /// The CRC of no input yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the next piece of input. Slicing-by-8: the same value as the
    /// bytewise table walk, eight bytes per step.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let mut blocks = data.chunks_exact(8);
        for b in &mut blocks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The CRC of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data` —
/// the checksum guarding every frame payload.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// The header of a frame whose payload is `len` bytes with CRC-32 `crc`.
fn header(len: usize, crc: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&(len as u32).to_le_bytes());
    h[4..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Write one frame (length + CRC header, then the payload). Header and
/// payload go out in one vectored write — one syscall and, on a
/// `TCP_NODELAY` socket, one segment — with further writes finishing
/// whatever a short write left behind.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    write_frame_parts(w, payload, &[])?;
    w.flush()
}

/// Write one frame whose payload is `head` followed by `body`, the CRC
/// taken over the two in place: header, head and body go out in one
/// vectored write, with further writes finishing whatever a short write
/// left behind. A payload over [`MAX_FRAME`] is refused before anything
/// is written, so every frame written here reads back through
/// [`read_frame`].
pub fn write_frame_parts(w: &mut impl Write, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    let len = head.len() + body.len();
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut crc = Crc32::new();
    crc.update(head);
    crc.update(body);
    let header = header(len, crc.finish());
    let mut slices = [
        IoSlice::new(&header),
        IoSlice::new(head),
        IoSlice::new(body),
    ];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one complete frame, blocking, verifying its CRC. An EOF before
/// the first header byte returns `Ok(None)` (clean close); an EOF
/// mid-frame is an error, and a payload failing its checksum is
/// [`WireError::BadCrc`] (as `InvalidData`). A read interrupted by a signal
/// (`EINTR`, which a socket with `SO_RCVTIMEO` never restarts) is retried,
/// in the header as in the payload.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    let mut n = 0;
    while n < HEADER_LEN {
        match r.read(&mut header[n..]) {
            Ok(0) if n == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(m) => n += m,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != want_crc {
        return Err(WireError::BadCrc.into());
    }
    Ok(Some(payload))
}

/// Incremental frame reassembler: bytes in (any chunking), frames out.
#[derive(Default)]
pub struct FrameDecoder {
    buf: VecDeque<u8>,
}

impl FrameDecoder {
    /// Fresh, empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed a chunk of received bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend(chunk);
    }

    /// Pop the next complete frame, if one has fully arrived and its
    /// payload passes the CRC check.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let header: Vec<u8> = self.buf.iter().take(HEADER_LEN).copied().collect();
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let want_crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(WireError::TooLong);
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None);
        }
        self.buf.drain(..HEADER_LEN);
        let payload: Vec<u8> = self.buf.drain(..len).collect();
        if crc32(&payload) != want_crc {
            return Err(WireError::BadCrc);
        }
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Make a frame of a buffer that holds [`HEADER_LEN`] reserved bytes and
/// then the payload: write the payload's header over those bytes. A
/// message encoded straight behind the reserved bytes becomes a frame
/// without a copy.
pub fn seal_frame(frame: &mut [u8]) {
    let (head, payload) = frame.split_at_mut(HEADER_LEN);
    head.copy_from_slice(&header(payload.len(), crc32(payload)));
}

/// Frame a payload into a fresh buffer (header + payload), for tests and
/// for batching multiple frames into one socket write.
pub fn frame_vec(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN);
    out.extend_from_slice(&header(payload.len(), crc32(payload)));
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC one bit at a time, straight from the polynomial — no table.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_crc32_matches_bitwise_at_every_length_and_offset() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 151 + 7) as u8).collect();
        for start in 0..8 {
            for len in 0..=67 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_fed_in_pieces_matches_the_whole() {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % (bound as u64 + 1)) as usize
        };
        for _ in 0..200 {
            let len = next(data.len());
            let whole = &data[..len];
            let mut c = Crc32::new();
            let mut at = 0;
            while at < len {
                let to = at + next(len - at);
                c.update(&whole[at..to]);
                at = to;
            }
            assert_eq!(c.finish(), crc32(whole), "len {len}");
        }
        let mut c = Crc32::new();
        for piece in [&b"1234"[..], b"", b"5", b"6789"] {
            c.update(piece);
        }
        assert_eq!(c.finish(), 0xCBF4_3926);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn a_frame_written_in_parts_reads_back_whole() {
        let mut buf = Vec::new();
        write_frame_parts(&mut buf, b"head", b"and body").unwrap();
        write_frame(&mut buf, b"next").unwrap();
        assert_eq!(&buf[..HEADER_LEN + 12], &frame_vec(b"headand body")[..]);
        let mut sealed = [&[0u8; HEADER_LEN][..], b"headand body"].concat();
        seal_frame(&mut sealed);
        assert_eq!(sealed, &buf[..HEADER_LEN + 12]);
        let mut r = std::io::Cursor::new(&buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"headand body");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"next");
        assert_eq!(read_frame(&mut r).unwrap(), None);
        for cut in 1..HEADER_LEN + 12 {
            let err = read_frame(&mut std::io::Cursor::new(&buf[..cut])).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        let mut corrupt = buf.clone();
        corrupt[HEADER_LEN + 5] ^= 1;
        let err = read_frame(&mut std::io::Cursor::new(&corrupt)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // A payload over the cap in parts is refused with nothing written.
        let big = vec![0u8; MAX_FRAME];
        let mut sink = Vec::new();
        let err = write_frame_parts(&mut sink, b"x", &big).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(sink.is_empty());
    }

    /// Hands out at most three bytes per read, and fails every real read's
    /// first attempt with `Interrupted` until `interrupts` runs out.
    struct InterruptedReader {
        inner: std::io::Cursor<Vec<u8>>,
        interrupts: usize,
        armed: bool,
    }

    impl Read for InterruptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.armed && self.interrupts > 0 {
                self.interrupts -= 1;
                self.armed = false;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.armed = true;
            let k = buf.len().min(3);
            self.inner.read(&mut buf[..k])
        }
    }

    #[test]
    fn interrupted_reads_are_retried_in_header_and_payload() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"first frame").unwrap();
        write_frame(&mut stream, b"2nd").unwrap();
        let mut r = InterruptedReader {
            inner: std::io::Cursor::new(stream),
            interrupts: 64,
            armed: true,
        };
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first frame");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"2nd");
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // 12 reads of at most 3 bytes (3 + 4 + 3 + 1 + the EOF), each
        // interrupted once first.
        assert_eq!(r.interrupts, 64 - 12);
    }

    #[test]
    fn blocking_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 1000]);
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_error() {
        let mut full = Vec::new();
        write_frame(&mut full, b"abcdef").unwrap();
        for cut in 1..full.len() {
            let mut r = std::io::Cursor::new(&full[..cut]);
            assert!(read_frame(&mut r).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn any_flipped_payload_bit_is_rejected() {
        let full = frame_vec(b"abcdef");
        for byte in HEADER_LEN..full.len() {
            for bit in 0..8 {
                let mut corrupt = full.clone();
                corrupt[byte] ^= 1 << bit;
                let mut r = std::io::Cursor::new(&corrupt);
                let err = read_frame(&mut r).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("checksum"), "got: {err}");
            }
        }
    }

    #[test]
    fn flipped_crc_bits_are_rejected() {
        let full = frame_vec(b"abcdef");
        for byte in 4..HEADER_LEN {
            let mut corrupt = full.clone();
            corrupt[byte] ^= 0x10;
            let mut dec = FrameDecoder::new();
            dec.push(&corrupt);
            assert_eq!(dec.next_frame(), Err(WireError::BadCrc));
        }
    }

    #[test]
    fn decoder_handles_byte_at_a_time() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"one").unwrap();
        write_frame(&mut stream, b"two2").unwrap();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames, vec![b"one".to_vec(), b"two2".to_vec()]);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_header() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        dec.push(&[0u8; 4]);
        assert_eq!(dec.next_frame(), Err(WireError::TooLong));
    }

    #[test]
    fn oversized_write_refused() {
        let mut sink = Vec::new();
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut sink, &big).is_err());
    }
}
