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
//! Two consumption styles:
//!
//! * [`read_frame`] — blocking, over any [`Read`] (sockets);
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

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data` —
/// the checksum guarding every frame payload.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn header_for(payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Write one frame (length + CRC header, then the payload). Header and
/// payload go out in one vectored write — one syscall and, on a
/// `TCP_NODELAY` socket, one segment — with ordinary writes finishing
/// whatever a short write left behind.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME || u32::try_from(payload.len()).is_err() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame too long",
        ));
    }
    let header = header_for(payload);
    let sent = loop {
        match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(payload)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if sent < HEADER_LEN {
        w.write_all(&header[sent..])?;
    }
    w.write_all(&payload[sent.saturating_sub(HEADER_LEN)..])?;
    w.flush()
}

/// Read one complete frame, blocking, verifying its CRC. An EOF before
/// the first header byte returns `Ok(None)` (clean close); an EOF
/// mid-frame is an error, and a payload failing its checksum is
/// [`WireError::BadCrc`] (as `InvalidData`).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    match r.read(&mut header)? {
        0 => return Ok(None),
        mut n => {
            while n < HEADER_LEN {
                let m = r.read(&mut header[n..])?;
                if m == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    ));
                }
                n += m;
            }
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

/// Frame a payload into a fresh buffer (header + payload), for tests and
/// for batching multiple frames into one socket write.
pub fn frame_vec(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN);
    out.extend_from_slice(&header_for(payload));
    out.extend_from_slice(payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
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
