//! Binary wire encoding of [`Unit`] values.
//!
//! The shapes the renovation codec produces (tuples of ints, reals, texts
//! and `Reals` bulk vectors) must cross a task-instance boundary byte for
//! byte. The encoding is little-endian, self-describing, and *exact*:
//! reals travel as their IEEE-754 bit patterns, so a value decoded on the
//! far side compares `==` (including signed zeros; NaNs compare by bits).
//!
//! ```text
//! unit   := tag:u8 body
//! tag 0  Bytes  body := len:u32  raw bytes
//! tag 1  Int    body := i64
//! tag 2  Real   body := f64 bits (u64)
//! tag 3  Text   body := len:u32  utf-8 bytes
//! tag 4  Reals  body := count:u32  f64 bits ×count
//! tag 5  Tuple  body := count:u32  unit ×count
//! ```
//!
//! [`Unit::ProcessRef`] deliberately has no encoding: a process reference
//! is only meaningful inside one environment. Trying to ship one is a
//! programming error and fails loudly.
//!
//! Nesting is bounded by [`MAX_DEPTH`] on both encode and decode, so a
//! hostile or corrupt peer cannot drive the decoder into unbounded
//! recursion.

use std::sync::Arc;

use manifold::Unit;

use crate::WireError;

/// Maximum tuple nesting depth accepted on the wire.
pub const MAX_DEPTH: usize = 64;

const TAG_BYTES: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_REAL: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_REALS: u8 = 4;
const TAG_TUPLE: u8 = 5;

/// Encode a unit into `out`.
pub fn encode_unit(unit: &Unit, out: &mut Vec<u8>) -> Result<(), WireError> {
    encode_at(unit, out, 0)
}

/// Encode a unit into a fresh buffer.
pub fn encode_unit_vec(unit: &Unit) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(64);
    encode_unit(unit, &mut out)?;
    Ok(out)
}

/// Encode the head of a tuple of `count` units into `out`. Exactly
/// `count` encoded units must follow it — encoded here, or copied in from
/// bytes an earlier encode produced.
pub fn encode_tuple_head(count: usize, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.push(TAG_TUPLE);
    put_len(out, count)
}

fn encode_at(unit: &Unit, out: &mut Vec<u8>, depth: usize) -> Result<(), WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::TooDeep);
    }
    match unit {
        Unit::Bytes(b) => {
            out.push(TAG_BYTES);
            put_len(out, b.len())?;
            out.extend_from_slice(b.as_ref());
        }
        Unit::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Unit::Real(v) => {
            out.push(TAG_REAL);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Unit::Text(s) => {
            out.push(TAG_TEXT);
            put_len(out, s.len())?;
            out.extend_from_slice(s.as_bytes());
        }
        Unit::Reals(v) => {
            out.push(TAG_REALS);
            put_len(out, v.len())?;
            out.reserve(v.len() * 8);
            for x in v.iter() {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Unit::Tuple(items) => {
            out.push(TAG_TUPLE);
            put_len(out, items.len())?;
            for item in items.iter() {
                encode_at(item, out, depth + 1)?;
            }
        }
        Unit::ProcessRef(_) => return Err(WireError::ProcessRef),
    }
    Ok(())
}

fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), WireError> {
    let len: u32 = len.try_into().map_err(|_| WireError::TooLong)?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Decode one unit from `buf`, which must contain exactly one encoded
/// unit (the framing layer guarantees this).
pub fn decode_unit(buf: &[u8]) -> Result<Unit, WireError> {
    let mut r = UnitReader::new(buf);
    let (unit, _) = r.unit()?;
    r.finish()?;
    Ok(unit)
}

/// Reads an encoded buffer one unit at a time, in place: the caller steps
/// into tuples it knows the shape of, and each unit it takes whole comes
/// with the bytes it was decoded from, so a large unit can be kept as
/// written instead of re-encoded.
pub struct UnitReader<'a> {
    cur: Cursor<'a>,
}

impl<'a> UnitReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        UnitReader {
            cur: Cursor { buf, pos: 0 },
        }
    }

    /// Step into a tuple: its element count. Its elements are the next
    /// units read.
    pub fn tuple(&mut self) -> Result<usize, WireError> {
        self.expect(TAG_TUPLE)?;
        Ok(self.cur.u32()? as usize)
    }

    /// Bytes read so far: where the next unit starts.
    pub fn position(&self) -> usize {
        self.cur.pos
    }

    /// The next unit, which must be an int ([`WireError::BadTag`] for any
    /// other unit).
    pub fn int(&mut self) -> Result<i64, WireError> {
        self.expect(TAG_INT)?;
        Ok(self.cur.u64()? as i64)
    }

    /// The next unit, which must be a real.
    pub fn real(&mut self) -> Result<f64, WireError> {
        self.expect(TAG_REAL)?;
        Ok(f64::from_bits(self.cur.u64()?))
    }

    /// The next unit, which must be text, borrowed from the buffer.
    pub fn text(&mut self) -> Result<&'a str, WireError> {
        self.expect(TAG_TEXT)?;
        let len = self.cur.u32()? as usize;
        std::str::from_utf8(self.cur.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// Step over the next unit, which must be a reals vector, checking
    /// its length against the buffer but decoding none of its values.
    pub fn skip_reals(&mut self) -> Result<(), WireError> {
        self.expect(TAG_REALS)?;
        let count = self.cur.u32()? as usize;
        self.cur
            .take(count.checked_mul(8).ok_or(WireError::Truncated)?)
            .map(drop)
    }

    fn expect(&mut self, tag: u8) -> Result<(), WireError> {
        match self.cur.u8()? {
            t if t == tag => Ok(()),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// The next whole unit, decoded, and the bytes it was decoded from.
    pub fn unit(&mut self) -> Result<(Unit, &'a [u8]), WireError> {
        let start = self.cur.pos;
        let unit = decode_at(&mut self.cur, 0)?;
        Ok((unit, &self.cur.buf[start..self.cur.pos]))
    }

    /// End of input: an error if any bytes are left unread.
    pub fn finish(self) -> Result<(), WireError> {
        match self.cur.buf.len() - self.cur.pos {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_at(cur: &mut Cursor<'_>, depth: usize) -> Result<Unit, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::TooDeep);
    }
    match cur.u8()? {
        TAG_BYTES => {
            let len = cur.u32()? as usize;
            Ok(Unit::bytes(cur.take(len)?.to_vec()))
        }
        TAG_INT => Ok(Unit::int(cur.u64()? as i64)),
        TAG_REAL => Ok(Unit::real(f64::from_bits(cur.u64()?))),
        TAG_TEXT => {
            let len = cur.u32()? as usize;
            let s = std::str::from_utf8(cur.take(len)?).map_err(|_| WireError::BadUtf8)?;
            Ok(Unit::text(s))
        }
        TAG_REALS => {
            let count = cur.u32()? as usize;
            let bytes = cur.take(count.checked_mul(8).ok_or(WireError::Truncated)?)?;
            let mut v = Vec::with_capacity(count);
            for chunk in bytes.chunks_exact(8) {
                v.push(f64::from_bits(u64::from_le_bytes(
                    chunk.try_into().unwrap(),
                )));
            }
            Ok(Unit::Reals(Arc::new(v)))
        }
        TAG_TUPLE => {
            let count = cur.u32()? as usize;
            // Each element costs at least one tag byte: reject counts the
            // remaining input cannot possibly satisfy before allocating.
            if count > cur.buf.len() - cur.pos {
                return Err(WireError::Truncated);
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_at(cur, depth + 1)?);
            }
            Ok(Unit::tuple(items))
        }
        tag => Err(WireError::BadTag(tag)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(u: &Unit) -> Unit {
        decode_unit(&encode_unit_vec(u).unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for u in [
            Unit::int(0),
            Unit::int(-1),
            Unit::int(i64::MAX),
            Unit::int(i64::MIN),
            Unit::real(0.0),
            Unit::real(-0.0),
            Unit::real(f64::INFINITY),
            Unit::real(1.0e-300),
            Unit::text(""),
            Unit::text("héllo wörld"),
            Unit::bytes(vec![]),
            Unit::bytes(vec![0u8, 255, 7]),
            Unit::reals(vec![]),
            Unit::reals(vec![1.5, -2.5, f64::MIN_POSITIVE]),
            Unit::tuple(vec![]),
        ] {
            assert_eq!(round_trip(&u), u);
        }
    }

    #[test]
    fn negative_zero_and_nan_bits_survive() {
        let u = round_trip(&Unit::real(-0.0));
        assert_eq!(u.as_real().unwrap().to_bits(), (-0.0f64).to_bits());
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        match round_trip(&Unit::real(nan)) {
            Unit::Real(v) => assert_eq!(v.to_bits(), nan.to_bits()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn nested_tuples_round_trip() {
        let u = Unit::tuple(vec![
            Unit::int(3),
            Unit::tuple(vec![Unit::real(2.5), Unit::text("x")]),
            Unit::reals(vec![1.0; 100]),
            Unit::tuple(vec![]),
        ]);
        assert_eq!(round_trip(&u), u);
    }

    #[test]
    fn max_depth_accepted_beyond_rejected() {
        let mut u = Unit::int(1);
        for _ in 0..MAX_DEPTH {
            u = Unit::tuple(vec![u]);
        }
        assert_eq!(round_trip(&u), u);
        let too_deep = Unit::tuple(vec![u]);
        assert_eq!(encode_unit_vec(&too_deep), Err(WireError::TooDeep));
    }

    #[test]
    fn process_ref_refused() {
        let env = manifold::Environment::new();
        let p = env.create_process("P", |_ctx: manifold::ProcessCtx| Ok(()));
        assert_eq!(
            encode_unit_vec(&Unit::ProcessRef(p)),
            Err(WireError::ProcessRef)
        );
        env.shutdown();
    }

    #[test]
    fn a_tuple_read_in_place_gives_back_its_units_bytes() {
        let inner = Unit::tuple(vec![Unit::int(7), Unit::reals(vec![0.5, -1.0])]);
        let whole = Unit::tuple(vec![Unit::text("t"), inner.clone()]);
        let encoded = encode_unit_vec(&whole).unwrap();
        let mut head = Vec::new();
        encode_tuple_head(2, &mut head).unwrap();
        encode_unit(&Unit::text("t"), &mut head).unwrap();
        head.extend_from_slice(&encode_unit_vec(&inner).unwrap());
        assert_eq!(head, encoded);

        let mut r = UnitReader::new(&encoded);
        assert_eq!(r.tuple(), Ok(2));
        assert_eq!(r.unit().unwrap().0, Unit::text("t"));
        let (unit, bytes) = r.unit().unwrap();
        assert_eq!(unit, inner);
        assert_eq!(bytes, encode_unit_vec(&inner).unwrap());
        r.finish().unwrap();

        let mut r = UnitReader::new(&encoded);
        r.tuple().unwrap();
        assert_eq!(r.tuple(), Err(WireError::BadTag(TAG_TEXT)));
        let mut r = UnitReader::new(&encoded);
        r.tuple().unwrap();
        r.unit().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing(encoded.len() - 11)));
    }

    #[test]
    fn corrupt_input_rejected_not_panicking() {
        assert!(decode_unit(&[]).is_err());
        assert!(decode_unit(&[9]).is_err()); // bad tag
        assert!(decode_unit(&[1, 0, 0]).is_err()); // truncated int
                                                   // Tuple claiming 4 billion elements: refused before allocation.
        assert!(decode_unit(&[5, 255, 255, 255, 255]).is_err());
        // Trailing garbage after a valid unit.
        let mut buf = encode_unit_vec(&Unit::int(1)).unwrap();
        buf.push(0);
        assert_eq!(decode_unit(&buf), Err(WireError::Trailing(1)));
    }
}
