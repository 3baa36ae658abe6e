//! The one binary codec behind the artifact format and the cluster wire
//! protocol: little-endian integers, every `f64` as its IEEE-754 bit
//! pattern (so values round-trip bitwise), length-prefixed lists, and a
//! word-wise [`checksum`].
//!
//! Reads are **alloc-bounded**: a length prefix may never claim more
//! bytes than the buffer still holds ([`ByteReader::count`]), so a corrupt
//! or hostile length cannot trigger a huge allocation. Every malformation
//! is a [`CodecError`]; decoding never panics. The two callers convert it
//! into their own error type (`RomError`, the cluster's `WireError`).

/// Multiplier of the checksum step (odd, so the multiply is a bijection).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum step: a bijection in `lane` for a fixed `w` and in `w`
/// for a fixed `lane`, so a changed word always changes the result. The
/// xorshift folds high bits down: without it, two bit-63 flips in
/// consecutive words of a lane cancel, as they do in word-wise FNV-1a.
fn step(lane: u64, w: u64) -> u64 {
    let x = (lane ^ w).wrapping_mul(K);
    x ^ (x >> 29)
}

/// The corruption tripwire of artifacts, wire frames and shard-plan
/// digests (not a cryptographic seal). Four independent lanes run over
/// 32-byte blocks of little-endian words; the lanes, the zero-padded tail
/// and the byte length are then folded with the same step. Any change
/// confined to one 8-byte word is always detected.
pub fn checksum(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let mut lanes = [1, 2, 3, 4].map(|i: u64| i.wrapping_mul(K));
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let tail = blocks.remainder().chunks(8).map(word);
    let h = lanes.into_iter().chain(tail).fold(0, step);
    step(h, bytes.len() as u64)
}

/// Why a buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a field was complete, or a length prefix
    /// claims more bytes than are left.
    Truncated {
        /// Which field was being read.
        while_reading: &'static str,
    },
    /// A length prefix whose byte size does not fit in 64 bits.
    Overflow {
        /// Which field was being read.
        while_reading: &'static str,
    },
    /// Structurally invalid content.
    Corrupt(&'static str),
}

/// Little-endian field writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A 32-bit word.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A 64-bit word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A float as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A length-prefixed list of indices, each as a 64-bit word.
    pub fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        vs.iter().for_each(|&v| self.u64(v as u64));
    }

    /// A length-prefixed list of floats.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        vs.iter().for_each(|&v| self.f64(v));
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far followed by their [`checksum`].
    pub fn into_checksummed(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.u64(sum);
        self.buf
    }
}

/// Little-endian field reader over a borrowed buffer. Every method names
/// the field it reads (`what`) so a failure says where the buffer broke.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                while_reading: what,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        Ok(self.bytes(N, what)?.try_into().expect("N bytes taken"))
    }

    /// One byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// A 32-bit word.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A 64-bit word.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A float from its bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// `n` elements of at least `elem_bytes` each must fit in the bytes
    /// left — the alloc-safety rule every length prefix goes through.
    fn bounded(&self, n: u64, elem_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let need = n
            .checked_mul(elem_bytes as u64)
            .ok_or(CodecError::Overflow {
                while_reading: what,
            })?;
        if need > self.remaining() as u64 {
            return Err(CodecError::Truncated {
                while_reading: what,
            });
        }
        Ok(n as usize)
    }

    /// An element count, bounded so that `count × elem_bytes` never exceeds
    /// the bytes actually present.
    pub fn count(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let n = self.u64(what)?;
        self.bounded(n, elem_bytes, what)
    }

    /// The two extent words of a row-major matrix of `elem_bytes`-sized
    /// entries, bounded like [`count`](Self::count).
    pub fn dims(
        &mut self,
        elem_bytes: usize,
        what: &'static str,
    ) -> Result<(usize, usize), CodecError> {
        let (nrows, ncols) = (self.u64(what)?, self.u64(what)?);
        let total = nrows.checked_mul(ncols).ok_or(CodecError::Overflow {
            while_reading: what,
        })?;
        self.bounded(total, elem_bytes, what)?;
        Ok((nrows as usize, ncols as usize))
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let n = self.count(1, what)?;
        String::from_utf8(self.bytes(n, what)?.to_vec())
            .map_err(|_| CodecError::Corrupt("string not valid UTF-8"))
    }

    /// The next `n` 64-bit words, read from the borrowed buffer. The
    /// iterator knows its length, so a `collect` allocates once and
    /// exactly; a `Result` collect of per-word reads has no size hint and
    /// grows by doubling — 2 MiB of capacity for a 1.27 MB dense `G_r`,
    /// held as long as the artifact is and too big for the holes a build
    /// leaves in the heap (README, `first_answer_ms`). It borrows the
    /// buffer, not the reader, so consecutive lists can be walked side by
    /// side: the artifact's compressed-row decode zips its index and value
    /// lists and scatters them into the one matrix it allocates, with no
    /// list of its own.
    pub(crate) fn words(
        &mut self,
        n: usize,
        what: &'static str,
    ) -> Result<impl ExactSizeIterator<Item = u64> + 'a, CodecError> {
        let len = self.bounded(n as u64, 8, what)? * 8;
        let words = self.bytes(len, what)?.chunks_exact(8);
        Ok(words.map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))))
    }

    /// A length-prefixed list of indices.
    pub fn usizes(&mut self, what: &'static str) -> Result<Vec<usize>, CodecError> {
        let n = self.count(8, what)?;
        Ok(self.words(n, what)?.map(|v| v as usize).collect())
    }

    /// A length-prefixed list of floats.
    pub fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8, what)?;
        Ok(self.words(n, what)?.map(f64::from_bits).collect())
    }

    /// The buffer must be fully consumed — leftovers mean writer and
    /// reader disagree about the layout, or the buffer was tampered with.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Corrupt("trailing bytes after last field"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRUNCATED: CodecError = CodecError::Truncated { while_reading: "x" };

    #[test]
    fn every_primitive_round_trips_and_truncates_typed() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.str("ω");
        w.usizes(&[1, 2, 3]);
        w.f64s(&[1.0e-310, 2.5]);
        let bytes = w.into_bytes();
        let read_all = |buf: &[u8]| -> Result<(), CodecError> {
            let mut r = ByteReader::new(buf);
            assert_eq!(r.u8("x")?, 7);
            assert_eq!(r.u32("x")?, 0xdead_beef);
            assert_eq!(r.u64("x")?, u64::MAX - 1);
            assert_eq!(r.f64("x")?.to_bits(), (-0.0_f64).to_bits());
            assert_eq!(r.str("x")?, "ω");
            assert_eq!(r.usizes("x")?, [1, 2, 3]);
            assert_eq!(r.f64s("x")?, [1.0e-310, 2.5]);
            r.finish()
        };
        assert_eq!(read_all(&bytes), Ok(()));
        // Every proper prefix cuts some primitive short.
        for cut in 0..bytes.len() {
            assert_eq!(read_all(&bytes[..cut]), Err(TRUNCATED), "cut at {cut}");
        }
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // Three elements claimed, two present.
        let mut w = ByteWriter::new();
        w.u64(3);
        w.u64(1);
        w.u64(2);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).f64s("x"), Err(TRUNCATED));
        assert_eq!(ByteReader::new(&bytes).count(8, "x"), Err(TRUNCATED));
        assert_eq!(ByteReader::new(&bytes).count(4, "x"), Ok(3));
        // A count whose byte size does not fit in 64 bits.
        let huge = (u64::MAX / 2).to_le_bytes();
        let overflow = CodecError::Overflow { while_reading: "x" };
        assert_eq!(ByteReader::new(&huge).count(8, "x"), Err(overflow));
        assert_eq!(ByteReader::new(&huge).count(1, "x"), Err(TRUNCATED));
        // Matrix extents: product overflow, byte-size overflow, too large.
        let dims = |r: u64, c: u64| {
            let mut w = ByteWriter::new();
            w.u64(r);
            w.u64(c);
            w.f64s(&[0.0; 3]);
            ByteReader::new(&w.into_bytes()).dims(8, "x")
        };
        assert_eq!(dims(1 << 40, 1 << 40), Err(overflow));
        assert_eq!(dims(1 << 31, 1 << 30), Err(overflow));
        assert_eq!(dims(5, 1), Err(TRUNCATED));
        assert_eq!(dims(2, 2), Ok((2, 2)));
    }

    #[test]
    fn lists_decode_into_one_exact_allocation() {
        // 1025 elements: growth by doubling would end at 2048.
        let vs: Vec<f64> = (0..1025).map(f64::from).collect();
        let mut w = ByteWriter::new();
        w.f64s(&vs);
        w.usizes(&[7; 1025]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = r.f64s("x").unwrap();
        assert_eq!((back.capacity(), &back), (1025, &vs));
        assert_eq!(r.usizes("x").unwrap().capacity(), 1025);
        // A bare block is bounded like a counted one.
        let mut r = ByteReader::new(&bytes[..15]);
        assert_eq!(r.words(2, "x").map(|_| ()), Err(TRUNCATED));
        let overflow = CodecError::Overflow { while_reading: "x" };
        assert_eq!(r.words(usize::MAX, "x").map(|_| ()), Err(overflow));
        assert_eq!(r.words(1, "x").unwrap().collect::<Vec<_>>(), [1025]);
    }

    #[test]
    fn trailing_bytes_and_bad_utf8_are_corrupt() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.u8("x"), Ok(1));
        assert!(matches!(r.finish(), Err(CodecError::Corrupt(_))));
        let mut w = ByteWriter::new();
        w.u64(2);
        w.bytes(&[0xff, 0xfe]);
        assert!(matches!(
            ByteReader::new(&w.into_bytes()).str("x"),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn checksum_trails_the_bytes_it_covers() {
        let mut w = ByteWriter::new();
        w.str("abc");
        let bytes = w.into_checksummed();
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        assert_eq!(checksum(body).to_le_bytes(), sum);
        // Known answers: a change to the step, the lanes or the finish
        // re-pins every stored artifact, so it must show here first. The
        // 201-byte ramp is six blocks and a tail of one word and one byte.
        let ramp: Vec<u8> = (0..=200).collect();
        assert_eq!(checksum(b""), KNOWN_EMPTY);
        assert_eq!(checksum(&ramp), KNOWN_RAMP);
    }

    const KNOWN_EMPTY: u64 = 0x9bc1_2afc_e422_0a50;
    const KNOWN_RAMP: u64 = 0xad44_b830_1f82_9253;

    #[test]
    fn every_single_bit_flip_and_appended_zero_is_detected() {
        // Every tail length of a block and a word, and a 1 KiB buffer.
        let buf: Vec<u8> = (0..1024u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in (0..=40).chain([1024]) {
            let mut bytes = buf[..len].to_vec();
            let clean = checksum(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bytes), clean, "length {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            // The zero padding of the tail must not hide appended zeros.
            bytes.push(0);
            assert_ne!(checksum(&bytes), clean, "a zero appended to {len} bytes");
        }
    }

    #[test]
    fn high_bit_flips_in_one_lane_do_not_cancel() {
        // Word-wise FNV-1a: `(h ^ 2⁶³)·P = h·P ^ 2⁶³` for odd `P`, so a
        // second bit-63 flip in the lane's next word undoes the first.
        let word_fnv = |bytes: &[u8]| {
            bytes
                .chunks_exact(8)
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, w| {
                    let w = u64::from_le_bytes(w.try_into().unwrap());
                    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        let buf = vec![0x5a_u8; 128];
        let mut bad = buf.clone();
        // Byte 7 holds bit 63 of word 0; word 4 is the same lane's next.
        bad[7] ^= 0x80;
        bad[32 + 7] ^= 0x80;
        assert_eq!(word_fnv(&bad), word_fnv(&buf));
        assert_ne!(checksum(&bad), checksum(&buf));
    }
}
