//! A minimal little-endian byte codec and two FNV-1a/64 checksums.
//!
//! The format must be stable across compilers and platforms, so every
//! multi-byte value is written explicitly little-endian; floats travel as
//! their IEEE-754 bit patterns, which is what makes restored state
//! bit-exact rather than merely close. Slices are converted in bulk (one
//! resize, then a fixed-width loop), which emits exactly the bytes a
//! per-element loop would.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a step: a bijection of `hash` for a fixed `word`, and of
/// `word` for a fixed `hash`.
#[inline(always)]
fn fnv_step(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a, 64-bit, byte by byte: small, dependency-free, and plenty to
/// detect the truncations and bit flips checkpointing cares about (this
/// is integrity checking, not cryptography). Shards and
/// version-2 checkpoints are sealed with it; wire frames and
/// version-3 checkpoints use the word-wise [`fnv1a64_words`] instead.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |hash, &b| fnv_step(hash, u64::from(b)))
}

/// FNV-1a/64 over little-endian `u64` words in four independent lanes —
/// the wire-frame and checkpoint checksum, fast because the lanes' multiplies overlap
/// instead of forming one dependent chain per byte.
///
/// Word `i` of every 32-byte block feeds lane `i`; the lane states are
/// then folded in order, followed by the length and the tail bytes
/// (fewer than 32) one at a time. Every step is a bijection of the
/// running state, so a change confined to one word or one tail byte —
/// in particular every single-bit flip — always changes the hash.
/// Integrity checking against accidental corruption, not cryptography.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let blocks = bytes.chunks_exact(32);
    let tail = blocks.remainder();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fnv_step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let hash = lanes.into_iter().fold(FNV_OFFSET, fnv_step);
    let hash = fnv_step(hash, bytes.len() as u64);
    tail.iter()
        .fold(hash, |hash, &b| fnv_step(hash, u64::from(b)))
}

/// Appends little-endian primitives to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Reserves room for `additional` more bytes, so a message whose size
    /// is known up front encodes into one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes an `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes an optional `f32` (presence byte + bit pattern).
    pub fn opt_f32(&mut self, v: Option<f32>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f32(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a length prefix, then every element's `N` bytes: one
    /// resize, then a fixed-width copy per element.
    fn slice<T: Copy, const N: usize>(&mut self, v: &[T], bytes: impl Fn(T) -> [u8; N]) {
        self.u64(v.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + N * v.len(), 0);
        for (out, &x) in self.buf[start..].chunks_exact_mut(N).zip(v) {
            out.copy_from_slice(&bytes(x));
        }
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self, v: &[f32]) {
        self.slice(v, |x| x.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed list of `f32` vectors.
    pub fn f32_slices(&mut self, v: &[Vec<f32>]) {
        self.u64(v.len() as u64);
        for x in v {
            self.f32_slice(x);
        }
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.slice(v, |x| x.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.slice(v, u64::to_le_bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a length-prefixed opaque byte slice. Used by the distributed
    /// runtime to nest an already-encoded payload (e.g. a full checkpoint)
    /// inside a wire message.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

impl From<Vec<u8>> for Writer {
    /// A writer appending to `buf` (e.g. behind a reserved header).
    fn from(buf: Vec<u8>) -> Self {
        Writer { buf }
    }
}

/// A decode failure: the payload ended early or held an invalid value.
/// Decoding never panics — corrupt bytes must surface as an error the
/// loader can fall back from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed checkpoint payload: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Reads little-endian primitives back out of a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(DecodeError("unexpected end of payload"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length bounded by the bytes that could plausibly remain, so
    /// a corrupt length cannot drive an enormous allocation.
    fn len(&mut self, elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) / elem_bytes.max(1);
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= remaining)
            .ok_or(DecodeError("length prefix exceeds payload"))
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(DecodeError("invalid option tag")),
        }
    }

    /// Reads an optional `f32`.
    pub fn opt_f32(&mut self) -> Result<Option<f32>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f32()?)),
            _ => Err(DecodeError("invalid option tag")),
        }
    }

    /// Reads a length prefix bounded by the remaining payload, then that
    /// many `N`-byte elements in one pass.
    fn vec<T, const N: usize>(
        &mut self,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.len(N)?;
        // `len` bounded `n` by the remaining bytes, so `n * N` cannot
        // overflow.
        let bytes = self.take(n * N)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|c| from(c.try_into().expect("N bytes")))
            .collect())
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, DecodeError> {
        self.vec(|b| f32::from_bits(u32::from_le_bytes(b)))
    }

    /// Reads a length-prefixed list of `f32` vectors.
    pub fn f32_vecs(&mut self) -> Result<Vec<Vec<f32>>, DecodeError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f32_vec()).collect()
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, DecodeError> {
        self.vec(|b| f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, DecodeError> {
        self.vec(u64::from_le_bytes)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("invalid UTF-8"))
    }

    /// Reads a length-prefixed opaque byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.len(1)?;
        Ok(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f64(f64::NAN);
        w.opt_u64(Some(42));
        w.opt_u64(None);
        w.opt_f32(Some(1.5));
        w.str("resumé");
        w.f32_slice(&[1.0, f32::INFINITY, -3.25]);
        w.f64_slice(&[0.125]);
        w.f32_slices(&[vec![1.0], vec![], vec![2.0, 3.0]]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_f32().unwrap(), Some(1.5));
        assert_eq!(r.str().unwrap(), "resumé");
        assert_eq!(r.f32_vec().unwrap(), vec![1.0, f32::INFINITY, -3.25]);
        assert_eq!(r.f64_vec().unwrap(), vec![0.125]);
        assert_eq!(
            r.f32_vecs().unwrap(),
            vec![vec![1.0], vec![], vec![2.0, 3.0]]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_payload_errors_instead_of_panicking() {
        let mut w = Writer::new();
        w.f32_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.f32_vec().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).f32_vec().is_err());
        assert!(Reader::new(&bytes).f32_vecs().is_err());
        assert!(Reader::new(&bytes).u64_vec().is_err());
        assert!(Reader::new(&bytes).str().is_err());
        // One element more than the payload holds is rejected too.
        let mut w = Writer::new();
        w.u64(3);
        w.u64(1);
        w.u64(2);
        assert!(Reader::new(&w.into_bytes()).u64_vec().is_err());
    }

    /// The per-element encoding the bulk path replaced, kept as the
    /// byte-for-byte reference for every durable format.
    fn reference_f32_slice(v: &[f32]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(v.len() as u64);
        for &x in v {
            w.f32(x);
        }
        w.into_bytes()
    }

    fn reference_u64_slice(v: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(v.len() as u64);
        for &x in v {
            w.u64(x);
        }
        w.into_bytes()
    }

    #[test]
    fn bulk_slices_match_the_per_element_encoding() {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7FC0_0001), // quiet NaN with a payload
            f32::from_bits(0x7F80_0001), // signalling NaN
            f32::from_bits(0xFFFF_FFFF), // negative NaN, all payload bits
            -0.0,
            0.0,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807F_FFFF), // largest negative subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        for n in [0usize, 1, 7, 530_000] {
            let v: Vec<f32> = (0..n)
                .map(|i| match i % 3 {
                    0 => specials[i % specials.len()],
                    _ => f32::from_bits((i as u32).wrapping_mul(0x9E37_79B9)),
                })
                .collect();
            let mut w = Writer::new();
            w.f32_slice(&v);
            let bytes = w.into_bytes();
            assert_eq!(bytes, reference_f32_slice(&v), "f32 length {n}");
            let back = Reader::new(&bytes).f32_vec().unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&v), "f32 length {n} decodes bit-exactly");

            let u: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let mut w = Writer::new();
            w.u64_slice(&u);
            let bytes = w.into_bytes();
            assert_eq!(bytes, reference_u64_slice(&u), "u64 length {n}");
            assert_eq!(Reader::new(&bytes).u64_vec().unwrap(), u);

            let f: Vec<f64> = u.iter().map(|&x| f64::from_bits(x)).collect();
            let mut w = Writer::new();
            w.f64_slice(&f);
            assert_eq!(w.into_bytes(), reference_u64_slice(&u), "f64 length {n}");
        }
    }

    #[test]
    fn every_truncation_of_a_bulk_slice_errors() {
        let mut w = Writer::new();
        w.f32_slice(&[1.0, f32::NAN, -0.0, 7.5, 2.0]);
        w.u64_slice(&[3, u64::MAX, 0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let whole = r.f32_vec().and_then(|_| r.u64_vec());
            assert!(whole.is_err(), "cut at {cut} must fail");
        }
        let mut r = Reader::new(&bytes);
        assert_eq!(r.f32_vec().unwrap().len(), 5);
        assert_eq!(r.u64_vec().unwrap(), vec![3, u64::MAX, 0]);
        assert!(r.is_empty());
    }

    /// SplitMix64 bytes: a seeded input identical on every platform.
    fn seeded_bytes(n: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(n);
        out
    }

    #[test]
    fn word_checksum_matches_golden_values() {
        // Pinned so the wire format cannot drift across platforms or
        // refactors: empty input, a tail-only input, and a large input
        // that exercises every lane.
        assert_eq!(fnv1a64_words(b""), 0xF1FC_E322_BC1D_AF2F);
        assert_eq!(
            fnv1a64_words(b"synchronous model averaging 012"),
            0x70DF_C1DA_4D18_0B95
        );
        assert_eq!(
            fnv1a64_words(&seeded_bytes(1 << 20, 7)),
            0x2712_9E9F_541B_F3E7
        );
    }

    #[test]
    fn word_checksum_detects_every_single_bit_flip() {
        // 10 full blocks plus a 13-byte tail: every lane and the tail path.
        let bytes = seeded_bytes(333, 11);
        let base = fnv1a64_words(&bytes);
        let mut flipped = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert_ne!(
                    fnv1a64_words(&flipped),
                    base,
                    "flip of bit {bit} in byte {i} undetected"
                );
                flipped[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn word_checksum_sees_length_and_word_order() {
        for n in [0usize, 5, 31, 32, 63, 64, 100] {
            let bytes = seeded_bytes(n, 3);
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(
                fnv1a64_words(&bytes),
                fnv1a64_words(&longer),
                "appending a zero byte to {n} bytes must change the hash"
            );
        }
        // Two words swapped between lanes of one block.
        let bytes = seeded_bytes(64, 5);
        let mut swapped = bytes.clone();
        swapped[..8].copy_from_slice(&bytes[8..16]);
        swapped[8..16].copy_from_slice(&bytes[..8]);
        assert_ne!(fnv1a64_words(&bytes), fnv1a64_words(&swapped));
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let mut w = Writer::new();
        w.f32_slice(&[0.5; 64]);
        let bytes = w.into_bytes();
        let base = fnv1a64(&bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv1a64(&flipped), base, "flip at byte {i} undetected");
        }
    }
}
