//! GRZ: the recording compressor.
//!
//! The paper compresses v3d memory dumps with zlib (§6.2); zlib is not
//! available offline, so GRZ is a self-contained LZSS with a 4 KiB window.
//! Dump payloads are dominated by zero pages and repeated structure, which
//! LZSS handles well — zipped/unzipped ratios land in the same regime as
//! the paper's Table 6.
//!
//! Wire format: `"GRZ1"`, u32 uncompressed length, then token groups. Each
//! group starts with a flag byte (bit *i* set ⇒ token *i* is a match),
//! followed by 8 tokens: literals are one byte; matches are three bytes
//! encoding distance−1 (12 bits) and length−3 (12 bits), so a single match
//! covers up to 4 KiB — zero pages collapse to a handful of tokens.

const MAGIC: &[u8; 4] = b"GRZ1";
const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 4098; // 3 + 4095

/// Error decompressing a GRZ stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrzError {
    /// Missing/incorrect magic or truncated header.
    BadHeader,
    /// Stream ended mid-token.
    Truncated,
    /// A match referenced data before the start of output.
    BadMatch,
    /// Output length disagreed with the header.
    LengthMismatch,
}

impl std::fmt::Display for GrzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrzError::BadHeader => write!(f, "bad GRZ header"),
            GrzError::Truncated => write!(f, "GRZ stream truncated"),
            GrzError::BadMatch => write!(f, "GRZ match out of range"),
            GrzError::LengthMismatch => write!(f, "GRZ length mismatch"),
        }
    }
}

impl std::error::Error for GrzError {}

/// Compresses `data`.
pub fn grz_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    // Hash chains over 3-byte prefixes for match finding.
    const HASH_SIZE: usize = 1 << 13;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let hash = |d: &[u8], i: usize| -> usize {
        let h = (u32::from(d[i]) << 16) ^ (u32::from(d[i + 1]) << 8) ^ u32::from(d[i + 2]);
        (h.wrapping_mul(2654435761) as usize >> 19) & (HASH_SIZE - 1)
    };

    let mut i = 0usize;
    let mut flag_pos = 0usize;
    let mut flag = 0u8;
    let mut ntok = 0u8;
    let mut group: Vec<u8> = Vec::with_capacity(17);

    let flush = |out: &mut Vec<u8>,
                 flag: &mut u8,
                 ntok: &mut u8,
                 group: &mut Vec<u8>,
                 flag_pos: &mut usize| {
        let _ = flag_pos;
        out.push(*flag);
        out.extend_from_slice(group);
        *flag = 0;
        *ntok = 0;
        group.clear();
    };

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash(data, i);
            let mut cand = head[h];
            let mut tries = 16;
            while cand != usize::MAX && tries > 0 {
                if i - cand <= WINDOW {
                    let mut l = 0usize;
                    let max = MAX_MATCH.min(data.len() - i);
                    while l < max && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == MAX_MATCH {
                            break;
                        }
                    }
                } else {
                    break;
                }
                cand = prev[cand];
                tries -= 1;
            }
        }

        if best_len >= MIN_MATCH {
            let d = best_dist - 1;
            let l = best_len - MIN_MATCH;
            group.push((d >> 4) as u8);
            group.push((((d & 0xF) as u8) << 4) | ((l >> 8) as u8 & 0xF));
            group.push((l & 0xFF) as u8);
            flag |= 1 << ntok;
            // Insert hash entries for every position inside the match.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(data, i);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            group.push(data[i]);
            if i + MIN_MATCH <= data.len() {
                let h = hash(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        ntok += 1;
        if ntok == 8 {
            flush(&mut out, &mut flag, &mut ntok, &mut group, &mut flag_pos);
        }
    }
    if ntok > 0 {
        flush(&mut out, &mut flag, &mut ntok, &mut group, &mut flag_pos);
    }
    out
}

/// Largest output a GRZ body of `body_len` bytes can expand to. The
/// densest group is one flag byte plus eight 3-byte maximal matches: 25
/// stream bytes for `8 * MAX_MATCH` output bytes. No token mix beats that
/// ratio (a literal yields one byte per stream byte), so the bound holds
/// for any body, truncated groups included.
fn max_expansion(body_len: usize) -> u64 {
    body_len as u64 * (8 * MAX_MATCH as u64) / 25
}

/// Validates a GRZ stream's header and returns its claimed output length.
///
/// The length comes from untrusted input, so a claim larger than the rest
/// of the stream can possibly expand to ([`max_expansion`]) is rejected
/// here, before anything is allocated.
///
/// # Errors
///
/// [`GrzError::BadHeader`] for a missing/short header,
/// [`GrzError::Truncated`] for a length the body cannot produce.
pub(crate) fn grz_len(stream: &[u8]) -> Result<usize, GrzError> {
    if stream.len() < 8 || &stream[0..4] != MAGIC {
        return Err(GrzError::BadHeader);
    }
    let out_len = u32::from_le_bytes(stream[4..8].try_into().expect("len checked"));
    if u64::from(out_len) > max_expansion(stream.len() - 8) {
        return Err(GrzError::Truncated);
    }
    Ok(out_len as usize)
}

/// Decompresses a GRZ stream.
///
/// Decodes into a buffer sized up front from the (bounded) header length.
/// An all-literal group copies as one 8-byte slice; a match copies with
/// `copy_within` unless it overlaps its own output (distance shorter than
/// length), which replicates byte by byte.
///
/// # Errors
///
/// Returns [`GrzError`] for malformed streams.
pub fn grz_decompress(stream: &[u8]) -> Result<Vec<u8>, GrzError> {
    let out_len = grz_len(stream)?;
    let body = &stream[8..];
    let mut out = vec![0u8; out_len];
    let mut o = 0usize;
    let mut pos = 0usize;
    while o < out_len {
        let Some(&flag) = body.get(pos) else {
            return Err(GrzError::Truncated);
        };
        pos += 1;
        if flag == 0 && out_len - o >= 8 {
            if let Some(lits) = body.get(pos..pos + 8) {
                out[o..o + 8].copy_from_slice(lits);
                o += 8;
                pos += 8;
                continue;
            }
        }
        for t in 0..8 {
            if o >= out_len {
                break;
            }
            if flag & (1 << t) != 0 {
                let Some(m) = body.get(pos..pos + 3) else {
                    return Err(GrzError::Truncated);
                };
                pos += 3;
                let (b0, b1, b2) = (m[0] as usize, m[1] as usize, m[2] as usize);
                let dist = ((b0 << 4) | (b1 >> 4)) + 1;
                let len = (((b1 & 0xF) << 8) | b2) + MIN_MATCH;
                if dist > o {
                    return Err(GrzError::BadMatch);
                }
                if len > out_len - o {
                    return Err(GrzError::LengthMismatch);
                }
                let start = o - dist;
                if dist >= len {
                    out.copy_within(start..start + len, o);
                } else {
                    for k in 0..len {
                        out[o + k] = out[start + k];
                    }
                }
                o += len;
            } else {
                let Some(&b) = body.get(pos) else {
                    return Err(GrzError::Truncated);
                };
                pos += 1;
                out[o] = b;
                o += 1;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original byte-at-a-time decoder, kept as the differential
    /// oracle for [`grz_decompress`]. Only its initial capacity is capped,
    /// so hostile length claims in the fuzz cases do not reserve gigabytes.
    fn oracle_decompress(stream: &[u8]) -> Result<Vec<u8>, GrzError> {
        if stream.len() < 8 || &stream[0..4] != MAGIC {
            return Err(GrzError::BadHeader);
        }
        let out_len = u32::from_le_bytes(stream[4..8].try_into().expect("len checked")) as usize;
        let mut out = Vec::with_capacity(out_len.min(1 << 16));
        let mut pos = 8usize;
        while out.len() < out_len {
            let Some(&flag) = stream.get(pos) else {
                return Err(GrzError::Truncated);
            };
            pos += 1;
            for t in 0..8 {
                if out.len() >= out_len {
                    break;
                }
                if flag & (1 << t) != 0 {
                    if pos + 3 > stream.len() {
                        return Err(GrzError::Truncated);
                    }
                    let b0 = stream[pos] as usize;
                    let b1 = stream[pos + 1] as usize;
                    let b2 = stream[pos + 2] as usize;
                    pos += 3;
                    let dist = ((b0 << 4) | (b1 >> 4)) + 1;
                    let len = (((b1 & 0xF) << 8) | b2) + MIN_MATCH;
                    if dist > out.len() {
                        return Err(GrzError::BadMatch);
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                } else {
                    let Some(&b) = stream.get(pos) else {
                        return Err(GrzError::Truncated);
                    };
                    pos += 1;
                    out.push(b);
                }
            }
        }
        if out.len() != out_len {
            return Err(GrzError::LengthMismatch);
        }
        Ok(out)
    }

    /// Round-trips `data` and checks the decoder against the oracle.
    fn roundtrip(data: &[u8]) {
        let z = grz_compress(data);
        let back = grz_decompress(&z).unwrap();
        assert_eq!(back, data);
        assert_eq!(oracle_decompress(&z).unwrap(), back);
    }

    /// Both decoders agree: identical bytes when the oracle accepts, an
    /// error when it rejects — the same variant unless the up-front length
    /// bound is what refused the stream.
    fn differential(stream: &[u8]) {
        let got = grz_decompress(stream);
        match oracle_decompress(stream) {
            Ok(want) => assert_eq!(got, Ok(want)),
            Err(_) if grz_len(stream) == Err(GrzError::Truncated) => {
                assert_eq!(got, Err(GrzError::Truncated));
            }
            Err(e) => assert_eq!(got, Err(e)),
        }
    }

    /// Hand-encodes a stream from `(a, b)` token seeds, including matches
    /// that overlap their own output (`dist < len`), which the compressor
    /// emits only for runs. Every match is in range, so the stream is valid.
    fn encode_tokens(seeds: &[(u16, u16)]) -> Vec<u8> {
        let mut body = Vec::new();
        let mut out_len = 0usize;
        for group in seeds.chunks(8) {
            let flag_at = body.len();
            body.push(0u8);
            for (t, &(a, b)) in group.iter().enumerate() {
                if out_len == 0 || a % 4 == 0 {
                    body.push(b as u8);
                    out_len += 1;
                    continue;
                }
                // Mostly short distances so dist < len is common.
                let reach = if a % 4 == 1 { out_len } else { out_len.min(16) };
                let dist = 1 + usize::from(b) % reach.min(WINDOW);
                let len = MIN_MATCH + usize::from(a >> 4) % (MAX_MATCH - MIN_MATCH + 1);
                let (d, l) = (dist - 1, len - MIN_MATCH);
                body.push((d >> 4) as u8);
                body.push((((d & 0xF) as u8) << 4) | (l >> 8) as u8);
                body.push((l & 0xFF) as u8);
                body[flag_at] |= 1 << t;
                out_len += len;
            }
        }
        let mut z = MAGIC.to_vec();
        z.extend_from_slice(&(out_len as u32).to_le_bytes());
        z.extend_from_slice(&body);
        z
    }

    std::thread_local! {
        static LARGEST_ALLOC: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Records the largest allocation each thread requests, so a test can
    /// prove a hostile header was refused before its length was allocated.
    struct Tracking;

    // SAFETY: forwards every call unchanged to the system allocator.
    unsafe impl std::alloc::GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(layout.size())));
            std::alloc::System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(layout.size())));
            std::alloc::System.alloc_zeroed(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static ALLOC: Tracking = Tracking;

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn zero_pages_compress_hugely() {
        let data = vec![0u8; 64 * 1024];
        let z = grz_compress(&data);
        assert!(
            z.len() < data.len() / 20,
            "zeros: {} -> {}",
            data.len(),
            z.len()
        );
        assert_eq!(grz_decompress(&z).unwrap(), data);
    }

    #[test]
    fn repeated_structure_compresses() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(&(i % 16).to_le_bytes());
        }
        let z = grz_compress(&data);
        assert!(z.len() < data.len() / 2);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_data_survives() {
        // Pseudo-random bytes: may expand slightly, must round-trip.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn long_matches_cover_whole_pages() {
        // One 4096-byte zero run should need very few tokens.
        let z = grz_compress(&vec![0u8; 4096]);
        assert!(z.len() < 32, "4K zeros -> {} bytes", z.len());
        assert_eq!(grz_decompress(&z).unwrap(), vec![0u8; 4096]);
    }

    #[test]
    fn long_range_matches_beyond_window_are_not_used() {
        // Two identical 100-byte blocks separated by > WINDOW of noise.
        let mut data = vec![7u8; 100];
        let mut x = 1u32;
        for _ in 0..WINDOW + 50 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            data.push((x >> 16) as u8);
        }
        data.extend(vec![7u8; 100]);
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_error_cleanly() {
        assert_eq!(grz_decompress(b"nope"), Err(GrzError::BadHeader));
        assert_eq!(grz_decompress(b"GRZ1\x01\x00"), Err(GrzError::BadHeader));
        let z = grz_compress(b"hello world hello world");
        assert_eq!(
            grz_decompress(&z[..z.len() - 2]).err(),
            Some(GrzError::Truncated)
        );
        // A match referencing before the origin.
        let bad = [
            b'G',
            b'R',
            b'Z',
            b'1',
            4,
            0,
            0,
            0,
            0b0000_0001,
            0xFF,
            0xF0,
            0x00,
        ];
        assert_eq!(grz_decompress(&bad), Err(GrzError::BadMatch));
        // An all-literal group cut short takes the per-token path.
        assert_eq!(
            grz_decompress(b"GRZ1\x08\x00\x00\x00\x00abc"),
            Err(GrzError::Truncated)
        );
        // A match running past the claimed length.
        assert_eq!(
            grz_decompress(b"GRZ1\x03\x00\x00\x00\x02a\x00\x00\x00"),
            Err(GrzError::LengthMismatch)
        );
    }

    #[test]
    fn oversized_length_claim_is_rejected_without_allocating() {
        let mut z = MAGIC.to_vec();
        z.extend_from_slice(&u32::MAX.to_le_bytes());
        z.extend_from_slice(b"\x00abc");
        LARGEST_ALLOC.with(|m| m.set(0));
        assert_eq!(grz_decompress(&z), Err(GrzError::Truncated));
        assert_eq!(LARGEST_ALLOC.with(std::cell::Cell::get), 0);
        assert_eq!(grz_len(&z), Err(GrzError::Truncated));
        // The densest group (a flag and eight maximal matches) sits exactly
        // on the bound, and a dense real stream passes it and decodes.
        assert_eq!(max_expansion(25), 8 * 4098);
        let mut seeds = vec![(0u16, 7u16)];
        seeds.extend([(((MAX_MATCH - MIN_MATCH) << 4) as u16 | 2, 0); 8]);
        let dense = encode_tokens(&seeds);
        assert_eq!(grz_decompress(&dense).unwrap(), vec![7u8; 1 + 8 * 4098]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            roundtrip(&data);
        }

        #[test]
        fn prop_roundtrip_structured(
            runs in proptest::collection::vec((any::<u8>(), 1usize..64), 0..128)
        ) {
            let mut data = Vec::new();
            for (b, n) in runs {
                data.extend(std::iter::repeat(b).take(n));
            }
            roundtrip(&data);
        }

        #[test]
        fn prop_matches_oracle_on_zero_pages(
            pages in (1usize..5, proptest::collection::vec((0usize..4 * 4096, any::<u8>()), 0..16))
        ) {
            let (n, pokes) = pages;
            let mut data = vec![0u8; n * 4096];
            for (at, b) in pokes {
                data[at % (n * 4096)] = b;
            }
            roundtrip(&data);
        }

        #[test]
        fn prop_matches_oracle_on_overlapping_matches(
            seeds in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..64)
        ) {
            let z = encode_tokens(&seeds);
            assert!(grz_decompress(&z).is_ok());
            differential(&z);
        }

        #[test]
        fn prop_matches_oracle_on_arbitrary_bytes(
            parts in ((any::<u32>(), 0u32..4096), proptest::collection::vec(any::<u8>(), 0..512))
        ) {
            let ((claim, small), body) = parts;
            // Mostly plausible lengths, sometimes any u32.
            let out_len = if claim % 8 == 0 { claim } else { small };
            let mut z = MAGIC.to_vec();
            z.extend_from_slice(&out_len.to_le_bytes());
            z.extend_from_slice(&body);
            differential(&z);
        }

        #[test]
        fn prop_matches_oracle_on_corrupted_streams(
            parts in (proptest::collection::vec((any::<u16>(), any::<u16>()), 1..32), (any::<u32>(), 1u8..255))
        ) {
            let (seeds, (at, x)) = parts;
            let mut z = encode_tokens(&seeds);
            let cut = at as usize % (z.len() + 1);
            differential(&z[..cut]);
            let i = at as usize % z.len();
            z[i] ^= x;
            differential(&z);
        }
    }
}
