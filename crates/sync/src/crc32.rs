//! Canonical CRC-32C (Castagnoli) for every Spitfire framing format.
//!
//! One checksum, one implementation: snapshot block headers, WAL record
//! framing, and the server wire protocol all call this [`crc32`]. It lives
//! in `spitfire-sync` — the lowest shared crate — so none of those
//! consumers needs the others just for a checksum (the snapshot store
//! and the WAL live in `spitfire-txn`, the wire codec in
//! `spitfire-server`).
//!
//! The polynomial is Castagnoli's because x86-64 has an instruction for it
//! (SSE4.2 `crc32`): a checkpoint checksums every 16 KB snapshot block it
//! writes and recovery every one it reads, and the table code below costs
//! ≈ 0.65 ns a byte where the instruction costs ≈ 0.1. Hosts without the
//! instruction (and Miri, which does not interpret it) take the table
//! code; both compute the same function, so which one ran is invisible in
//! every stored or transmitted frame.

/// CRC-32C, reflected.
const POLY: u32 = 0x82F6_3B78;

/// CRC-32C slicing-by-8 tables, built at compile time.
/// `CRC32_TABLES[0]` is the classic one-byte table; table `k` advances a
/// byte that sits `k` positions deeper in an 8-byte group.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32C of `data`. Recovery checksums every block of a snapshot
/// generation and every WAL record, and a checkpoint every block it
/// writes, so this sits on both the restart and the maintenance path. This
/// is the one checksum used by the snapshot blocks, the WAL framing, and
/// the server wire protocol.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32_sse42` needs only the SSE4.2 feature, which the
        // running CPU was just detected to have.
        return unsafe { crc32_sse42(data) };
    }
    crc32_tables(data)
}

/// The SSE4.2 `crc32` instruction, eight bytes at a time. One dependent
/// chain (3 cycles per 8 bytes): interleaving three streams would triple
/// that but needs a carry-less multiply to recombine them, and at
/// ≈ 1.7 µs per 16 KB image the checksum is already a tenth of what the
/// image's SSD write is charged.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "sse4.2")]
fn crc32_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = 0xFFFF_FFFFu64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Slicing-by-8: a byte-at-a-time loop is latency-bound on the table
/// lookup chain; eight parallel tables break that dependency. The portable
/// path, and the one the tests hold the instruction against.
fn crc32_tables(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let x = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][(x >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::{crc32, crc32_tables, POLY};

    /// Bitwise reference implementation (the original one).
    fn crc32_ref(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn known_answer() {
        // The canonical CRC-32C (iSCSI) check value.
        assert_eq!(crc32(b"123456789"), 0xE306_9283);
        assert_eq!(crc32_tables(b"123456789"), 0xE306_9283);
        assert_eq!(crc32(b""), 0);
    }

    /// Both paths against the bitwise reference: `crc32` is the
    /// instruction on an SSE4.2 host, and the table code is called by name
    /// so that such a host still exercises it.
    #[test]
    fn matches_bitwise_reference_at_every_alignment() {
        // A page image under Miri would take minutes.
        let longest = if cfg!(miri) { 1000 } else { 16_384 };
        let data: Vec<u8> = (0..longest as u32 + 8)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in [0, 1, 7, 8, 9, 63, 64, 65, 255, 1000, longest] {
                let slice = &data[start..start + len];
                let expect = crc32_ref(slice);
                assert_eq!(crc32(slice), expect, "start {start} len {len}");
                assert_eq!(
                    crc32_tables(slice),
                    expect,
                    "tables: start {start} len {len}"
                );
            }
        }
    }
}
