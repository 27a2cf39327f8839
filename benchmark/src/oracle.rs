//! The correctness oracle: what every read must return.
//!
//! A payload is the key (8 bytes, little endian) followed by one byte
//! repeated to the end. The oracle keeps the byte of the last acknowledged
//! write per key; byte 0 means "as loaded".

/// Write the payload for (`key`, `byte`) into `buf`.
#[inline]
pub fn fill_payload(buf: &mut [u8], key: u32, byte: u8) {
    buf[..8].copy_from_slice(&(key as u64).to_le_bytes());
    buf[8..].fill(byte);
}

/// Whether `payload` is a well-formed payload for `key`: the key prefix,
/// then one repeated byte. Returns that byte.
fn parse_payload(key: u32, payload: &[u8]) -> Option<u8> {
    if payload.len() < 9 || payload[..8] != (key as u64).to_le_bytes() {
        return None;
    }
    let byte = payload[8];
    // First, middle and last byte: a torn or misplaced tuple differs in
    // at least one of them, and the check stays a few nanoseconds.
    let mid = 8 + (payload.len() - 8) / 2;
    (payload[mid] == byte && payload[payload.len() - 1] == byte).then_some(byte)
}

/// Expected state of one key space, owned by one client thread.
#[derive(Debug, Clone)]
pub struct Oracle {
    expected: Vec<u8>,
    /// Reads that returned something other than the last acknowledged write.
    pub wrong_reads: u64,
    /// The first few mismatches, for the report.
    pub samples: Vec<String>,
}

impl Oracle {
    /// All `keys` keys as loaded.
    pub fn new(keys: u64) -> Self {
        Oracle {
            expected: vec![0; keys as usize],
            wrong_reads: 0,
            samples: Vec::new(),
        }
    }

    /// Number of keys tracked.
    pub fn keys(&self) -> u64 {
        self.expected.len() as u64
    }

    /// Record that a write of `byte` to `key` was acknowledged.
    #[inline]
    pub fn acknowledge(&mut self, key: u32, byte: u8) {
        self.expected[key as usize] = byte;
    }

    /// The byte the last acknowledged write left in `key`.
    pub fn expected(&self, key: u32) -> u8 {
        self.expected[key as usize]
    }

    fn mismatch(&mut self, what: String) -> bool {
        self.wrong_reads += 1;
        if self.samples.len() < 5 {
            self.samples.push(what);
        }
        false
    }

    /// Check a full payload read for `key`; counts and reports a mismatch.
    #[inline]
    pub fn check(&mut self, key: u32, payload: &[u8]) -> bool {
        let want = self.expected[key as usize];
        match parse_payload(key, payload) {
            Some(got) if got == want => true,
            got => self.mismatch(format!("key {key}: expected byte {want}, read {got:?}")),
        }
    }

    /// Check a wire value for `key`. A key never written holds the empty
    /// value the server preloads. With `own` false the key belongs to
    /// another writer, so only the shape of the value can be checked.
    pub fn check_value(&mut self, key: u32, value: &[u8], own: bool) -> bool {
        let got = if value.is_empty() {
            Some(0)
        } else {
            parse_payload(key, value)
        };
        let want = self.expected[key as usize];
        match got {
            Some(b) if !own || b == want => true,
            got => self.mismatch(format!("key {key}: expected byte {want}, got {got:?}")),
        }
    }

    /// Take over the keys of `parity` from `other` (merging per-connection
    /// oracles after a run).
    pub fn adopt(&mut self, other: &Oracle, parity: u32) {
        for key in (parity as usize..self.expected.len()).step_by(2) {
            self.expected[key] = other.expected[key];
        }
        self.wrong_reads += other.wrong_reads;
        self.samples.extend(other.samples.iter().cloned());
        self.samples.truncate(5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_what_was_written_and_catches_corruption() {
        let mut o = Oracle::new(16);
        let mut buf = [0u8; 100];
        fill_payload(&mut buf, 3, 0);
        assert!(o.check(3, &buf));
        fill_payload(&mut buf, 3, 77);
        o.acknowledge(3, 77);
        assert!(o.check(3, &buf));
        assert_eq!(o.wrong_reads, 0);

        // A deliberately corrupted expectation: the store still holds 77.
        o.acknowledge(3, 78);
        assert!(!o.check(3, &buf));
        // A payload of another key, and a torn payload.
        o.acknowledge(3, 77);
        assert!(!o.check(4, &buf));
        buf[99] = 1;
        assert!(!o.check(3, &buf));
        assert_eq!(o.wrong_reads, 3);
        assert_eq!(o.samples.len(), 3);
    }

    #[test]
    fn wire_values() {
        let mut o = Oracle::new(8);
        assert!(o.check_value(2, &[], true));
        let mut v = [0u8; 64];
        fill_payload(&mut v, 2, 9);
        assert!(!o.check_value(2, &v, true), "unacknowledged byte");
        assert!(o.check_value(2, &v, false), "foreign key: shape only");
        o.acknowledge(2, 9);
        assert!(o.check_value(2, &v, true));
        assert!(!o.check_value(2, &[], true), "lost acknowledged write");
    }
}
