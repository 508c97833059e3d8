//! Correctness checks. Each compares a program output with something the
//! benchmark computed on its own (its copy of the input, a bit-at-a-time
//! CRC-32, a cumulative byte budget), never with a stored copy of an
//! earlier output.

use adcomp::codecs::crc32::crc32_bitwise;

/// Operations attempted and failed in a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed check is reported on stderr.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}: {e}");
        }
    }
}

/// Exact byte equality, naming the first differing offset.
pub fn same_bytes(expected: &[u8], actual: &[u8]) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "length {} != expected {}",
            actual.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(actual).position(|(a, b)| a != b) {
        Some(i) => Err(format!("byte {i} differs")),
        None => Ok(()),
    }
}

/// Byte equality plus a bit-at-a-time CRC-32 of the output against the
/// reference CRC of the input.
pub fn decoded_matches(expected: &[u8], expected_crc: u32, actual: &[u8]) -> Result<(), String> {
    same_bytes(expected, actual)?;
    let crc = crc32_bitwise(actual);
    if crc != expected_crc {
        return Err(format!(
            "crc32 {crc:#010x} != reference {expected_crc:#010x}"
        ));
    }
    Ok(())
}

/// A received record sequence must equal the sent one, record by record.
pub fn records_match(sent: &[&[u8]], received: &[Vec<u8>]) -> Result<(), String> {
    if sent.len() != received.len() {
        return Err(format!(
            "{} records received, {} sent",
            received.len(),
            sent.len()
        ));
    }
    for (i, (s, r)) in sent.iter().zip(received).enumerate() {
        same_bytes(s, r).map_err(|e| format!("record {i}: {e}"))?;
    }
    Ok(())
}

/// A PUT is correct when the server's verified prefix covers the whole
/// object and the receipt CRC equals the object's reference CRC (computed
/// bit by bit with `crc32_bitwise`).
pub fn put_matches(
    object_len: usize,
    verified_len: Option<u64>,
    receipt_crc: u32,
    reference_crc: u32,
) -> Result<(), String> {
    if verified_len != Some(object_len as u64) {
        return Err(format!("verified_len {verified_len:?} != {object_len}"));
    }
    if receipt_crc != reference_crc {
        return Err(format!(
            "receipt crc {receipt_crc:#010x} != {reference_crc:#010x}"
        ));
    }
    Ok(())
}

/// The flows sharing a link must together stay within `rate_bps` since
/// the link opened. `samples` holds, per flow, `(seconds, cumulative bytes
/// released)` in time order; `slack` bytes cover one in-flight slice.
pub fn within_link_rate(
    samples: &[Vec<(f64, u64)>],
    rate_bps: f64,
    slack: u64,
) -> Result<(), String> {
    let mut events: Vec<(f64, usize, u64)> = samples
        .iter()
        .enumerate()
        .flat_map(|(f, s)| s.iter().map(move |&(t, b)| (t, f, b)))
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut last = vec![0u64; samples.len()];
    for (t, f, b) in events {
        last[f] = b;
        let total: u64 = last.iter().sum();
        let allowed = rate_bps * t + slack as f64;
        if total as f64 > allowed {
            return Err(format!(
                "{total} bytes through the link after {t:.3} s, budget {allowed:.0}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flipped_byte_fails_and_counts() {
        let data = adcomp::corpus::generate(adcomp::corpus::Class::Moderate, 4096, 3);
        let crc = crc32_bitwise(&data);
        let mut t = Tally::default();
        t.record("clean", decoded_matches(&data, crc, &data));
        let mut bad = data.clone();
        bad[100] ^= 1;
        t.record("flipped", decoded_matches(&data, crc, &bad));
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn record_sequences_compare_sizes_and_contents() {
        let a: Vec<&[u8]> = vec![b"abc", b"de"];
        assert!(records_match(&a, &[b"abc".to_vec(), b"de".to_vec()]).is_ok());
        assert!(records_match(&a, &[b"abc".to_vec(), b"dx".to_vec()]).is_err());
        assert!(records_match(&a, &[b"abcd".to_vec(), b"e".to_vec()]).is_err());
        assert!(records_match(&a, &[b"abc".to_vec()]).is_err());
    }

    #[test]
    fn put_needs_full_prefix_and_matching_crc() {
        let crc = crc32_bitwise(b"object bytes");
        assert!(put_matches(12, Some(12), crc, crc).is_ok());
        assert!(put_matches(12, Some(3), crc, crc).is_err());
        assert!(put_matches(12, None, crc, crc).is_err());
        assert!(put_matches(12, Some(12), crc ^ 1, crc).is_err());
    }

    #[test]
    fn link_budget_is_cumulative_over_both_flows() {
        let a = vec![(1.0, 600), (2.0, 1200)];
        let b = vec![(1.5, 300), (2.0, 700)];
        assert!(within_link_rate(&[a.clone(), b.clone()], 1000.0, 0).is_ok());
        let greedy = vec![(1.5, 900)];
        assert!(within_link_rate(&[a, greedy], 1000.0, 0).is_err());
    }
}
