//! The on-disk record format: a hand-rolled, versioned, checksummed binary
//! codec for one preprocessing result (identity metadata plus the dense
//! payload matrix). The workspace has no serde — and would not want it
//! here: the payload is a dense `f64` matrix whose bit-exactness *is* the
//! contract.
//!
//! Since format 02 a record carries a **flavor**: single-rate records hold
//! the complex [`psdacc_sfg::NodeResponses`] matrix (one `npsd`-cell row
//! per node), multirate records hold the serialized
//! [`psdacc_sfg::MultirateResponses`] kernels (one `npsd_out + 1`-cell row
//! per node, `(variance, mean_sq)` packed as `(re, im)` with the DC path
//! in the trailing cell). Format-01 files fail the magic check and degrade
//! to a rebuild.
//!
//! # Format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic + version: b"PSDRSP02" (bump the digits on change)
//! 8       4     u32 scenario-key byte length K (<= 4096)
//! 12      K     scenario key, UTF-8 (the canonical `Scenario::key()` text)
//! 12+K    4     u32 npsd (input-rate grid — the cache-key component)
//! 16+K    4     u32 flavor: 0 = single-rate responses, 1 = multirate kernels
//! 20+K    4     u32 node count N
//! 24+K    4     u32 row width W in complex cells (flavor 0: W == npsd)
//! 28+K    8     f64 preprocess_seconds (tau_pp paid when first computed)
//! 36+K    16*N*W  payload: row-major (re, im) f64 pairs, node-major
//! end-8   8     u64 FNV-1a checksum over every preceding byte
//! ```
//!
//! Decoding verifies, in order: minimum length, magic/version, checksum
//! (over the whole prefix, so truncation and bit rot are both caught
//! before any field is trusted), then structural consistency (declared key
//! length, flavor, and matrix dimensions must exactly account for the
//! remaining bytes). `f64` values travel as raw bits — a round trip is
//! bit-identical by construction, including negative zero and subnormals.

use psdacc_fft::Complex;
use psdacc_sfg::{MultirateResponses, NodeResponses, Preprocessed};

use crate::error::StoreError;

/// Magic prefix including the format version.
pub const MAGIC: &[u8; 8] = b"PSDRSP02";

/// Sanity bound on the embedded scenario key (real keys are tens of bytes).
const MAX_KEY_LEN: usize = 4096;

/// Which preprocessing form a record's payload encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFlavor {
    /// Complex single-rate node responses (`rows[s][k]` = response of
    /// source `s` at bin `k`).
    SingleRate,
    /// Multirate source kernels in the
    /// [`MultirateResponses::to_rows`] layout.
    Multirate,
}

impl RecordFlavor {
    fn code(self) -> u32 {
        match self {
            RecordFlavor::SingleRate => 0,
            RecordFlavor::Multirate => 1,
        }
    }

    fn from_code(code: u32) -> Result<Self, StoreError> {
        match code {
            0 => Ok(RecordFlavor::SingleRate),
            1 => Ok(RecordFlavor::Multirate),
            other => Err(StoreError::Codec(format!("unknown record flavor {other}"))),
        }
    }
}

/// One decoded store record: identity metadata plus the payload matrix.
#[derive(Debug, Clone)]
pub struct Record {
    /// Canonical scenario key the preprocessing was computed for.
    pub scenario_key: String,
    /// Input-rate PSD grid size (cache-key component).
    pub npsd: usize,
    /// Preprocessing seconds paid when the result was first computed.
    pub preprocess_seconds: f64,
    /// Payload form.
    pub flavor: RecordFlavor,
    /// Payload rows (`rows[s]` covers source `s`; cell layout per flavor).
    pub rows: Vec<Vec<Complex>>,
}

impl Record {
    /// Captures single-rate responses for persistence.
    pub fn from_responses(
        scenario_key: &str,
        responses: &NodeResponses,
        preprocess_seconds: f64,
    ) -> Self {
        Record {
            scenario_key: scenario_key.to_string(),
            npsd: responses.npsd(),
            preprocess_seconds,
            flavor: RecordFlavor::SingleRate,
            rows: responses.rows().to_vec(),
        }
    }

    /// Captures either preprocessing form for persistence.
    pub fn from_preprocessed(
        scenario_key: &str,
        preprocessed: &Preprocessed,
        preprocess_seconds: f64,
    ) -> Self {
        match preprocessed {
            Preprocessed::SingleRate(responses) => {
                Record::from_responses(scenario_key, responses, preprocess_seconds)
            }
            Preprocessed::Multirate(kernels) => Record {
                scenario_key: scenario_key.to_string(),
                npsd: kernels.npsd(),
                preprocess_seconds,
                flavor: RecordFlavor::Multirate,
                rows: kernels.to_rows(),
            },
        }
    }

    /// Row width in complex cells (flavor-dependent).
    fn width(&self) -> usize {
        match self.rows.first() {
            Some(row) => row.len(),
            // Degenerate zero-node single-rate records (legal, tested).
            None => self.npsd,
        }
    }

    /// The wire form of [`Record::rows`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key exceeds the format bound, or for
    /// a zero-node multirate record — `MultirateResponses::from_rows`
    /// cannot reassemble one (the kernel grid is inferred from row width),
    /// so persisting it would produce a checksum-valid file that can never
    /// convert back.
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let _frame = psdacc_obs::profile::frame("store.encode");
        let key = self.scenario_key.as_bytes();
        if key.len() > MAX_KEY_LEN {
            return Err(StoreError::Codec(format!(
                "scenario key of {} bytes exceeds the {MAX_KEY_LEN}-byte format bound",
                key.len()
            )));
        }
        if self.flavor == RecordFlavor::Multirate && self.rows.is_empty() {
            return Err(StoreError::Codec(
                "multirate records need at least one source row".to_string(),
            ));
        }
        let width = self.width();
        let payload = self.rows.len() * width * 16;
        let mut buf = Vec::with_capacity(8 + 4 + key.len() + 4 + 4 + 4 + 4 + 8 + payload + 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(&(self.npsd as u32).to_le_bytes());
        buf.extend_from_slice(&self.flavor.code().to_le_bytes());
        buf.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(width as u32).to_le_bytes());
        buf.extend_from_slice(&self.preprocess_seconds.to_le_bytes());
        for row in &self.rows {
            debug_assert_eq!(row.len(), width, "rows are rectangular");
            for c in row {
                buf.extend_from_slice(&c.re.to_le_bytes());
                buf.extend_from_slice(&c.im.to_le_bytes());
            }
        }
        let checksum = fnv1a64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        Ok(buf)
    }

    /// Parses and verifies one record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] describing exactly which guard tripped
    /// (truncation, bad magic, checksum mismatch, inconsistent dimensions).
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let _frame = psdacc_obs::profile::frame("store.decode");
        // Smallest possible record: empty key, zero nodes.
        let min = 8 + 4 + 4 + 4 + 4 + 4 + 8 + 8;
        if bytes.len() < min {
            return Err(StoreError::Codec(format!(
                "truncated record: {} bytes, minimum {min}",
                bytes.len()
            )));
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::Codec(format!(
                "bad magic {:02x?} (expected {MAGIC:02x?} — wrong file or format version)",
                &bytes[..8]
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let actual = fnv1a64(body);
        if stored != actual {
            return Err(StoreError::Codec(format!(
                "checksum mismatch: stored {stored:016x}, computed {actual:016x} (corrupt or \
                 torn write)"
            )));
        }
        let mut cur = Cursor { bytes: body, pos: 8 };
        let key_len = cur.u32()? as usize;
        if key_len > MAX_KEY_LEN {
            return Err(StoreError::Codec(format!("declared key length {key_len} out of range")));
        }
        let key_bytes = cur.take(key_len)?;
        let scenario_key = std::str::from_utf8(key_bytes)
            .map_err(|e| StoreError::Codec(format!("scenario key is not UTF-8: {e}")))?
            .to_string();
        let npsd = cur.u32()? as usize;
        let flavor = RecordFlavor::from_code(cur.u32()?)?;
        let nodes = cur.u32()? as usize;
        let width = cur.u32()? as usize;
        // A zero width makes the payload 0 bytes for any node count, so
        // the size check below could not bound `nodes` before allocating.
        if width == 0 {
            return Err(StoreError::Codec(format!(
                "record declares {nodes} nodes x 0 cells; rows need at least one cell"
            )));
        }
        if flavor == RecordFlavor::SingleRate && width != npsd {
            return Err(StoreError::Codec(format!(
                "single-rate record declares width {width}, expected npsd {npsd}"
            )));
        }
        if flavor == RecordFlavor::Multirate && (nodes == 0 || width < 2) {
            return Err(StoreError::Codec(format!(
                "multirate record declares {nodes} nodes x {width} cells; kernels need at \
                 least one row of one bin plus the DC cell"
            )));
        }
        let preprocess_seconds = cur.f64()?;
        let expected_payload = nodes
            .checked_mul(width)
            .and_then(|cells| cells.checked_mul(16))
            .ok_or_else(|| StoreError::Codec("payload size overflows".to_string()))?;
        if cur.remaining() != expected_payload {
            return Err(StoreError::Codec(format!(
                "payload is {} bytes, header declares {nodes} nodes x {width} cells = \
                 {expected_payload}",
                cur.remaining()
            )));
        }
        let mut rows = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                let re = cur.f64()?;
                let im = cur.f64()?;
                row.push(Complex::new(re, im));
            }
            rows.push(row);
        }
        Ok(Record { scenario_key, npsd, preprocess_seconds, flavor, rows })
    }

    /// Converts a single-rate record's rows into [`NodeResponses`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for multirate records or malformed rows
    /// (cannot happen for records produced by [`Record::encode`]).
    pub fn into_responses(self) -> Result<NodeResponses, StoreError> {
        match self.flavor {
            RecordFlavor::SingleRate => NodeResponses::from_rows(self.rows, self.npsd)
                .map_err(|e| StoreError::Codec(e.to_string())),
            RecordFlavor::Multirate => {
                Err(StoreError::Codec("record holds multirate kernels, not responses".to_string()))
            }
        }
    }

    /// Converts the record into the [`Preprocessed`] form it encodes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] for rows that do not reassemble (cannot happen
    /// for records produced by [`Record::encode`]).
    pub fn into_preprocessed(self) -> Result<Preprocessed, StoreError> {
        match self.flavor {
            RecordFlavor::SingleRate => self.into_responses().map(Preprocessed::SingleRate),
            RecordFlavor::Multirate => MultirateResponses::from_rows(self.rows, self.npsd)
                .map(Preprocessed::Multirate)
                .map_err(|e| StoreError::Codec(e.to_string())),
        }
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for catching
/// truncation and bit rot (malice is out of scope for a local cache).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StoreError::Codec("record ends mid-field".to_string()))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            scenario_key: "fir-cascade[stages=2,taps=5,cutoff=0.2]".to_string(),
            npsd: 4,
            preprocess_seconds: 0.125,
            flavor: RecordFlavor::SingleRate,
            rows: (0..3)
                .map(|s| {
                    (0..4)
                        .map(|k| Complex::new(s as f64 + 0.1 * k as f64, -(k as f64) / 3.0))
                        .collect()
                })
                .collect(),
        }
    }

    fn multirate_sample() -> Record {
        // Width npsd_out + 1 = 5 with npsd 8 (output at rate 1/2).
        Record {
            scenario_key: "dwt-decimated[levels=1]".to_string(),
            npsd: 8,
            preprocess_seconds: 0.5,
            flavor: RecordFlavor::Multirate,
            rows: (0..2)
                .map(|s| (0..5).map(|k| Complex::new(s as f64 + k as f64, 0.25)).collect())
                .collect(),
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for rec in [sample(), multirate_sample()] {
            let bytes = rec.encode().unwrap();
            let back = Record::decode(&bytes).unwrap();
            assert_eq!(back.scenario_key, rec.scenario_key);
            assert_eq!(back.npsd, rec.npsd);
            assert_eq!(back.flavor, rec.flavor);
            assert_eq!(back.preprocess_seconds.to_bits(), rec.preprocess_seconds.to_bits());
            assert_eq!(back.rows.len(), rec.rows.len());
            for (a, b) in back.rows.iter().zip(&rec.rows) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits());
                    assert_eq!(x.im.to_bits(), y.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn special_floats_survive() {
        let mut rec = sample();
        rec.rows[0][0] = Complex::new(-0.0, f64::MIN_POSITIVE / 4.0); // subnormal
        rec.rows[0][1] = Complex::new(f64::MAX, f64::MIN);
        let back = Record::decode(&rec.encode().unwrap()).unwrap();
        assert_eq!(back.rows[0][0].re.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.rows[0][1].re, f64::MAX);
    }

    #[test]
    fn every_truncation_is_rejected() {
        for rec in [sample(), multirate_sample()] {
            let bytes = rec.encode().unwrap();
            for len in 0..bytes.len() {
                assert!(Record::decode(&bytes[..len]).is_err(), "accepted {len}-byte prefix");
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        for rec in [sample(), multirate_sample()] {
            let bytes = rec.encode().unwrap();
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x40;
                assert!(Record::decode(&bad).is_err(), "accepted flip at byte {i}");
            }
        }
    }

    #[test]
    fn wrong_magic_is_its_own_error() {
        let mut bytes = sample().encode().unwrap();
        bytes[7] = b'9';
        let err = Record::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn format_01_files_are_rejected_by_magic() {
        let mut bytes = sample().encode().unwrap();
        bytes[..8].copy_from_slice(b"PSDRSP01");
        let err = Record::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn flavor_conversions_are_checked() {
        assert!(sample().into_responses().is_ok());
        assert!(multirate_sample().into_responses().is_err());
        assert!(sample().into_preprocessed().unwrap().as_single_rate().is_some());
        assert!(multirate_sample().into_preprocessed().unwrap().as_multirate().is_some());
    }

    #[test]
    fn zero_node_record_is_legal() {
        let rec = Record {
            scenario_key: "k".to_string(),
            npsd: 8,
            preprocess_seconds: 0.0,
            flavor: RecordFlavor::SingleRate,
            rows: vec![],
        };
        let back = Record::decode(&rec.encode().unwrap()).unwrap();
        assert!(back.rows.is_empty());
    }

    #[test]
    fn zero_width_record_with_huge_node_count_is_a_typed_error() {
        // A checksum-valid single-rate record with npsd = width = 0 and
        // nodes = u32::MAX: its payload is 0 bytes, so only the width
        // guard stands between it and a ~100 GB row allocation.
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'k');
        body.extend_from_slice(&0u32.to_le_bytes()); // npsd
        body.extend_from_slice(&RecordFlavor::SingleRate.code().to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // nodes
        body.extend_from_slice(&0u32.to_le_bytes()); // width
        body.extend_from_slice(&0.0f64.to_le_bytes());
        let checksum = fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        let err = Record::decode(&body).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        assert!(err.to_string().contains("0 cells"), "{err}");
    }

    #[test]
    fn zero_node_multirate_record_is_rejected_at_encode() {
        // A zero-node multirate record could never reassemble (the kernel
        // grid is inferred from row width), so encode refuses up front
        // rather than persisting a load-then-fail file.
        let rec = Record {
            scenario_key: "k".to_string(),
            npsd: 8,
            preprocess_seconds: 0.0,
            flavor: RecordFlavor::Multirate,
            rows: vec![],
        };
        let err = rec.encode().unwrap_err().to_string();
        assert!(err.contains("at least one source row"), "{err}");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
