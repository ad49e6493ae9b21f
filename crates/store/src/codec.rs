//! The on-disk record format: a hand-rolled, versioned, checksummed binary
//! codec for one preprocessing result (identity metadata plus the dense
//! kernel matrix). The workspace has no serde — and would not want it
//! here: the payload is a dense `f64` matrix whose bit-exactness *is* the
//! contract.
//!
//! A record holds one [`Preprocessed`] kernel set, whatever the graph's
//! rate structure: one row of `f64` cells per node — the `W` variance
//! cells, then `I` mean-image cells (0 for single-rate kernels, `W` for
//! multirate ones), then the DC path. Format-01 and format-02 files (whose
//! single-rate records held complex responses) fail the magic check and
//! degrade to a rebuild.
//!
//! # Format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic + version: b"PSDRSP03" (bump the digits on change)
//! 8       4     u32 scenario-key byte length K (<= 4096)
//! 12      K     scenario key, UTF-8 (the canonical `Scenario::key()` text)
//! 12+K    4     u32 npsd (input-rate grid — the cache-key component)
//! 16+K    4     u32 white_bins (see `Preprocessed::white_bins`)
//! 20+K    4     u32 node count N
//! 24+K    4     u32 kernel width W (the output node's grid)
//! 28+K    4     u32 mean-image cells per row I (0 or W)
//! 32+K    8     f64 preprocess_seconds (tau_pp paid when first computed)
//! 40+K    8*N*(W+I+1)  payload: per node, W variance cells, I mean-image
//!                      cells, then the DC cell
//! end-8   8     u64 FNV-1a checksum over every preceding byte
//! ```
//!
//! Decoding verifies, in order: minimum length, magic/version, checksum
//! (over the whole prefix, so truncation and bit rot are both caught
//! before any field is trusted), then structural consistency (declared key
//! length and matrix dimensions must exactly account for the remaining
//! bytes). `f64` values travel as raw bits — a round trip is bit-identical
//! by construction, including negative zero and subnormals.

use psdacc_sfg::{Preprocessed, SourceKernel};

use crate::error::StoreError;

/// Magic prefix including the format version.
pub const MAGIC: &[u8; 8] = b"PSDRSP03";

/// Sanity bound on the embedded scenario key (real keys are tens of bytes).
const MAX_KEY_LEN: usize = 4096;

/// One decoded store record: identity metadata plus the kernel set.
#[derive(Debug, Clone)]
pub struct Record {
    /// Canonical scenario key the preprocessing was computed for.
    pub scenario_key: String,
    /// Preprocessing seconds paid when the result was first computed.
    pub preprocess_seconds: f64,
    /// The persisted preprocessing.
    pub kernels: Preprocessed,
}

impl Record {
    /// Captures a preprocessing result for persistence.
    pub fn from_preprocessed(
        scenario_key: &str,
        preprocessed: &Preprocessed,
        preprocess_seconds: f64,
    ) -> Self {
        Record {
            scenario_key: scenario_key.to_string(),
            preprocess_seconds,
            kernels: preprocessed.clone(),
        }
    }

    /// Input-rate PSD grid size (cache-key component).
    pub fn npsd(&self) -> usize {
        self.kernels.npsd()
    }

    /// The wire form of the record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key exceeds the format bound.
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let _frame = psdacc_obs::profile::frame("store.encode");
        let key = self.scenario_key.as_bytes();
        if key.len() > MAX_KEY_LEN {
            return Err(StoreError::Codec(format!(
                "scenario key of {} bytes exceeds the {MAX_KEY_LEN}-byte format bound",
                key.len()
            )));
        }
        let k = &self.kernels;
        let images = k.kernels().first().map_or(0, |kernel| kernel.mean_sq.len());
        let payload = k.len() * (k.npsd_out() + images + 1) * 8;
        let mut buf = Vec::with_capacity(8 + 4 + key.len() + 5 * 4 + 8 + payload + 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        for field in [k.npsd(), k.white_bins(), k.len(), k.npsd_out(), images] {
            buf.extend_from_slice(&(field as u32).to_le_bytes());
        }
        buf.extend_from_slice(&self.preprocess_seconds.to_le_bytes());
        for kernel in k.kernels() {
            for v in kernel.variance.iter().chain(&kernel.mean_sq).chain([&kernel.dc]) {
                buf.extend_from_slice(&v.to_le_bytes());
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
        let min = 8 + 4 + 5 * 4 + 8 + 8;
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
        let white_bins = cur.u32()? as usize;
        let nodes = cur.u32()? as usize;
        let width = cur.u32()? as usize;
        let images = cur.u32()? as usize;
        // A zero width makes the payload 0 bytes for any node count, so
        // the size check below could not bound `nodes` before allocating.
        if width == 0 || (images != 0 && images != width) {
            return Err(StoreError::Codec(format!(
                "record declares {nodes} nodes x {width} cells + {images} image cells; rows \
                 need at least one cell and 0 or {width} image cells"
            )));
        }
        let preprocess_seconds = cur.f64()?;
        let expected_payload = nodes
            .checked_mul(width + images + 1)
            .and_then(|cells| cells.checked_mul(8))
            .ok_or_else(|| StoreError::Codec("payload size overflows".to_string()))?;
        if cur.remaining() != expected_payload {
            return Err(StoreError::Codec(format!(
                "payload is {} bytes, header declares {nodes} nodes x {} cells = \
                 {expected_payload}",
                cur.remaining(),
                width + images + 1
            )));
        }
        let mut row = |n: usize| (0..n).map(|_| cur.f64()).collect::<Result<Vec<f64>, _>>();
        let kernels = (0..nodes)
            .map(|_| {
                Ok(SourceKernel { variance: row(width)?, mean_sq: row(images)?, dc: row(1)?[0] })
            })
            .collect::<Result<Vec<_>, StoreError>>()?;
        let kernels = Preprocessed::new(kernels, npsd, width, white_bins)
            .map_err(|e| StoreError::Codec(e.to_string()))?;
        Ok(Record { scenario_key, preprocess_seconds, kernels })
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

    fn record(
        key: &str,
        kernels: Vec<SourceKernel>,
        npsd: usize,
        out: usize,
        white: usize,
    ) -> Record {
        Record {
            scenario_key: key.to_string(),
            preprocess_seconds: 0.125,
            kernels: Preprocessed::new(kernels, npsd, out, white).unwrap(),
        }
    }

    fn sample() -> Record {
        let kernels = (0..3)
            .map(|s| SourceKernel {
                variance: (0..4).map(|k| s as f64 + 0.1 * k as f64).collect(),
                mean_sq: Vec::new(),
                dc: -(s as f64) / 3.0,
            })
            .collect();
        record("fir-cascade[stages=2,taps=5,cutoff=0.2]", kernels, 4, 4, 4)
    }

    fn multirate_sample() -> Record {
        // Four bins with npsd 8 (output at rate 1/2), image rows present.
        let kernels = (0..2)
            .map(|s| SourceKernel {
                variance: (0..4).map(|k| s as f64 + k as f64).collect(),
                mean_sq: vec![0.25; 4],
                dc: 0.5,
            })
            .collect();
        record("dwt-decimated[levels=1]", kernels, 8, 4, 1)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        for rec in [sample(), multirate_sample()] {
            let bytes = rec.encode().unwrap();
            let back = Record::decode(&bytes).unwrap();
            assert_eq!(back.scenario_key, rec.scenario_key);
            assert_eq!(back.npsd(), rec.npsd());
            assert_eq!(back.kernels.npsd_out(), rec.kernels.npsd_out());
            assert_eq!(back.kernels.white_bins(), rec.kernels.white_bins());
            assert_eq!(back.preprocess_seconds.to_bits(), rec.preprocess_seconds.to_bits());
            assert_eq!(back.kernels.len(), rec.kernels.len());
            for (a, b) in back.kernels.kernels().iter().zip(rec.kernels.kernels()) {
                assert_eq!(bits(&a.variance), bits(&b.variance));
                assert_eq!(bits(&a.mean_sq), bits(&b.mean_sq));
                assert_eq!(a.dc.to_bits(), b.dc.to_bits());
            }
        }
    }

    #[test]
    fn single_rate_cells_are_eight_bytes() {
        // 3 nodes x (4 bins + DC) cells of 8 bytes, plus the header.
        let rec = sample();
        let header = 8 + 4 + rec.scenario_key.len() + 5 * 4 + 8;
        assert_eq!(rec.encode().unwrap().len(), header + 3 * 5 * 8 + 8);
    }

    #[test]
    fn special_floats_survive() {
        let mut kernels = sample().kernels.kernels().to_vec();
        kernels[0].variance[0] = -0.0;
        kernels[0].variance[1] = f64::MIN_POSITIVE / 4.0; // subnormal
        kernels[0].dc = f64::MAX;
        let rec = record("k", kernels, 4, 4, 4);
        let back = Record::decode(&rec.encode().unwrap()).unwrap();
        let k = back.kernels.kernel(psdacc_sfg::NodeId(0));
        assert_eq!(k.variance[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(k.variance[1], f64::MIN_POSITIVE / 4.0);
        assert_eq!(k.dc, f64::MAX);
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
        for old in [b"PSDRSP01", b"PSDRSP02"] {
            let mut bytes = sample().encode().unwrap();
            bytes[..8].copy_from_slice(old);
            let err = Record::decode(&bytes).unwrap_err().to_string();
            assert!(err.contains("magic"), "{err}");
        }
    }

    #[test]
    fn zero_node_record_is_legal() {
        // The header carries the kernel grid, so a zero-node set of either
        // rate structure round-trips with its dimensions.
        for (npsd, out, white) in [(8, 8, 8), (8, 4, 1)] {
            let back =
                Record::decode(&record("k", vec![], npsd, out, white).encode().unwrap()).unwrap();
            assert!(back.kernels.is_empty());
            assert_eq!((back.npsd(), back.kernels.npsd_out()), (npsd, out));
            assert_eq!(back.kernels.white_bins(), white);
        }
    }

    #[test]
    fn zero_width_record_with_huge_node_count_is_a_typed_error() {
        // A checksum-valid record with width 0 and nodes = u32::MAX: its
        // payload is 0 bytes, so only the width guard stands between it
        // and a ~100 GB row allocation.
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(b'k');
        body.extend_from_slice(&0u32.to_le_bytes()); // npsd
        body.extend_from_slice(&1u32.to_le_bytes()); // white_bins
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // nodes
        body.extend_from_slice(&0u32.to_le_bytes()); // width
        body.extend_from_slice(&0u32.to_le_bytes()); // image cells
        body.extend_from_slice(&0.0f64.to_le_bytes());
        let checksum = fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        let err = Record::decode(&body).unwrap_err();
        assert!(matches!(err, StoreError::Codec(_)), "{err}");
        assert!(err.to_string().contains("0 cells"), "{err}");
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
