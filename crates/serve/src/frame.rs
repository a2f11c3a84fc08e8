//! The write-ahead journal's frame codec. Every frame is
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][JSON payload]
//! ```
//!
//! with the checksum the same FNV-1a the model registry uses for content
//! hashes. [`decode`] checks the length header against
//! [`MAX_FRAME_BYTES`] before it waits for the payload, so a hostile
//! header can never make a reader buffer more than the cap.

use raven_json::Json;
use raven_nn::fnv1a64;

/// Hard cap on one frame's payload: a certificate for a large MILP run is
/// hundreds of KB; 256 MiB leaves three orders of magnitude of headroom
/// while still bounding a hostile length header.
pub const MAX_FRAME_BYTES: usize = 256 * 1024 * 1024;

/// Length plus checksum.
pub const HEADER_BYTES: usize = 12;

/// Encodes one frame.
pub fn encode(payload: &Json) -> Vec<u8> {
    let bytes = payload.to_string().into_bytes();
    let mut out = Vec::with_capacity(HEADER_BYTES + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
    out.extend_from_slice(&bytes);
    out
}

/// Decodes the frame at the start of `buf`. Returns the payload and the
/// bytes it took, or `None` while the header or payload is still torn
/// (more bytes may complete it).
///
/// # Errors
///
/// A length over [`MAX_FRAME_BYTES`], a checksum mismatch, or a payload
/// that is not UTF-8 JSON.
pub fn decode(buf: &[u8]) -> Result<Option<(Json, usize)>, String> {
    let Some(header) = buf.get(..HEADER_BYTES) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(format!("frame length {len} over cap"));
    }
    let Some(payload) = buf.get(HEADER_BYTES..HEADER_BYTES + len) else {
        return Ok(None);
    };
    let crc = u64::from_le_bytes(header[4..].try_into().expect("8-byte slice"));
    if fnv1a64(payload) != crc {
        return Err("checksum mismatch".to_string());
    }
    let text = std::str::from_utf8(payload).map_err(|_| "payload not utf-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("invalid json: {e}"))?;
    Ok(Some((json, HEADER_BYTES + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([("t", Json::from("job")), ("seq", Json::from(7.0))])
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut bytes = encode(&sample());
        let first = bytes.len();
        bytes.extend_from_slice(&encode(&Json::from("second")));
        let (json, used) = decode(&bytes).unwrap().unwrap();
        assert_eq!((json, used), (sample(), first));
        let (json, used) = decode(&bytes[first..]).unwrap().unwrap();
        assert_eq!(json, Json::from("second"));
        assert_eq!(first + used, bytes.len());
    }

    #[test]
    fn torn_header_and_torn_payload_wait_for_more_bytes() {
        let bytes = encode(&sample());
        for cut in [0, 1, HEADER_BYTES - 1, HEADER_BYTES, bytes.len() - 1] {
            assert_eq!(decode(&bytes[..cut]), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn flipped_checksum_byte_is_corrupt() {
        let mut bytes = encode(&sample());
        bytes[4] ^= 0x01;
        assert_eq!(decode(&bytes), Err("checksum mismatch".to_string()));
        let mut bytes = encode(&sample());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(decode(&bytes), Err("checksum mismatch".to_string()));
    }

    #[test]
    fn oversized_length_is_rejected_from_the_header_alone() {
        let mut header = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&0u64.to_le_bytes());
        let err = decode(&header).unwrap_err();
        assert!(err.contains("over cap"), "{err}");
    }
}
