//! LEB128 variable-length unsigned integers.
//!
//! Every multi-byte integer in the xmlvec on-disk formats (`.vxsk` node
//! records, `.vec` record lengths and skip entries) is a LEB128 varint:
//! little-endian base-128 groups, high bit set on every byte except the
//! last. Values up to 64 bits are supported (at most 10 bytes).

use crate::{Result, StorageError};

/// Maximum encoded size of a 64-bit varint.
pub const MAX_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`, returning the number of
/// bytes written.
pub fn write(out: &mut Vec<u8>, value: u64) -> usize {
    let (bytes, n) = encode(value);
    out.extend_from_slice(&bytes[..n]);
    n
}

/// The LEB128 encoding of `value` in a stack buffer, with its length.
pub fn encode(mut value: u64) -> ([u8; MAX_LEN], usize) {
    let mut bytes = [0u8; MAX_LEN];
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            bytes[n] = byte;
            return (bytes, n + 1);
        }
        bytes[n] = byte | 0x80;
        n += 1;
    }
}

/// Encoded length of `value` without writing it.
pub fn encoded_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    (64 - value.leading_zeros() as usize).div_ceil(7)
}

/// Decodes a varint from `buf` starting at `offset`.
///
/// Returns `(value, next_offset)`. Errors if the buffer ends mid-varint or
/// the encoding exceeds 64 bits.
pub fn read(buf: &[u8], offset: usize) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut pos = offset;
    loop {
        let byte = *buf.get(pos).ok_or(StorageError::BadVarint {
            offset,
            reason: "truncated",
        })?;
        pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(StorageError::BadVarint {
                offset,
                reason: "overflows u64",
            });
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, pos));
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_edge_values() {
        let samples = [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &samples {
            let mut buf = Vec::new();
            let n = write(&mut buf, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, encoded_len(v));
            let (decoded, next) = read(&buf, 0).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(next, buf.len());
        }
    }

    #[test]
    fn sequential_decode() {
        let mut buf = Vec::new();
        for v in 0..1000u64 {
            write(&mut buf, v * 37);
        }
        let mut pos = 0;
        for v in 0..1000u64 {
            let (decoded, next) = read(&buf, pos).unwrap();
            assert_eq!(decoded, v * 37);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_is_error() {
        let buf = [0x80u8, 0x80];
        assert!(read(&buf, 0).is_err());
    }

    #[test]
    fn overflow_is_error() {
        let buf = [0xffu8; 11];
        assert!(read(&buf, 0).is_err());
    }
}
