//! Checkpoint image framing: magic, format version, manifest, and named,
//! checksummed sections.
//!
//! An image is laid out as
//!
//! ```text
//! magic "CEDRCKPT" · format version u32
//! manifest: round u64 · config hash u64 · content checksum u64
//! section count u64
//! per section: name · payload len u64 · payload · FNV-1a(payload) u64
//! ```
//!
//! The *content checksum* is FNV-1a over everything after the manifest, so
//! any flipped bit in the body fails fast; the *per-section* checksums then
//! attribute a corruption to the section it landed in. [`read_image`]
//! validates all of it — magic, version, both checksum layers, framing —
//! before returning a single payload byte, which is what lets the engine
//! promise "no half-restore": nothing is applied until the whole image has
//! been vetted.

use crate::codec::{fnv1a, CodecError, Persist, Reader};

/// Image magic: identifies a byte stream as a CEDR checkpoint.
pub const MAGIC: [u8; 8] = *b"CEDRCKPT";

/// Current image format version. Bump on any wire-layout change.
pub const FORMAT_VERSION: u32 = 5;

/// The manifest header of a checkpoint image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Engine rounds completed when the checkpoint was taken.
    pub round: u64,
    /// Hash of the engine configuration and registrations the image was
    /// taken under; restore refuses images from a differently configured
    /// engine.
    pub config_hash: u64,
    /// Seed-free FNV-1a checksum of the image body (everything after the
    /// manifest).
    pub content_checksum: u64,
}

/// One named section of an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    pub name: String,
    pub payload: Vec<u8>,
}

/// Serialize a complete image: manifest + named sections, with the content
/// checksum computed over the section region.
pub fn write_image(round: u64, config_hash: u64, sections: &[Section]) -> Vec<u8> {
    let mut body = Vec::new();
    (sections.len() as u64).encode(&mut body);
    for s in sections {
        s.name.encode(&mut body);
        (s.payload.len() as u64).encode(&mut body);
        body.extend_from_slice(&s.payload);
        fnv1a(&s.payload).encode(&mut body);
    }
    let mut out = Vec::with_capacity(body.len() + 40);
    out.extend_from_slice(&MAGIC);
    FORMAT_VERSION.encode(&mut out);
    round.encode(&mut out);
    config_hash.encode(&mut out);
    fnv1a(&body).encode(&mut out);
    out.extend_from_slice(&body);
    out
}

/// Parse and fully validate an image: magic, format version, content
/// checksum, section framing and per-section checksums. Errors name the
/// offending layer ("header", "manifest") or section.
pub fn read_image(bytes: &[u8]) -> Result<(Manifest, Vec<Section>), CodecError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len()).map_err(|e| e.in_section("header"))?;
    if magic != MAGIC {
        return Err(CodecError::new("not a CEDR checkpoint image (bad magic)").in_section("header"));
    }
    let version = u32::decode(&mut r).map_err(|e| e.in_section("header"))?;
    if version != FORMAT_VERSION {
        return Err(CodecError::new(format!(
            "format version mismatch: image is v{version}, this build reads v{FORMAT_VERSION}"
        ))
        .in_section("header"));
    }
    let round = u64::decode(&mut r).map_err(|e| e.in_section("manifest"))?;
    let config_hash = u64::decode(&mut r).map_err(|e| e.in_section("manifest"))?;
    let content_checksum = u64::decode(&mut r).map_err(|e| e.in_section("manifest"))?;
    let body = r.take(r.remaining()).expect("remaining bytes");
    if fnv1a(body) != content_checksum {
        return Err(
            CodecError::new("content checksum mismatch (image corrupt or truncated)")
                .in_section("manifest"),
        );
    }

    let mut br = Reader::new(body);
    let count = u64::decode(&mut br).map_err(|e| e.in_section("manifest"))?;
    let mut sections = Vec::with_capacity((count as usize).min(body.len()));
    for i in 0..count {
        let frame = |e: CodecError| e.in_section(&format!("section #{i} framing"));
        let name = String::decode(&mut br).map_err(frame)?;
        let len = u64::decode(&mut br).map_err(frame)? as usize;
        let payload = br.take(len).map_err(|e| e.in_section(&name))?;
        let sum = u64::decode(&mut br).map_err(|e| e.in_section(&name))?;
        if fnv1a(payload) != sum {
            return Err(CodecError::new("section checksum mismatch").in_section(&name));
        }
        sections.push(Section {
            name,
            payload: payload.to_vec(),
        });
    }
    br.expect_exhausted()
        .map_err(|e| e.in_section("manifest"))?;
    Ok((
        Manifest {
            round,
            config_hash,
            content_checksum,
        },
        sections,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        write_image(
            7,
            0xdead_beef,
            &[
                Section {
                    name: "engine".into(),
                    payload: vec![1, 2, 3],
                },
                Section {
                    name: "query:q0".into(),
                    payload: vec![],
                },
            ],
        )
    }

    #[test]
    fn images_round_trip() {
        let bytes = sample();
        let (m, sections) = read_image(&bytes).unwrap();
        assert_eq!(m.round, 7);
        assert_eq!(m.config_hash, 0xdead_beef);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].name, "engine");
        assert_eq!(sections[0].payload, vec![1, 2, 3]);
        assert_eq!(sections[1].name, "query:q0");
        assert!(sections[1].payload.is_empty());
    }

    #[test]
    fn identical_state_produces_identical_bytes() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn bad_magic_is_a_header_error() {
        let mut bytes = sample();
        bytes[0] ^= 0xff;
        let err = read_image(&bytes).unwrap_err();
        assert_eq!(err.section, "header");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = sample();
        bytes[8] = 0xfe; // format version LE byte 0
        let err = read_image(&bytes).unwrap_err();
        assert_eq!(err.section, "header");
        assert!(err.detail.contains("version"), "{err}");
    }

    #[test]
    fn any_flipped_body_bit_fails_the_content_checksum() {
        let clean = sample();
        for pos in 40..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            let err = read_image(&bytes).unwrap_err();
            assert_eq!(err.section, "manifest", "flip at {pos}");
        }
    }

    #[test]
    fn truncation_anywhere_errors() {
        let clean = sample();
        for cut in 0..clean.len() {
            assert!(read_image(&clean[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn section_checksum_attributes_the_section() {
        // Rebuild with a corrupted section payload but a recomputed content
        // checksum, so only the per-section layer can catch it.
        let mut s = vec![
            Section {
                name: "engine".into(),
                payload: vec![1, 2, 3],
            },
            Section {
                name: "query:q0".into(),
                payload: vec![9, 9],
            },
        ];
        let good = write_image(1, 2, &s);
        // Tamper: swap a payload byte, then re-frame by hand (simulating a
        // buggy writer rather than wire corruption).
        s[1].payload[0] = 42;
        let mut body = Vec::new();
        (s.len() as u64).encode(&mut body);
        for (i, sec) in s.iter().enumerate() {
            sec.name.encode(&mut body);
            (sec.payload.len() as u64).encode(&mut body);
            body.extend_from_slice(&sec.payload);
            // Keep the ORIGINAL checksum for the tampered section.
            let sum = if i == 1 {
                fnv1a(&[9, 9])
            } else {
                fnv1a(&sec.payload)
            };
            sum.encode(&mut body);
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        FORMAT_VERSION.encode(&mut bytes);
        (1u64).encode(&mut bytes);
        (2u64).encode(&mut bytes);
        fnv1a(&body).encode(&mut bytes);
        bytes.extend_from_slice(&body);
        assert_ne!(bytes, good);
        let err = read_image(&bytes).unwrap_err();
        assert_eq!(err.section, "query:q0");
        assert!(err.detail.contains("checksum"), "{err}");
    }
}
