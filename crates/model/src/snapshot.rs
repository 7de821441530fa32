//! Compact binary snapshots of datasets.
//!
//! Workload generation at benchmark scale costs seconds; snapshots let the
//! harness (and downstream users) persist a generated [`Dataset`] once and
//! reload it instantly. The format is a versioned, length-prefixed binary
//! layout: the dictionary's node terms and predicate IRIs followed by the
//! raw triple array. Ids are positional, so decode rebuilds the exact same
//! id assignment — snapshots are stable inputs for deterministic
//! experiments.

use crate::dataset::Dataset;
use crate::dict::Dictionary;
use crate::partition::PairLists;
use crate::term::Term;
use crate::triple::Triple;
use crate::{NodeId, PredId};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 4] = b"KGD1";

/// Errors raised while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic header.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An unknown term tag byte.
    BadTag(u8),
    /// A triple referenced an id beyond the dictionary.
    DanglingId,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a kgdual snapshot (bad magic)"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadUtf8 => write!(f, "snapshot contains invalid UTF-8"),
            SnapshotError::BadTag(t) => write!(f, "unknown term tag {t}"),
            SnapshotError::DanglingId => write!(f, "triple references an unknown id"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, SnapshotError> {
    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(SnapshotError::Truncated);
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| SnapshotError::BadUtf8)
}

/// Serialize a dataset to its binary snapshot.
pub fn encode(ds: &Dataset) -> Bytes {
    let dict = ds.dict();
    // Generous pre-size: 16 bytes per triple + 24 per term.
    let mut buf = BytesMut::with_capacity(ds.len() * 16 + dict.node_count() * 24 + 64);
    buf.put_slice(MAGIC);

    buf.put_u32_le(dict.node_count() as u32);
    for i in 0..dict.node_count() as u32 {
        let term = dict.node(NodeId(i)).expect("dense ids");
        match term {
            Term::Iri(s) => {
                buf.put_u8(0);
                put_str(&mut buf, s);
            }
            Term::Blank(s) => {
                buf.put_u8(1);
                put_str(&mut buf, s);
            }
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                buf.put_u8(2);
                put_str(&mut buf, lexical);
                put_str(&mut buf, lang.as_deref().unwrap_or(""));
                put_str(&mut buf, datatype.as_deref().unwrap_or(""));
            }
        }
    }

    buf.put_u32_le(dict.pred_count() as u32);
    for (_, iri) in dict.preds() {
        put_str(&mut buf, iri);
    }

    buf.put_u64_le(ds.len() as u64);
    for t in ds.triples() {
        buf.put_u32_le(t.s.0);
        buf.put_u32_le(t.p.0);
        buf.put_u32_le(t.o.0);
    }
    buf.freeze()
}

/// Rebuild a dataset from its binary snapshot.
pub fn decode(data: &[u8]) -> Result<Dataset, SnapshotError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < MAGIC.len() || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }

    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let nodes = buf.get_u32_le();
    let mut node_terms = Vec::with_capacity(nodes as usize);
    for _ in 0..nodes {
        if buf.remaining() < 1 {
            return Err(SnapshotError::Truncated);
        }
        let term = match buf.get_u8() {
            0 => Term::Iri(get_str(&mut buf)?),
            1 => Term::Blank(get_str(&mut buf)?),
            2 => {
                let lexical = get_str(&mut buf)?;
                let lang = get_str(&mut buf)?;
                let datatype = get_str(&mut buf)?;
                Term::Literal {
                    lexical,
                    lang: (!lang.is_empty()).then_some(lang),
                    datatype: (!datatype.is_empty()).then_some(datatype),
                }
            }
            other => return Err(SnapshotError::BadTag(other)),
        };
        node_terms.push(term);
    }

    if buf.remaining() < 4 {
        return Err(SnapshotError::Truncated);
    }
    let preds = buf.get_u32_le();
    let mut pred_iris = Vec::with_capacity(preds as usize);
    for _ in 0..preds {
        pred_iris.push(get_str(&mut buf)?);
    }

    // Rebuild the dictionary with identical positional ids.
    let mut dict = Dictionary::new();
    for term in &node_terms {
        dict.encode_node(term)
            .map_err(|_| SnapshotError::Truncated)?;
    }
    for iri in &pred_iris {
        dict.encode_pred(iri)
            .map_err(|_| SnapshotError::Truncated)?;
    }

    if buf.remaining() < 8 {
        return Err(SnapshotError::Truncated);
    }
    let triples = buf.get_u64_le();
    let mut pairs = PairLists::default();
    for _ in 0..triples {
        if buf.remaining() < 12 {
            return Err(SnapshotError::Truncated);
        }
        let s = NodeId(buf.get_u32_le());
        let p = PredId(buf.get_u32_le());
        let o = NodeId(buf.get_u32_le());
        if s.0 >= nodes || o.0 >= nodes || p.0 >= preds {
            return Err(SnapshotError::DanglingId);
        }
        pairs.push(Triple::new(s, p, o));
    }
    Ok(Dataset::from_owned(dict, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_terms(&Term::iri("y:Einstein"), "y:wasBornIn", &Term::iri("y:Ulm"));
        b.add_terms(
            &Term::iri("y:Einstein"),
            "y:hasName",
            &Term::lang_lit("Albert", "de"),
        );
        b.add_terms(
            &Term::blank("b0"),
            "y:age",
            &Term::typed_lit("42", "xsd:integer"),
        );
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = sample();
        let bytes = encode(&ds);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.stats(), ds.stats());
        let a: Vec<Triple> = ds.triples().collect();
        let b: Vec<Triple> = back.triples().collect();
        assert_eq!(a, b, "triples and id assignment must be identical");
        // Terms decode to the same values under the same ids.
        for i in 0..ds.dict().node_count() as u32 {
            assert_eq!(ds.dict().node(NodeId(i)), back.dict().node(NodeId(i)));
        }
        for i in 0..ds.dict().pred_count() as u32 {
            assert_eq!(ds.dict().pred(PredId(i)), back.dict().pred(PredId(i)));
        }
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new();
        let back = decode(&encode(&ds)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(b"nope").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(decode(b"KGD1").unwrap_err(), SnapshotError::Truncated);
        // Truncate a valid snapshot mid-way: every prefix must error, not
        // panic.
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn rejects_dangling_ids() {
        let mut bytes = BytesMut::from(&encode(&sample())[..]);
        let len = bytes.len();
        // Corrupt the last triple's object id to something enormous.
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), SnapshotError::DanglingId);
    }
}
