//! Design persistence: checkpoint and restore of the learned physical
//! design `D = ⟨T_R, T_G⟩` plus tuner state.
//!
//! The paper's cold-start experiment (Fig 6) shows the dual store pays off
//! once DOTIL has learned a design; without persistence every process
//! lifetime re-pays that cold start. A **design checkpoint** captures what
//! the store has learned — which partitions are graph-resident, the budget
//! accounting, and (optionally) the tuner's trained state — in the
//! versioned [`kgdual_model::design`] container, so a restarted store
//! resumes the learned design instead of relearning it.
//!
//! What a checkpoint does **not** contain is the data: `T_R` is persisted
//! separately by dataset snapshots ([`kgdual_model::snapshot`]). A design
//! is only meaningful relative to its dataset, so the checkpoint embeds a
//! structural fingerprint of the relational store and [`restore_checkpoint`]
//! refuses (typed [`DesignError::Mismatch`], no mutation) when it is
//! applied to a different dataset or budget.
//!
//! Restore **replays** residency through the live backend rather than
//! deserializing backend memory: each persisted partition is re-migrated
//! from `T_R` via [`DualStore::migrate_partition`], so the graph store
//! takes `T_R`'s sorted runs again and bills the bulk-import price
//! ([`BULK_IMPORT_COST_PER_TRIPLE`](kgdual_graphstore::store::BULK_IMPORT_COST_PER_TRIPLE))
//! into its import stats — restart cost stays visible.
//!
//! Failure atomicity: every decode/validation error is surfaced *before*
//! the store or tuner is touched. A truncated, corrupt, wrong-version, or
//! wrong-dataset checkpoint can never leave a [`DualStore`] half-mutated.

use crate::dual::DualStore;
use crate::tuner::PhysicalTuner;
use bytes::Bytes;
use kgdual_graphstore::GraphBackend;
use kgdual_model::design::{FieldReader, FieldWriter, SnapshotReader, SnapshotWriter};
use kgdual_model::fx::FxHasher;
use kgdual_model::{DesignError, PredId};
use std::hash::Hasher;
use std::sync::OnceLock;

/// kgdual-obs handles for persistence, registered once per process.
struct PersistObs {
    /// Wall time of one checkpoint serialization.
    checkpoint_wall: kgdual_obs::Histogram,
    /// Wall time of one successful restore (decode + backend replay).
    restore_wall: kgdual_obs::Histogram,
    /// Total bytes of checkpoints produced.
    checkpoint_bytes: kgdual_obs::Counter,
    /// Total bytes of checkpoints successfully restored.
    restore_bytes: kgdual_obs::Counter,
}

fn persist_obs() -> &'static PersistObs {
    static OBS: OnceLock<PersistObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let m = kgdual_obs::global().metrics();
        PersistObs {
            checkpoint_wall: m.histogram("persist_checkpoint_wall_ns"),
            restore_wall: m.histogram("persist_restore_wall_ns"),
            checkpoint_bytes: m.counter("persist_checkpoint_bytes"),
            restore_bytes: m.counter("persist_restore_bytes"),
        }
    })
}

/// Section tag: physical design (`T_G` residency, budget, fingerprint).
pub const SECTION_DESIGN: u8 = 1;
/// Section tag: tuner state (name + opaque payload).
pub const SECTION_TUNER: u8 = 2;
/// Section tag: executor reconfiguration epoch.
pub const SECTION_EPOCH: u8 = 3;
// Tag 4 is retired: it held a relational shard layout. Restore skips it
// like any unknown tag, so snapshots that carry it still apply.

/// What [`restore_checkpoint`] applied.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Partitions re-migrated into the graph store.
    pub partitions_loaded: usize,
    /// Triples replayed through the backend.
    pub triples_loaded: u64,
    /// Work units the backend billed for the replay (its bulk-import
    /// price).
    pub import_work: u64,
    /// Whether tuner state was present and imported.
    pub tuner_restored: bool,
    /// The reconfiguration epoch recorded at checkpoint time (0 for plain
    /// [`DualStore::save_design`] checkpoints).
    pub epoch: u64,
}

/// Structural fingerprint of the dataset a design was learned against:
/// dictionary cardinalities plus every partition's size, in canonical
/// (ascending predicate) order. Cheap to compute and strong enough to
/// catch "restored onto the wrong dataset" — it is not a cryptographic
/// content hash.
fn dataset_fingerprint<B: GraphBackend>(dual: &DualStore<B>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(dual.dict().node_count() as u64);
    h.write_u64(dual.dict().pred_count() as u64);
    h.write_u64(dual.rel().total_triples() as u64);
    for pred in dual.rel().preds() {
        h.write_u32(pred.0);
        h.write_u64(dual.rel().partition_len(pred) as u64);
    }
    h.finish()
}

/// Serialize the current design (and optionally the tuner's state) into a
/// design snapshot. `epoch` is the executor's reconfiguration epoch;
/// callers without one (serial runs) pass 0.
pub fn save_checkpoint<B: GraphBackend>(
    dual: &DualStore<B>,
    tuner: Option<&dyn PhysicalTuner<B>>,
    epoch: u64,
) -> Bytes {
    let wall = kgdual_obs::timer();
    let _span = kgdual_obs::span!("checkpoint", epoch = epoch);
    let mut w = SnapshotWriter::new();

    let mut design = FieldWriter::new();
    design.put_u64(dual.dict().node_count() as u64);
    design.put_u64(dual.dict().pred_count() as u64);
    design.put_u64(dual.rel().total_triples() as u64);
    design.put_u64(dataset_fingerprint(dual));
    design.put_u64(dual.graph().budget() as u64);
    design.put_bool(dual.case2_guard());
    let resident = dual.graph().resident_partitions();
    design.put_u32(resident.len() as u32);
    for (pred, size) in resident {
        design.put_u32(pred.0);
        design.put_u64(size as u64);
    }
    w.add_section(SECTION_DESIGN, design.into_bytes());

    if let Some(tuner) = tuner {
        if let Some(state) = tuner.export_state() {
            let mut t = FieldWriter::new();
            t.put_str(tuner.name());
            t.put_bytes(&state);
            w.add_section(SECTION_TUNER, t.into_bytes());
        }
    }

    let mut e = FieldWriter::new();
    e.put_u64(epoch);
    w.add_section(SECTION_EPOCH, e.into_bytes());

    let out = w.encode();
    persist_obs().checkpoint_bytes.add(out.len() as u64);
    if let Some(ns) = wall.elapsed_ns() {
        persist_obs().checkpoint_wall.record(ns);
    }
    out
}

/// The fully decoded and validated plan of one restore. Produced before
/// anything is mutated.
struct RestorePlan {
    case2_guard: bool,
    resident: Vec<(PredId, u64)>,
    tuner_state: Option<Vec<u8>>,
    epoch: u64,
}

/// Decode `bytes` and validate it against `dual` (and `tuner_name`, when a
/// tuner is offered) without mutating anything.
fn plan_restore<B: GraphBackend>(
    dual: &DualStore<B>,
    tuner_name: Option<&str>,
    bytes: &[u8],
) -> Result<RestorePlan, DesignError> {
    let reader = SnapshotReader::decode(bytes)?;

    let mut d = FieldReader::new(reader.require(SECTION_DESIGN)?);
    let node_count = d.get_u64()?;
    let pred_count = d.get_u64()?;
    let total_triples = d.get_u64()?;
    let fingerprint = d.get_u64()?;
    let budget = d.get_u64()?;
    let case2_guard = d.get_bool()?;
    let n_resident = d.get_u32()? as usize;
    // Each entry is 12 bytes; bound the count against the actual payload
    // before allocating, so a corrupt count cannot trigger a huge
    // preallocation (the error must be typed, never an abort).
    if n_resident > d.remaining() / 12 {
        return Err(DesignError::Truncated);
    }
    let mut resident: Vec<(PredId, u64)> = Vec::with_capacity(n_resident);
    for _ in 0..n_resident {
        let pred = PredId(d.get_u32()?);
        let size = d.get_u64()?;
        // save_checkpoint writes residency in canonical ascending order;
        // requiring it on decode also rejects duplicate partitions, which
        // would otherwise pass the per-entry checks below and then break
        // the replay (double load) after mutation had begun.
        if let Some(&(prev, _)) = resident.last() {
            if pred <= prev {
                return Err(DesignError::Corrupt(format!(
                    "resident partitions out of order ({prev} then {pred})"
                )));
            }
        }
        resident.push((pred, size));
    }
    if d.remaining() != 0 {
        return Err(DesignError::Corrupt(
            "design section has trailing bytes".into(),
        ));
    }

    // The design must describe THIS dataset and THIS budget envelope.
    if node_count != dual.dict().node_count() as u64
        || pred_count != dual.dict().pred_count() as u64
        || total_triples != dual.rel().total_triples() as u64
        || fingerprint != dataset_fingerprint(dual)
    {
        return Err(DesignError::Mismatch(format!(
            "snapshot was taken against a different dataset \
             (saved {total_triples} triples / {pred_count} predicates, \
             store has {} / {})",
            dual.rel().total_triples(),
            dual.dict().pred_count()
        )));
    }
    if budget != dual.graph().budget() as u64 {
        return Err(DesignError::Mismatch(format!(
            "snapshot budget B_G = {budget} but this store was built with {}",
            dual.graph().budget()
        )));
    }

    // Replay feasibility: every persisted partition must exist in T_R at
    // its recorded size (T_R is the replay source), and the set must fit
    // the budget. After these checks the replay below cannot fail.
    let mut needed = 0u64;
    for &(pred, size) in &resident {
        let have = dual.rel().partition_len(pred) as u64;
        if have != size || size == 0 {
            return Err(DesignError::Mismatch(format!(
                "partition {pred} has {have} triples in T_R but the snapshot recorded {size}"
            )));
        }
        needed += size;
    }
    if needed > budget {
        return Err(DesignError::Corrupt(format!(
            "resident set of {needed} triples exceeds the declared budget {budget}"
        )));
    }

    let tuner_state = match (reader.section(SECTION_TUNER), tuner_name) {
        (Some(payload), Some(name)) => {
            let mut t = FieldReader::new(payload);
            let saved_name = t.get_str()?;
            if saved_name != name {
                return Err(DesignError::Mismatch(format!(
                    "snapshot carries state for tuner `{saved_name}` but `{name}` was offered"
                )));
            }
            Some(t.get_bytes()?)
        }
        // Design-only restore, or a checkpoint without tuner state: fine.
        _ => None,
    };

    let epoch = match reader.section(SECTION_EPOCH) {
        Some(payload) => FieldReader::new(payload).get_u64()?,
        None => 0,
    };

    Ok(RestorePlan {
        case2_guard,
        resident,
        tuner_state,
        epoch,
    })
}

/// Restore a checkpoint produced by [`save_checkpoint`] onto a store
/// holding the same dataset (same budget), optionally rehydrating a tuner
/// of the same kind.
///
/// The whole snapshot is decoded and validated first; any decode or
/// validation error — truncation, corruption, a future version, the
/// wrong dataset or budget, a foreign tuner — is returned before the
/// store or tuner is touched. On success the graph side is reset and the
/// persisted residency set is replayed through the backend (`T_R`'s runs
/// shared again + import billing).
///
/// Atomicity note: validation proves every replayed migration fits, but
/// [`DualStore::migrate_partition`] still returns a `Result`. Should it
/// fail mid-replay, the pre-restore design cannot be resurrected (it was
/// already evicted); instead the graph side is reset to the consistent
/// empty (cold) design before the error returns — never a half-loaded
/// residency set — the Case-2 guard keeps its pre-restore setting, and
/// the tuner keeps its imported state.
pub fn restore_checkpoint<B: GraphBackend>(
    dual: &mut DualStore<B>,
    tuner: Option<&mut dyn PhysicalTuner<B>>,
    bytes: &[u8],
) -> Result<RestoreReport, DesignError> {
    let wall = kgdual_obs::timer();
    let _span = kgdual_obs::span!("restore", bytes = bytes.len());
    let tuner_name: Option<String> = tuner.as_ref().map(|t| t.name().to_owned());
    let plan = plan_restore(dual, tuner_name.as_deref(), bytes)?;

    // Tuner first: its import is atomic by contract, so a failure here
    // still leaves both tuner and store untouched.
    let mut tuner_restored = false;
    if let (Some(state), Some(tuner)) = (&plan.tuner_state, tuner) {
        tuner.import_state(state)?;
        tuner_restored = true;
    }

    // Apply the design. plan_restore proved every migrate below fits the
    // budget; should one fail anyway, the graph side is reset to the
    // consistent empty (cold) design rather than left half-loaded — see
    // the atomicity note on [`restore_checkpoint`].
    let work_before = dual.graph().import_stats().work_units;
    dual.graph_mut().evict_all();
    let mut report = RestoreReport {
        tuner_restored,
        epoch: plan.epoch,
        ..Default::default()
    };
    for &(pred, size) in &plan.resident {
        if let Err(e) = dual.migrate_partition(pred) {
            dual.graph_mut().evict_all();
            return Err(DesignError::Corrupt(format!(
                "backend replay of partition {pred} failed: {e}"
            )));
        }
        report.partitions_loaded += 1;
        report.triples_loaded += size;
    }
    // Replay doesn't consult the guard, so applying it last keeps it
    // untouched on the replay-failure path above.
    dual.set_case2_guard(plan.case2_guard);
    report.import_work = dual.graph().import_stats().work_units - work_before;
    persist_obs().restore_bytes.add(bytes.len() as u64);
    if let Some(ns) = wall.elapsed_ns() {
        persist_obs().restore_wall.record(ns);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::NoopTuner;
    use kgdual_model::{DatasetBuilder, Term};

    fn dataset() -> kgdual_model::Dataset {
        let mut b = DatasetBuilder::new();
        for i in 0..30 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 3)),
            );
        }
        for i in 0..10 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:advisor",
                &Term::iri(format!("y:p{}", i + 10)),
            );
        }
        b.build()
    }

    fn learned_store() -> DualStore {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let born = dual.dict().pred_id("y:bornIn").unwrap();
        dual.migrate_partition(born).unwrap();
        dual
    }

    #[test]
    fn design_roundtrip_replays_residency() {
        let dual = learned_store();
        let bytes = dual.save_design();

        let mut fresh = DualStore::from_dataset(dataset(), 100);
        assert_eq!(fresh.graph().used(), 0);
        let report = fresh.restore_design(&bytes).unwrap();
        assert_eq!(report.partitions_loaded, 1);
        assert_eq!(report.triples_loaded, 30);
        assert!(report.import_work > 0, "replay bills the backend's price");
        assert!(!report.tuner_restored);
        assert_eq!(fresh.design(), dual.design());
    }

    #[test]
    fn restore_replaces_an_existing_design() {
        let dual = learned_store();
        let bytes = dual.save_design();

        let mut other = DualStore::from_dataset(dataset(), 100);
        let advisor = other.dict().pred_id("y:advisor").unwrap();
        other.migrate_partition(advisor).unwrap();
        other.restore_design(&bytes).unwrap();
        assert_eq!(other.design(), dual.design());
        assert!(!other.graph().is_loaded(advisor));
    }

    #[test]
    fn wrong_dataset_is_a_typed_mismatch_and_leaves_store_untouched() {
        let bytes = learned_store().save_design();

        let mut b = DatasetBuilder::new();
        b.add_terms(&Term::iri("z:a"), "z:p", &Term::iri("z:b"));
        let mut other = DualStore::from_dataset(b.build(), 100);
        let before = other.design();
        assert!(matches!(
            other.restore_design(&bytes),
            Err(DesignError::Mismatch(_))
        ));
        assert_eq!(other.design(), before);
    }

    #[test]
    fn wrong_budget_is_a_typed_mismatch() {
        let bytes = learned_store().save_design();
        let mut other = DualStore::from_dataset(dataset(), 99);
        assert!(matches!(
            other.restore_design(&bytes),
            Err(DesignError::Mismatch(_))
        ));
        assert_eq!(other.graph().used(), 0);
    }

    #[test]
    fn every_truncation_errors_without_mutation() {
        let dual = learned_store();
        let bytes = dual.save_design();
        let mut target = DualStore::from_dataset(dataset(), 100);
        let advisor = target.dict().pred_id("y:advisor").unwrap();
        target.migrate_partition(advisor).unwrap();
        let before = target.design();
        for cut in 0..bytes.len() {
            assert!(
                target.restore_design(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
            assert_eq!(
                target.design(),
                before,
                "a partial checkpoint must never leave the store half-mutated (cut {cut})"
            );
        }
        // The intact snapshot still applies after all those rejections.
        target.restore_design(&bytes).unwrap();
        assert_eq!(target.design(), dual.design());
    }

    #[test]
    fn garbage_and_future_versions_are_typed() {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        assert_eq!(
            dual.restore_design(b"garbage!").unwrap_err(),
            DesignError::BadMagic
        );
        let mut bytes = learned_store().save_design().to_vec();
        bytes[4] = 0x7F; // bump the version field
        assert!(matches!(
            dual.restore_design(&bytes).unwrap_err(),
            DesignError::UnsupportedVersion { .. }
        ));
        assert_eq!(dual.graph().used(), 0);
    }

    #[test]
    fn stateless_tuner_checkpoints_design_only() {
        let dual = learned_store();
        let tuner = NoopTuner;
        let bytes = save_checkpoint(&dual, Some(&tuner), 7);
        let mut fresh = DualStore::from_dataset(dataset(), 100);
        let mut tuner = NoopTuner;
        let report = restore_checkpoint(&mut fresh, Some(&mut tuner), &bytes).unwrap();
        assert!(!report.tuner_restored, "NoopTuner exports no state");
        assert_eq!(report.epoch, 7, "epoch survives the round trip");
        assert_eq!(fresh.design(), dual.design());
    }

    /// Hand-build a snapshot whose design section is `resident`, with
    /// everything else valid for `dual` — the crafted-input cases below.
    fn forged_snapshot(dual: &DualStore, resident: &[(u32, u64)], count: u32) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.add_section(SECTION_DESIGN, forged_design(dual, resident, count));
        w.encode().to_vec()
    }

    /// The design section of [`forged_snapshot`].
    fn forged_design(dual: &DualStore, resident: &[(u32, u64)], count: u32) -> Bytes {
        let mut design = FieldWriter::new();
        design.put_u64(dual.dict().node_count() as u64);
        design.put_u64(dual.dict().pred_count() as u64);
        design.put_u64(dual.rel().total_triples() as u64);
        design.put_u64(dataset_fingerprint(dual));
        design.put_u64(dual.graph().budget() as u64);
        design.put_bool(true);
        design.put_u32(count);
        for &(pred, size) in resident {
            design.put_u32(pred);
            design.put_u64(size);
        }
        design.into_bytes()
    }

    #[test]
    fn duplicate_resident_partitions_are_rejected_before_mutation() {
        // Both entries pass the per-partition size check individually;
        // only the canonical-order rule catches the double load that
        // would otherwise fail mid-replay, after mutation had begun.
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let born = dual.dict().pred_id("y:bornIn").unwrap();
        let forged = forged_snapshot(&dual, &[(born.0, 30), (born.0, 30)], 2);
        let before = dual.design();
        assert!(matches!(
            dual.restore_design(&forged),
            Err(DesignError::Corrupt(_))
        ));
        assert_eq!(dual.design(), before);
    }

    #[test]
    fn huge_resident_count_is_typed_truncation_not_an_allocation() {
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let forged = forged_snapshot(&dual, &[], u32::MAX);
        assert_eq!(
            dual.restore_design(&forged).unwrap_err(),
            DesignError::Truncated
        );
        assert_eq!(dual.graph().used(), 0);
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        let a = learned_store().save_design();
        let b = learned_store().save_design();
        assert_eq!(&a[..], &b[..], "same design, same bytes");
    }

    #[test]
    fn legacy_shard_section_is_skipped_on_restore() {
        // Tag 4 once held the relational shard layout: shard count, the
        // router's override pairs and per-shard row counts. A snapshot
        // that still carries it restores as if it did not.
        let mut dual = DualStore::from_dataset(dataset(), 100);
        let born = dual.dict().pred_id("y:bornIn").unwrap();
        let size = dual.rel().partition_len(born) as u64;
        let mut shards = FieldWriter::new();
        shards.put_u32(1);
        shards.put_u32(0);
        shards.put_u32(1);
        shards.put_u64(dual.rel().total_triples() as u64);
        let mut w = SnapshotWriter::new();
        w.add_section(SECTION_DESIGN, forged_design(&dual, &[(born.0, size)], 1));
        w.add_section(4, shards.into_bytes());

        let report = dual.restore_design(&w.encode()).unwrap();
        assert_eq!(report.partitions_loaded, 1);
        let mut expected = DualStore::from_dataset(dataset(), 100);
        expected.migrate_partition(born).unwrap();
        assert_eq!(dual.design(), expected.design());
    }
}
