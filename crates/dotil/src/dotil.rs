//! DOTIL — Algorithm 1 of the paper.

use crate::config::DotilConfig;
use crate::counterfactual::{self, CostPair};
use crate::qmatrix::QMatrix;
use kgdual_core::{identify, DualStore, PhysicalTuner, TuningOutcome};
use kgdual_graphstore::GraphBackend;
use kgdual_model::design::{FieldReader, FieldWriter};
use kgdual_model::fx::FxHashMap;
use kgdual_model::{DesignError, PredId};
use kgdual_sched::Scheduler;
use kgdual_sparql::{compile, Compiled, EncPattern, EncodedQuery, Query, Selection, TriplePattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Version byte of DOTIL's persisted-state payload (inside the design
/// snapshot's tuner section).
const DOTIL_STATE_VERSION: u8 = 1;

/// kgdual-obs handles for the tuner, registered once per process.
/// Observational only — the deterministic signals stay in
/// [`TuningOutcome`] and the exported decision trails.
pub(crate) struct DotilObs {
    /// Wall time of one whole tuning pass.
    tune_wall: kgdual_obs::Histogram,
    /// Wall time of one covered-wave measurement phase.
    wave_measure_wall: kgdual_obs::Histogram,
    /// Wall time of measuring one set of memo misses: a covered wave's or
    /// a serial-branch shape's.
    measure_wall: kgdual_obs::Histogram,
    /// Relational counterfactual runs that finished before their graph
    /// side published the λ · c1 cutoff.
    pub(crate) rel_before_limit: kgdual_obs::Counter,
    /// Q-matrix cell updates applied.
    q_updates: kgdual_obs::Counter,
    /// Cost pairs served from the memo without running Algorithm 2.
    cost_memo_hits: kgdual_obs::Counter,
    /// Cost pairs the memo lacked, so Algorithm 2 ran.
    cost_memo_misses: kgdual_obs::Counter,
    /// Partitions evicted from the graph store.
    evictions: kgdual_obs::Counter,
    /// Partitions migrated into the graph store.
    migrations: kgdual_obs::Counter,
}

pub(crate) fn dotil_obs() -> &'static DotilObs {
    static OBS: std::sync::OnceLock<DotilObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let m = kgdual_obs::global().metrics();
        DotilObs {
            tune_wall: m.histogram("dotil_tune_wall_ns"),
            wave_measure_wall: m.histogram("dotil_wave_measure_wall_ns"),
            measure_wall: m.histogram("dotil_measure_wall_ns"),
            rel_before_limit: m.counter("dotil_rel_finished_before_limit"),
            q_updates: m.counter("dotil_q_updates"),
            cost_memo_hits: m.counter("dotil_cost_memo_hits"),
            cost_memo_misses: m.counter("dotil_cost_memo_misses"),
            evictions: m.counter("dotil_evictions"),
            migrations: m.counter("dotil_migrations"),
        }
    })
}

/// `(partition, state, action)` triples updated together, with a repeat
/// count replaying the update for identical batch copies.
type RoleGroup<'a> = (&'a [(PredId, usize, usize)], usize);

/// The reinforcement-learning dual-store tuner.
///
/// Holds one [`QMatrix`] per partition (state-space decomposition) and, in
/// each offline phase, walks the batch's complex subqueries deciding
/// keep/transfer/evict per Algorithm 1, with rewards measured through the
/// counterfactual runner.
///
/// One deliberate economy over the paper's pseudocode: Algorithm 1 calls
/// `LearningProc` separately for the transferred set and the kept set,
/// which would execute the same subquery twice; we measure the cost pair
/// once and apply both updates from it — the same rewards at half the
/// training cost.
///
/// A second one: a cost pair is a pure function of the subquery's encoded
/// patterns, λ and the triples of the partitions it reads — complex
/// subqueries have constant predicates only, `T_R` is always complete and
/// `T_G` holds copies, so residency never enters it. Pairs are therefore
/// memoised per shape for one [`DualStore::data_version`]: a shape that
/// recurs across tuning passes with no write in between is measured once,
/// however often the design migrates or evicts in the meantime. The memo
/// is not persisted; [`import_state_bytes`](Self::import_state_bytes)
/// clears it.
pub struct Dotil {
    cfg: DotilConfig,
    q: FxHashMap<PredId, QMatrix>,
    /// Measured cost pairs by complex-subquery patterns, valid while the
    /// store's data version equals `memo_version`. The keys come from
    /// workload queries, so the map keeps std's collision-resistant hasher.
    memo: HashMap<Vec<EncPattern>, CostPair>,
    memo_version: u64,
    /// Consecutive tuning passes each resident partition has gone without
    /// its complex subqueries appearing in the batch; at
    /// `cfg.keep_equity_ttl` its keep equity stops shielding it from
    /// eviction (see the desirability guard in `tune`).
    stale: FxHashMap<PredId, u32>,
    rng: StdRng,
    /// Cold-start coin flips drawn so far. The RNG advances one draw per
    /// flip, so persisting this count lets a restored tuner fast-forward a
    /// freshly seeded generator to the exact stream position — restart
    /// equivalence for the exploration randomness.
    coin_flips: u64,
    trainings: u64,
}

impl Dotil {
    /// A tuner with the paper's tuned hyperparameters.
    pub fn new() -> Self {
        Self::with_config(DotilConfig::default())
    }

    /// A tuner with explicit hyperparameters (parameter-sweep experiments).
    pub fn with_config(cfg: DotilConfig) -> Self {
        Dotil {
            q: FxHashMap::default(),
            memo: HashMap::new(),
            memo_version: 0,
            stale: FxHashMap::default(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            coin_flips: 0,
            trainings: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DotilConfig {
        &self.cfg
    }

    /// This partition's Q-matrix (zero if never trained).
    pub fn q_matrix(&self, pred: PredId) -> QMatrix {
        self.q.get(&pred).copied().unwrap_or_default()
    }

    /// Cell-wise sum of all Q-matrices — the paper's Table 5 "Q-matrix"
    /// training-effect metric.
    pub fn q_matrix_sum(&self) -> [f64; 4] {
        let mut sum = [0.0f64; 4];
        for m in self.q.values() {
            for (acc, v) in sum.iter_mut().zip(m.cells()) {
                *acc += v;
            }
        }
        sum
    }

    /// Number of `LearningProc` invocations so far.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Serialize the tuner's complete learned state for a design
    /// checkpoint: hyperparameters (so `keep_equity_ttl` and the reward
    /// scaling survive restart), every Q-matrix, the staleness ages behind
    /// the keep-equity guard, the training counter, and the cold-start
    /// coin-flip count (the RNG stream position). Maps are written in
    /// ascending predicate order, so identical state yields identical
    /// bytes.
    pub fn export_state_bytes(&self) -> Vec<u8> {
        let mut w = FieldWriter::new();
        w.put_u8(DOTIL_STATE_VERSION);
        w.put_f64(self.cfg.alpha);
        w.put_f64(self.cfg.gamma);
        w.put_f64(self.cfg.lambda);
        w.put_f64(self.cfg.prob);
        w.put_f64(self.cfg.reward_scale);
        w.put_u64(self.cfg.seed);
        w.put_u32(self.cfg.keep_equity_ttl);
        w.put_u64(self.trainings);
        w.put_u64(self.coin_flips);
        let mut q: Vec<(PredId, QMatrix)> = self.q.iter().map(|(&p, &m)| (p, m)).collect();
        q.sort_unstable_by_key(|&(p, _)| p);
        w.put_u32(q.len() as u32);
        for (pred, m) in q {
            w.put_u32(pred.0);
            for cell in m.cells() {
                w.put_f64(cell);
            }
        }
        let mut stale: Vec<(PredId, u32)> = self.stale.iter().map(|(&p, &a)| (p, a)).collect();
        stale.sort_unstable_by_key(|&(p, _)| p);
        w.put_u32(stale.len() as u32);
        for (pred, age) in stale {
            w.put_u32(pred.0);
            w.put_u32(age);
        }
        w.into_bytes().to_vec()
    }

    /// Restore state produced by [`Self::export_state_bytes`]. Atomic: the
    /// whole payload is decoded and validated before any field changes, so
    /// a corrupt blob leaves the tuner untouched. The RNG is re-seeded
    /// from the restored config and fast-forwarded past the recorded
    /// coin flips, so the restored tuner's future decisions are
    /// draw-for-draw identical to an uninterrupted run's. The cost-pair
    /// memo is cleared: the restored λ may differ from the one its pairs
    /// were measured under.
    pub fn import_state_bytes(&mut self, state: &[u8]) -> Result<(), DesignError> {
        let mut r = FieldReader::new(state);
        let version = r.get_u8()?;
        if version != DOTIL_STATE_VERSION {
            return Err(DesignError::UnsupportedVersion {
                found: version as u16,
                supported: DOTIL_STATE_VERSION as u16,
            });
        }
        let cfg = DotilConfig {
            alpha: r.get_f64()?,
            gamma: r.get_f64()?,
            lambda: r.get_f64()?,
            prob: r.get_f64()?,
            reward_scale: r.get_f64()?,
            seed: r.get_u64()?,
            keep_equity_ttl: r.get_u32()?,
        };
        let trainings = r.get_u64()?;
        let coin_flips = r.get_u64()?;
        // The fast-forward below replays one RNG draw per recorded flip;
        // bound the count so a forged/bit-flipped payload cannot spin the
        // import into an effective hang. Real runs record one flip per
        // cold-start decision — many orders of magnitude below this cap.
        const MAX_COIN_FLIPS: u64 = 100_000_000;
        if coin_flips > MAX_COIN_FLIPS {
            return Err(DesignError::Corrupt(format!(
                "implausible coin-flip count {coin_flips} (cap {MAX_COIN_FLIPS})"
            )));
        }
        let n_q = r.get_u32()? as usize;
        let mut q = FxHashMap::default();
        for _ in 0..n_q {
            let pred = PredId(r.get_u32()?);
            let cells = [r.get_f64()?, r.get_f64()?, r.get_f64()?, r.get_f64()?];
            if q.insert(pred, QMatrix::from_cells(cells)).is_some() {
                return Err(DesignError::Corrupt(format!(
                    "duplicate Q-matrix for partition {pred}"
                )));
            }
        }
        let n_stale = r.get_u32()? as usize;
        let mut stale = FxHashMap::default();
        for _ in 0..n_stale {
            let pred = PredId(r.get_u32()?);
            let age = r.get_u32()?;
            if stale.insert(pred, age).is_some() {
                return Err(DesignError::Corrupt(format!(
                    "duplicate staleness entry for partition {pred}"
                )));
            }
        }
        if r.remaining() != 0 {
            return Err(DesignError::Corrupt(
                "DOTIL state has trailing bytes".into(),
            ));
        }

        // Fully decoded — now (and only now) apply.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for _ in 0..coin_flips {
            let _ = rng.next_u64(); // one draw per recorded coin flip
        }
        self.cfg = cfg;
        self.q = q;
        self.stale = stale;
        self.trainings = trainings;
        self.coin_flips = coin_flips;
        self.rng = rng;
        self.memo.clear();
        Ok(())
    }

    /// Compile a complex subquery's patterns into an executable query
    /// projecting all of its variables, plus the per-partition reward
    /// proportions `δ(P_i)`.
    fn prepare<B: GraphBackend>(
        dual: &DualStore<B>,
        patterns: &[TriplePattern],
    ) -> Option<(EncodedQuery, Vec<(PredId, f64)>)> {
        let query = Query {
            select: Selection::Star,
            distinct: false,
            patterns: patterns.to_vec(),
            limit: None,
        };
        let eq = match compile(&query, dual.dict()).ok()? {
            Compiled::Query(eq) => eq,
            Compiled::EmptyResult => return None,
        };
        // δ(P_i): the share of subquery patterns using predicate P_i
        // (Example 1: wasBornIn 3/5, advisor 1/5, marriedTo 1/5).
        let mut counts: Vec<(PredId, usize)> = Vec::new();
        let mut total = 0usize;
        for pat in &eq.patterns {
            if let Some(p) = pat.p.as_const() {
                total += 1;
                match counts.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((p, 1)),
                }
            }
        }
        if total == 0 {
            return None;
        }
        let props = counts
            .into_iter()
            .map(|(p, c)| (p, c as f64 / total as f64))
            .collect();
        Some((eq, props))
    }

    /// Algorithm 2's cost pair for each of `qcs`, in order (`None` where
    /// the measurement failed). Pairs come from the memo where it has
    /// them; the misses are measured — each as two `OfflineTuning` tasks
    /// on `sched`, its graph side and its relational side, when one is
    /// handed in, inline otherwise — and remembered. `tune_with` has
    /// already checked the memo against the store's data version.
    fn cost_pairs<B: GraphBackend>(
        &mut self,
        dual: &DualStore<B>,
        qcs: &[&EncodedQuery],
        sched: Option<&Scheduler>,
    ) -> Vec<Option<CostPair>> {
        let mut pairs: Vec<Option<CostPair>> = qcs
            .iter()
            .map(|qc| self.memo.get(qc.patterns.as_slice()).copied())
            .collect();
        let misses: Vec<usize> = (0..qcs.len()).filter(|&k| pairs[k].is_none()).collect();
        let o = dotil_obs();
        if !misses.is_empty() {
            let measure_wall = kgdual_obs::timer();
            let missed: Vec<&EncodedQuery> = misses.iter().map(|&k| qcs[k]).collect();
            let measured = counterfactual::measure_all(dual, &missed, self.cfg.lambda, sched);
            o.measure_wall.record_timer(measure_wall);
            for (&k, pair) in misses.iter().zip(measured) {
                let pair = pair.ok();
                if let Some(pair) = pair {
                    self.memo.insert(qcs[k].patterns.clone(), pair);
                }
                pairs[k] = pair;
            }
        }
        o.cost_memo_hits.add((qcs.len() - misses.len()) as u64);
        o.cost_memo_misses.add(misses.len() as u64);
        pairs
    }

    /// Take the cost pair once and update partition matrices for each
    /// `(roles, repeats)` group. Repeats replay the update for the
    /// additional identical subqueries of the batch (the paper's Algorithm
    /// 1 would re-measure each copy; the costs are identical, so replaying
    /// the Q-update preserves the learning dynamics at a fraction of the
    /// training cost).
    fn learn<B: GraphBackend>(
        &mut self,
        dual: &DualStore<B>,
        qc: &EncodedQuery,
        proportions: &[(PredId, f64)],
        groups: &[RoleGroup<'_>],
        outcome: &mut TuningOutcome,
        sched: Option<&Scheduler>,
    ) {
        let [Some(pair)] = self.cost_pairs(dual, &[qc], sched)[..] else {
            return;
        };
        self.apply_pair(pair, proportions, groups, outcome);
    }

    /// The Q-update half of [`learn`](Self::learn): fold one cost pair
    /// into the matrices. Split out so wave-parallel tuning can measure
    /// many shapes concurrently and still replay the updates in strict
    /// shape order — the replay, not the measurement, is what the learning
    /// dynamics observe. `offline_work` bills `c1 + c2` whether the pair
    /// was measured now or taken from the memo.
    fn apply_pair(
        &mut self,
        pair: CostPair,
        proportions: &[(PredId, f64)],
        groups: &[RoleGroup<'_>],
        outcome: &mut TuningOutcome,
    ) {
        outcome.offline_work += pair.c1 + pair.c2;
        let improvement = pair.improvement() as f64 * self.cfg.reward_scale;
        for &(roles, repeats) in groups {
            for _ in 0..repeats {
                for &(pred, state, action) in roles {
                    let delta = proportions
                        .iter()
                        .find(|(p, _)| *p == pred)
                        .map_or(0.0, |(_, d)| *d);
                    let reward = improvement * delta;
                    self.q.entry(pred).or_default().update(
                        state,
                        action,
                        reward,
                        self.cfg.alpha,
                        self.cfg.gamma,
                    );
                    self.trainings += 1;
                }
            }
        }
    }
}

impl Default for Dotil {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: GraphBackend> PhysicalTuner<B> for Dotil {
    fn name(&self) -> &str {
        "dotil"
    }

    fn export_state(&self) -> Option<Vec<u8>> {
        Some(self.export_state_bytes())
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), DesignError> {
        self.import_state_bytes(state)
    }

    fn tune(&mut self, dual: &mut DualStore<B>, batch: &[Query]) -> TuningOutcome {
        self.tune_with(dual, batch, None)
    }

    /// Algorithm 1 with its counterfactual measurements run as
    /// [`OfflineTuning`](kgdual_sched::TaskClass::OfflineTuning) tasks on
    /// `sched`: two per measured pair, its graph side and its relational
    /// side (see [`counterfactual`]), whichever branch measures it.
    ///
    /// Covered shapes (lines 5–7) never mutate the design, so a maximal run
    /// of consecutive covered shapes forms a **wave**: each member's
    /// classification is independent of the others, its measurement is
    /// read-only on the store and deterministic in work units, and only the
    /// Q-update replay is order-sensitive. Waves are measured in parallel
    /// and their updates replayed in strict shape order; non-covered shapes
    /// mutate the design (evict/migrate) and consume exploration
    /// randomness, so they run strictly serially between waves. Learned
    /// state, decisions, outcome, and exported trails are therefore
    /// byte-identical to the serial [`tune`](PhysicalTuner::tune) at every
    /// worker count — only the offline phase's wall clock changes. Only
    /// the pairs the cost-pair memo misses become tasks.
    fn tune_with(
        &mut self,
        dual: &mut DualStore<B>,
        batch: &[Query],
        sched: Option<&Scheduler>,
    ) -> TuningOutcome {
        let mut outcome = TuningOutcome::default();
        let tune_wall = kgdual_obs::timer();
        let _span = kgdual_obs::span!("tune", batch = batch.len());
        let trainings_before = self.trainings;

        // Pairs measured under another data version (a write since, or
        // another store) are stale.
        if self.memo_version != dual.data_version() {
            self.memo.clear();
            self.memo_version = dual.data_version();
        }

        // Group the batch by complex-subquery shape: a template and its
        // isomorphic mutations train the same Q-matrices on the same
        // partitions, so Algorithm 1's per-copy pass is replayed as one
        // measured pass plus multiplicity-weighted Q-updates. This keeps
        // the paper's learning dynamics (copies after the first hit the
        // covered branch and build keep-equity) without re-measuring — and
        // without the per-copy migrations that thrash the design when a
        // batch's combined footprint brushes the budget.
        let mut shapes: Vec<(String, &Query, usize)> = Vec::new();
        for query in batch {
            let Some(qc) = identify(query) else { continue };
            let key = kgdual_sparql::canonical_key(&qc.patterns);
            match shapes.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, count)) => *count += 1,
                None => shapes.push((key, query, 1)),
            }
        }

        // Partitions referenced by this batch's complex subqueries: evidence
        // of continued usefulness for the staleness bookkeeping below.
        let mut active: kgdual_model::fx::FxHashSet<PredId> =
            kgdual_model::fx::FxHashSet::default();

        let mut i = 0;
        while i < shapes.len() {
            // Peel the maximal wave of consecutive covered shapes (lines
            // 5-7: everything already resident — reward keeping, once per
            // copy in the batch). The first non-covered shape ends the
            // wave and comes back prepared for the serial branch below.
            type CoveredShape = (
                EncodedQuery,
                Vec<(PredId, f64)>,
                Vec<(PredId, usize, usize)>,
                usize,
            );
            let mut wave: Vec<CoveredShape> = Vec::new();
            let mut pending = None;
            while i < shapes.len() {
                let (query, count) = (shapes[i].1, shapes[i].2);
                i += 1;
                let Some(qc) = identify(query) else { continue };
                let Some((qc_eq, proportions)) = Self::prepare(dual, &qc.patterns) else {
                    continue;
                };
                let tc = qc_eq.predicate_set();
                active.extend(tc.iter().copied());
                if dual.graph().covers(&tc) {
                    let roles: Vec<(PredId, usize, usize)> =
                        tc.iter().map(|&p| (p, 1, 0)).collect();
                    wave.push((qc_eq, proportions, roles, count));
                } else {
                    pending = Some((qc_eq, proportions, count));
                    break;
                }
            }

            // Measure the wave's memo misses — in parallel as
            // OfflineTuning tasks when a multi-worker pool is handed in,
            // inline otherwise — then replay the Q-updates in shape order.
            // A measurement is read-only and deterministic in work units,
            // so both paths fold exactly the same rewards in exactly the
            // same order. Misses always route through the scheduler when
            // one is handed in (run_indexed falls back to inline execution
            // for a single worker): the per-class task accounting in
            // `SchedStats` then attributes every measurement identically
            // at every thread count.
            let measure_wall = kgdual_obs::timer();
            let qcs: Vec<&EncodedQuery> = wave.iter().map(|w| &w.0).collect();
            let pairs = self.cost_pairs(dual, &qcs, sched);
            if let Some(ns) = measure_wall.elapsed_ns() {
                dotil_obs().wave_measure_wall.record(ns);
            }
            for ((_, proportions, roles, count), pair) in wave.iter().zip(pairs) {
                if let Some(pair) = pair {
                    self.apply_pair(
                        pair,
                        proportions,
                        &[(roles.as_slice(), *count)],
                        &mut outcome,
                    );
                }
            }

            // Serial branch: the non-covered shape that ended the wave.
            let Some((qc_eq, proportions, count)) = pending else {
                continue;
            };
            let tc = qc_eq.predicate_set();

            // Lines 9-11: T_set = partitions of T_c missing from T_G.
            let tset: Vec<PredId> = tc
                .iter()
                .copied()
                .filter(|&p| !dual.graph().is_loaded(p))
                .collect();

            // Lines 12-17: compare summed Q-values; cold-start coin flip.
            let q00: f64 = tset.iter().map(|&p| self.q_matrix(p).get(0, 0)).sum();
            let q01: f64 = tset.iter().map(|&p| self.q_matrix(p).get(0, 1)).sum();
            let transfer = if q00 == 0.0 && q01 == 0.0 {
                self.coin_flips += 1;
                self.rng.gen_bool(self.cfg.prob.clamp(0.0, 1.0))
            } else {
                q01 > q00
            };
            if !transfer {
                continue;
            }

            // Size check; skip subqueries that could never fit.
            let needed: usize = tset.iter().map(|&p| dual.rel().partition_len(p)).sum();
            if needed == 0 || needed > dual.graph().budget() {
                continue;
            }

            // Lines 18-27: evict by descending Q(1,1) − Q(1,0) until T_set
            // fits. Partitions of the current subquery are exempt (evicting
            // what we are about to rely on would thrash), and nothing is
            // evicted unless freeing enough space is actually possible.
            //
            // Desirability guard: eviction destroys the victims' keep
            // equity, so the transfer must be worth it. Summed over the
            // planned victim set, evicted Q(1,0) must not exceed the
            // incoming set's learned transfer value Q(0,1); otherwise the
            // tuner would trade a design it knows is good for one it merely
            // hopes is — the oscillation that makes an adaptive tuner lose
            // to a static one-off on recurring workloads. Keep equity is
            // not eternal: a victim whose subqueries have been absent for
            // `keep_equity_ttl` consecutive tuning passes counts as zero,
            // so sustained workload drift displaces stale designs instead
            // of being locked out by them forever (the Q-values themselves
            // are preserved for when the workload returns).
            if needed > dual.graph().available() {
                let mut candidates: Vec<(PredId, usize, f64)> = dual
                    .graph()
                    .resident_partitions()
                    .into_iter()
                    .filter(|(p, _)| !tc.contains(p))
                    .map(|(p, sz)| (p, sz, self.q_matrix(p).eviction_key()))
                    .collect();
                let freeable: usize = candidates.iter().map(|&(_, sz, _)| sz).sum();
                if dual.graph().available() + freeable < needed {
                    continue;
                }
                candidates.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
                let mut victims: Vec<(PredId, usize)> = Vec::new();
                let mut would_free = dual.graph().available();
                for &(p, sz, _) in &candidates {
                    if needed <= would_free {
                        break;
                    }
                    would_free += sz;
                    victims.push((p, sz));
                }
                let evicted_equity: f64 = victims
                    .iter()
                    .map(|&(p, _)| {
                        if self.stale.get(&p).copied().unwrap_or(0) >= self.cfg.keep_equity_ttl {
                            0.0
                        } else {
                            self.q_matrix(p).get(1, 0)
                        }
                    })
                    .sum();
                if evicted_equity > q01 {
                    continue;
                }
                for (p, sz) in victims {
                    dual.evict_partition(p);
                    self.stale.remove(&p);
                    outcome.evicted += 1;
                    outcome.triples_out += sz as u64;
                }
            }

            // Lines 28-29: migrate T_set.
            let mut migrated_ok = true;
            let mut done: Vec<PredId> = Vec::with_capacity(tset.len());
            for &p in &tset {
                let sz = dual.rel().partition_len(p);
                match dual.migrate_partition(p) {
                    Ok(()) => {
                        outcome.migrated += 1;
                        outcome.triples_in += sz as u64;
                        done.push(p);
                    }
                    Err(_) => {
                        migrated_ok = false;
                        break;
                    }
                }
            }
            if !migrated_ok {
                // Roll back partial migration to keep the design coherent.
                for p in done {
                    dual.evict_partition(p);
                    outcome.migrated -= 1;
                }
                continue;
            }
            outcome.offline_work += dual.bulk_import_units(needed as u64);

            // Lines 30-31: one measurement, both role updates. The first
            // copy pays the transfer action; the remaining `count - 1`
            // copies of this shape would now find T_c covered and earn the
            // keep reward for every partition — the keep-equity that
            // protects freshly useful partitions from immediate eviction.
            let mut transfer_roles: Vec<(PredId, usize, usize)> =
                tset.iter().map(|&p| (p, 0, 1)).collect();
            for &p in &tc {
                if !tset.contains(&p) {
                    transfer_roles.push((p, 1, 0));
                }
            }
            let keep_roles: Vec<(PredId, usize, usize)> = tc.iter().map(|&p| (p, 1, 0)).collect();
            self.learn(
                dual,
                &qc_eq,
                &proportions,
                &[(&transfer_roles, 1), (&keep_roles, count - 1)],
                &mut outcome,
                sched,
            );
        }

        // Staleness bookkeeping: residents referenced by this batch's
        // complex subqueries are fresh again; the rest age one pass. A
        // batch with no complex shapes says nothing about drift, so it
        // does not age anyone.
        if !active.is_empty() {
            let resident: Vec<PredId> = dual
                .graph()
                .resident_partitions()
                .into_iter()
                .map(|(p, _)| p)
                .collect();
            for p in resident {
                if active.contains(&p) {
                    self.stale.remove(&p);
                } else {
                    *self.stale.entry(p).or_insert(0) += 1;
                }
            }
        }
        let o = dotil_obs();
        o.q_updates.add(self.trainings - trainings_before);
        o.evictions.add(outcome.evicted as u64);
        o.migrations.add(outcome.migrated as u64);
        if let Some(ns) = tune_wall.elapsed_ns() {
            o.tune_wall.record(ns);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_model::{DatasetBuilder, Term};
    use kgdual_sched::TaskClass;
    use kgdual_sparql::parse;

    /// Graph with a hot advisor-city motif plus an unrelated bulky
    /// partition for eviction pressure.
    fn dual(budget: usize) -> DualStore {
        let mut b = DatasetBuilder::new();
        for i in 0..300 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:bornIn",
                &Term::iri(format!("y:c{}", i % 20)),
            );
        }
        for i in 0..80 {
            b.add_terms(
                &Term::iri(format!("y:p{i}")),
                "y:advisor",
                &Term::iri(format!("y:p{}", i + 100)),
            );
        }
        for i in 0..150 {
            b.add_terms(
                &Term::iri(format!("y:x{i}")),
                "y:likes",
                &Term::iri(format!("y:y{i}")),
            );
        }
        DualStore::from_dataset(b.build(), budget)
    }

    fn complex_query() -> Query {
        parse("SELECT ?p WHERE { ?p y:bornIn ?c . ?p y:advisor ?a . ?a y:bornIn ?c }").unwrap()
    }

    #[test]
    fn cold_start_transfers_with_high_prob() {
        let mut d = dual(1000);
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        let out = tuner.tune(&mut d, &[complex_query()]);
        assert_eq!(out.migrated, 2, "bornIn + advisor transferred");
        assert!(d.graph().is_loaded(d.dict().pred_id("y:bornIn").unwrap()));
        assert!(d.graph().is_loaded(d.dict().pred_id("y:advisor").unwrap()));
        assert!(out.offline_work > 0);
        assert!(tuner.trainings() > 0);
    }

    #[test]
    fn cold_start_with_zero_prob_never_transfers() {
        let mut d = dual(1000);
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 0.0,
            ..Default::default()
        });
        let out = tuner.tune(&mut d, &[complex_query()]);
        assert_eq!(out.migrated, 0);
        assert_eq!(d.graph().used(), 0);
    }

    #[test]
    fn q_values_grow_with_positive_rewards() {
        let mut d = dual(1000);
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        let batch: Vec<Query> = (0..4).map(|_| complex_query()).collect();
        tuner.tune(&mut d, &batch);
        let born = d.dict().pred_id("y:bornIn").unwrap();
        let advisor = d.dict().pred_id("y:advisor").unwrap();
        // After transfer the partitions keep earning keep-in-graph reward.
        assert!(
            tuner.q_matrix(born).get(0, 1) > 0.0,
            "transfer reward recorded"
        );
        assert!(tuner.q_matrix(born).get(1, 0) > 0.0, "keep reward recorded");
        assert!(tuner.q_matrix(advisor).get(1, 0) > 0.0);
        let sum = tuner.q_matrix_sum();
        assert_eq!(sum[0], 0.0, "Q(0,0) stays 0, as in Table 5");
        assert_eq!(sum[3], 0.0, "Q(1,1) stays 0, as in Table 5");
        assert!(sum[1] > 0.0 && sum[2] > 0.0);
    }

    #[test]
    fn eviction_frees_space_for_better_partitions() {
        // Budget fits likes(150) plus advisor(80) but not bornIn(300).
        // Preload the unrelated 'likes' partition, then present a workload
        // that needs bornIn+advisor (380 > available 350-150=... with
        // budget 400: available = 250 < 380, eviction of likes required).
        let mut d = dual(400);
        let likes = d.dict().pred_id("y:likes").unwrap();
        d.migrate_partition(likes).unwrap();
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        let out = tuner.tune(&mut d, &[complex_query()]);
        assert!(out.evicted >= 1, "likes must be evicted");
        assert!(!d.graph().is_loaded(likes));
        assert_eq!(out.migrated, 2);
        assert!(d.graph().covers(&[
            d.dict().pred_id("y:bornIn").unwrap(),
            d.dict().pred_id("y:advisor").unwrap()
        ]));
    }

    #[test]
    fn oversized_subqueries_are_skipped() {
        let mut d = dual(100); // bornIn alone is 300 triples
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        let out = tuner.tune(&mut d, &[complex_query()]);
        assert_eq!(out.migrated, 0);
        assert_eq!(d.graph().used(), 0);
    }

    #[test]
    fn resident_subquery_earns_keep_reward_only() {
        let mut d = dual(1000);
        for pred in ["y:bornIn", "y:advisor"] {
            let p = d.dict().pred_id(pred).unwrap();
            d.migrate_partition(p).unwrap();
        }
        let mut tuner = Dotil::new();
        let out = tuner.tune(&mut d, &[complex_query()]);
        assert_eq!(out.migrated, 0);
        assert_eq!(out.evicted, 0);
        let born = d.dict().pred_id("y:bornIn").unwrap();
        assert!(tuner.q_matrix(born).get(1, 0) > 0.0);
        assert_eq!(tuner.q_matrix(born).get(0, 1), 0.0);
    }

    #[test]
    fn simple_queries_are_ignored() {
        let mut d = dual(1000);
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        let q = parse("SELECT ?p WHERE { ?p y:bornIn ?c }").unwrap();
        let out = tuner.tune(&mut d, &[q]);
        assert_eq!(out.migrated, 0);
        assert_eq!(tuner.trainings(), 0);
    }

    #[test]
    fn sustained_drift_displaces_stale_designs() {
        // Two disjoint advisor-city motifs over the same budget envelope:
        // shape A (bornA/advA, 380 triples) and shape B (bornB/advB, 380
        // triples); budget 400 fits exactly one of them.
        let mut b = DatasetBuilder::new();
        for (born, adv, node) in [("y:bornA", "y:advA", "a"), ("y:bornB", "y:advB", "b")] {
            for i in 0..300 {
                b.add_terms(
                    &Term::iri(format!("y:{node}{i}")),
                    born,
                    &Term::iri(format!("y:c{}", i % 20)),
                );
            }
            for i in 0..80 {
                b.add_terms(
                    &Term::iri(format!("y:{node}{i}")),
                    adv,
                    &Term::iri(format!("y:{node}{}", i + 100)),
                );
            }
        }
        let mut d = DualStore::from_dataset(b.build(), 400);
        let shape = |born: &str, adv: &str| {
            parse(&format!(
                "SELECT ?p WHERE {{ ?p {born} ?c . ?p {adv} ?a . ?a {born} ?c }}"
            ))
            .unwrap()
        };
        let (query_a, query_b) = (shape("y:bornA", "y:advA"), shape("y:bornB", "y:advB"));
        let born_b = d.dict().pred_id("y:bornB").unwrap();

        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        tuner.tune(&mut d, std::slice::from_ref(&query_a));
        tuner.tune(&mut d, &[query_a]); // covered pass builds keep equity
        assert!(d.graph().is_loaded(d.dict().pred_id("y:bornA").unwrap()));

        // Workload shifts entirely to shape B. The guard holds at first
        // (A's equity is fresh) but must yield once A has been absent for
        // keep_equity_ttl passes — drift is not locked out forever.
        let ttl = tuner.config().keep_equity_ttl as usize;
        let mut displaced_at = None;
        for pass in 0..ttl + 3 {
            let out = tuner.tune(&mut d, std::slice::from_ref(&query_b));
            if out.migrated > 0 {
                displaced_at = Some(pass);
                break;
            }
        }
        let pass = displaced_at.expect("drift must eventually displace the stale design");
        assert!(
            pass >= 2,
            "fresh keep equity must hold off the first drift batches"
        );
        assert!(
            d.graph().is_loaded(born_b),
            "shape B resident after displacement"
        );
    }

    #[test]
    fn state_roundtrip_restores_everything() {
        let mut d = dual(1000);
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            keep_equity_ttl: 3,
            ..Default::default()
        });
        tuner.tune(&mut d, &[complex_query(), complex_query()]);
        let state = tuner.export_state_bytes();

        let mut restored = Dotil::new(); // deliberately different config
        restored.import_state_bytes(&state).unwrap();
        assert_eq!(restored.config(), tuner.config(), "config survives");
        assert_eq!(restored.trainings(), tuner.trainings());
        assert_eq!(restored.q_matrix_sum(), tuner.q_matrix_sum());
        let born = d.dict().pred_id("y:bornIn").unwrap();
        assert_eq!(restored.q_matrix(born), tuner.q_matrix(born));
        // Deterministic bytes: exporting the restored state reproduces the
        // original payload exactly.
        assert_eq!(restored.export_state_bytes(), state);
    }

    #[test]
    fn restored_tuner_continues_identically() {
        // Train, checkpoint mid-stream, and let both the original and the
        // restored tuner continue on identical fresh stores: every future
        // decision (incl. cold-start coin flips) must match draw for draw.
        let batch: Vec<Query> = vec![complex_query()];
        let mut d1 = dual(1000);
        let mut original = Dotil::with_config(DotilConfig::default());
        original.tune(&mut d1, &batch);
        let state = original.export_state_bytes();
        let design_at_ckpt = d1.design();

        let mut restored = Dotil::new();
        restored.import_state_bytes(&state).unwrap();
        let mut d2 = dual(1000);
        // Rebuild the store to the checkpointed design by replay.
        for (p, _) in &design_at_ckpt.graph_partitions {
            d2.migrate_partition(*p).unwrap();
        }
        for _ in 0..4 {
            let o1 = original.tune(&mut d1, &batch);
            let o2 = restored.tune(&mut d2, &batch);
            assert_eq!(o1, o2, "continued tuning must be identical");
            assert_eq!(d1.design(), d2.design());
        }
        assert_eq!(original.q_matrix_sum(), restored.q_matrix_sum());
    }

    #[test]
    fn corrupt_state_is_rejected_without_mutation() {
        let mut d = dual(1000);
        let mut tuner = Dotil::with_config(DotilConfig {
            prob: 1.0,
            ..Default::default()
        });
        tuner.tune(&mut d, &[complex_query()]);
        let state = tuner.export_state_bytes();
        let sum_before = tuner.q_matrix_sum();

        for cut in 0..state.len() {
            if tuner.import_state_bytes(&state[..cut]).is_ok() {
                panic!("truncated state at {cut} bytes must be rejected");
            }
            assert_eq!(tuner.q_matrix_sum(), sum_before, "no mutation on error");
        }
        let mut versioned = state.clone();
        versioned[0] = 99;
        assert!(matches!(
            tuner.import_state_bytes(&versioned),
            Err(DesignError::UnsupportedVersion { .. })
        ));
        let mut trailing = state.clone();
        trailing.push(0);
        assert!(matches!(
            tuner.import_state_bytes(&trailing),
            Err(DesignError::Corrupt(_))
        ));
        // The pristine payload still imports after all rejections.
        tuner.import_state_bytes(&state).unwrap();
    }

    #[test]
    fn scheduled_tuning_is_decision_identical_to_serial() {
        // Two distinct covered shapes per pass make a measurable wave.
        // Their partitions are resident from the start, so the first pass
        // is a wave measured on an empty memo; later passes replay it from
        // the memo.
        let batch: Vec<Query> = vec![
            complex_query(),
            parse("SELECT ?x WHERE { ?x y:likes ?y . ?y y:likes ?x }").unwrap(),
            complex_query(),
        ];
        let cfg = DotilConfig {
            prob: 1.0,
            ..Default::default()
        };
        let resident = || {
            let mut d = dual(1000);
            for pred in ["y:bornIn", "y:advisor", "y:likes"] {
                let p = d.dict().pred_id(pred).unwrap();
                d.migrate_partition(p).unwrap();
            }
            d
        };

        let mut d_serial = resident();
        let mut serial = Dotil::with_config(cfg);
        let mut serial_out = Vec::new();
        for _ in 0..3 {
            serial_out.push(serial.tune(&mut d_serial, &batch));
        }

        let sched = Scheduler::new(4);
        let mut d_sched = resident();
        let mut scheduled = Dotil::with_config(cfg);
        let mut sched_out = Vec::new();
        for _ in 0..3 {
            sched_out.push(scheduled.tune_with(&mut d_sched, &batch, Some(&sched)));
        }

        // Identical decisions, rewards, designs, and persisted trails.
        assert_eq!(serial_out, sched_out);
        assert_eq!(d_serial.design(), d_sched.design());
        assert_eq!(serial.q_matrix_sum(), scheduled.q_matrix_sum());
        assert_eq!(serial.export_state_bytes(), scheduled.export_state_bytes());
        // And the wave really went through the pool.
        assert!(
            sched.stats().executed.get(TaskClass::OfflineTuning) > 0,
            "covered waves must run as OfflineTuning tasks"
        );
    }

    /// One side of the memo lockstep: a store, a tuner and its own pool.
    /// `remeasure` rebuilds the tuner from its exported state before every
    /// pass, so it starts each pass with an empty memo.
    struct Side {
        d: DualStore,
        tuner: Dotil,
        sched: Scheduler,
        remeasure: bool,
    }

    impl Side {
        fn new(remeasure: bool) -> Self {
            // Budget 400 fits bornIn + advisor (380) only once the
            // preloaded likes (150) is evicted.
            let mut d = dual(400);
            let likes = d.dict().pred_id("y:likes").unwrap();
            d.migrate_partition(likes).unwrap();
            Side {
                d,
                tuner: Dotil::with_config(DotilConfig {
                    prob: 1.0,
                    ..Default::default()
                }),
                sched: Scheduler::new(2),
                remeasure,
            }
        }

        /// One tuning pass; returns its outcome and the `OfflineTuning`
        /// tasks it executed.
        fn tune(&mut self, batch: &[Query]) -> (TuningOutcome, u64) {
            if self.remeasure {
                let mut fresh = Dotil::new();
                fresh
                    .import_state_bytes(&self.tuner.export_state_bytes())
                    .unwrap();
                self.tuner = fresh;
            }
            let tasks = || self.sched.stats().executed.get(TaskClass::OfflineTuning);
            let before = tasks();
            let out = self.tuner.tune_with(&mut self.d, batch, Some(&self.sched));
            (out, tasks() - before)
        }
    }

    #[test]
    fn memo_changes_nothing_dotil_learns() {
        let likes = parse("SELECT ?x WHERE { ?x y:likes ?y . ?y y:likes ?x }").unwrap();
        let complex = || vec![complex_query(), complex_query()];
        let mixed = || vec![complex_query(), likes.clone()];
        let mut memo = Side::new(false);
        let mut twin = Side::new(true);
        let (mut memo_tasks, mut twin_tasks) = (0, 0);
        let (mut migrated, mut evicted) = (0, 0);
        let mut pass = |memo: &mut Side, twin: &mut Side, batch: &[Query]| {
            let (m_out, m_tasks) = memo.tune(batch);
            let (t_out, t_tasks) = twin.tune(batch);
            assert_eq!(m_out, t_out, "outcome");
            assert_eq!(memo.d.design(), twin.d.design(), "design");
            assert_eq!(
                memo.tuner.export_state_bytes(),
                twin.tuner.export_state_bytes(),
                "learned state"
            );
            memo_tasks += m_tasks;
            twin_tasks += t_tasks;
            migrated += m_out.migrated;
            evicted += m_out.evicted;
            (m_tasks, t_tasks)
        };

        pass(&mut memo, &mut twin, &complex()); // evicts likes, migrates
        pass(&mut memo, &mut twin, &mixed());
        pass(&mut memo, &mut twin, &complex());
        let birth = [&mut memo, &mut twin].map(|side| {
            side.d
                .insert_terms(&Term::iri("y:p0"), "y:bornIn", &Term::iri("y:c7"))
                .unwrap()
        });
        let (m, t) = pass(&mut memo, &mut twin, &complex());
        assert!(m > 0 && m == t, "after an insert: {m} vs {t} tasks");
        pass(&mut memo, &mut twin, &mixed());
        for (side, birth) in [&mut memo, &mut twin].into_iter().zip(birth) {
            assert_eq!(side.d.delete(birth), 1);
        }
        let (m, t) = pass(&mut memo, &mut twin, &mixed());
        assert!(m > 0 && m == t, "after a delete: {m} vs {t} tasks");
        // Evicted by hand: the next pass re-migrates and takes the pair
        // from the memo, since residency does not enter it.
        for side in [&mut memo, &mut twin] {
            let advisor = side.d.dict().pred_id("y:advisor").unwrap();
            side.d.evict_partition(advisor);
        }
        pass(&mut memo, &mut twin, &complex());
        pass(&mut memo, &mut twin, &mixed());

        assert!(migrated > 0 && evicted > 0, "{migrated} in, {evicted} out");
        assert!(
            memo_tasks < twin_tasks,
            "the memo must save measurements: {memo_tasks} vs {twin_tasks}"
        );
    }

    #[test]
    fn import_state_clears_the_memo() {
        let resident = || {
            let mut d = dual(1000);
            for pred in ["y:bornIn", "y:advisor"] {
                let p = d.dict().pred_id(pred).unwrap();
                d.migrate_partition(p).unwrap();
            }
            d
        };
        let batch = [complex_query()];
        let mut d = resident();
        let mut tuner = Dotil::new();
        let before = tuner.tune(&mut d, &batch); // fills the memo at λ = 4.5

        let state = Dotil::with_config(DotilConfig {
            lambda: 0.01,
            ..Default::default()
        })
        .export_state_bytes();
        tuner.import_state_bytes(&state).unwrap();
        let mut fresh = Dotil::new();
        fresh.import_state_bytes(&state).unwrap();

        let after = tuner.tune(&mut d, &batch);
        let expected = fresh.tune(&mut resident(), &batch);
        assert_ne!(before, expected, "λ must move the cost pair");
        assert_eq!(after, expected);
        assert_eq!(tuner.export_state_bytes(), fresh.export_state_bytes());
    }

    #[test]
    fn training_is_reproducible_across_seeds() {
        let run = || {
            let mut d = dual(1000);
            let mut t = Dotil::with_config(DotilConfig::default());
            t.tune(&mut d, &[complex_query(), complex_query()]);
            t.q_matrix_sum()
        };
        assert_eq!(run(), run());
    }
}
