//! YAGO-like knowledge graph generator.
//!
//! Mirrors the statistics the paper reports for its YAGO slice (Table 3):
//! 39 predicates over person/city/organization entities, with the
//! advisor-/spouse-born-in-same-city motifs the paper's running queries
//! (Table 1, Example 1) depend on. The workload has 4 templates × (1 + 4
//! mutations) = 20 queries, matching Table 3's `#-queries = 20`.

use crate::util::skewed_index;
use crate::workload::{Family, Template, Workload};
use kgdual_model::{Dataset, DatasetBuilder, NodeId, PredId, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Copy, Clone, Debug)]
pub struct YagoGen {
    /// Number of person entities (the main scale knob; total triples are
    /// roughly `10 × persons`).
    pub persons: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability that an advisor shares the advisee's birth city (drives
    /// the selectivity of the paper's headline query).
    pub advisor_same_city: f64,
    /// Probability that spouses share a birth city.
    pub spouse_same_city: f64,
}

impl Default for YagoGen {
    fn default() -> Self {
        YagoGen {
            persons: 10_000,
            seed: 42,
            advisor_same_city: 0.25,
            spouse_same_city: 0.3,
        }
    }
}

/// The 39 predicates of the generated schema (Table 3: `#-P = 39`).
pub const PREDICATES: [&str; 39] = [
    "y:wasBornIn",
    "y:hasGivenName",
    "y:hasFamilyName",
    "y:hasAcademicAdvisor",
    "y:isMarriedTo",
    "y:diedIn",
    "y:livesIn",
    "y:worksAt",
    "y:graduatedFrom",
    "y:hasWonPrize",
    "y:actedIn",
    "y:directed",
    "y:isCitizenOf",
    "y:isLocatedIn",
    "y:hasCapital",
    "y:isLeaderOf",
    "y:hasChild",
    "y:influences",
    "y:isConnectedTo",
    "y:owns",
    "y:playsFor",
    "y:isAffiliatedTo",
    "y:created",
    "y:wroteMusicFor",
    "y:edited",
    "y:isInterestedIn",
    "y:isKnownFor",
    "y:isPoliticianOf",
    "y:participatedIn",
    "y:happenedIn",
    "y:hasGender",
    "y:hasWebsite",
    "y:dealsWith",
    "y:exports",
    "y:imports",
    "y:hasCurrency",
    "y:hasOfficialLanguage",
    "y:hasNumberOfPeople",
    "y:label",
];

impl YagoGen {
    /// Calibrate the person count so the dataset lands near `triples`.
    pub fn with_target_triples(triples: usize, seed: u64) -> Self {
        YagoGen {
            persons: (triples / 10).max(100),
            seed,
            ..Self::default()
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = DatasetBuilder::new();
        let n = self.persons;
        let n_cities = (n / 50).max(10);
        let n_orgs = (n / 50).max(10);
        let n_unis = (n / 100).max(5);
        let n_movies = (n / 20).max(10);
        let n_countries = (n_cities / 10).max(5);
        let n_prizes = 20.min(n).max(5);
        let n_events = (n / 100).max(5);
        let n_topics = 50.min(n).max(10);

        let pool = |b: &mut DatasetBuilder, prefix: &str, count: usize| -> Vec<NodeId> {
            (0..count)
                .map(|i| b.node(&Term::iri(format!("y:{prefix}{i}"))))
                .collect()
        };
        let persons = pool(&mut b, "Person", n);
        let cities = pool(&mut b, "City", n_cities);
        let orgs = pool(&mut b, "Org", n_orgs);
        let unis = pool(&mut b, "Uni", n_unis);
        let movies = pool(&mut b, "Movie", n_movies);
        let countries = pool(&mut b, "Country", n_countries);
        let prizes = pool(&mut b, "Prize", n_prizes);
        let events = pool(&mut b, "Event", n_events);
        let topics = pool(&mut b, "Topic", n_topics);
        let genders = [b.node(&Term::iri("y:female")), b.node(&Term::iri("y:male"))];
        let given_names = pool(&mut b, "Given", 200.min(n).max(10));
        let family_names = pool(&mut b, "Family", 300.min(n).max(10));

        let preds: Vec<PredId> = PREDICATES.iter().map(|p| b.pred(p)).collect();
        let pid =
            |name: &str| -> PredId { preds[PREDICATES.iter().position(|&p| p == name).unwrap()] };

        // Birth city per person, skewed towards head cities.
        let born = pid("y:wasBornIn");
        let birth_city: Vec<NodeId> = (0..n)
            .map(|_| cities[skewed_index(&mut rng, n_cities, 2.0)])
            .collect();
        for (i, &p) in persons.iter().enumerate() {
            b.add(p, born, birth_city[i]);
        }
        // Per-city person index for the same-city motifs.
        let mut by_city: Vec<Vec<usize>> = vec![Vec::new(); n_cities];
        for (i, &c) in birth_city.iter().enumerate() {
            let city_idx = cities.iter().position(|&x| x == c).unwrap();
            by_city[city_idx].push(i);
        }

        // Names, gender, label for everyone.
        for (i, &p) in persons.iter().enumerate() {
            b.add(p, pid("y:hasGivenName"), given_names[i % given_names.len()]);
            b.add(
                p,
                pid("y:hasFamilyName"),
                family_names[i % family_names.len()],
            );
            b.add(p, pid("y:hasGender"), genders[i % 2]);
            b.add(p, pid("y:label"), given_names[(i * 7) % given_names.len()]);
        }

        // Advisors: sample a fraction, optionally forcing same-city pairs.
        let advisor = pid("y:hasAcademicAdvisor");
        for i in 0..n {
            if !rng.gen_bool(0.4) {
                continue;
            }
            let a = if rng.gen_bool(self.advisor_same_city) {
                let city_idx = cities.iter().position(|&x| x == birth_city[i]).unwrap();
                let peers = &by_city[city_idx];
                peers[rng.gen_range(0..peers.len())]
            } else {
                rng.gen_range(0..n)
            };
            if a != i {
                b.add(persons[i], advisor, persons[a]);
            }
        }
        // Marriages, same-city biased.
        let married = pid("y:isMarriedTo");
        for i in 0..n {
            if !rng.gen_bool(0.3) {
                continue;
            }
            let s = if rng.gen_bool(self.spouse_same_city) {
                let city_idx = cities.iter().position(|&x| x == birth_city[i]).unwrap();
                let peers = &by_city[city_idx];
                peers[rng.gen_range(0..peers.len())]
            } else {
                rng.gen_range(0..n)
            };
            if s != i {
                b.add(persons[i], married, persons[s]);
            }
        }

        // Remaining person-centric facts, with skewed fan-out.
        let fact = |b: &mut DatasetBuilder,
                    rng: &mut StdRng,
                    pred: &str,
                    prob: f64,
                    targets: &[NodeId],
                    skew: f64| {
            let p = pid(pred);
            for &s in &persons {
                if rng.gen_bool(prob) {
                    let t = targets[skewed_index(rng, targets.len(), skew)];
                    b.add(s, p, t);
                }
            }
        };
        fact(&mut b, &mut rng, "y:diedIn", 0.3, &cities, 2.0);
        fact(&mut b, &mut rng, "y:livesIn", 0.8, &cities, 2.0);
        fact(&mut b, &mut rng, "y:worksAt", 0.3, &orgs, 2.0);
        fact(&mut b, &mut rng, "y:graduatedFrom", 0.25, &unis, 2.0);
        fact(&mut b, &mut rng, "y:hasWonPrize", 0.1, &prizes, 2.0);
        fact(&mut b, &mut rng, "y:actedIn", 0.15, &movies, 2.0);
        fact(&mut b, &mut rng, "y:directed", 0.03, &movies, 1.5);
        fact(&mut b, &mut rng, "y:isCitizenOf", 0.9, &countries, 2.0);
        fact(&mut b, &mut rng, "y:isLeaderOf", 0.01, &orgs, 1.0);
        fact(&mut b, &mut rng, "y:hasChild", 0.25, &persons, 1.0);
        fact(&mut b, &mut rng, "y:influences", 0.1, &persons, 2.5);
        fact(&mut b, &mut rng, "y:isConnectedTo", 0.2, &persons, 1.5);
        fact(&mut b, &mut rng, "y:owns", 0.05, &orgs, 1.5);
        fact(&mut b, &mut rng, "y:playsFor", 0.08, &orgs, 2.0);
        fact(&mut b, &mut rng, "y:isAffiliatedTo", 0.1, &orgs, 2.0);
        fact(&mut b, &mut rng, "y:created", 0.05, &movies, 1.5);
        fact(&mut b, &mut rng, "y:wroteMusicFor", 0.02, &movies, 1.0);
        fact(&mut b, &mut rng, "y:edited", 0.02, &movies, 1.0);
        fact(&mut b, &mut rng, "y:isInterestedIn", 0.2, &topics, 2.0);
        fact(&mut b, &mut rng, "y:isKnownFor", 0.05, &topics, 2.0);
        fact(&mut b, &mut rng, "y:isPoliticianOf", 0.02, &countries, 1.5);
        fact(&mut b, &mut rng, "y:participatedIn", 0.1, &events, 2.0);
        fact(&mut b, &mut rng, "y:hasWebsite", 0.1, &topics, 1.0);

        // Geography and country-level facts.
        for (i, &c) in cities.iter().enumerate() {
            b.add(c, pid("y:isLocatedIn"), countries[i % n_countries]);
            b.add(c, pid("y:hasNumberOfPeople"), topics[i % n_topics]);
        }
        for (i, &c) in countries.iter().enumerate() {
            b.add(c, pid("y:hasCapital"), cities[i % n_cities]);
            b.add(c, pid("y:dealsWith"), countries[(i + 1) % n_countries]);
            b.add(c, pid("y:exports"), topics[i % n_topics]);
            b.add(c, pid("y:imports"), topics[(i + 3) % n_topics]);
            b.add(c, pid("y:hasCurrency"), topics[(i + 5) % n_topics]);
            b.add(c, pid("y:hasOfficialLanguage"), topics[(i + 7) % n_topics]);
        }
        for (i, &e) in events.iter().enumerate() {
            b.add(e, pid("y:happenedIn"), cities[i % n_cities]);
        }

        b.build()
    }

    /// The four YAGO query templates (20-query workload with 4 mutations).
    pub fn templates(&self) -> Vec<Template> {
        let city_pool: Vec<String> = (0..10).map(|i| format!("y:City{i}")).collect();
        vec![
            Template::with_variants(
                "yago-advisor-city",
                Family::Complex,
                "SELECT ?p WHERE { ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }",
                vec![
                    "SELECT ?p WHERE { ?p y:participatedIn ?e . ?a y:participatedIn ?e . ?p y:hasAcademicAdvisor ?a }",
                    "SELECT ?p WHERE { ?p y:graduatedFrom ?u . ?a y:graduatedFrom ?u . ?p y:hasAcademicAdvisor ?a }",
                    "SELECT ?p WHERE { ?p y:diedIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:diedIn ?city }",
                ],
            ),
            Template::with_variants(
                "yago-example1",
                Family::Complex,
                "SELECT ?GivenName ?FamilyName WHERE { \
                 ?p y:hasGivenName ?GivenName . ?p y:hasFamilyName ?FamilyName . \
                 ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city . \
                 ?p y:isMarriedTo ?p2 . ?p2 y:wasBornIn ?city }",
                vec![
                    "SELECT ?GivenName WHERE { \
                     ?p y:hasGivenName ?GivenName . \
                     ?p y:wasBornIn ?city . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?city }",
                    "SELECT ?GivenName WHERE { \
                     ?p y:hasGivenName ?GivenName . \
                     ?p y:isMarriedTo ?p2 . ?p y:wasBornIn ?city . ?p2 y:wasBornIn ?city }",
                    "SELECT ?GivenName WHERE { \
                     ?p y:hasGivenName ?GivenName . ?p y:graduatedFrom ?u . ?p2 y:graduatedFrom ?u . \
                     ?p y:isMarriedTo ?p2 . ?p y:wasBornIn ?city . ?p2 y:wasBornIn ?city }",
                ],
            ),
            // All-variable like the paper's complex patterns: "actors who
            // acted in the same movie" style. A constant here would hand
            // the relational planner a selective index entry point and
            // defeat the comparison's purpose.
            Template::with_variants(
                "yago-prize-colleagues",
                Family::Complex,
                "SELECT ?p ?q WHERE { ?p y:worksAt ?o . ?q y:worksAt ?o . \
                 ?p y:hasWonPrize ?w . ?q y:hasWonPrize ?w }",
                vec![
                    "SELECT ?p ?q WHERE { ?p y:worksAt ?o . ?q y:worksAt ?o . \
                     ?p y:graduatedFrom ?u . ?q y:graduatedFrom ?u }",
                    "SELECT ?p ?q WHERE { ?p y:playsFor ?o . ?q y:playsFor ?o . \
                     ?p y:wasBornIn ?c . ?q y:wasBornIn ?c }",
                    "SELECT ?p ?q WHERE { ?p y:worksAt ?o . ?q y:worksAt ?o . \
                     ?p y:isConnectedTo ?q }",
                ],
            ),
            Template {
                name: "yago-city-lookup".into(),
                family: Family::Lookup,
                sparql: "SELECT ?p ?g WHERE { ?p y:wasBornIn $CITY . ?p y:hasGivenName ?g }".into(),
                pools: vec![("CITY".into(), city_pool)],
                variants: vec![],
            },
        ]
    }

    /// Build the full 20-query ordered workload.
    pub fn workload(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9a90);
        Workload::from_templates("YAGO", &self.templates(), 4, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_core::identify;

    #[test]
    fn generates_39_predicates() {
        let ds = YagoGen {
            persons: 500,
            ..Default::default()
        }
        .generate();
        assert_eq!(ds.stats().preds, 39, "Table 3: #-P = 39");
    }

    #[test]
    fn triple_count_tracks_target() {
        let g = YagoGen::with_target_triples(50_000, 1);
        let ds = g.generate();
        let n = ds.stats().triples;
        assert!(
            (30_000..80_000).contains(&n),
            "target 50k, got {n}: calibration drifted badly"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = YagoGen {
            persons: 300,
            ..Default::default()
        }
        .generate();
        let b = YagoGen {
            persons: 300,
            ..Default::default()
        }
        .generate();
        assert_eq!(a.stats(), b.stats());
        let ta: Vec<_> = a.triples().collect();
        let tb: Vec<_> = b.triples().collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn advisor_motif_has_matches() {
        let ds = YagoGen {
            persons: 2_000,
            ..Default::default()
        }
        .generate();
        let dual = kgdual_core::DualStore::from_dataset(ds, 0);
        let q = kgdual_sparql::parse(
            "SELECT ?p WHERE { ?p y:wasBornIn ?c . ?p y:hasAcademicAdvisor ?a . ?a y:wasBornIn ?c }",
        )
        .unwrap();
        let out = kgdual_core::process(&dual, &q, Default::default()).unwrap();
        assert!(
            out.results.len() > 10,
            "same-city advisor pairs must exist, got {}",
            out.results.len()
        );
    }

    #[test]
    fn workload_is_20_queries_with_complex_majority() {
        let g = YagoGen::default();
        let w = g.workload();
        assert_eq!(w.queries.len(), 20, "Table 3: #-queries = 20");
        let complex = w.queries.iter().filter(|q| identify(q).is_some()).count();
        assert!(
            complex >= 10,
            "most YAGO queries are complex, got {complex}"
        );
    }

    #[test]
    fn template_constants_exist_in_data() {
        let g = YagoGen {
            persons: 1_000,
            ..Default::default()
        };
        let ds = g.generate();
        for t in g.templates() {
            for (_, pool) in &t.pools {
                for value in pool {
                    assert!(
                        ds.dict().node_id(&Term::iri(value)).is_some(),
                        "pool constant {value} missing from dataset"
                    );
                }
            }
        }
    }
}
