//! WatDiv-like knowledge graph generator.
//!
//! WatDiv is an e-commerce-flavoured benchmark (users, products,
//! retailers, reviews) whose query templates are organised into four
//! families: **L**inear, **S**tar, snowflake-shaped (**F**), and
//! **C**omplex. This generator reproduces the Table-3 statistics (86
//! predicates; the paper's instance has 14.6 M triples) and provides
//! 7 L + 5 S + 5 F + 3 C = 20 templates, which at 1 + 4 mutations each
//! yields the paper's 35/25/25/15-query sub-workloads (100 total).

use crate::util::{skewed_index, zipf_size};
use crate::workload::{Family, Template, Workload};
use kgdual_model::{Dataset, DatasetBuilder, NodeId, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// WatDiv template family selector (for building per-family workloads).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WatDivFamily {
    /// Linear chains (7 templates → 35 queries).
    L,
    /// Stars (5 templates → 25 queries).
    S,
    /// Snowflakes (5 templates → 25 queries).
    F,
    /// Complex (3 templates → 15 queries).
    C,
}

/// Generator configuration.
#[derive(Copy, Clone, Debug)]
pub struct WatDivGen {
    /// Number of users (total triples ≈ 24 × users; a Zipf tail of
    /// query-untouched attribute partitions carries much of the mass, as
    /// in the real benchmark).
    pub users: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WatDivGen {
    fn default() -> Self {
        WatDivGen {
            users: 10_000,
            seed: 7,
        }
    }
}

/// Core relationship predicates (the remainder up to 86 are Zipf-sized
/// attribute predicates `wsdbm:pA{i}`).
const CORE_PREDS: [&str; 26] = [
    "wsdbm:follows",
    "wsdbm:friendOf",
    "wsdbm:likes",
    "wsdbm:subscribesTo",
    "wsdbm:makesPurchase",
    "wsdbm:purchaseFor",
    "wsdbm:hasReview",
    "wsdbm:reviewOf",
    "wsdbm:reviewer",
    "wsdbm:rating",
    "wsdbm:title",
    "wsdbm:caption",
    "wsdbm:hasGenre",
    "wsdbm:soldBy",
    "wsdbm:offers",
    "wsdbm:price",
    "wsdbm:validThrough",
    "wsdbm:eligibleRegion",
    "wsdbm:homepage",
    "wsdbm:contactPoint",
    "wsdbm:legalName",
    "wsdbm:parentCompany",
    "wsdbm:employs",
    "wsdbm:locatedIn",
    "wsdbm:hostedBy",
    "wsdbm:languageOf",
];

const FILLER_PREDS: usize = 60; // 26 + 60 = 86 = Table 3's #-P

impl WatDivGen {
    /// Calibrate user count so the dataset lands near `triples`.
    pub fn with_target_triples(triples: usize, seed: u64) -> Self {
        WatDivGen {
            users: (triples / 24).max(100),
            seed,
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = DatasetBuilder::new();
        let n_users = self.users;
        let n_products = (n_users / 4).max(20);
        let n_retailers = (n_users / 100).max(5);
        let n_reviews = (n_users / 2).max(20);
        let n_purchases = (n_users / 2).max(20);
        let n_genres = 25.min(n_products).max(5);
        let n_websites = (n_users / 50).max(5);
        let n_cities = (n_users / 100).max(5);
        let n_misc = (n_users / 10).max(20);

        let pool = |b: &mut DatasetBuilder, prefix: &str, count: usize| -> Vec<NodeId> {
            (0..count)
                .map(|i| b.node(&Term::iri(format!("wsdbm:{prefix}{i}"))))
                .collect()
        };
        let users = pool(&mut b, "User", n_users);
        let products = pool(&mut b, "Product", n_products);
        let retailers = pool(&mut b, "Retailer", n_retailers);
        let reviews = pool(&mut b, "Review", n_reviews);
        let purchases = pool(&mut b, "Purchase", n_purchases);
        let genres = pool(&mut b, "Genre", n_genres);
        let websites = pool(&mut b, "Website", n_websites);
        let cities = pool(&mut b, "City", n_cities);
        let misc = pool(&mut b, "Misc", n_misc);

        let pid = {
            let mut map = std::collections::HashMap::new();
            for p in CORE_PREDS {
                map.insert(p, b.pred(p));
            }
            map
        };
        let p = |name: &str| pid[name];

        // Social graph: follows (skewed in-degree) and friendOf.
        for (i, &u) in users.iter().enumerate() {
            let n_follow = 1 + skewed_index(&mut rng, 3, 1.5);
            for _ in 0..n_follow {
                let v = users[skewed_index(&mut rng, n_users, 2.2)];
                if v != u {
                    b.add(u, p("wsdbm:follows"), v);
                }
            }
            if rng.gen_bool(0.6) {
                let v = users[rng.gen_range(0..n_users)];
                if v != u {
                    b.add(u, p("wsdbm:friendOf"), v);
                }
            }
            // Interests.
            let n_likes = skewed_index(&mut rng, 4, 1.5);
            for _ in 0..n_likes {
                b.add(
                    u,
                    p("wsdbm:likes"),
                    products[skewed_index(&mut rng, n_products, 2.5)],
                );
            }
            if rng.gen_bool(0.3) {
                b.add(
                    u,
                    p("wsdbm:subscribesTo"),
                    websites[skewed_index(&mut rng, n_websites, 2.0)],
                );
            }
            if i < n_purchases {
                b.add(u, p("wsdbm:makesPurchase"), purchases[i]);
            }
        }
        // Purchases point at products.
        for (i, &pu) in purchases.iter().enumerate() {
            b.add(
                pu,
                p("wsdbm:purchaseFor"),
                products[skewed_index(&mut rng, n_products, 2.5)],
            );
            b.add(pu, p("wsdbm:validThrough"), misc[i % n_misc]);
        }
        // Reviews.
        for (i, &r) in reviews.iter().enumerate() {
            let prod = products[skewed_index(&mut rng, n_products, 2.5)];
            b.add(r, p("wsdbm:reviewOf"), prod);
            b.add(prod, p("wsdbm:hasReview"), r);
            b.add(
                r,
                p("wsdbm:reviewer"),
                users[skewed_index(&mut rng, n_users, 1.8)],
            );
            b.add(r, p("wsdbm:rating"), misc[i % 5]);
        }
        // Products.
        for (i, &prod) in products.iter().enumerate() {
            b.add(
                prod,
                p("wsdbm:hasGenre"),
                genres[skewed_index(&mut rng, n_genres, 2.0)],
            );
            b.add(
                prod,
                p("wsdbm:soldBy"),
                retailers[skewed_index(&mut rng, n_retailers, 2.0)],
            );
            b.add(prod, p("wsdbm:title"), misc[i % n_misc]);
            if rng.gen_bool(0.5) {
                b.add(prod, p("wsdbm:caption"), misc[(i * 3) % n_misc]);
            }
            b.add(prod, p("wsdbm:price"), misc[(i * 7) % n_misc]);
        }
        // Retailers.
        for (i, &r) in retailers.iter().enumerate() {
            b.add(
                r,
                p("wsdbm:offers"),
                products[skewed_index(&mut rng, n_products, 1.5)],
            );
            b.add(r, p("wsdbm:legalName"), misc[i % n_misc]);
            b.add(r, p("wsdbm:locatedIn"), cities[i % n_cities]);
            b.add(r, p("wsdbm:homepage"), websites[i % n_websites]);
            b.add(r, p("wsdbm:contactPoint"), misc[(i + 1) % n_misc]);
            if i + 1 < n_retailers {
                b.add(r, p("wsdbm:parentCompany"), retailers[i + 1]);
            }
            let n_emp = 1 + skewed_index(&mut rng, 10, 1.5);
            for _ in 0..n_emp {
                b.add(r, p("wsdbm:employs"), users[rng.gen_range(0..n_users)]);
            }
        }
        // Websites.
        for (i, &w) in websites.iter().enumerate() {
            b.add(w, p("wsdbm:hostedBy"), retailers[i % n_retailers]);
            b.add(w, p("wsdbm:languageOf"), misc[i % n_misc]);
        }

        // Zipf-sized filler attribute partitions up to 86 predicates.
        for f in 0..FILLER_PREDS {
            let pred = b.pred(&format!("wsdbm:pA{f}"));
            let size = zipf_size(n_users * 2, f, 3);
            for _ in 0..size {
                let s = users[rng.gen_range(0..n_users)];
                let o = misc[rng.gen_range(0..n_misc)];
                b.add(s, pred, o);
            }
        }
        b.build()
    }

    /// Templates of one family.
    pub fn templates(&self, family: WatDivFamily) -> Vec<Template> {
        let genre_pool: Vec<String> = (0..5).map(|i| format!("wsdbm:Genre{i}")).collect();
        let product_pool: Vec<String> = (0..10).map(|i| format!("wsdbm:Product{i}")).collect();
        let retailer_pool: Vec<String> = (0..5).map(|i| format!("wsdbm:Retailer{i}")).collect();
        let city_pool: Vec<String> = (0..5).map(|i| format!("wsdbm:City{i}")).collect();
        let user_pool: Vec<String> = (0..10).map(|i| format!("wsdbm:User{i}")).collect();

        match family {
            WatDivFamily::L => vec![
                Template {
                    name: "watdiv-l1".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?u WHERE { ?u wsdbm:follows ?v . ?v wsdbm:likes ?p . ?p wsdbm:hasGenre $GENRE }".into(),
                    pools: vec![("GENRE".into(), genre_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-l2".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?u WHERE { ?u wsdbm:friendOf ?v . ?v wsdbm:makesPurchase ?pu . ?pu wsdbm:purchaseFor $PRODUCT }".into(),
                    pools: vec![("PRODUCT".into(), product_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-l3".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?p WHERE { ?p wsdbm:soldBy ?r . ?r wsdbm:locatedIn $CITY }".into(),
                    pools: vec![("CITY".into(), city_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-l4".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?u WHERE { ?u wsdbm:subscribesTo ?w . ?w wsdbm:hostedBy ?r . ?r wsdbm:legalName ?n }".into(),
                    pools: vec![],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-l5".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?rv WHERE { ?rv wsdbm:reviewOf ?p . ?p wsdbm:soldBy $RETAILER }".into(),
                    pools: vec![("RETAILER".into(), retailer_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-l6".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?n WHERE { $USER wsdbm:likes ?p . ?p wsdbm:soldBy ?r . ?r wsdbm:legalName ?n }".into(),
                    pools: vec![("USER".into(), user_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-l7".into(),
                    family: Family::Linear,
                    sparql: "SELECT ?u WHERE { ?u wsdbm:follows ?v . ?v wsdbm:follows ?w . ?w wsdbm:likes $PRODUCT }".into(),
                    pools: vec![("PRODUCT".into(), product_pool.clone())],
                    variants: vec![],
                },
            ],
            WatDivFamily::S => vec![
                Template {
                    name: "watdiv-s1".into(),
                    family: Family::Star,
                    sparql: "SELECT ?p ?t WHERE { ?p wsdbm:hasGenre $GENRE . ?p wsdbm:soldBy ?r . ?p wsdbm:title ?t . ?p wsdbm:price ?pr }".into(),
                    pools: vec![("GENRE".into(), genre_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-s2".into(),
                    family: Family::Star,
                    sparql: "SELECT ?r WHERE { ?r wsdbm:locatedIn $CITY . ?r wsdbm:legalName ?n . ?r wsdbm:homepage ?h }".into(),
                    pools: vec![("CITY".into(), city_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-s3".into(),
                    family: Family::Star,
                    sparql: "SELECT ?rv WHERE { ?rv wsdbm:reviewOf $PRODUCT . ?rv wsdbm:reviewer ?u . ?rv wsdbm:rating ?g }".into(),
                    pools: vec![("PRODUCT".into(), product_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-s4".into(),
                    family: Family::Star,
                    sparql: "SELECT ?u WHERE { ?u wsdbm:likes $PRODUCT . ?u wsdbm:subscribesTo ?w . ?u wsdbm:friendOf ?v }".into(),
                    pools: vec![("PRODUCT".into(), product_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-s5".into(),
                    family: Family::Star,
                    sparql: "SELECT ?p WHERE { ?p wsdbm:hasGenre $GENRE . ?p wsdbm:caption ?c . ?p wsdbm:hasReview ?rv }".into(),
                    pools: vec![("GENRE".into(), genre_pool.clone())],
                    variants: vec![],
                },
            ],
            WatDivFamily::F => vec![
                Template {
                    name: "watdiv-f1".into(),
                    family: Family::Snowflake,
                    sparql: "SELECT ?p ?u WHERE { ?p wsdbm:hasGenre $GENRE . ?p wsdbm:soldBy ?r . ?r wsdbm:locatedIn ?c . ?u wsdbm:likes ?p . ?u wsdbm:friendOf ?v }".into(),
                    pools: vec![("GENRE".into(), genre_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-f2".into(),
                    family: Family::Snowflake,
                    sparql: "SELECT ?u WHERE { ?u wsdbm:makesPurchase ?pu . ?pu wsdbm:purchaseFor ?p . ?p wsdbm:hasGenre $GENRE . ?p wsdbm:soldBy ?r }".into(),
                    pools: vec![("GENRE".into(), genre_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-f3".into(),
                    family: Family::Snowflake,
                    sparql: "SELECT ?rv WHERE { ?rv wsdbm:reviewOf ?p . ?rv wsdbm:reviewer ?u . ?u wsdbm:likes ?p . ?p wsdbm:soldBy $RETAILER }".into(),
                    pools: vec![("RETAILER".into(), retailer_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-f4".into(),
                    family: Family::Snowflake,
                    sparql: "SELECT ?w WHERE { ?w wsdbm:hostedBy ?r . ?r wsdbm:employs ?u . ?u wsdbm:subscribesTo ?w . ?r wsdbm:locatedIn $CITY }".into(),
                    pools: vec![("CITY".into(), city_pool.clone())],
                    variants: vec![],
                },
                Template {
                    name: "watdiv-f5".into(),
                    family: Family::Snowflake,
                    sparql: "SELECT ?p2 WHERE { ?u wsdbm:likes ?p1 . ?u wsdbm:likes ?p2 . ?p1 wsdbm:hasGenre $GENRE . ?p2 wsdbm:soldBy ?r }".into(),
                    pools: vec![("GENRE".into(), genre_pool.clone())],
                    variants: vec![],
                },
            ],
            WatDivFamily::C => vec![
                // Pure triangle, all-variable: the archetypal complex
                // pattern ("users who like the same product and are
                // friends"). See yago-prize-colleagues for why constants
                // are kept out of C-family templates.
                Template::with_variants(
                    "watdiv-c1",
                    Family::Complex,
                    "SELECT ?u1 ?u2 WHERE { ?u1 wsdbm:likes ?p . ?u2 wsdbm:likes ?p . ?u1 wsdbm:friendOf ?u2 }",
                    vec![
                        "SELECT ?u1 ?u2 WHERE { ?u1 wsdbm:likes ?p . ?u2 wsdbm:likes ?p . ?u1 wsdbm:follows ?u2 }",
                        "SELECT ?u1 ?u2 WHERE { ?u1 wsdbm:subscribesTo ?w . ?u2 wsdbm:subscribesTo ?w . ?u1 wsdbm:friendOf ?u2 }",
                    ],
                ),
                Template::with_variants(
                    "watdiv-c2",
                    Family::Complex,
                    "SELECT ?u ?v WHERE { ?u wsdbm:follows ?v . ?v wsdbm:follows ?u . ?u wsdbm:likes ?p . ?v wsdbm:likes ?p }",
                    vec![
                        "SELECT ?u ?v WHERE { ?u wsdbm:follows ?v . ?v wsdbm:follows ?u . ?u wsdbm:subscribesTo ?w . ?v wsdbm:subscribesTo ?w }",
                        "SELECT ?u ?v WHERE { ?u wsdbm:friendOf ?v . ?v wsdbm:friendOf ?u . ?u wsdbm:likes ?p . ?v wsdbm:likes ?p }",
                    ],
                ),
                Template::with_variants(
                    "watdiv-c3",
                    Family::Complex,
                    "SELECT ?u WHERE { ?u wsdbm:makesPurchase ?pu . ?pu wsdbm:purchaseFor ?p . ?rv wsdbm:reviewOf ?p . ?rv wsdbm:reviewer ?u }",
                    vec![
                        "SELECT ?u WHERE { ?u wsdbm:makesPurchase ?pu . ?pu wsdbm:purchaseFor ?p . ?u wsdbm:likes ?p }",
                        "SELECT ?u WHERE { ?rv wsdbm:reviewOf ?p . ?rv wsdbm:reviewer ?u . ?u wsdbm:likes ?p }",
                    ],
                ),
            ],
        }
    }

    /// One family's workload (e.g. `WatDiv-C`: 3 × 5 = 15 queries).
    pub fn workload(&self, family: WatDivFamily) -> Workload {
        let name = match family {
            WatDivFamily::L => "WatDiv-L",
            WatDivFamily::S => "WatDiv-S",
            WatDivFamily::F => "WatDiv-F",
            WatDivFamily::C => "WatDiv-C",
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ name.len() as u64);
        Workload::from_templates(name, &self.templates(family), 4, &mut rng)
    }

    /// The combined 100-query workload over all four families.
    pub fn combined_workload(&self) -> Workload {
        let mut queries = Vec::with_capacity(100);
        for f in [
            WatDivFamily::L,
            WatDivFamily::S,
            WatDivFamily::F,
            WatDivFamily::C,
        ] {
            queries.extend(self.workload(f).queries);
        }
        Workload {
            name: "WatDiv".into(),
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_core::identify;

    #[test]
    fn generates_86_predicates() {
        let ds = WatDivGen {
            users: 500,
            seed: 7,
        }
        .generate();
        assert_eq!(ds.stats().preds, 86, "Table 3: #-P = 86");
    }

    #[test]
    fn workload_sizes_match_table_3() {
        let g = WatDivGen::default();
        assert_eq!(g.workload(WatDivFamily::L).queries.len(), 35);
        assert_eq!(g.workload(WatDivFamily::S).queries.len(), 25);
        assert_eq!(g.workload(WatDivFamily::F).queries.len(), 25);
        assert_eq!(g.workload(WatDivFamily::C).queries.len(), 15);
        assert_eq!(g.combined_workload().queries.len(), 100);
    }

    #[test]
    fn complex_family_queries_are_complex() {
        let g = WatDivGen::default();
        for q in &g.workload(WatDivFamily::C).queries {
            assert!(identify(q).is_some(), "C-family query not complex: {q}");
        }
    }

    #[test]
    fn star_family_queries_are_not_complex() {
        let g = WatDivGen::default();
        for q in &g.workload(WatDivFamily::S).queries {
            assert!(identify(q).is_none(), "S-family query wrongly complex: {q}");
        }
    }

    #[test]
    fn queries_have_results_on_generated_data() {
        let ds = WatDivGen {
            users: 2_000,
            seed: 7,
        }
        .generate();
        let dual = kgdual_core::DualStore::from_dataset(ds, 0);
        let g = WatDivGen {
            users: 2_000,
            seed: 7,
        };
        let mut non_empty = 0usize;
        let mut total = 0usize;
        for family in [
            WatDivFamily::L,
            WatDivFamily::S,
            WatDivFamily::F,
            WatDivFamily::C,
        ] {
            for t in g.templates(family) {
                total += 1;
                let out = kgdual_core::process(&dual, &t.original(), Default::default()).unwrap();
                if !out.results.is_empty() {
                    non_empty += 1;
                }
            }
        }
        assert!(
            non_empty * 2 > total,
            "most templates must match data: {non_empty}/{total}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WatDivGen {
            users: 300,
            seed: 9,
        }
        .generate();
        let b = WatDivGen {
            users: 300,
            seed: 9,
        }
        .generate();
        assert_eq!(a.stats(), b.stats());
    }
}
