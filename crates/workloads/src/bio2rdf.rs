//! Bio2RDF-like knowledge graph generator.
//!
//! The paper's Bio2RDF slice combines iRefIndex, OMIM, PharmGKB and
//! PubMed: genes, proteins, drugs, diseases, and articles, 161 predicates,
//! 60.2 M triples. This generator reproduces the entity-relationship
//! structure (gene→protein coding, protein interaction networks, drug
//! targets, disease associations, literature links) and the predicate
//! count; 5 templates × 5 instances give the paper's 25-query workload.

use crate::util::{skewed_index, zipf_size};
use crate::workload::{Family, Template, Workload};
use kgdual_model::{Dataset, DatasetBuilder, NodeId, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Copy, Clone, Debug)]
pub struct Bio2RdfGen {
    /// Number of genes (total triples ≈ 26 × genes; the 145 filler
    /// partitions carry a realistic query-untouched long tail).
    pub genes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Bio2RdfGen {
    fn default() -> Self {
        Bio2RdfGen {
            genes: 5_000,
            seed: 11,
        }
    }
}

/// Core biology predicates; fillers `bio:px{i}` bring the count to 161.
const CORE_PREDS: [&str; 16] = [
    "bio:encodes",
    "bio:expressedIn",
    "bio:interactsWith",
    "bio:targets",
    "bio:treats",
    "bio:associatedWith",
    "bio:mentions",
    "bio:cites",
    "bio:classifiedAs",
    "bio:locatedOn",
    "bio:orthologOf",
    "bio:xRef",
    "bio:hasSideEffect",
    "bio:involvedIn",
    "bio:partOf",
    "bio:hasVariant",
];

const FILLER_PREDS: usize = 145; // 16 + 145 = 161 = Table 3's #-P

impl Bio2RdfGen {
    /// Calibrate gene count so the dataset lands near `triples`.
    pub fn with_target_triples(triples: usize, seed: u64) -> Self {
        Bio2RdfGen {
            genes: (triples / 24).max(100),
            seed,
        }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut b = DatasetBuilder::new();
        let n_genes = self.genes;
        let n_proteins = n_genes;
        let n_drugs = (n_genes / 5).max(20);
        let n_diseases = (n_genes / 10).max(20);
        let n_articles = n_genes;
        let n_tissues = 60.min(n_genes).max(10);
        let n_chromosomes = 24;
        let n_classes = 30.min(n_drugs).max(5);
        let n_pathways = (n_genes / 20).max(10);
        let n_misc = (n_genes / 5).max(20);

        let pool = |b: &mut DatasetBuilder, prefix: &str, count: usize| -> Vec<NodeId> {
            (0..count)
                .map(|i| b.node(&Term::iri(format!("bio:{prefix}{i}"))))
                .collect()
        };
        let genes = pool(&mut b, "Gene", n_genes);
        let proteins = pool(&mut b, "Protein", n_proteins);
        let drugs = pool(&mut b, "Drug", n_drugs);
        let diseases = pool(&mut b, "Disease", n_diseases);
        let articles = pool(&mut b, "Article", n_articles);
        let tissues = pool(&mut b, "Tissue", n_tissues);
        let chromosomes = pool(&mut b, "Chr", n_chromosomes);
        let classes = pool(&mut b, "Class", n_classes);
        let pathways = pool(&mut b, "Pathway", n_pathways);
        let misc = pool(&mut b, "Misc", n_misc);

        let pid = {
            let mut map = std::collections::HashMap::new();
            for p in CORE_PREDS {
                map.insert(p, b.pred(p));
            }
            map
        };
        let p = |name: &str| pid[name];

        // Genes encode proteins, sit on chromosomes, express in tissues.
        for (i, &g) in genes.iter().enumerate() {
            b.add(g, p("bio:encodes"), proteins[i]);
            b.add(
                g,
                p("bio:locatedOn"),
                chromosomes[skewed_index(&mut rng, n_chromosomes, 1.5)],
            );
            let n_tis = 1 + skewed_index(&mut rng, 3, 1.5);
            for _ in 0..n_tis {
                b.add(
                    g,
                    p("bio:expressedIn"),
                    tissues[skewed_index(&mut rng, n_tissues, 2.0)],
                );
            }
            if rng.gen_bool(0.4) {
                b.add(
                    g,
                    p("bio:associatedWith"),
                    diseases[skewed_index(&mut rng, n_diseases, 2.0)],
                );
            }
            if rng.gen_bool(0.3) {
                let o = genes[rng.gen_range(0..n_genes)];
                if o != g {
                    b.add(g, p("bio:orthologOf"), o);
                }
            }
            if rng.gen_bool(0.5) {
                b.add(g, p("bio:hasVariant"), misc[rng.gen_range(0..n_misc)]);
            }
            b.add(g, p("bio:xRef"), misc[i % n_misc]);
        }
        // Protein interaction network (scale-free-ish) and pathways.
        for (i, &pr) in proteins.iter().enumerate() {
            let n_int = skewed_index(&mut rng, 5, 1.5);
            for _ in 0..n_int {
                let q = proteins[skewed_index(&mut rng, n_proteins, 2.5)];
                if q != pr {
                    b.add(pr, p("bio:interactsWith"), q);
                }
            }
            if rng.gen_bool(0.4) {
                b.add(
                    pr,
                    p("bio:involvedIn"),
                    pathways[skewed_index(&mut rng, n_pathways, 2.0)],
                );
            }
            if rng.gen_bool(0.2) {
                b.add(pr, p("bio:partOf"), misc[i % n_misc]);
            }
        }
        // Drugs target proteins, treat diseases, carry classes/side effects.
        for (i, &d) in drugs.iter().enumerate() {
            let n_targets = 1 + skewed_index(&mut rng, 4, 1.5);
            for _ in 0..n_targets {
                b.add(
                    d,
                    p("bio:targets"),
                    proteins[skewed_index(&mut rng, n_proteins, 2.5)],
                );
            }
            if rng.gen_bool(0.8) {
                b.add(
                    d,
                    p("bio:treats"),
                    diseases[skewed_index(&mut rng, n_diseases, 2.0)],
                );
            }
            b.add(
                d,
                p("bio:classifiedAs"),
                classes[skewed_index(&mut rng, n_classes, 1.5)],
            );
            if rng.gen_bool(0.5) {
                b.add(d, p("bio:hasSideEffect"), misc[i % n_misc]);
            }
        }
        // Literature: articles mention genes/drugs and cite each other.
        for (i, &a) in articles.iter().enumerate() {
            if rng.gen_bool(0.7) {
                b.add(
                    a,
                    p("bio:mentions"),
                    genes[skewed_index(&mut rng, n_genes, 2.5)],
                );
            }
            if rng.gen_bool(0.3) {
                b.add(
                    a,
                    p("bio:mentions"),
                    drugs[skewed_index(&mut rng, n_drugs, 2.5)],
                );
            }
            if i > 0 && rng.gen_bool(0.5) {
                b.add(a, p("bio:cites"), articles[rng.gen_range(0..i)]);
            }
        }

        // Filler predicates up to 161.
        for f in 0..FILLER_PREDS {
            let pred = b.pred(&format!("bio:px{f}"));
            let size = zipf_size(n_genes * 2, f, 2);
            for _ in 0..size {
                let s = genes[rng.gen_range(0..n_genes)];
                let o = misc[rng.gen_range(0..n_misc)];
                b.add(s, pred, o);
            }
        }
        b.build()
    }

    /// The five Bio2RDF templates (25-query workload).
    pub fn templates(&self) -> Vec<Template> {
        let disease_pool: Vec<String> = (0..10).map(|i| format!("bio:Disease{i}")).collect();
        let gene_pool: Vec<String> = (0..10).map(|i| format!("bio:Gene{i}")).collect();
        let tissue_pool: Vec<String> = (0..5).map(|i| format!("bio:Tissue{i}")).collect();
        vec![
            Template::with_variants(
                "bio-dual-target",
                Family::Complex,
                "SELECT ?d WHERE { ?d bio:targets ?p1 . ?d bio:targets ?p2 . ?p1 bio:interactsWith ?p2 }",
                vec![
                    "SELECT ?d WHERE { ?d bio:targets ?p1 . ?d2 bio:targets ?p1 . ?d bio:classifiedAs ?c . ?d2 bio:classifiedAs ?c }",
                    "SELECT ?d WHERE { ?d bio:targets ?p1 . ?d bio:targets ?p2 . ?p1 bio:involvedIn ?w . ?p2 bio:involvedIn ?w }",
                ],
            ),
            Template::with_variants(
                "bio-same-chr-disease",
                Family::Complex,
                "SELECT ?g1 ?g2 WHERE { ?g1 bio:locatedOn ?c . ?g2 bio:locatedOn ?c . \
                 ?g1 bio:associatedWith ?dis . ?g2 bio:associatedWith ?dis }",
                vec![
                    "SELECT ?g1 ?g2 WHERE { ?g1 bio:expressedIn ?t . ?g2 bio:expressedIn ?t . \
                     ?g1 bio:associatedWith ?dis . ?g2 bio:associatedWith ?dis }",
                    "SELECT ?g1 ?g2 WHERE { ?g1 bio:locatedOn ?c . ?g2 bio:locatedOn ?c . \
                     ?g1 bio:orthologOf ?g2 }",
                ],
            ),
            Template::with_variants(
                "bio-literature-bridge",
                Family::Complex,
                "SELECT ?a WHERE { ?a bio:mentions ?g . ?a bio:mentions ?d . \
                 ?g bio:encodes ?pr . ?d bio:targets ?pr }",
                vec![
                    "SELECT ?a WHERE { ?a bio:mentions ?g1 . ?a bio:mentions ?g2 . ?g1 bio:orthologOf ?g2 }",
                    "SELECT ?a WHERE { ?a bio:cites ?b . ?a bio:mentions ?g . ?b bio:mentions ?g }",
                ],
            ),
            Template {
                name: "bio-treatment-lookup".into(),
                family: Family::Lookup,
                sparql: "SELECT ?d ?c WHERE { ?d bio:treats $DISEASE . ?d bio:classifiedAs ?c }".into(),
                pools: vec![("DISEASE".into(), disease_pool)],
                variants: vec![],
            },
            Template {
                name: "bio-gene-star".into(),
                family: Family::Star,
                sparql: "SELECT ?t ?c WHERE { $GENE bio:expressedIn ?t . $GENE bio:locatedOn ?c . $GENE bio:expressedIn $TISSUE }".into(),
                pools: vec![("GENE".into(), gene_pool), ("TISSUE".into(), tissue_pool)],
                variants: vec![],
            },
        ]
    }

    /// Build the 25-query ordered workload.
    pub fn workload(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xb10);
        Workload::from_templates("Bio2RDF", &self.templates(), 4, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgdual_core::identify;

    #[test]
    fn generates_161_predicates() {
        let ds = Bio2RdfGen {
            genes: 400,
            seed: 11,
        }
        .generate();
        assert_eq!(ds.stats().preds, 161, "Table 3: #-P = 161");
    }

    #[test]
    fn workload_is_25_queries() {
        let w = Bio2RdfGen::default().workload();
        assert_eq!(w.queries.len(), 25, "Table 3: #-queries = 25");
        let complex = w.queries.iter().filter(|q| identify(q).is_some()).count();
        assert!(
            complex >= 15,
            "three of five templates are complex: {complex}"
        );
    }

    #[test]
    fn complex_templates_match_data() {
        let g = Bio2RdfGen {
            genes: 2_000,
            seed: 11,
        };
        let ds = g.generate();
        let dual = kgdual_core::DualStore::from_dataset(ds, 0);
        // The dual-target motif must yield results on generated data.
        let out =
            kgdual_core::process(&dual, &g.templates()[0].original(), Default::default()).unwrap();
        assert!(!out.results.is_empty(), "dual-target drugs must exist");
        let out2 =
            kgdual_core::process(&dual, &g.templates()[1].original(), Default::default()).unwrap();
        assert!(
            !out2.results.is_empty(),
            "same-chromosome disease genes must exist"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Bio2RdfGen {
            genes: 300,
            seed: 5,
        }
        .generate();
        let b = Bio2RdfGen {
            genes: 300,
            seed: 5,
        }
        .generate();
        assert_eq!(a.stats(), b.stats());
    }
}
