//! The paper report: the full paper's §6 experiments (Table 1, Figures
//! 3–8, Tables 5–6; Qi, Wang & Zhang, arXiv 2012.06966) as one
//! declarative table, [`EXPERIMENTS`], plus the rows of the drift-checked
//! TSV, [`TSV_ROWS`].
//!
//! Every variant run is a [`Cell`] — workload × order × variant × reps —
//! and [`Runs`] memoises each distinct cell by its key, so Figures 3/4,
//! Figure 5, Figure 8 and the TSV are views over the same
//! [`VariantResult`]s. The experiments outside that grid (Tables 1, 5,
//! 6 and Figure 7) are [`Body::Bespoke`] functions that share only the
//! memoised datasets. Every in-run assertion of those experiments fires
//! whenever the report renders: `kgdual-paper`, `kgdual-paper check`,
//! and this module's tier-1 test at a tiny scale.

mod bespoke;
pub mod tsv;

use crate::args::BenchArgs;
use crate::experiments::{
    run_restart_comparison, run_variant, RestartColumn, VariantKind, VariantResult, WorkloadKind,
};
use crate::setup::{build_batches, build_dataset, build_workload, Order};
use crate::table::{pct, TablePrinter};
use kgdual_model::Dataset;
use kgdual_sparql::Query;
use std::collections::HashMap;
use tsv::Tsv;

use Order::{Ordered, Random};
use VariantKind::{RdbGdbDotil, RdbGdbIdeal, RdbGdbLru, RdbGdbOneOff, RdbOnly, RdbViews};
use WorkloadKind::{Bio2Rdf, WatDivAll, WatDivC, WatDivF, WatDivL, WatDivS, Yago};

/// One workload in one order: what a figure panel plots.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Panel(pub WorkloadKind, pub Order);

impl Panel {
    /// The TSV's workload column: `YAGO`, or `WatDiv-random` for a
    /// shuffled panel.
    pub fn label(self) -> String {
        match self.1 {
            Ordered => self.0.name().to_owned(),
            Random => format!("{}-random", self.0.name()),
        }
    }
}

/// How many repetitions a cell runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Reps {
    /// `--reps`, the first dropped as warm-up.
    Harness,
    /// One pass from a cold store (Figure 6).
    Once,
}

/// The memo key of one variant run: panel (workload × order) × variant
/// × reps.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Cell(pub Panel, pub VariantKind, pub Reps);

/// `(a, b)` pairs reported as "a vs b" total simulated TTI differences.
type Versus = &'static [(VariantKind, VariantKind)];

/// How a grid of cells renders.
#[derive(Copy, Clone, Debug)]
pub enum Render {
    /// One table per panel: per-batch simulated TTI of each variant.
    Batches(Versus),
    /// One table, one row per panel: total simulated TTI per variant.
    Totals(Versus),
    /// One table per panel: the graph store's share of online work per
    /// batch (one variant).
    Shares,
}

/// Every panel × variant cell of one experiment.
#[derive(Copy, Clone, Debug)]
pub struct Grid {
    /// Workload panels.
    pub panels: &'static [Panel],
    /// Variants compared on each panel.
    pub variants: &'static [VariantKind],
    /// Repetitions of every cell.
    pub reps: Reps,
    /// Table shape.
    pub render: Render,
}

impl Grid {
    /// The grid's cells, panel-major.
    pub fn cells(self) -> impl Iterator<Item = Cell> {
        let (variants, reps) = (self.variants, self.reps);
        self.panels
            .iter()
            .flat_map(move |&p| variants.iter().map(move |&v| Cell(p, v, reps)))
    }
}

/// What an experiment runs.
#[derive(Copy, Clone)]
pub enum Body {
    /// Variant cells.
    Grid(Grid),
    /// Figure 6's restart comparison on one panel.
    Restart(Panel),
    /// A measurement outside the variant grid, rendered to markdown.
    Bespoke(fn(&mut Runs) -> String),
}

/// One paper artifact.
#[derive(Copy, Clone)]
pub struct Experiment {
    /// `Table 1`, `Figure 3`, …
    pub artifact: &'static str,
    /// What it shows.
    pub caption: &'static str,
    /// What it runs and how it renders.
    pub body: Body,
}

const fn grid(
    panels: &'static [Panel],
    variants: &'static [VariantKind],
    reps: Reps,
    render: Render,
) -> Body {
    Body::Grid(Grid {
        panels,
        variants,
        reps,
        render,
    })
}

const STORES: &[VariantKind] = &[RdbOnly, RdbViews, RdbGdbDotil];
const TUNERS: &[VariantKind] = &[RdbGdbDotil, RdbGdbOneOff, RdbGdbLru, RdbGdbIdeal];
const BASELINE_TUNERS: &[VariantKind] = &[RdbGdbOneOff, RdbGdbLru, RdbGdbIdeal];
const VS_STORES: Versus = &[(RdbGdbDotil, RdbOnly), (RdbGdbDotil, RdbViews)];

/// The six per-workload panels of Figures 3 (ordered) and 4 (random).
const fn per_workload(o: Order) -> [Panel; 6] {
    [
        Panel(Yago, o),
        Panel(WatDivL, o),
        Panel(WatDivS, o),
        Panel(WatDivF, o),
        Panel(WatDivC, o),
        Panel(Bio2Rdf, o),
    ]
}
/// The four panels of Figures 5 and 8.
const TOTALS: &[Panel] = &[
    Panel(Yago, Ordered),
    Panel(WatDivAll, Ordered),
    Panel(WatDivAll, Random),
    Panel(Bio2Rdf, Ordered),
];

/// The paper's §6 experiments, in report order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        artifact: "Table 1",
        caption: "latency of the advisor-same-city query by store and data size",
        body: Body::Bespoke(bespoke::table1),
    },
    Experiment {
        artifact: "Figure 3",
        caption: "per-batch simulated TTI (s), ordered workloads",
        body: grid(
            &per_workload(Ordered),
            STORES,
            Reps::Harness,
            Render::Batches(VS_STORES),
        ),
    },
    Experiment {
        artifact: "Figure 4",
        caption: "per-batch simulated TTI (s), random workloads",
        body: grid(
            &per_workload(Random),
            STORES,
            Reps::Harness,
            Render::Batches(VS_STORES),
        ),
    },
    Experiment {
        artifact: "Figure 5",
        caption: "total simulated TTI (s) per workload and store variant",
        body: grid(TOTALS, STORES, Reps::Harness, Render::Totals(VS_STORES)),
    },
    Experiment {
        artifact: "Table 5",
        caption: "DOTIL parameter tuning on half of the random YAGO workload",
        body: Body::Bespoke(bespoke::table5),
    },
    Experiment {
        artifact: "Figure 6",
        caption: "graph-store share of online work per batch (cold start, one pass)",
        body: grid(
            &[Panel(Yago, Ordered), Panel(Yago, Random)],
            &[RdbGdbDotil],
            Reps::Once,
            Render::Shares,
        ),
    },
    Experiment {
        artifact: "Figure 6 (restart)",
        caption: "persisted design vs cold start, ordered YAGO",
        body: Body::Restart(Panel(Yago, Ordered)),
    },
    Experiment {
        artifact: "Table 6",
        caption: "graph-store slowdown with limited spare resources",
        body: Body::Bespoke(bespoke::table6),
    },
    Experiment {
        artifact: "Figure 7",
        caption: "IO/CPU consumed by the graph store over time (40% spare IO; sampled \
                  on wall-clock intervals, so every number varies run to run)",
        body: Body::Bespoke(bespoke::fig7),
    },
    Experiment {
        artifact: "Figure 8",
        caption: "total simulated TTI (s) per tuner (RDB-GDB is DOTIL)",
        body: grid(
            TOTALS,
            TUNERS,
            Reps::Harness,
            Render::Totals(&[(RdbGdbDotil, RdbGdbIdeal)]),
        ),
    },
];

/// One section of `deterministic.tsv`.
#[derive(Copy, Clone, Debug)]
pub enum TsvRows {
    /// One row per variant, at `--reps`; the workload column is
    /// [`Panel::label`].
    Grid(Panel, &'static [VariantKind]),
    /// The restart comparison's columns; the workload column is the
    /// panel's label suffixed `-restart`.
    Restart(Panel),
}

/// The rows of `deterministic.tsv`, in file order: every store variant
/// on the seven workloads, the Figure 6 restart columns, then Figure 8's
/// baseline tuners and the WatDiv random panel.
pub const TSV_ROWS: &[TsvRows] = &[
    TsvRows::Grid(Panel(Yago, Ordered), STORES),
    TsvRows::Grid(Panel(WatDivL, Ordered), STORES),
    TsvRows::Grid(Panel(WatDivS, Ordered), STORES),
    TsvRows::Grid(Panel(WatDivF, Ordered), STORES),
    TsvRows::Grid(Panel(WatDivC, Ordered), STORES),
    TsvRows::Grid(Panel(WatDivAll, Ordered), STORES),
    TsvRows::Grid(Panel(Bio2Rdf, Ordered), STORES),
    TsvRows::Restart(Panel(Yago, Ordered)),
    TsvRows::Grid(Panel(Yago, Ordered), BASELINE_TUNERS),
    TsvRows::Grid(Panel(WatDivAll, Ordered), BASELINE_TUNERS),
    TsvRows::Grid(Panel(WatDivAll, Random), STORES),
    TsvRows::Grid(Panel(WatDivAll, Random), BASELINE_TUNERS),
    TsvRows::Grid(Panel(Bio2Rdf, Ordered), BASELINE_TUNERS),
];

/// The memo of one report run: datasets per workload, batches per
/// panel, and each distinct cell's result, each computed once.
#[derive(Default)]
pub struct Runs {
    args: BenchArgs,
    datasets: HashMap<WorkloadKind, Dataset>,
    batches: HashMap<Panel, Vec<Vec<Query>>>,
    variants: HashMap<Cell, VariantResult>,
    restarts: HashMap<Panel, Vec<RestartColumn>>,
}

impl Runs {
    /// An empty memo for runs at `args`.
    pub fn new(args: BenchArgs) -> Self {
        Runs {
            args,
            ..Default::default()
        }
    }

    /// The dataset and batches of `panel`, generated on first use.
    fn inputs(&mut self, Panel(kind, order): Panel) -> (&Dataset, &[Vec<Query>]) {
        let args = &self.args;
        let dataset = self
            .datasets
            .entry(kind)
            .or_insert_with(|| build_dataset(kind, args));
        let batches = self
            .batches
            .entry(Panel(kind, order))
            .or_insert_with(|| build_batches(&build_workload(kind, args), order, args.seed));
        (dataset, batches)
    }

    /// The result of `cell`, run on first use.
    pub fn variant(&mut self, cell: Cell) -> &VariantResult {
        if !self.variants.contains_key(&cell) {
            let Cell(panel, variant, reps) = cell;
            let reps = match reps {
                Reps::Harness => self.args.reps,
                Reps::Once => 1,
            };
            let shards = self.args.shards;
            let (dataset, batches) = self.inputs(panel);
            let result = run_variant(variant, dataset, batches, reps, shards);
            self.variants.insert(cell, result);
        }
        &self.variants[&cell]
    }

    /// The restart comparison on `panel`, run on first use.
    pub fn restart(&mut self, panel: Panel) -> &[RestartColumn] {
        if !self.restarts.contains_key(&panel) {
            let shards = self.args.shards;
            let (dataset, batches) = self.inputs(panel);
            let columns = run_restart_comparison(dataset, batches, shards);
            self.restarts.insert(panel, columns);
        }
        &self.restarts[&panel]
    }

    /// The `deterministic.tsv` rows whose workload column passes `keep`.
    pub fn tsv(&mut self, keep: impl Fn(&str) -> bool) -> Tsv {
        let mut tsv = Tsv::new(&self.args);
        for &rows in TSV_ROWS {
            let label = match rows {
                TsvRows::Grid(panel, _) => panel.label(),
                TsvRows::Restart(panel) => format!("{}-restart", panel.label()),
            };
            if !keep(&label) {
                continue;
            }
            match rows {
                TsvRows::Grid(panel, variants) => {
                    for &v in variants {
                        let r = self.variant(Cell(panel, v, Reps::Harness));
                        tsv.push(&label, r.variant, &r.reports);
                    }
                }
                TsvRows::Restart(panel) => {
                    for c in self.restart(panel) {
                        tsv.push(&label, c.name, &c.reports);
                    }
                }
            }
        }
        tsv
    }

    /// Run every experiment and render `docs/paper_report.md`.
    pub fn markdown(&mut self) -> String {
        let args = &self.args;
        let mut out = format!(
            "# Paper report\n\n\
             The §6 experiments of the full paper (Qi, Wang & Zhang, arXiv \
             2012.06966), regenerated by `kgdual-paper` at {}, seed {}, reps {}.\n\n\
             Simulated TTI, work units, result rows, routes, graph shares and \
             Q-matrices are deterministic; `kgdual-paper check` drift-checks \
             their totals in `docs/baselines/deterministic.tsv`. Columns headed \
             `wall` are wall-clock readings on the host that ran the report: \
             informational, never compared.\n",
            args.describe(),
            args.seed,
            args.reps
        );
        for exp in EXPERIMENTS {
            out.push_str(&format!("\n## {} — {}\n\n", exp.artifact, exp.caption));
            out.push_str(&match exp.body {
                Body::Grid(grid) => self.render_grid(grid),
                Body::Restart(panel) => render_restart(self.restart(panel)),
                Body::Bespoke(f) => f(self),
            });
        }
        out
    }

    fn render_grid(&mut self, grid: Grid) -> String {
        for cell in grid.cells() {
            self.variant(cell);
        }
        let results = |panel| -> Vec<&VariantResult> {
            let cells = grid.variants.iter().map(|&v| Cell(panel, v, grid.reps));
            cells.map(|c| &self.variants[&c]).collect()
        };
        let (Render::Batches(versus) | Render::Totals(versus)) = grid.render else {
            return render_shares(grid.panels.iter().map(|&p| (p, results(p)[0])));
        };
        let label = |&(a, b): &(VariantKind, VariantKind)| format!("{} vs {}", a.name(), b.name());
        let diffs = |results: &[&VariantResult]| -> Vec<String> {
            let tti = |v: VariantKind| {
                let r = results.iter().find(|r| r.variant == v.name());
                r.map_or(f64::NAN, |r| r.sim_tti_secs())
            };
            versus
                .iter()
                .map(|&(a, b)| pct((tti(a) - tti(b)) / tti(b)))
                .collect()
        };
        if let Render::Totals(_) = grid.render {
            let mut header = vec!["workload".to_owned(), "order".to_owned()];
            header.extend(grid.variants.iter().map(|v| v.name().to_owned()));
            header.extend(versus.iter().map(label));
            let mut table = TablePrinter::new(header);
            for &panel in grid.panels {
                let results = results(panel);
                let mut cells = vec![panel.0.name().to_owned(), panel.1.name().to_owned()];
                cells.extend(results.iter().map(|r| format!("{:.4}", r.sim_tti_secs())));
                cells.extend(diffs(&results));
                table.row(cells);
            }
            return table.render();
        }
        let mut sections = Vec::new();
        for &panel in grid.panels {
            let results = results(panel);
            let mut header = vec!["variant".to_owned()];
            header.extend((1..=results[0].reports.len()).map(|b| format!("batch{b}")));
            header.extend(["total".to_owned(), "wall total".to_owned()]);
            let mut table = TablePrinter::new(header);
            for r in &results {
                let mut cells = vec![r.variant.to_owned()];
                cells.extend(r.sim_batch_secs().map(|b| format!("{b:.4}")));
                cells.push(format!("{:.4}", r.sim_tti_secs()));
                cells.push(format!("{:.4}", r.wall_tti_secs));
                table.row(cells);
            }
            let mut section = format!(
                "### {} ({})\n\n{}\n",
                panel.0.name(),
                panel.1.name(),
                table.render()
            );
            for (pair, diff) in versus.iter().zip(diffs(&results)) {
                section.push_str(&format!("- {}: {diff} TTI\n", label(pair)));
            }
            sections.push(section);
        }
        sections.join("\n")
    }
}

fn render_shares<'a>(panels: impl Iterator<Item = (Panel, &'a VariantResult)>) -> String {
    let mut sections = Vec::new();
    for (panel, result) in panels {
        let mut table = TablePrinter::new(vec![
            "batch",
            "graph share of work",
            "graph work",
            "total work",
            "graph routes",
            "dual routes",
            "relational routes",
        ]);
        for r in &result.reports {
            table.row(vec![
                (r.batch_index + 1).to_string(),
                format!("{:.1}%", r.graph_work_share() * 100.0),
                r.graph_work.to_string(),
                r.total_work.to_string(),
                r.routes.graph.to_string(),
                r.routes.dual.to_string(),
                r.routes.relational.to_string(),
            ]);
        }
        sections.push(format!(
            "### {} {}\n\n{}",
            panel.1.name(),
            panel.0.name(),
            table.render()
        ));
    }
    sections.join("\n")
}

fn render_restart(columns: &[RestartColumn]) -> String {
    let mut table = TablePrinter::new(vec![
        "run",
        "sim TTI (ms)",
        "total work",
        "result rows",
        "batch-1 graph share",
    ]);
    for c in columns {
        table.row(vec![
            c.name.to_owned(),
            format!("{:.3}", c.sim_tti_secs * 1e3),
            c.total_work.to_string(),
            c.result_rows.to_string(),
            format!("{:.1}%", c.first_batch_graph_share * 100.0),
        ]);
    }
    let (cold, warm) = (&columns[0], &columns[1]);
    format!(
        "{}\nThe warm restart erases {:.1}% of the cold-start TTI.\n",
        table.render(),
        (1.0 - warm.sim_tti_secs / cold.sim_tti_secs) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every declared experiment renders, and every in-run assertion
    /// fires, at a tiny scale; the memo holds exactly the declared cells.
    #[test]
    fn every_experiment_renders_at_tiny_scale() {
        let mut runs = Runs::new(BenchArgs {
            scale: 0.0005,
            ..Default::default()
        });
        let markdown = runs.markdown();
        let tsv = runs.tsv(|_| true);
        for exp in EXPERIMENTS {
            let heading = format!("## {} — {}", exp.artifact, exp.caption);
            assert!(markdown.contains(&heading), "missing {heading}");
        }
        let mut declared: HashSet<Cell> = EXPERIMENTS
            .iter()
            .filter_map(|e| match e.body {
                Body::Grid(g) => Some(g.cells()),
                _ => None,
            })
            .flatten()
            .collect();
        for rows in TSV_ROWS {
            if let TsvRows::Grid(p, v) = *rows {
                declared.extend(v.iter().map(|&v| Cell(p, v, Reps::Harness)));
            }
        }
        assert_eq!(runs.variants.len(), declared.len());
        // The TSV round-trips through its own parser without drift.
        let parsed = Tsv::parse(&tsv.render()).unwrap();
        assert_eq!(parsed.diff(&tsv), Vec::<String>::new());
    }
}
