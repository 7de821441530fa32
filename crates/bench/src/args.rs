//! Minimal command-line argument parsing for the harness binaries.

use std::str::FromStr;

/// Common harness options.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Fraction of the paper's data size to generate (default 0.01).
    pub scale: f64,
    /// RNG seed for data and workload generation.
    pub seed: u64,
    /// Repetitions per measurement; the first warms caches/stores and is
    /// dropped from the average, mirroring the paper's run-6-keep-5 setup.
    pub reps: usize,
    /// Worker threads for the concurrent batch executor (`kgdual-exec`):
    /// `--threads N` (the `KGDUAL_THREADS` env var sets the default,
    /// exactly like `KGDUAL_SHARDS` below). 1 (the
    /// default) means serial; >1 runs the pooled executor and serving
    /// binaries on that many workers. Every harness
    /// binary resolves its worker count through this one field — the
    /// scheduler pool size is never hard-coded at a call site.
    pub threads: usize,
    /// Relational shards: `--shards N` (default 1, the monolithic
    /// layout; the `KGDUAL_SHARDS` env var sets the default).
    /// Deterministic metrics are shard-invariant by
    /// construction — the flag changes physical layout and intra-query
    /// parallelism only.
    pub shards: usize,
    /// Serving port for `serve_store` / `bench_serve`: `--port N` (the
    /// `KGDUAL_PORT` env var sets the default, same one-path precedence
    /// as `KGDUAL_THREADS`). 0 (the default) asks the OS for a free
    /// port, which the server reports on startup.
    pub port: u16,
    /// Concurrent load-generator clients: `--clients N` (env default
    /// `KGDUAL_CLIENTS`, minimum 1).
    pub clients: usize,
    /// `--obs-out <path>`: enable kgdual-obs recording for the run and
    /// write the final metrics snapshot (JSON form) to `path` on exit
    /// (see [`crate::obs::write_obs_profile`]). `None` leaves recording
    /// at whatever `KGDUAL_OBS` selected.
    pub obs_out: Option<String>,
    /// Remaining free-form flags (`--key value`).
    pub extra: Vec<(String, String)>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.01,
            seed: 42,
            reps: 2,
            threads: 1,
            shards: 1,
            port: 0,
            clients: 8,
            obs_out: None,
            extra: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parse `--key value` pairs from `std::env::args`. The shard and
    /// worker-thread counts default from `KGDUAL_SHARDS` /
    /// `KGDUAL_THREADS` (so a script can select them without touching
    /// every invocation); explicit `--shards` / `--threads` flags win. A
    /// malformed flag value exits with status 2, naming the flag.
    pub fn parse() -> Self {
        let mut base = Self::default();
        // Counts need at least 1; port 0 means "any free port".
        let count = |var| env(var).filter(|&n| n >= 1);
        base.shards = count("KGDUAL_SHARDS").unwrap_or(base.shards);
        base.threads = count("KGDUAL_THREADS").unwrap_or(base.threads);
        base.port = env("KGDUAL_PORT").unwrap_or(base.port);
        base.clients = count("KGDUAL_CLIENTS").unwrap_or(base.clients);
        Self::parse_into(base, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parse from an explicit iterator (testable; no env defaults).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::parse_into(Self::default(), args)
    }

    fn parse_into<I: IntoIterator<Item = String>>(mut out: Self, args: I) -> Result<Self, String> {
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let Some(key) = flag.strip_prefix("--") else {
                eprintln!("ignoring positional argument `{flag}`");
                continue;
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} is missing a value"))?;
            match key {
                "scale" => out.scale = value_of(key, &value)?,
                "seed" => out.seed = value_of(key, &value)?,
                "reps" => out.reps = value_of::<usize>(key, &value)?.max(1),
                "threads" => out.threads = value_of::<usize>(key, &value)?.max(1),
                "shards" => out.shards = value_of::<usize>(key, &value)?.max(1),
                "port" => out.port = value_of(key, &value)?,
                "clients" => out.clients = value_of::<usize>(key, &value)?.max(1),
                "obs-out" => out.obs_out = Some(value),
                _ => out.extra.push((key.to_owned(), value)),
            }
        }
        Ok(out)
    }

    /// Look up a free-form flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A free-form flag read as a boolean (`--restart true`).
    pub fn get_bool(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// The standard one-line run description every harness binary prints
    /// in its header: scale, shard count, and (when parallel) the
    /// worker-thread count.
    pub fn describe(&self) -> String {
        let mut out = format!("scale {}, {} shard(s)", self.scale, self.shards);
        if self.threads > 1 {
            out.push_str(&format!(", {} threads", self.threads));
        }
        out
    }

    /// Triples to generate for a dataset whose paper-scale size is
    /// `paper_triples`.
    pub fn triples(&self, paper_triples: usize) -> usize {
        ((paper_triples as f64 * self.scale) as usize).max(2_000)
    }
}

/// Parse one flag's value; a malformed value is an error naming the flag.
fn value_of<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("flag --{key} has a malformed value `{value}`"))
}

/// An env default (None when unset or unparsable).
fn env<T: FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> BenchArgs {
        BenchArgs::parse_from(s.split_whitespace().map(str::to_owned)).unwrap()
    }

    #[test]
    fn defaults() {
        let a = parse("");
        assert_eq!(a.scale, 0.01);
        assert_eq!(a.seed, 42);
        assert_eq!(a.reps, 2);
        assert_eq!(a.threads, 1);
    }

    #[test]
    fn parses_known_flags() {
        let a = parse("--scale 0.1 --seed 7 --reps 5 --threads 8");
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.seed, 7);
        assert_eq!(a.reps, 5);
        assert_eq!(a.threads, 8);
    }

    #[test]
    fn malformed_values_are_errors_naming_the_flag() {
        let err = |s: &str| BenchArgs::parse_from(s.split_whitespace().map(str::to_owned));
        let e = err("--scale 0,002").unwrap_err();
        assert!(e.contains("--scale") && e.contains("0,002"), "{e}");
        let e = err("--seed 42 --reps two").unwrap_err();
        assert!(e.contains("--reps"), "{e}");
        let e = err("--port 70000").unwrap_err();
        assert!(e.contains("--port"), "{e}");
        let e = err("--shards").unwrap_err();
        assert!(e.contains("--shards") && e.contains("missing"), "{e}");
    }

    #[test]
    fn parses_obs_out() {
        assert_eq!(parse("").obs_out, None);
        let a = parse("--obs-out /tmp/profile.json");
        assert_eq!(a.obs_out.as_deref(), Some("/tmp/profile.json"));
    }

    #[test]
    fn threads_minimum_one() {
        assert_eq!(parse("--threads 0").threads, 1);
    }

    #[test]
    fn free_form_flags_and_lookup() {
        let a = parse("--workload yago --foo bar --restart true --quick false");
        assert_eq!(a.get("workload"), Some("yago"));
        assert_eq!(a.get("foo"), Some("bar"));
        assert_eq!(a.get("missing"), None);
        assert!(a.get_bool("restart"));
        assert!(!a.get_bool("quick"));
        assert!(!a.get_bool("missing"));
    }

    #[test]
    fn shards_flag_parses_with_minimum_one() {
        assert_eq!(parse("").shards, 1);
        assert_eq!(parse("--shards 8").shards, 8);
        assert_eq!(parse("--shards 0").shards, 1);
    }

    #[test]
    fn describe_names_the_run_configuration() {
        let d = parse("--scale 0.002 --shards 4").describe();
        assert_eq!(d, "scale 0.002, 4 shard(s)");
        let d = parse("--threads 8").describe();
        assert!(d.ends_with("8 threads"), "{d}");
    }

    #[test]
    fn triples_scaling_with_floor() {
        let a = parse("--scale 0.01");
        assert_eq!(a.triples(16_400_000), 164_000);
        assert_eq!(a.triples(10), 2_000, "floor keeps datasets non-trivial");
    }

    #[test]
    fn reps_minimum_one() {
        assert_eq!(parse("--reps 0").reps, 1);
    }

    #[test]
    fn port_and_clients_flags_parse_with_sane_bounds() {
        let a = parse("");
        assert_eq!((a.port, a.clients), (0, 8));
        let a = parse("--port 7878 --clients 32");
        assert_eq!((a.port, a.clients), (7878, 32));
        // Port 0 is legal (OS-assigned); clients clamps to at least 1.
        let a = parse("--port 0 --clients 0");
        assert_eq!((a.port, a.clients), (0, 1));
    }

    #[test]
    fn env_seeded_port_and_clients_yield_to_explicit_flags() {
        // Same one-path precedence as KGDUAL_THREADS: `parse()` seeds
        // the base from KGDUAL_PORT/KGDUAL_CLIENTS, then flags win.
        let base = BenchArgs {
            port: 9100,
            clients: 16,
            ..Default::default()
        };
        let kept = BenchArgs::parse_into(base.clone(), std::iter::empty()).unwrap();
        assert_eq!((kept.port, kept.clients), (9100, 16));
        let overridden = BenchArgs::parse_into(
            base,
            ["--port", "7000", "--clients", "2"].map(str::to_owned),
        )
        .unwrap();
        assert_eq!((overridden.port, overridden.clients), (7000, 2));
    }

    #[test]
    fn env_count_defaults_yield_to_explicit_flags() {
        // `parse()` seeds the base from KGDUAL_SHARDS/KGDUAL_THREADS and
        // then applies flags on top; an env-seeded base must survive when
        // the flag is absent and lose when it is given.
        let base = BenchArgs {
            threads: 8,
            shards: 4,
            ..Default::default()
        };
        let kept = BenchArgs::parse_into(base.clone(), std::iter::empty()).unwrap();
        assert_eq!((kept.threads, kept.shards), (8, 4));
        let overridden =
            BenchArgs::parse_into(base, ["--threads", "2", "--shards", "1"].map(str::to_owned))
                .unwrap();
        assert_eq!((overridden.threads, overridden.shards), (2, 1));
    }
}
