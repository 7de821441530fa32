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
    /// `--threads N` (the `KGDUAL_THREADS` env var sets the default).
    /// 1 (the default) runs queries
    /// one at a time; >1 runs the paper report's batches, the EXPLAIN
    /// profile and the served store on that many workers. Every harness
    /// binary resolves its worker count through this one field — the
    /// scheduler pool size is never hard-coded at a call site.
    pub threads: usize,
    /// Serving port for `serve_store`: `--port N` (the `KGDUAL_PORT` env
    /// var sets the default, same one-path precedence as
    /// `KGDUAL_THREADS`). 0 (the default) asks the OS for a free port,
    /// which the server reports on startup.
    pub port: u16,
    /// `--obs-out <path>`: enable kgdual-obs recording for the run and
    /// write the final metrics snapshot (JSON form) to `path` on exit
    /// (see [`crate::obs::write_obs_profile`]). `None` leaves recording
    /// at whatever `KGDUAL_OBS` selected.
    pub obs_out: Option<String>,
    /// `--trace-out <path>`: where `serve_store` flushes the trace ring
    /// buffers during its graceful drain.
    pub trace_out: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 0.01,
            seed: 42,
            reps: 2,
            threads: 1,
            port: 0,
            obs_out: None,
            trace_out: None,
        }
    }
}

impl BenchArgs {
    /// Parse `--key value` pairs from `std::env::args`. The worker-thread
    /// count defaults from `KGDUAL_THREADS` (so a script can select it
    /// without touching every invocation); an explicit `--threads` flag
    /// wins. An unknown flag, a positional argument or a malformed value
    /// exits with status 2, naming it.
    pub fn parse() -> Self {
        let mut base = Self::default();
        // Thread counts need at least 1; port 0 means "any free port".
        base.threads = env("KGDUAL_THREADS")
            .filter(|&n| n >= 1)
            .unwrap_or(base.threads);
        base.port = env("KGDUAL_PORT").unwrap_or(base.port);
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
                return Err(format!("unexpected argument `{flag}`"));
            };
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} is missing a value"))?;
            match key {
                "scale" => out.scale = value_of(key, &value)?,
                "seed" => out.seed = value_of(key, &value)?,
                "reps" => out.reps = value_of::<usize>(key, &value)?.max(1),
                "threads" => out.threads = value_of::<usize>(key, &value)?.max(1),
                "port" => out.port = value_of(key, &value)?,
                "obs-out" => out.obs_out = Some(value),
                "trace-out" => out.trace_out = Some(value),
                _ => return Err(format!("unknown flag --{key}")),
            }
        }
        Ok(out)
    }

    /// The standard one-line run description every harness binary prints
    /// in its header: scale and (when parallel) the worker-thread count.
    pub fn describe(&self) -> String {
        let mut out = format!("scale {}", self.scale);
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
        let e = err("--threads").unwrap_err();
        assert!(e.contains("--threads") && e.contains("missing"), "{e}");
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
    fn parses_trace_out() {
        assert_eq!(parse("").trace_out, None);
        let a = parse("--trace-out /tmp/spans.jsonl");
        assert_eq!(a.trace_out.as_deref(), Some("/tmp/spans.jsonl"));
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        let err = |s: &str| BenchArgs::parse_from(s.split_whitespace().map(str::to_owned));
        for (args, flag) in [
            ("--shards 4", "--shards"),
            ("--seed 7 --thread 4", "--thread"),
            ("--restart true", "--restart"),
        ] {
            let e = err(args).unwrap_err();
            assert!(e.contains("unknown") && e.contains(flag), "{args}: {e}");
        }
        // A mistyped subcommand (`check`) must not fall through to a run.
        let e = err("chek --scale 0.002").unwrap_err();
        assert!(e.contains("`chek`"), "{e}");
    }

    #[test]
    fn describe_names_the_run_configuration() {
        let d = parse("--scale 0.002").describe();
        assert_eq!(d, "scale 0.002");
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
    fn port_flag_parses_with_sane_bounds() {
        assert_eq!(parse("").port, 0);
        assert_eq!(parse("--port 7878").port, 7878);
        // Port 0 is legal (OS-assigned).
        assert_eq!(parse("--port 0").port, 0);
    }

    #[test]
    fn env_seeded_port_yields_to_explicit_flag() {
        // Same one-path precedence as KGDUAL_THREADS: `parse()` seeds
        // the base from KGDUAL_PORT, then the flag wins.
        let base = BenchArgs {
            port: 9100,
            ..Default::default()
        };
        let kept = BenchArgs::parse_into(base.clone(), std::iter::empty()).unwrap();
        assert_eq!(kept.port, 9100);
        let overridden =
            BenchArgs::parse_into(base, ["--port", "7000"].map(str::to_owned)).unwrap();
        assert_eq!(overridden.port, 7000);
    }

    #[test]
    fn env_count_defaults_yield_to_explicit_flags() {
        // `parse()` seeds the base from KGDUAL_THREADS and then applies
        // flags on top; an env-seeded base must survive when the flag is
        // absent and lose when it is given.
        let base = BenchArgs {
            threads: 8,
            ..Default::default()
        };
        let kept = BenchArgs::parse_into(base.clone(), std::iter::empty()).unwrap();
        assert_eq!(kept.threads, 8);
        let overridden =
            BenchArgs::parse_into(base, ["--threads", "2"].map(str::to_owned)).unwrap();
        assert_eq!(overridden.threads, 2);
    }
}
