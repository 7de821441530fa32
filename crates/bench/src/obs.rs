//! `--obs-out` support for the harness binaries: enable kgdual-obs
//! recording for a run and dump the final metrics snapshot as JSON.
//!
//! Every bench binary calls [`init_obs`] right after parsing its args and
//! [`write_obs_profile`] just before exiting. Without `--obs-out` both
//! are no-ops (recording stays at whatever `KGDUAL_OBS` selected), so the
//! deterministic baseline runs are untouched.

use crate::args::BenchArgs;

/// Turn recording on when the run asked for a profile (`--obs-out`).
/// Leaves the `KGDUAL_OBS`-selected state alone otherwise.
pub fn init_obs(args: &BenchArgs) {
    if args.obs_out.is_some() {
        kgdual_obs::global().set_enabled(true);
    }
}

/// Write the global metrics snapshot (JSON form) to the `--obs-out`
/// path, if one was given. Returns whether a profile was written; I/O
/// failures warn and return `false` rather than failing the benchmark
/// run itself.
pub fn write_obs_profile(args: &BenchArgs) -> bool {
    let Some(path) = args.obs_out.as_deref() else {
        return false;
    };
    let json = kgdual_obs::global().metrics().snapshot().to_json();
    match std::fs::write(path, json) {
        Ok(()) => {
            eprintln!("wrote obs profile to {path}");
            true
        }
        Err(e) => {
            eprintln!("failed to write obs profile to {path}: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_obs_out_is_a_noop() {
        let args = BenchArgs::default();
        init_obs(&args);
        assert!(!write_obs_profile(&args));
    }

    #[test]
    fn obs_out_enables_recording_and_writes_json() {
        let path = std::env::temp_dir().join(format!("kgdual_obs_{}.json", std::process::id()));
        let args = BenchArgs {
            obs_out: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        init_obs(&args);
        assert!(kgdual_obs::enabled());
        kgdual_obs::global()
            .metrics()
            .histogram("bench_module_test_ns")
            .record(7);
        assert!(write_obs_profile(&args));
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("\"bench_module_test_ns\""));
        std::fs::remove_file(&path).ok();
        kgdual_obs::global().set_enabled(kgdual_obs::env_enabled());
    }
}
