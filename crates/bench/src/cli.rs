//! Strict CLI parsing shared by every experiment binary.
//!
//! Historically the bins panicked (exit 101) on a bad flag and the
//! hand-rolled parsers silently ignored unknown ones. [`Cli::parse`]
//! fixes both: unknown or malformed arguments print a usage message on
//! stderr and exit with status **2** (the conventional usage-error
//! code), and `--help` prints the same message on stdout and exits 0.

use crate::scale::Scale;
use std::path::PathBuf;

/// Parsed command line of an experiment binary: the common [`Scale`]
/// options plus the observability flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// Scale/seed/json options shared by every experiment.
    pub scale: Scale,
    /// `--metrics <out.jsonl>`: stream sweep-progress trace events
    /// (`SweepCell` / `SweepSummary`) to this file. Never touches
    /// stdout.
    pub metrics: Option<PathBuf>,
    /// `--workers <n>`: run the sweep grid on the distributed dispatch
    /// plane with `n` local `ftd` worker processes. Only bins that opt
    /// in via [`Cli::parse_dispatch`] accept it.
    pub workers: Option<usize>,
    /// `--chaos <seed>`: arm the dispatch chaos harness (seeded worker
    /// kills, stalls, garbage-on-the-wire). Requires `--workers`.
    pub chaos: Option<u64>,
}

/// The usage text for `bin`.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--full] [--smoke] [--seed <u64>] [--json] [--metrics <out.jsonl>]\n\
         \n\
         options:\n\
         \x20 --full                 run at the paper's full Table 2 sizes\n\
         \x20 --smoke                shrink to a seconds-long CI smoke run\n\
         \x20 --seed <u64>           RNG seed for workloads and random topologies\n\
         \x20 --json                 also emit results as JSON on stdout\n\
         \x20 --metrics <out.jsonl>  write sweep trace events (JSONL) to a file\n\
         \x20 --help                 print this message"
    )
}

/// The usage text for a dispatch-capable `bin`.
fn usage_dispatch(bin: &str) -> String {
    format!(
        "{}\n\
         \x20 --workers <n>          distribute the sweep over n ftd worker processes\n\
         \x20 --chaos <seed>         arm the seeded chaos harness (needs --workers)",
        usage(bin)
    )
}

impl Cli {
    /// Parses the process arguments; on a usage error prints the
    /// message and the usage text to stderr and exits with status 2.
    /// `--help` prints usage to stdout and exits 0.
    pub fn parse(bin: &str) -> Self {
        Self::parse_exiting(bin, false)
    }

    /// [`parse`](Self::parse) for bins that run on the distributed
    /// dispatch plane: additionally accepts `--workers <n>` and
    /// `--chaos <seed>`.
    pub fn parse_dispatch(bin: &str) -> Self {
        Self::parse_exiting(bin, true)
    }

    fn parse_exiting(bin: &str, dispatch: bool) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let usage_text = if dispatch {
            usage_dispatch(bin)
        } else {
            usage(bin)
        };
        if args.iter().any(|a| a == "--help" || a == "-h") {
            // ftlint::allow(FTL-R002): --help output is the shared bin-facing CLI surface; prints once, then exits 0
            println!("{usage_text}");
            std::process::exit(0);
        }
        let parsed = if dispatch {
            Self::parse_from_dispatch(&args)
        } else {
            Self::parse_from(&args)
        };
        match parsed {
            Ok(cli) => cli,
            Err(e) => {
                // ftlint::allow(FTL-R002): usage errors are the shared bin-facing CLI surface; prints to stderr, then exits 2
                eprintln!("{bin}: {e}\n{usage_text}");
                std::process::exit(2);
            }
        }
    }

    /// Pure parser over an argument slice (no process exit), for tests
    /// and for [`parse`](Self::parse). Rejects the dispatch-only flags
    /// so non-dispatch bins stay strict.
    fn parse_from(args: &[String]) -> Result<Self, String> {
        Self::parse_impl(args, false)
    }

    /// [`parse_from`](Self::parse_from) accepting `--workers`/`--chaos`.
    fn parse_from_dispatch(args: &[String]) -> Result<Self, String> {
        Self::parse_impl(args, true)
    }

    fn parse_impl(args: &[String], dispatch: bool) -> Result<Self, String> {
        let mut cli = Self::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => cli.scale.full = true,
                "--smoke" => cli.scale.smoke = true,
                "--json" => cli.scale.json = true,
                "--seed" => {
                    i += 1;
                    let v = args.get(i).ok_or("--seed needs a value")?;
                    cli.scale.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs a u64, got {v:?}"))?;
                }
                "--metrics" => {
                    i += 1;
                    let v = args.get(i).ok_or("--metrics needs a path")?;
                    cli.metrics = Some(PathBuf::from(v));
                }
                "--workers" if dispatch => {
                    i += 1;
                    let v = args.get(i).ok_or("--workers needs a count")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--workers needs a count, got {v:?}"))?;
                    if n == 0 {
                        return Err("--workers must be >= 1".to_string());
                    }
                    cli.workers = Some(n);
                }
                "--chaos" if dispatch => {
                    i += 1;
                    let v = args.get(i).ok_or("--chaos needs a seed")?;
                    cli.chaos = Some(
                        v.parse()
                            .map_err(|_| format!("--chaos needs a u64 seed, got {v:?}"))?,
                    );
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
            i += 1;
        }
        if cli.chaos.is_some() && cli.workers.is_none() {
            return Err("--chaos requires --workers".to_string());
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_all_known_flags() {
        let cli = Cli::parse_from(&strs(&[
            "--full",
            "--smoke",
            "--seed",
            "42",
            "--json",
            "--metrics",
            "/tmp/out.jsonl",
        ]))
        .expect("valid args");
        assert!(cli.scale.full && cli.scale.smoke && cli.scale.json);
        assert_eq!(cli.scale.seed, 42);
        assert_eq!(
            cli.metrics.as_deref(),
            Some(std::path::Path::new("/tmp/out.jsonl"))
        );
    }

    #[test]
    fn defaults_match_scale_defaults() {
        let cli = Cli::parse_from(&[]).expect("empty is valid");
        assert_eq!(cli.scale, Scale::default());
        assert_eq!(cli.metrics, None);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(Cli::parse_from(&strs(&["--frull"])).is_err());
        assert!(Cli::parse_from(&strs(&["--seed"])).is_err());
        assert!(Cli::parse_from(&strs(&["--seed", "banana"])).is_err());
        assert!(Cli::parse_from(&strs(&["--metrics"])).is_err());
        assert!(Cli::parse_from(&strs(&["extra"])).is_err());
    }

    #[test]
    fn dispatch_flags_only_parse_in_dispatch_mode() {
        // Non-dispatch bins stay strict.
        assert!(Cli::parse_from(&strs(&["--workers", "3"])).is_err());
        assert!(Cli::parse_from(&strs(&["--chaos", "7"])).is_err());

        let cli = Cli::parse_from_dispatch(&strs(&["--smoke", "--workers", "3", "--chaos", "7"]))
            .expect("valid dispatch args");
        assert_eq!(cli.workers, Some(3));
        assert_eq!(cli.chaos, Some(7));
        assert!(cli.scale.smoke);

        // Validation: counts and dependencies.
        assert!(Cli::parse_from_dispatch(&strs(&["--workers", "0"])).is_err());
        assert!(Cli::parse_from_dispatch(&strs(&["--workers"])).is_err());
        assert!(Cli::parse_from_dispatch(&strs(&["--workers", "x"])).is_err());
        assert!(Cli::parse_from_dispatch(&strs(&["--chaos", "7"])).is_err());
        assert!(Cli::parse_from_dispatch(&strs(&["--chaos"])).is_err());
    }

    #[test]
    fn dispatch_usage_names_the_extra_flags() {
        let u = usage_dispatch("faultsweep");
        assert!(u.contains("--workers"));
        assert!(u.contains("--chaos"));
        // And still everything the base usage names.
        for flag in ["--full", "--smoke", "--seed", "--json", "--metrics"] {
            assert!(u.contains(flag), "usage must mention {flag}");
        }
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage("fig6");
        for flag in [
            "--full",
            "--smoke",
            "--seed",
            "--json",
            "--metrics",
            "--help",
        ] {
            assert!(u.contains(flag), "usage must mention {flag}");
        }
    }
}
